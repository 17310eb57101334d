type t = Empty | Range of { first : int; last : int; count : int; rsum : int }

(* Registered under the sos.fast.* prefix because the step-skipping solver
   is the only hot caller; the traced reference (Listing1) shares them.
   Disabled-by-default: each increment is a flag load + branch
   (doc/OBSERVABILITY.md). *)
let c_slides = Obs.Metrics.counter "sos.fast.window_slides"
let c_refills = Obs.Metrics.counter "sos.fast.window_refills"

let empty = Empty
let is_empty = function Empty -> true | Range _ -> false
let count = function Empty -> 0 | Range r -> r.count
let rsum = function Empty -> 0 | Range r -> r.rsum
let last = function Empty -> None | Range r -> Some r.last
let first_idx = function Empty -> -1 | Range r -> r.first
let last_idx = function Empty -> -1 | Range r -> r.last

let req = State.req

let members st w =
  match w with
  | Empty -> []
  | Range r ->
      let rec walk acc i =
        if i = r.last then List.rev (i :: acc)
        else begin
          match State.next_remaining st i with
          | Some j -> walk (i :: acc) j
          | None -> invalid_arg "Window.members: broken range"
        end
      in
      walk [] r.first

let of_members st = function
  | [] -> Empty
  | first :: _ as ms ->
      let rec check = function
        | [] -> assert false
        | [ x ] -> x
        | x :: (y :: _ as rest) ->
            if State.next_remaining st x <> Some y then
              invalid_arg "Window.of_members: not consecutive remaining jobs";
            check rest
      in
      let last = check ms in
      let rsum = List.fold_left (fun acc i -> acc + req st i) 0 ms in
      Range { first; last; count = List.length ms; rsum }

let left_neighbor st = function
  | Empty -> None
  | Range r -> State.prev_remaining st r.first

let right_neighbor st = function
  | Empty -> State.head st
  | Range r -> State.next_remaining st r.last

let add_left st w =
  match left_neighbor st w with
  | None -> invalid_arg "Window.add_left: no left neighbor"
  | Some j -> begin
      match w with
      | Empty -> assert false
      | Range r ->
          Range { r with first = j; count = r.count + 1; rsum = r.rsum + req st j }
    end

let add_right st w =
  match right_neighbor st w with
  | None -> invalid_arg "Window.add_right: no right neighbor"
  | Some j -> begin
      match w with
      | Empty -> Range { first = j; last = j; count = 1; rsum = req st j }
      | Range r ->
          Range { r with last = j; count = r.count + 1; rsum = r.rsum + req st j }
    end

let drop_left st w =
  match w with
  | Empty -> invalid_arg "Window.drop_left: empty window"
  | Range r ->
      if r.count = 1 then Empty
      else begin
        match State.next_remaining st r.first with
        | None -> invalid_arg "Window.drop_left: broken range"
        | Some j ->
            Range { r with first = j; count = r.count - 1; rsum = r.rsum - req st r.first }
      end

(* The grow/move loops below are written as top-level recursive functions
   on the sentinel-index State API: in the common no-change case (the
   event-driven solver's per-step stability probe) they allocate nothing —
   no closures, no [Some] per linked-list hop, no intermediate windows. *)

let rec grow_left_go st size budget w =
  match w with
  | Empty -> w
  | Range r ->
      if r.count < size && r.rsum < budget then begin
        let j = State.prev_idx st r.first in
        if j >= 0 then begin
          Obs.Metrics.incr c_refills;
          grow_left_go st size budget
            (Range { r with first = j; count = r.count + 1; rsum = r.rsum + req st j })
        end
        else w
      end
      else w

let grow_left st w ~size ~budget = grow_left_go st size budget w

let rec grow_left_fixed_go st size budget w =
  match w with
  | Empty -> w
  | Range r ->
      if r.count < size then begin
        let j = State.prev_idx st r.first in
        (* property (b) must survive the addition:
           r(W ∪ {j} ∖ {max W}) < budget *)
        if j >= 0 && r.rsum + req st j - req st r.last < budget then begin
          Obs.Metrics.incr c_refills;
          grow_left_fixed_go st size budget
            (Range { r with first = j; count = r.count + 1; rsum = r.rsum + req st j })
        end
        else w
      end
      else w

let grow_left_fixed st w ~size ~budget = grow_left_fixed_go st size budget w

let rec grow_right_go st size budget w =
  match w with
  | Empty ->
      let h = State.head_idx st in
      if 0 < budget && h >= 0 && 0 < size then begin
        Obs.Metrics.incr c_refills;
        grow_right_go st size budget
          (Range { first = h; last = h; count = 1; rsum = req st h })
      end
      else w
  | Range r ->
      if r.rsum < budget && r.count < size then begin
        let j = State.next_idx st r.last in
        if j >= 0 then begin
          Obs.Metrics.incr c_refills;
          grow_right_go st size budget
            (Range { r with last = j; count = r.count + 1; rsum = r.rsum + req st j })
        end
        else w
      end
      else w

let grow_right st w ~size ~budget = grow_right_go st size budget w

let rec move_right_go st budget w =
  match w with
  | Empty -> w
  | Range r ->
      if r.rsum < budget && not (State.started st r.first) then begin
        let j = State.next_idx st r.last in
        if j >= 0 then begin
          Obs.Metrics.incr c_slides;
          (* add min R, drop min W — fused *)
          let w' =
            if r.count = 1 then Range { first = j; last = j; count = 1; rsum = req st j }
            else
              Range
                {
                  first = State.next_idx st r.first;
                  last = j;
                  count = r.count;
                  rsum = r.rsum - req st r.first + req st j;
                }
          in
          move_right_go st budget w'
        end
        else w
      end
      else w

let move_right st w ~budget = move_right_go st budget w

let prune st w =
  match w with
  | Empty -> Empty
  | Range r ->
      (* Single allocation-free walk of the range, tracking the surviving
         bounds, count and requirement sum. *)
      let first = ref (-1) and last = ref (-1) in
      let count = ref 0 and rsum = ref 0 in
      let rec go i =
        if not (State.finished st i) then begin
          if !first < 0 then first := i;
          last := i;
          incr count;
          rsum := !rsum + req st i
        end;
        if i <> r.last then begin
          match State.next_remaining st i with
          | Some j -> go j
          | None -> invalid_arg "Window.prune: broken range"
        end
      in
      go r.first;
      if !count = 0 then Empty
      else Range { first = !first; last = !last; count = !count; rsum = !rsum }

(* Fold the finished jobs lying inside [lo..hi] out of (count, rsum) —
   two sentinel-int accumulators threaded through a top-level recursion,
   no refs, no closures. *)
let rec repair_count st lo hi count fs =
  match fs with
  | [] -> count
  | f :: tl -> repair_count st lo hi (if lo <= f && f <= hi then count - 1 else count) tl

let rec repair_rsum st lo hi rsum fs =
  match fs with
  | [] -> rsum
  | f :: tl ->
      repair_rsum st lo hi (if lo <= f && f <= hi then rsum - req st f else rsum) tl

let rec repair_fwd st i =
  if not (State.finished st i) then i
  else begin
    let j = State.next_idx st i in
    if j < 0 then invalid_arg "Window.repair: broken range" else repair_fwd st j
  end

let rec repair_bwd st i =
  if not (State.finished st i) then i
  else begin
    let j = State.prev_idx st i in
    if j < 0 then invalid_arg "Window.repair: broken range" else repair_bwd st j
  end

let repair st w ~finished =
  match w with
  | Empty -> Empty
  | Range r ->
      (* O(|finished|): subtract the just-finished members from the range
         totals, then advance the bounds past finished members — each hop
         passes one finished job, so the walks cost O(|finished|) combined,
         never O(|W|). *)
      let count = repair_count st r.first r.last r.count finished in
      if count = 0 then Empty
      else
        Range
          {
            first = repair_fwd st r.first;
            last = repair_bwd st r.last;
            count;
            rsum = repair_rsum st r.first r.last r.rsum finished;
          }

let stable ?(variant = `Fixed) st w ~size ~budget =
  match w with
  | Empty -> false
  | Range r ->
      (* [compute w = w] ⟺ all three loops stall immediately:
         - grow-left: count = size, no left neighbour, or the variant's
           budget condition blocks the addition;
         - grow-right: count = size, no right neighbour, or rsum ≥ budget;
         - move-right: rsum ≥ budget, no right neighbour, or min W started.
         Each test is O(1) reads of step-invariant data (links, count,
         rsum, requirements) plus started(min W), so the event-driven
         solver can certify the fixed point without replaying the loops. *)
      let left_stall =
        r.count >= size
        ||
        let p = State.prev_idx st r.first in
        p < 0
        ||
        (match variant with
        | `Fixed -> r.rsum + req st p - req st r.last >= budget
        | `Literal -> r.rsum >= budget)
      in
      left_stall
      && (r.rsum >= budget
         || State.next_idx st r.last < 0
         || (r.count >= size && State.started st r.first))

let compute ?(variant = `Fixed) st w ~size ~budget =
  let w =
    match variant with
    | `Fixed -> grow_left_fixed st w ~size ~budget
    | `Literal -> grow_left st w ~size ~budget
  in
  let w = grow_right st w ~size ~budget in
  move_right st w ~budget

let is_window st w ~budget =
  match w with
  | Empty ->
      (* Property (d): no started job may be outside the window. *)
      List.for_all (fun i -> not (State.started st i)) (State.remaining_jobs st)
  | Range r ->
      let ms = members st w in
      (* (a) holds by representation; check the range is well formed. *)
      let well_formed = List.length ms = r.count in
      (* (b) r(W \ {max W}) < budget *)
      let b = r.rsum - req st r.last < budget in
      (* (c) at most one fractured member *)
      let c = List.length (List.filter (State.fractured st) ms) <= 1 in
      (* (d) every job outside the window is unstarted; members are
         consecutive, so the index range is the member set *)
      let d =
        List.for_all
          (fun i -> (r.first <= i && i <= r.last) || not (State.started st i))
          (State.remaining_jobs st)
      in
      well_formed && b && c && d

let is_k_maximal st w ~k ~budget =
  is_window st w ~budget
  && count w <= k
  && (count w >= k || left_neighbor st w = None)
  && (rsum w >= budget || right_neighbor st w = None)

let is_effectively_maximal st w ~k ~budget =
  is_window st w ~budget
  && count w <= k
  && (count w >= k || left_neighbor st w = None || rsum w >= budget)
  && (rsum w >= budget || right_neighbor st w = None)
