type alloc = { job : int; assigned : int; consumed : int }
type step = { allocs : alloc list; repeat : int }
type t = { inst : Instance.t; steps : step list; makespan : int }

let make inst steps =
  let makespan =
    List.fold_left
      (fun acc st ->
        if st.repeat <= 0 then invalid_arg "Schedule.make: non-positive repeat";
        acc + st.repeat)
      0 steps
  in
  { inst; steps; makespan }

let of_blocks inst blocks ~len =
  if len < 0 || len > Array.length blocks then
    invalid_arg "Schedule.of_blocks: len out of range";
  (* One backward pass: builds the step list in time order and sums the
     makespan without an intermediate reversed list. *)
  let makespan = ref 0 in
  let steps = ref [] in
  for i = len - 1 downto 0 do
    let st = blocks.(i) in
    if st.repeat <= 0 then invalid_arg "Schedule.of_blocks: non-positive repeat";
    makespan := !makespan + st.repeat;
    steps := st :: !steps
  done;
  { inst; steps = !steps; makespan = !makespan }

(* ----------------------------------------------------------- validation *)

type violation = { at_step : int; reason : string }

let violation at_step fmt = Format.kasprintf (fun reason -> { at_step; reason }) fmt

exception Bad of violation

(* ------------------------------------------------------------- columns *)

module Columns = struct
  type schedule = t

  (* Block b's allocations are [first.(b), first.(b+1)): [first] keeps one
     entry past the last block, the start of the block being filled. *)
  type t = {
    mutable inst : Instance.t;
    mutable blocks : int;
    mutable repeat : int array;
    mutable first : int array;
    mutable allocs : int;
    mutable job : int array;
    mutable assigned : int array;
    mutable consumed : int array;
    mutable makespan : int;
  }

  let with_capacity inst ~blocks ~allocs =
    {
      inst;
      blocks = 0;
      repeat = Array.make blocks 0;
      first = Array.make (blocks + 1) 0;
      allocs = 0;
      job = Array.make allocs 0;
      assigned = Array.make allocs 0;
      consumed = Array.make allocs 0;
      makespan = 0;
    }

  (* Sized by n, never by m: the Fast solver emits up to about 2 blocks
     and 8 allocations per job, each block of at most m allocations, and
     m may be huge. *)
  let create inst =
    let n = Instance.n inst in
    with_capacity inst ~blocks:(2 * n) ~allocs:(8 * n)

  (* The columns are kept, not reallocated, unless they are shorter than
     [create]'s capacities for this n. The three allocation columns get one
     length, since [append] sizes them by [job]. [first.(0)] is 0 for good:
     nothing writes it. *)
  let reset c inst =
    let n = Instance.n inst in
    let fit a len = if Array.length a >= len then a else Array.make len 0 in
    let allocs = Int.max (8 * n) (Array.length c.job) in
    c.job <- fit c.job allocs;
    c.assigned <- fit c.assigned allocs;
    c.consumed <- fit c.consumed allocs;
    let blocks = Int.max (2 * n) (Array.length c.repeat) in
    c.repeat <- fit c.repeat blocks;
    c.first <- fit c.first (blocks + 1);
    c.inst <- inst;
    c.blocks <- 0;
    c.allocs <- 0;
    c.makespan <- 0

  let words c =
    Array.length c.repeat + Array.length c.first + Array.length c.job
    + Array.length c.assigned + Array.length c.consumed

  let grow a used =
    let b = Array.make ((2 * Array.length a) + 8) 0 in
    Array.blit a 0 b 0 used;
    b

  let append c ~job ~assigned ~consumed ~len ~repeat =
    let base = c.allocs in
    while base + len > Array.length c.job do
      c.job <- grow c.job base;
      c.assigned <- grow c.assigned base;
      c.consumed <- grow c.consumed base
    done;
    let b = c.blocks in
    if b = Array.length c.repeat then begin
      c.repeat <- grow c.repeat b;
      c.first <- grow c.first (b + 1)
    end;
    let cj = c.job and ca = c.assigned and cc = c.consumed in
    for i = 0 to len - 1 do
      cj.(base + i) <- job.(i);
      ca.(base + i) <- assigned.(i);
      cc.(base + i) <- consumed.(i)
    done;
    c.allocs <- base + len;
    c.repeat.(b) <- repeat;
    c.first.(b + 1) <- base + len;
    c.blocks <- b + 1;
    c.makespan <- c.makespan + repeat

  (* [append] for a block built as a list, as the reference algorithms
     build theirs; [append] itself stays the solver's copy loop. *)
  let add_block c ~repeat allocs =
    let base = c.allocs in
    let len = List.length allocs in
    while base + len > Array.length c.job do
      c.job <- grow c.job base;
      c.assigned <- grow c.assigned base;
      c.consumed <- grow c.consumed base
    done;
    let b = c.blocks in
    if b = Array.length c.repeat then begin
      c.repeat <- grow c.repeat b;
      c.first <- grow c.first (b + 1)
    end;
    List.iteri
      (fun i (a : alloc) ->
        c.job.(base + i) <- a.job;
        c.assigned.(base + i) <- a.assigned;
        c.consumed.(base + i) <- a.consumed)
      allocs;
    c.allocs <- base + len;
    c.repeat.(b) <- repeat;
    c.first.(b + 1) <- base + len;
    c.blocks <- b + 1;
    c.makespan <- c.makespan + repeat

  (* The list's [makespan] field is copied, not recomputed, so [validate]
     sees the makespan the list claims. One counting pass sizes the
     columns exactly. *)
  let of_schedule (s : schedule) =
    let rec count blocks allocs = function
      | [] -> (blocks, allocs)
      | (st : step) :: rest -> count (blocks + 1) (allocs + List.length st.allocs) rest
    in
    let blocks, allocs = count 0 0 s.steps in
    let c = with_capacity s.inst ~blocks ~allocs in
    List.iter (fun (st : step) -> add_block c ~repeat:st.repeat st.allocs) s.steps;
    c.makespan <- s.makespan;
    c

  (* One backward pass. A job handed the same amounts in block after block
     gets one shared record, as the solver's list output always had. *)
  let to_schedule c : schedule =
    let n = Instance.n c.inst in
    let last = Array.make n ({ job = -1; assigned = 0; consumed = 0 } : alloc) in
    let record j assigned consumed =
      if j < 0 || j >= n then ({ job = j; assigned; consumed } : alloc)
      else
        let a = last.(j) in
        if a.job = j && a.assigned = assigned && a.consumed = consumed then a
        else begin
          let a : alloc = { job = j; assigned; consumed } in
          last.(j) <- a;
          a
        end
    in
    let cj = c.job and ca = c.assigned and cc = c.consumed and first = c.first in
    let steps = ref [] in
    for b = c.blocks - 1 downto 0 do
      let allocs = ref [] in
      for i = first.(b + 1) - 1 downto first.(b) do
        allocs := record cj.(i) ca.(i) cc.(i) :: !allocs
      done;
      steps := ({ allocs = !allocs; repeat = c.repeat.(b) } : step) :: !steps
    done;
    ({ inst = c.inst; steps = !steps; makespan = c.makespan } : schedule)

  (* The validator's per-job arrays, at least n entries each; [validate]
     refills the first n. Nothing here is shared with the solver. *)
  type validator = {
    mutable remaining : int array;
    mutable first_seen : int array;
    mutable last_seen : int array;
    mutable steps_seen : int array;
    mutable stamp : int array;
  }

  let validator () =
    { remaining = [||]; first_seen = [||]; last_seen = [||]; steps_seen = [||]; stamp = [||] }

  let validator_words v = 5 * Array.length v.remaining

  let validate ?scratch ?(preemption_ok = false) c =
    let { Instance.m; scale; req; _ } = c.inst in
    let n = Array.length req in
    let v = match scratch with Some v -> v | None -> validator () in
    if Array.length v.remaining < n then begin
      v.remaining <- Array.make n 0;
      v.first_seen <- Array.make n 0;
      v.last_seen <- Array.make n 0;
      v.steps_seen <- Array.make n 0;
      v.stamp <- Array.make n 0
    end;
    let { remaining; first_seen; last_seen; steps_seen; stamp } = v in
    for j = 0 to n - 1 do
      remaining.(j) <- Instance.s c.inst j;
      first_seen.(j) <- -1;
      last_seen.(j) <- -1;
      steps_seen.(j) <- 0;
      (* index of the last block each job was met in: meeting it again in
         the same block is a double allocation *)
      stamp.(j) <- -1
    done;
    let cj = c.job and ca = c.assigned and cc = c.consumed and first = c.first in
    let block b t0 =
      let repeat = c.repeat.(b) in
      if repeat < 1 then raise (Bad (violation t0 "non-positive repeat %d" repeat));
      let total = ref 0 in
      for i = first.(b) to first.(b + 1) - 1 do
        let j = cj.(i) and assigned = ca.(i) and consumed = cc.(i) in
        if j < 0 || j >= n then raise (Bad (violation t0 "allocation for unknown job %d" j));
        if stamp.(j) = b then
          raise (Bad (violation t0 "job %d allocated twice in one step" j));
        stamp.(j) <- b;
        if assigned < 0 then raise (Bad (violation t0 "job %d: negative assignment" j));
        if consumed < 0 then raise (Bad (violation t0 "job %d: negative consumption" j));
        let r = req.(j) in
        let cap = Int.min assigned r in
        if consumed > cap then
          raise
            (Bad
               (violation t0 "job %d: consumed %d > min(assigned=%d, r=%d)" j consumed
                  assigned r));
        let used = repeat * consumed in
        if used > remaining.(j) then
          raise
            (Bad
               (violation t0 "job %d: over-consumed (%d > remaining %d)" j used remaining.(j)));
        remaining.(j) <- remaining.(j) - used;
        if consumed < cap && (repeat > 1 || remaining.(j) <> 0) then
          raise
            (Bad
               (violation t0 "job %d: under-consumed (%d < %d) outside its finishing step" j
                  consumed cap));
        if first_seen.(j) < 0 then first_seen.(j) <- t0;
        last_seen.(j) <- t0 + repeat - 1;
        steps_seen.(j) <- steps_seen.(j) + repeat;
        total := !total + assigned
      done;
      if !total > scale then
        raise (Bad (violation t0 "resource overused: %d > scale %d" !total scale));
      let count = first.(b + 1) - first.(b) in
      if count > m then
        raise (Bad (violation t0 "too many jobs in one step: %d > m=%d" count m));
      t0 + repeat
    in
    try
      let t0 = ref 0 in
      for b = 0 to c.blocks - 1 do
        t0 := block b !t0
      done;
      if !t0 <> c.makespan then
        raise
          (Bad (violation (-1) "makespan %d differs from the blocks' total %d" c.makespan !t0));
      for j = 0 to n - 1 do
        if remaining.(j) <> 0 then
          raise (Bad (violation (-1) "job %d not finished: %d units left" j remaining.(j)));
        if (not preemption_ok) && steps_seen.(j) <> last_seen.(j) - first_seen.(j) + 1
        then
          raise
            (Bad
               (violation (-1) "job %d preempted: present %d of steps [%d..%d]" j
                  steps_seen.(j) first_seen.(j) last_seen.(j)))
      done;
      Ok ()
    with Bad v -> Error v
end

let validate ?preemption_ok t = Columns.validate ?preemption_ok (Columns.of_schedule t)

(* ------------------------------------------------------------ analytics *)

(* Everything below walks the column store once: O(|allocs|) work per
   run-length block, never per expanded step. [f b ~t0 ~repeat] sees block
   [b], whose first step is the expanded time index [t0]; its allocations
   are [first.(b) .. first.(b+1) − 1]. *)
let iter_blocks (c : Columns.t) f =
  let t0 = ref 0 in
  for b = 0 to c.blocks - 1 do
    let repeat = c.repeat.(b) in
    f b ~t0:!t0 ~repeat;
    t0 := !t0 + repeat
  done

let processor_assignment (c : Columns.t) =
  let inst = c.inst in
  let n = Instance.n inst in
  let proc_of = Array.make n (-1) in
  let free = Queue.create () in
  for p = inst.Instance.m - 1 downto 0 do
    Queue.push p free
  done;
  let remaining = Array.init n (Instance.s inst) in
  let result = ref [] in
  iter_blocks c (fun b ~t0 ~repeat ->
      (* Assign processors to jobs appearing for the first time. *)
      for i = c.first.(b) to c.first.(b + 1) - 1 do
        let j = c.job.(i) in
        if proc_of.(j) < 0 then begin
          if Queue.is_empty free then
            Robust.Failure.internal_error "processor_assignment: no free processor";
          let p = Queue.pop free in
          proc_of.(j) <- p;
          result := (j, p, t0) :: !result
        end
      done;
      (* Release processors of jobs that finish within this block. *)
      for i = c.first.(b) to c.first.(b + 1) - 1 do
        let j = c.job.(i) in
        remaining.(j) <- remaining.(j) - (repeat * c.consumed.(i));
        if remaining.(j) = 0 then Queue.push proc_of.(j) free
      done);
  List.rev !result

let job_spans (c : Columns.t) =
  let n = Instance.n c.inst in
  let first = Array.make n (-1) and last = Array.make n (-1) in
  iter_blocks c (fun b ~t0 ~repeat ->
      for i = c.first.(b) to c.first.(b + 1) - 1 do
        let j = c.job.(i) in
        if first.(j) < 0 then first.(j) <- t0;
        last.(j) <- t0 + repeat - 1
      done);
  List.filter_map
    (fun j -> if first.(j) >= 0 then Some (j, first.(j), last.(j)) else None)
    (List.init n Fun.id)

let completion_times (c : Columns.t) =
  let n = Instance.n c.inst in
  let remaining = Array.init n (Instance.s c.inst) in
  let completion = Array.make n 0 in
  iter_blocks c (fun b ~t0 ~repeat ->
      for i = c.first.(b) to c.first.(b + 1) - 1 do
        let j = c.job.(i) and consumed = c.consumed.(i) in
        if consumed > 0 && remaining.(j) > 0 then begin
          let before = remaining.(j) in
          remaining.(j) <- before - (repeat * consumed);
          if remaining.(j) <= 0 then
            (* finished within this block: at its ⌈before/consumed⌉-th
               repetition *)
            completion.(j) <- t0 + ((before - 1) / consumed) + 1
        end
      done);
  Array.iteri
    (fun j t ->
      if t = 0 && Instance.s c.inst j > 0 then
        invalid_arg "Schedule.completion_times: job never completes")
    completion;
  completion

let sum_completion_times c = Array.fold_left ( + ) 0 (completion_times c)

let mean_completion_time (c : Columns.t) =
  let n = Instance.n c.inst in
  if n = 0 then 0.0 else float_of_int (sum_completion_times c) /. float_of_int n

(* -------------------------------------------------- step-function views *)

type 'a profile = (int * int * 'a) array

let profile_make c f =
  (* One value per RLE block, adjacent equal values merged: |profile| ≤
     |blocks|, and often much smaller (long constant phases). *)
  let segs = ref [] in
  iter_blocks c (fun b ~t0 ~repeat ->
      let v = f b in
      match !segs with
      | (pt0, plen, pv) :: rest when pv = v && pt0 + plen = t0 ->
          segs := (pt0, plen + repeat, v) :: rest
      | _ -> segs := (t0, repeat, v) :: !segs);
  Array.of_list (List.rev !segs)

let profile_length (p : _ profile) =
  match Array.length p with
  | 0 -> 0
  | k ->
      let t0, len, _ = p.(k - 1) in
      t0 + len

let to_dense ?cap ~default (p : 'a profile) =
  let total = profile_length p in
  let n = match cap with Some c -> min (max c 0) total | None -> total in
  let out = Array.make n default in
  Array.iter
    (fun (t0, len, v) ->
      for i = t0 to min (t0 + len) n - 1 do
        out.(i) <- v
      done)
    p;
  out

(* Σ of one allocation column over block [b]. *)
let block_sum (c : Columns.t) column b =
  let sum = ref 0 in
  for i = c.first.(b) to c.first.(b + 1) - 1 do
    sum := !sum + column.(i)
  done;
  !sum

let utilization (c : Columns.t) =
  let scale = float_of_int c.inst.Instance.scale in
  profile_make c (fun b -> float_of_int (block_sum c c.consumed b) /. scale)

let assigned_utilization (c : Columns.t) =
  let scale = float_of_int c.inst.Instance.scale in
  profile_make c (fun b -> float_of_int (block_sum c c.assigned b) /. scale)

let jobs_per_step (c : Columns.t) = profile_make c (fun b -> c.first.(b + 1) - c.first.(b))

let total_waste (c : Columns.t) =
  let waste = ref 0 in
  iter_blocks c (fun b ~t0:_ ~repeat ->
      waste := !waste + (repeat * (block_sum c c.assigned b - block_sum c c.consumed b)));
  !waste

(* -------------------------------------------------------------- display *)

let job_glyph j =
  let letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ" in
  letters.[j mod String.length letters]

let render_gantt ?(max_width = 120) (c : Columns.t) =
  let m = c.inst.Instance.m in
  let width = min c.makespan max_width in
  let grid = Array.make_matrix m width '.' in
  let proc_of = Array.make (Instance.n c.inst) (-1) in
  List.iter (fun (j, p, _) -> proc_of.(j) <- p) (processor_assignment c);
  (* Only the blocks that intersect the visible columns are walked: the
     render cost is O(m·max_width), independent of the makespan. *)
  let b = ref 0 and t0 = ref 0 in
  while !b < c.blocks && !t0 < width do
    let hi = min (!t0 + c.repeat.(!b)) width - 1 in
    for i = c.first.(!b) to c.first.(!b + 1) - 1 do
      let j = c.job.(i) in
      if proc_of.(j) >= 0 then
        for x = !t0 to hi do
          grid.(proc_of.(j)).(x) <- job_glyph j
        done
    done;
    t0 := !t0 + c.repeat.(!b);
    incr b
  done;
  let buf = Buffer.create ((m + 1) * (width + 8)) in
  for p = 0 to m - 1 do
    Buffer.add_string buf (Printf.sprintf "p%-2d " p);
    Array.iter (Buffer.add_char buf) grid.(p);
    if c.makespan > width then Buffer.add_string buf " ...";
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
