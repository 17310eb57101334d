exception Limit

let ceil_div a b = if a <= 0 then 0 else ((a - 1) / b) + 1

(* All subsets of positions 0..n-1 with 1..k elements, each exactly once,
   skipping size-multiset duplicates: [sizes] is sorted, and within a run of
   equal sizes the chosen positions must form a prefix of the run. Subsets
   are returned as index lists in descending position order. *)
let subsets sizes k =
  let n = Array.length sizes in
  let acc = ref [] in
  let rec go idx current count =
    if idx = n then begin
      if count > 0 then acc := current :: !acc
    end
    else begin
      let duplicate_skipped =
        idx > 0
        && sizes.(idx - 1) = sizes.(idx)
        && not (match current with c :: _ -> c = idx - 1 | [] -> false)
      in
      if count < k && not duplicate_skipped then go (idx + 1) (idx :: current) (count + 1);
      go (idx + 1) current count
    end
  in
  go 0 [] 0;
  !acc

(* The bin shapes of the normal form, from a sorted remaining multiset:
   either a subset completed outright, or a subset with one designated
   member continuing after taking the bin's leftover capacity. Returns
   [(consumed parts as (index, amount)), leftover-of-continuer option]. *)
type shape = {
  subset : int list;  (* indices into the sorted remaining list *)
  continuer : int option;  (* index of the member taking the leftover *)
  amount : int;  (* the continuer's amount (its full size if none) *)
}

let shapes sizes k capacity =
  List.concat_map
    (fun subset ->
      let sum = List.fold_left (fun acc i -> acc + sizes.(i)) 0 subset in
      let complete = if sum <= capacity then [ { subset; continuer = None; amount = 0 } ] else [] in
      let rec conts seen acc = function
        | [] -> acc
        | x :: tl ->
            let sx = sizes.(x) in
            if List.mem sx seen then conts seen acc tl
            else begin
              let amount = capacity - (sum - sx) in
              if amount >= 1 && amount < sx then
                conts (sx :: seen) ({ subset; continuer = Some x; amount } :: acc) tl
              else conts (sx :: seen) acc tl
            end
      in
      complete @ conts [] [] subset)
    (subsets sizes k)

let apply_shape remaining shape =
  let sizes = Array.of_list remaining in
  let rest = List.filteri (fun i _ -> not (List.mem i shape.subset)) remaining in
  match shape.continuer with
  | None -> rest
  | Some x -> List.merge compare [ sizes.(x) - shape.amount ] rest

(* A memoized solver over sorted remaining multisets. [solve remaining ub]
   may report any value >= ub as ub; values strictly below ub are exact. *)
let make_solver inst node_limit =
  let capacity = inst.Binpack.Packing.capacity and k = inst.Binpack.Packing.k in
  let nodes = ref 0 in
  let memo : (int list, int) Hashtbl.t = Hashtbl.create 4096 in
  let rec solve remaining ub =
    match remaining with
    | [] -> 0
    | _ ->
        incr nodes;
        if !nodes > node_limit then raise Limit;
        let total = List.fold_left ( + ) 0 remaining in
        let count = List.length remaining in
        let lb = max (ceil_div total capacity) (ceil_div count k) in
        if lb >= ub then ub
        else begin
          match Hashtbl.find_opt memo remaining with
          | Some v -> min v ub
          | None ->
              let sizes = Array.of_list remaining in
              let best = ref ub in
              List.iter
                (fun shape ->
                  if !best > lb then begin
                    let v = 1 + solve (apply_shape remaining shape) (!best - 1) in
                    if v < !best then best := v
                  end)
                (shapes sizes k capacity);
              if !best < ub then Hashtbl.replace memo remaining !best;
              !best
        end
  in
  solve

let optimum ?(node_limit = 2_000_000) inst =
  let sizes = Array.to_list inst.Binpack.Packing.sizes in
  if sizes = [] then Some 0
  else begin
    let ub = Binpack.Packing.bins_used (Binpack.Algorithms.window inst) in
    let solve = make_solver inst node_limit in
    match solve (List.sort compare sizes) (ub + 1) with
    | v -> Some (min v ub)
    | exception Limit -> None
  end

let optimum_exn ?node_limit inst =
  match optimum ?node_limit inst with
  | Some v -> v
  | None -> failwith "Binpack_exact.optimum: node limit exceeded"

let optimum_packing ?(node_limit = 2_000_000) inst =
  match optimum ~node_limit inst with
  | None -> None
  | Some 0 -> Some (0, [])
  | Some best -> begin
      let capacity = inst.Binpack.Packing.capacity and k = inst.Binpack.Packing.k in
      (* Walk the optimal choices, tracking concrete item identities:
         the pool pairs each remaining size with (item id, remaining). *)
      let solve = make_solver inst (8 * node_limit) in
      let pool =
        List.sort compare
          (Array.to_list (Array.mapi (fun id s -> (s, id)) inst.Binpack.Packing.sizes))
      in
      try
        let rec reconstruct pool target acc =
          if pool = [] then List.rev acc
          else begin
            let remaining = List.map fst pool in
            let sizes = Array.of_list remaining in
            let candidates = shapes sizes k capacity in
            let rec pick = function
              | [] -> Robust.Failure.internal_error "Binpack_exact.optimum_packing: no optimal shape"
              | shape :: rest_shapes ->
                  let rest = apply_shape remaining shape in
                  if 1 + solve rest (target - 1 + 1) = target then (shape, rest)
                  else pick rest_shapes
            in
            let shape, _ = pick candidates in
            let arr = Array.of_list pool in
            let bin =
              List.map
                (fun i ->
                  let size, id = arr.(i) in
                  match shape.continuer with
                  | Some x when x = i -> (id, shape.amount)
                  | _ -> (id, size))
                shape.subset
            in
            let rest_pool =
              List.filteri (fun i _ -> not (List.mem i shape.subset)) pool
            in
            let rest_pool =
              match shape.continuer with
              | None -> rest_pool
              | Some x ->
                  let size, id = arr.(x) in
                  List.merge compare [ (size - shape.amount, id) ] rest_pool
            in
            reconstruct rest_pool (target - 1) (bin :: acc)
          end
        in
        Some (best, reconstruct pool best [])
      with Limit -> None
    end

let unit_sos_optimum ?node_limit inst =
  if not (Sos.Instance.unit_size inst) then
    invalid_arg "Binpack_exact.unit_sos_optimum: non-unit sizes";
  let sizes = Array.to_list inst.Sos.Instance.req in
  if sizes = [] then Some 0
  else
    optimum ?node_limit
      (Binpack.Packing.instance ~k:inst.Sos.Instance.m
         ~capacity:inst.Sos.Instance.scale sizes)
