(* Order statistics used by every reported number. *)

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

(* Nearest rank: the p-quantile (0 < p <= 1) of n sorted samples is the
   ceil(p*n)-th smallest. It is always an observed value. *)
let rank n p = max 1 (min n (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))))

let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.nearest_rank: no samples";
  sorted.(rank n p - 1)

(* Samples strictly above the p-quantile's rank. A percentile is only
   reported when at least ten samples lie beyond it; otherwise the tail
   value is one or two unlucky samples. *)
let beyond n p = n - rank n p
let supported n p = n > 0 && beyond n p >= 10

(* The highest of [candidates] that [n] samples support, if any. *)
let highest_supported n candidates =
  List.fold_left (fun acc p -> if supported n p then Some p else acc) None
    (List.sort compare candidates)

(* Median (mean of the middle two when even), as Python's
   statistics.median computes it. *)
let median a = Prelude.Stats.percentile a 0.5

let median_int a = median (Array.map float_of_int a)
