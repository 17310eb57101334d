let ceil_div a b =
  if b <= 0 then invalid_arg "Bounds.ceil_div: non-positive divisor";
  if a <= 0 then 0 else ((a - 1) / b) + 1

let resource_bound inst = ceil_div (Instance.total_requirement inst) inst.Instance.scale
let volume_bound inst = ceil_div (Instance.total_volume inst) inst.Instance.m
let longest_job_bound inst = Instance.max_size inst

let eq1_checked ~m ~scale ~requirement ~volume ~longest =
  match (requirement, volume) with
  | Some s, Some p -> Ok (max (ceil_div s scale) (max (ceil_div p m) longest))
  | None, _ -> Error (Robust.Failure.Overflow "total requirement Σ p_j·r_j exceeds max_int")
  | _, None -> Error (Robust.Failure.Overflow "total volume Σ p_j exceeds max_int")

(* The sums are overflow-guarded: with p_j ≈ max_int/2 the plain
   Σ p_j·r_j wraps negative and the "lower bound" silently collapses, so
   even callers that skipped [Instance.validate] get
   [Robust.Failure.Invalid (Overflow _)] instead of garbage. *)
let lower_bound_checked inst =
  let volume, requirement, _ = Instance.eq1_sums inst in
  eq1_checked ~m:inst.Instance.m ~scale:inst.Instance.scale ~requirement ~volume
    ~longest:(Instance.max_size inst)

let lower_bound inst =
  match lower_bound_checked inst with
  | Ok lb -> lb
  | Error reason -> raise (Robust.Failure.Invalid reason)

(* Deterministic ratio histogram: every makespan-vs-Equation-(1) ratio
   computed anywhere (batch emission, the bench gate, [sosctl ratio])
   lands here, bucketed at 0.05 resolution over [1, 3] with one overflow
   bucket. The guarantees of Theorems 3.3/3.5 sit at 2 + 1/(m-2) and
   below, so the range covers every compliant algorithm with slack. *)
let h_ratio =
  Obs.Metrics.hist
    ~bounds:(Obs.Metrics.linear_bounds ~lo:1.0 ~hi:3.0 ~step:0.05)
    "sos.bounds.ratio"

let ratio ~lb ~makespan =
  let ratio =
    if lb = 0 then if makespan = 0 then 1.0 else infinity
    else float_of_int makespan /. float_of_int lb
  in
  Obs.Metrics.hist_observe h_ratio ratio;
  ratio

let theorem_3_3_bound inst ~makespan = ratio ~lb:(lower_bound inst) ~makespan

let guarantee_general ~m =
  if m < 3 then invalid_arg "Bounds.guarantee_general: need m >= 3";
  2.0 +. (1.0 /. float_of_int (m - 2))

let guarantee_unit ~m =
  if m < 3 then invalid_arg "Bounds.guarantee_unit: need m >= 3";
  1.0 +. (2.0 /. float_of_int (m - 2))

let guarantee_unit_modified ~m =
  if m < 2 then invalid_arg "Bounds.guarantee_unit_modified: need m >= 2";
  1.0 +. (1.0 /. float_of_int (m - 1))
