(** Seeded SoS instance generators: the workload families used by the tests
    and by every table in the benchmark harness. *)

type family = {
  name : string;
  req : Distributions.t;
      (** requirement as a fraction of the resource, in units of
          [1/default_scale] *)
  size : Distributions.t;  (** processing volume [p_j] *)
}

val default_scale : int
(** 720720 = lcm(2..16): keeps budgets like [(⌊m/2⌋−1)/(m−1)] exact for all
    [m ≤ 17] without rescaling. *)

val generate :
  Prelude.Rng.t -> family -> n:int -> m:int -> ?scale:int -> unit -> Sos.Instance.t
(** Draw [n ≥ 0] jobs from the family (default scale {!default_scale}) into
    two int columns and build them with {!Sos.Instance.of_columns}. Job [p]
    draws its size, then its requirement, in position order. At any other
    [scale] a requirement draw [r] becomes [⌈r·scale/default_scale⌉], so
    each family keeps its fractions of the resource (near-one stays in
    (1/2, 1]) and [1 ≤ r_j ≤ scale] up to [scale = max_int]; a draw above
    the whole resource, which only a custom family makes, is capped at it.
    At [default_scale] the draws are kept as they are. Raises
    [Invalid_argument] if [n < 0], and as {!Sos.Instance.create} does. *)

(* Named families (requirements as fractions of the resource): *)

val uniform_wide : family
(** requirements uniform in (0, 1], sizes 1–20. *)

val uniform_small : family
(** requirements uniform in (0, 1/4], sizes 1–20: many jobs fit per step. *)

val bimodal : family
(** 80% tiny (≤ 5%), 20% large (50–95%): the bandwidth scenario from the
    paper's introduction. *)

val heavy_tail : family
(** Pareto(1.3) requirements: few dominant jobs. *)

val near_one : family
(** requirements in (1/2, 1]: at most one job per window fits fully. *)

val tiny : family
(** requirements ≤ 1/(4m) for m ≤ 16: processor-bound regime. *)

val unit_of : family -> family
(** Same requirements, all sizes forced to 1. *)

val all_families : family list
(** The families above (sized variants). *)

val generate_correlated :
  Prelude.Rng.t -> n:int -> m:int -> ?scale:int -> unit -> Sos.Instance.t
(** Jobs whose requirement grows with their volume (big jobs move big
    data): [p ~ U(1,20)], [r ≈ p/20 · scale · U(0.5, 1.5)], clamped to
    [1..scale]. Families with independent draws miss this regime; used by
    dedicated tests. *)

val random_instance :
  Prelude.Rng.t -> ?max_n:int -> ?max_m:int -> ?max_size:int -> ?scale:int -> unit ->
  Sos.Instance.t
(** Fully random instance for property-based tests: random m in [2, max_m],
    n in [1, max_n], requirements uniform over the full range, sizes in
    [1, max_size]. Uses a small random scale to exercise rescaling and
    boundary arithmetic. *)
