(** Lower bounds on the optimal makespan (Equation (1) of the paper).

    For any schedule, including the preemptive optimum:
    [|OPT| ≥ max( ⌈Σ_j s_j⌉ , ⌈(Σ_j p_j)/m⌉ )].
    In addition every job needs [⌈s_j/r_j⌉ = p_j] dedicated steps, giving the
    (also preemption-valid) term [max_j p_j]; and the proof of Theorem 3.3
    additionally uses [r(J) ≤ Σ_j s_j ≤ OPT]. *)

val resource_bound : Instance.t -> int
(** [⌈Σ_j s_j / scale⌉] — the resource can deliver at most 1 per step. *)

val volume_bound : Instance.t -> int
(** [⌈Σ_j p_j / m⌉] — each unit of volume needs a processor-step. *)

val longest_job_bound : Instance.t -> int
(** [max_j p_j] — a job occupies one processor for at least [p_j] steps. *)

val lower_bound : Instance.t -> int
(** Maximum of the three bounds above; [0] for the empty instance. The
    sums are overflow-guarded: on an instance whose [Σ p_j] or
    [Σ p_j·r_j] exceeds [max_int] (e.g. [p_j ≈ max_int/2] with tiny
    [r_j]) this raises [Robust.Failure.Invalid (Overflow _)] instead of
    returning a silently negative bound. *)

val lower_bound_checked : Instance.t -> (int, Robust.Failure.invalid) result
(** Non-raising form of {!lower_bound} for entry points that report
    structured failures. *)

val eq1_checked :
  m:int ->
  scale:int ->
  requirement:int option ->
  volume:int option ->
  longest:int ->
  (int, Robust.Failure.invalid) result
(** {!lower_bound_checked} from sums already taken: [Σ s_j], [Σ p_j] and
    [max_j p_j], with [None] for a sum that overflowed. For callers that
    hold the jobs in another form than an {!Instance.t}. *)

val ratio : lb:int -> makespan:int -> float
(** [makespan / lb] as a float ([infinity] when [lb] is 0 and makespan
    positive, [1.0] when both are 0), observed once into the
    [sos.bounds.ratio] histogram. For callers that already hold
    {!lower_bound}. *)

val theorem_3_3_bound : Instance.t -> makespan:int -> float
(** [ratio ~lb:(lower_bound inst) ~makespan]. *)

val guarantee_general : m:int -> float
(** The proven ratio [2 + 1/(m−2)] for general job sizes (requires m ≥ 3). *)

val guarantee_unit : m:int -> float
(** The factor [1 + 2/(m−2)] of the unit-size guarantee
    [|S| ≤ (1 + 2/(m−2))·OPT + 1] (requires m ≥ 3). *)

val guarantee_unit_modified : m:int -> float
(** The factor [1 + 1/(m−1)] of the m-maximal-window modification /
    Corollary 3.9 (requires m ≥ 2). *)
