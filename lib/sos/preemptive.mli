(** A preemptive scheduler for SoS, as a comparison point: the paper's
    lower bounds (Equation (1)) are valid for preemptive schedules too, so
    the gap between this scheduler and the non-preemptive window algorithm
    measures how much the non-preemption constraint costs in practice
    (extension experiment E1).

    Policy: {e longest-remaining-processing-time water-filling}. Every time
    step, jobs are ordered by remaining step count [⌈s_j(t)/r_j⌉]
    (descending); the first at most [m] jobs receive their full requirement
    while resource remains, the next job the leftover. This keeps the
    processor-bound side balanced (LRPT is optimal for [P | pmtn | C_max])
    while saturating the resource-bound side. No approximation guarantee is
    claimed; empirically it sits within a few percent of the lower bound. *)

val run : ?fuel:int -> Instance.t -> Schedule.Columns.t
(** The schedule is preemptive and migratory — validate with
    [~preemption_ok:true]. One simulated step per time step (no
    run-length compression): [fuel] (default 2_000_000 steps) bounds the
    run; exceeding it raises [Failure]. *)
