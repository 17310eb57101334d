(** The predecessor model of Brinkmann, Kling, Meyer auf der Heide, Nagel,
    Riechers, Süß (SPAA 2014), which the paper extends: jobs are {e already
    assigned} to processors, in a {e fixed order} per processor, and only
    the resource assignment is free. Comparing the full algorithm against
    this setting measures what the paper's joint job-and-resource
    optimization buys (extension experiment E2).

    The resource policy here is per-step water-filling over the m head
    jobs, each capped at its requirement — the natural combinatorial rule
    (Brinkmann et al. analyze a greedy of this flavour at ratio 2 − 1/m in
    their restricted setting). *)

type strategy =
  | Round_robin  (** job i → processor i mod m, requirement order *)
  | By_volume  (** LPT-style: longest total requirement first onto the
                   least-loaded processor *)

val assign : strategy -> Sos.Instance.t -> int list array
(** Per-processor job queues (front = first executed). *)

val run : ?strategy:strategy -> Sos.Instance.t -> Sos.Schedule.Columns.t
(** Execute the fixed assignment with water-filling resource shares.
    Non-preemptive and migration-free by construction. *)
