(** A naive "fair scheduler" baseline: keep up to [m] jobs running (admitted
    in requirement order, each staying until finished), and in every step
    split the resource among them by water-filling — repeatedly give the
    smallest-requirement job [min(r_j, budget/‖left‖)] — so no job gets more
    than its requirement and the resource is used as evenly as possible.

    This is what a fair-share OS scheduler would do with linear slowdown;
    it has no approximation guarantee (the window structure is what earns
    the paper's ratio) and serves as the "no algorithmics" comparison. *)

val run : Sos.Instance.t -> Sos.Schedule.Columns.t
(** Non-preemptive, run-length-encoded. *)
