(** Garey–Graham resource-constrained list scheduling (1975), the classical
    baseline the paper cites: every job must receive its {e full} resource
    requirement in every step of its execution (no linear slowdown), so a
    job [j] holds [min(r_j, 1)] of the resource for
    [⌈s_j / min(r_j, scale)⌉] consecutive steps. At every step the list is
    scanned in order and any job that fits (a free processor and enough
    unreserved resource) is started. For a single resource the ratio is
    [3 − 3/m]; the sliding-window algorithm beats it whenever fractional
    shares help.

    Requirements larger than the whole resource are clamped to it (the
    original model assumes [r_j ≤ 1]). *)

type order =
  | By_requirement  (** instance order: non-decreasing [r_j] *)
  | By_volume_desc  (** longest processing time first *)
  | By_total_req_desc  (** largest total requirement [s_j] first *)

val run : ?order:order -> Sos.Instance.t -> Sos.Schedule.Columns.t
(** Non-preemptive, run-length-encoded. Default order {!By_requirement}. *)

val guarantee : m:int -> float
(** [3 − 3/m]. *)
