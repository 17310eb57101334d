(** A SAS problem instance: [m] processors, one shared resource with
    fixed-point [scale], and a set of tasks of unit-size jobs. The objective
    is the sum (equivalently average) of task completion times. *)

type t = private {
  m : int;  (** ≥ 4 so that both halves of the split get ≥ 2 processors *)
  scale : int;
  tasks : Task.t array;  (** task [i] has [id = i] *)
}

val create : m:int -> scale:int -> int list list -> t
(** [create ~m ~scale reqss] builds one task per inner list of per-job
    requirements (in units of [1/scale]). Raises [Invalid_argument] if
    [m < 4], [scale < 1], or any task is malformed. *)

val k : t -> int
(** Number of tasks. *)

val total_jobs : t -> int

val partition : t -> Task.t list * Task.t list
(** [(T1, T2)]: high-requirement tasks (avg job requirement > 1/(m−1))
    and the rest (Section 4.2). *)

val normalize_scale : t -> t
(** Rescales so that [scale] is divisible by [2·(m−1)], making the
    combined algorithm's budgets [(⌊m/2⌋−1)/(m−1)] and [1/2] exact. *)

val flat_sos : t -> Sos.Instance.t
(** All jobs of all tasks as one unit-size SoS instance (used to validate
    merged schedules); job order = task-major. *)
