(** The Theorem 4.8 algorithm: split the tasks into [T1] (high average
    requirement) and [T2], schedule [T1] with Listing 3 on [⌊m/2⌋]
    processors and resource budget [(⌊m/2⌋−1)/(m−1)], ordered by
    non-decreasing total requirement, and [T2] with Listing 4 on [⌈m/2⌉]
    processors and budget [1/2], ordered by non-decreasing job count — in
    parallel. Guarantee: sum of completion times
    ≤ ((2 + 4/(m−3)) + o(1)) · OPT, the o(1) in the number of tasks. *)

type report = {
  instance : Sas_instance.t;  (** normalized (scale divisible by 2(m−1)) *)
  completions : int array;  (** per original task id *)
  sum_completions : int;
  makespan : int;
  lower_bound : int;  (** Lemma 4.3 on the full task set *)
  t1_count : int;
  t2_count : int;
  schedule : Sos.Schedule.Columns.t;  (** merged, against {!Sas_instance.flat_sos} *)
}

val run : Sas_instance.t -> report
(** Raises [Invalid_argument] if [m < 4] (enforced by {!Sas_instance}). *)

val ratio : report -> float
(** [sum_completions / lower_bound]. *)

val sort_for_listing3 : Task.t list -> Task.t list
(** Non-decreasing total requirement (Lemma 4.1's order). *)

val sort_for_listing4 : Task.t list -> Task.t list
(** Non-decreasing job count (Lemma 4.2's order). *)

val run_listing3 : m:int -> budget:int -> Task.t list -> Stream.result
(** Listing 3 alone: the given tasks sorted by non-decreasing [r(T)]. *)

val run_listing4 : m:int -> budget:int -> Task.t list -> Stream.result
(** Listing 4 alone: the given tasks sorted by non-decreasing [|T|]. *)
