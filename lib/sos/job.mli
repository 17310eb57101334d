(** A job of the Shared Resource Job-Scheduling (SoS) problem.

    A job [j] has a processing volume (size) [p_j ∈ ℕ] and a resource
    requirement [r_j > 0]. Resource amounts are exact fixed-point rationals:
    an instance fixes a [scale ∈ ℕ] and every requirement/share is an integer
    count of [1/scale] units (see {!Instance}). The total resource
    requirement is [s_j = p_j · r_j] (Section 1.1 of the paper). *)

type t = {
  id : int;  (** position in the instance's non-decreasing-[r] order *)
  size : int;  (** [p_j ≥ 1] *)
  req : int;  (** [r_j] in resource units, [≥ 1]; may exceed the scale *)
}

val v : id:int -> size:int -> req:int -> t
(** Smart constructor; raises [Invalid_argument] on non-positive size/req or
    negative id. *)

val check : size:int -> req:int -> unit
(** The size and requirement checks of {!v}, with its messages: raises
    [Invalid_argument] on a non-positive size, then on a non-positive
    req. *)

val s : t -> int
(** Total resource requirement [s_j = p_j · r_j], in resource units. *)

val equal : t -> t -> bool
val compare_req : t -> t -> int
(** Order by requirement, ties broken by id (a strict total order). *)

val pp : Format.formatter -> t -> unit
