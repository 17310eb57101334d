(** Bin packing with cardinality constraints and splittable items
    (Chung, Graham, Mao, Varghese 2006; Corollary 3.9 of the paper).

    Items of arbitrary positive size must be packed into a minimum number of
    bins of capacity 1; items may be split across bins, but a bin may
    contain (parts of) at most [k] different items. Sizes are exact
    fixed-point: an instance fixes [capacity] (the number of units in one
    bin) and item sizes are integer unit counts.

    This problem is exactly unit-size SoS with preemption: bins = time
    steps, cardinality [k] = processors, item size = resource requirement. *)

type instance = private {
  k : int;  (** cardinality constraint, ≥ 1 *)
  capacity : int;  (** units per bin, ≥ 1 *)
  sizes : int array;  (** positive; item [i] has size [sizes.(i)] *)
}

val instance_checked : k:int -> capacity:int -> int list -> (instance, string) result
(** [Error] on [k < 1], [capacity < 1] or a non-positive size. *)

val instance : k:int -> capacity:int -> int list -> instance
(** {!instance_checked}, raising [Invalid_argument] on [Error]. *)

type packing = (int * int) list list
(** Bins in order; each bin lists [(item, amount)] parts, amounts positive. *)

val validate : instance -> packing -> (unit, string) result
(** Checks capacity, cardinality, positive part sizes, and that every item
    is packed exactly. *)

val assert_valid : instance -> packing -> unit

val bins_used : packing -> int

val lower_bound : instance -> int
(** [max(⌈Σ sizes / capacity⌉, ⌈n/k⌉)] — volume and cardinality bounds,
    both valid for the optimum. *)

val fragments : packing -> int
(** Total number of parts minus number of items: how many extra cuts the
    packing makes (0 = no item split). *)

val pp : Format.formatter -> packing -> unit
