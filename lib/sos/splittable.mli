(** The m-maximal-window engine for unit-size jobs / splittable items.

    For unit-size jobs ([p_j = 1], so [s_j = r_j]) the paper's modification
    of Listing 1 treats the single started job as a fresh job whose
    requirement is its remaining [s_ι(t−1)], reordered into the requirement
    order. The reserved m-th processor is then unnecessary, windows may have
    [m] members, and the asymptotic ratio improves to [1 + 1/(m−1)]
    (Theorem 3.3, discussion; Corollary 3.9 for bin packing, where a bin is
    a time step and the cardinality constraint [k] plays the role of [m]).

    This module works on bare [(id, size)] items; one {!step} is one time
    step / one bin. Re-running a partially processed item later makes the
    induced SoS schedule preemptive, which is exactly what bin packing with
    splittable items allows; the non-preemptive unit-size guarantee is
    provided by {!Listing1} instead. *)

type item = { id : int; size : int }
(** [size] in resource units; must be positive. *)

type alloc = int * int
(** [(item id, amount)] with a positive amount. *)

val sort_items : item list -> item list
(** Non-decreasing size, ties by id. *)

val step : item list -> size:int -> budget:int -> alloc list * item list
(** [step items ~size ~budget] runs one time step on the remaining [items]
    (which must be sorted, cf. {!sort_items}): selects a window of at most
    [size] consecutive items (grow right from the left border, then slide
    right while the window's total stays below [budget]), finishes every
    window member except possibly the last, gives the last the remaining
    budget, and returns the allocations together with the remaining items
    (still sorted; the split item is re-inserted by its new size).
    With [size ≤ 0] or [budget ≤ 0] or no items, returns [([], items)]. *)

val pack : item list -> size:int -> budget:int -> alloc list list
(** Iterates {!step} until no items remain: the full bin sequence. Input
    need not be sorted. Raises [Invalid_argument] on a non-positive item
    size, or if some item can never make progress
    ([size ≤ 0] or [budget ≤ 0] with items present). *)

val run : Instance.t -> Schedule.Columns.t
(** The modified unit-size algorithm on an SoS instance (all sizes must be
    1; raises [Invalid_argument] otherwise): windows of size [m], budget =
    the full resource. The result may be preemptive — validate it with
    [~preemption_ok:true]. *)

val run_nonpreemptive : Instance.t -> Schedule.Columns.t
(** The same m-maximal modification, but keeping MoveWindowRight's
    started-job guard: the single partial job is never slid out of the
    window, so it is processed in every step from start to finish and the
    schedule is genuinely non-preemptive (plain [Schedule.validate]
    passes). The window may then stop short of the right border with
    [r(W) < 1] — exactly the situation the paper's "treat ι as a fresh
    job" reinterpretation papers over; empirically the bound
    [(1+1/(m−1))·LB + 1] still holds (tested), matching the paper's claim
    that the modification works for unit-size SoS itself. *)
