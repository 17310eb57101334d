(** The polynomial-time implementation of the approximation algorithm
    (proof of Theorem 3.3): identical schedules to {!Listing1}, but the
    loop is event-driven — it simulates one step per {e event} (a job
    finishing, the Case-2 extra job starting, a fractured job's remainder
    hitting 0, the window changing shape) and skips the provably identical
    steps between events in closed form, giving [O((m+n)·n)] overall
    instead of a dependence on [Σ_j p_j].

    {b Predictive skip.} {!Assign.compute} certifies on the {e first} step
    of a span how many further steps repeat the same allocation
    ([outcome.repeats]): the finish-inclusive horizon [min_j ⌊(s_j−c_j)/c_j⌋]
    capped by the q-event of the single non-multiple receiver (a linear
    congruence — see {!Assign.outcome}). The loop validates the
    certificate's premise with {!Window.stable}, the O(1) fixed-point test
    of {!Window.compute}, and then pays for the whole span with a single
    iteration — no warm-up step observing two identical allocations, no
    window recomputation. See doc/ALGORITHM.md §5a for the proof sketch
    and the iteration bound.

    {b Column-native output.} {!Assign.compute} writes each step's
    allocations into scratch int columns, {!State.consume_block} consumes
    them, and the loop appends them as one run-length-encoded block to a
    {!Schedule.Columns.t}: no [alloc] record, cons cell or [step] record per
    block. The window after a finishing step is repaired in O(finished)
    ({!Window.repair}); the stability probe's window is handed to the next
    iteration instead of recomputed. *)

val run_columns : ?variant:[ `Fixed | `Literal ] -> Instance.t -> Schedule.Columns.t * int
(** The schedule as a column store, and the number of loop iterations
    actually simulated. [sosctl batch] validates and reports from the store
    without building the list form. *)

val run : ?variant:[ `Fixed | `Literal ] -> Instance.t -> Schedule.t
(** Produces the same schedule as [Listing1.run] (same [variant]) with runs
    of identical steps run-length encoded: {!run_columns} converted once
    by {!Schedule.Columns.to_schedule}. *)

val run_count : ?variant:[ `Fixed | `Literal ] -> Instance.t -> Schedule.t * int
(** Also returns the number of loop iterations actually simulated (the
    T7 running-time experiment reports it). *)
