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

type workspace
(** A solve's buffers, owned by the caller: the {!State} arrays, the
    per-step {!Assign} scratch and the {!Schedule.Columns} store. Each
    {!run_in} reinitialises them for its instance (growing them when they
    are too short for its n) instead of allocating them, whatever an
    earlier solve left behind, one abandoned mid-loop included. A
    workspace serves one solve at a time: it must not be used by two
    domains at once. *)

val workspace : unit -> workspace
(** An empty workspace; its buffers grow to the first instance solved. *)

val workspace_words : workspace -> int
(** Words its buffers hold, headers aside: what keeping it costs. *)

val run_in :
  ?variant:[ `Fixed | `Literal ] -> workspace -> Instance.t -> Schedule.Columns.t * int
(** {!run_columns} through a caller-owned workspace. The store returned is
    the workspace's own: it is valid until the next [run_in] on that
    workspace, so read from it (validate, count, write out) before then. *)

val run_columns : ?variant:[ `Fixed | `Literal ] -> Instance.t -> Schedule.Columns.t * int
(** The schedule as a column store, and the number of loop iterations
    actually simulated: {!run_in} on a fresh workspace, so the store is the
    caller's to keep. It has the steps of [Listing1.run] (same [variant])
    with runs of identical steps run-length encoded. *)

val run_count : ?variant:[ `Fixed | `Literal ] -> Instance.t -> Schedule.t * int
(** The list form of {!run_columns}'s schedule, converted once by
    {!Schedule.Columns.to_schedule}, and the iteration count. Only
    [benchmark/] and the list-form tests read it; the library's analytics
    and writers, and bench/, read the store itself. *)
