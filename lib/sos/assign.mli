(** The per-step resource assignment of Listing 1 (lines 6–20).

    Given the (k-maximal) window for the current step, distributes the
    budget according to the paper's two cases:

    {b Case 1} [r(W∖F) ≥ budget]: every [j ∈ W∖(F∪{max W})] receives its
    full requirement [r_j], the fractured job [ι] receives exactly its
    fractional remainder [q_ι] (un-fracturing it), and [max W] receives all
    remaining resource.

    {b Case 2} [r(W∖F) < budget]: every [j ∈ W∖F] receives [r_j], [ι]
    receives [min(budget − r(W∖F), s_ι(t−1), r_ι)], and — if [extra] is
    set, resource is left over, and an unscheduled job exists to the right —
    the leftover starts [min R_t(W)] on the otherwise reserved m-th
    processor (the only situation in which Listing 1 uses all [m]
    processors). *)

type case = Case_full | Case_partial

type scratch
(** Reusable column buffer for {!compute}: one step's allocations as three
    flat int columns ([job], [assigned], [consumed]) in window order, grown
    by doubling — no [Schedule.alloc] record or cons cell per allocation.
    An outcome's allocations live in the scratch it was computed into, so
    they are valid until the next {!compute} on that scratch; without
    [~scratch], {!compute} uses a fresh one. *)

type outcome = {
  block : scratch;
      (** the step's allocations, in window order; includes the extra job.
          Read them with {!allocs}, {!append} or {!apply}. *)
  window : Window.t;  (** input window, extended by the extra job if started *)
  case : case;
  extra : int option;  (** the job started on the m-th processor, if any *)
  repeats : int;
      (** Predictive stability certificate for the event-driven solver: the
          largest [k] such that — {e provided} the window recomputed after
          applying this outcome is the input window again (as
          {!Window.stable} certifies) — the next [k] time steps provably
          reproduce this exact allocation (the case split of Listing 1
          hands out the same amounts
          throughout; jobs may finish only on the last of them, exactly —
          every job starts at [s_j = p_j·r_j]). 0 when the step itself
          finishes a job, starts the Case-2 extra job, or stability cannot
          be certified. Derived inside {!compute}'s single walk: the
          finish-inclusive horizon [min_j ⌊(s_j − c_j)/c_j⌋] capped by the
          q-event of the single non-multiple receiver (a linear
          congruence) — see the implementation for the case analysis. *)
}

val make_scratch : unit -> scratch

val scratch_words : scratch -> int
(** Words its columns hold, headers aside. *)

val compute : ?scratch:scratch -> State.t -> Window.t -> budget:int -> extra:bool -> outcome
(** Does not mutate the state. Walks the window's linked-list range
    directly in a single pass (pushing full-requirement allocations and
    locating the fractured job), then patches the fractured and max-W
    entries in place per the case split — no member-list materialization
    and no second walk. Raises [Invalid_argument] on an empty window
    (callers only invoke it while unfinished jobs remain, so the computed
    window is never empty). *)

val allocs : outcome -> Schedule.alloc list
(** The step's allocations as a fresh list, in window order — for the
    step-by-step reference algorithms and tests. *)

val append : outcome -> Schedule.Columns.t -> repeat:int -> unit
(** Append the step to a column store as one block of [repeat] identical
    steps ({!Schedule.Columns.append}). *)

val apply : State.t -> outcome -> int list
(** Consumes the outcome's allocations and returns the jobs that finished
    in this step (window order). Does not unlink them. *)

val apply_n : State.t -> outcome -> reps:int -> int list
(** {!apply} for [reps ≥ 1] identical steps at once: consumes
    [reps × consumed] per allocation in a single walk over the scratch
    columns ({!State.consume_block}) and returns the jobs that finished on
    the {e last} of those steps (window order). Sound exactly when
    [reps − 1 ≤ outcome.repeats] and the window is at a fixed point (see
    {!Window.stable}): the certificate guarantees no job finishes and the
    allocation repeats verbatim on every step but possibly the last, where
    full-requirement receivers may finish exactly. Does not unlink and
    does not advance the clock. Raises [Invalid_argument] if [reps < 1]. *)
