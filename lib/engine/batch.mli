(** Deterministic, fault-tolerant batches: {!run} for one task on the
    calling thread, {!map} over an array of thunks and {!stream_seq} over
    a pull-based producer, both on a {!Pool} through
    {!Pool.run_ordered_seq}.

    Results always come back in submission order, and a failing task turns
    into an [Error] for its own index instead of killing the pool or the
    batch. Combined with the per-task-index seeding contract (see
    {!Pool}), every function here returns byte-identical results at any
    domain count — [~domains:1] is the exact sequential path.

    {b Resilience} (doc/ROBUSTNESS.md). Every entry point takes:
    - [?retries]: failed attempts of {e transient} classes
      ({!Robust.Failure.transient}: task exceptions and deadline expiry)
      are re-run up to [retries] extra times. A negative [retries]
      raises [Invalid_argument] on the caller, before any task runs or
      the producer is pulled. Each attempt executes inside
      an ambient {!Robust.Context} scope carrying [(index, attempt)], so a
      task re-deriving randomness via [Rng.create3 base index attempt]
      retries deterministically at any domain count.
    - [?task_timeout]: a per-attempt cooperative deadline in wall seconds.
      Tasks (the solvers do, via [Robust.Context.poll]) observe it at loop
      boundaries; an expired attempt fails with [Deadline_exceeded].
    - [?cancel]: a batch-wide {!Robust.Cancel} token. Once cancelled,
      running tasks unwind at their next poll and not-yet-started tasks
      fail immediately, all with [Cancelled]; the pool stays usable.
    - [?backoff]: a {!Robust.Backoff.policy}. When given, a retry sleeps
      [Backoff.delay policy ~index ~attempt] first — a capped, jittered,
      deterministic delay keyed on [(policy seed, index, attempt)], so
      transient-fault sites are not hammered by immediate re-runs and the
      delay schedule (like the output bytes) is identical at any domain
      count. Omitted = immediate retry, the pre-backoff behaviour. *)

type error = {
  index : int;  (** the failing task's submission index *)
  message : string;  (** {!Robust.Failure.message} of [failure] *)
  failure : Robust.Failure.t;  (** structured failure class *)
  backtrace : string;
      (** backtrace captured at the raise site of the final attempt; [""]
          unless backtrace recording is on ([Printexc.record_backtrace]) *)
  attempts : int;  (** attempts executed (1 = no retry happened) *)
}

type 'a outcome = ('a, error) result

val run :
  ?retries:int ->
  ?task_timeout:float ->
  ?cancel:Robust.Cancel.t ->
  ?backoff:Robust.Backoff.policy ->
  index:int ->
  (unit -> 'a) ->
  'a outcome
(** [run ~index task] runs one task on the calling thread, with the same
    attempt loop every task of {!map} and {!stream_seq} gets: each attempt
    in a {!Robust.Context} scope carrying [(index, attempt)], where the
    ["engine.batch.task"] chaos site and the task's own sites see
    [index]. [sosctl serve] runs each placement query this way, keyed on
    its request index. Never raises, except [Invalid_argument] for a
    negative [retries]. *)

val window_size : domains:int -> chunk:int -> int option -> int
(** The in-flight window of a stream over [domains] workers: [None] is
    the default, [4 * domains * chunk]; [Some w] asks for [w]. Either is
    clamped up to [chunk] (and [chunk] up to 1). {!stream_seq} sizes its
    window with it, and a caller that keeps its own per-index ring beside
    the stream sizes the ring with it too. *)

val map :
  ?domains:int ->
  ?chunk:int ->
  ?retries:int ->
  ?task_timeout:float ->
  ?cancel:Robust.Cancel.t ->
  ?backoff:Robust.Backoff.policy ->
  (unit -> 'a) array ->
  'a outcome array
(** [map ~domains ~chunk tasks] runs every thunk on a fresh pool of
    [domains] workers (default {!Pool.recommended_domain_count}), [chunk]
    consecutive tasks per queued unit of work (default 1), and returns the
    outcomes in submission order. It collects {!stream_seq} over the
    array, with a window of the array's length. *)

val stream_seq :
  Pool.t ->
  ?chunk:int ->
  ?window:int ->
  ?retries:int ->
  ?task_timeout:float ->
  ?cancel:Robust.Cancel.t ->
  ?backoff:Robust.Backoff.policy ->
  (int -> (unit -> 'a) option) ->
  f:(int -> 'a outcome -> unit) ->
  int
(** [stream_seq pool producer ~f] is the pull-based, constant-memory
    batch: [producer i] is called on the calling thread, strictly in
    increasing index order and exactly once per index, until it returns
    [None] — so a producer can pull specs straight off a file reader — and
    [f i outcome_i] is called on the calling thread in increasing index
    order. Returns the number of tasks produced. The pool can run further
    streams afterwards: a failed task leaves it fully usable.

    At most [window_size ~domains ~chunk window] tasks are in flight
    between producer and consumer, and each outcome waits for [f] in the
    pool's one ring of that many slots, so memory is O(window)
    regardless of stream length. On two or more domains [f] runs only once the window
    is full or the producer has returned [None] ({!Pool.run_ordered_seq}),
    so a [window] of the batch's whole length [n] holds every outcome
    until the last task is submitted: it suits only a consumer that waits
    for the end anyway, as {!map} does. The determinism contract is
    unchanged: task randomness keyed on the submission index (e.g.
    {!Prelude.Rng.create2}/[create3]) makes the emitted sequence
    byte-identical at any domain count, and [?retries]/[?task_timeout]/
    [?cancel] behave exactly as in {!map}. *)
