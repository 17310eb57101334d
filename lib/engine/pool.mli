(** Fixed pool of worker domains, driven through one ordered window.

    [create ~domains:d] spawns [d] [Domain.spawn] workers that pull thunks
    off a [Mutex]/[Condition]-guarded queue. The queue has no capacity of
    its own: {!run_ordered_seq} is its only producer, and its window
    bounds what is queued, so a huge batch never materializes as a huge
    queue.

    Determinism contract: the pool never tells a task which domain runs it
    or in which order tasks complete. Anything a task needs to vary by must
    come from its submission index (see {!run_ordered_seq}) — callers seed
    RNGs from [(base_seed, task_index)], e.g. {!Prelude.Rng.create2}, never
    from domain identity, so results are byte-identical at any domain
    count. *)

type t

val recommended_domain_count : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val create : ?domains:int -> unit -> t
(** [create ~domains ()] makes a pool of [domains] workers (default
    {!recommended_domain_count}). [domains = 1] spawns no worker domains:
    every {!run_ordered_seq} call on such a pool takes the exact
    sequential path. Raises [Invalid_argument] if [domains < 1]. *)

val domains : t -> int
(** The domain count the pool was created with. *)

val run_ordered_seq :
  t ->
  ?chunk:int ->
  window:int ->
  (int -> (unit -> 'a) option) ->
  emit:(int -> 'a option -> unit) ->
  int
(** [run_ordered_seq t ~chunk ~window supply ~emit] is the pool's one
    ordered driver. The pool calls [supply i] on the calling thread,
    strictly in increasing index order and exactly once per index, until it
    returns [None]; each supplied thunk runs on the worker domains ([chunk]
    consecutive thunks per queued task, default 1), and [emit i v] is
    called on the calling thread in increasing index order, once tasks
    [0 .. i] have all completed. [v] is [Some] of thunk [i]'s value, or
    [None] where it raised. Returns the number of tasks supplied.

    At most [window] tasks are in flight (supplied but not yet emitted) at
    any moment — the producer is only pulled when there is window room, so
    memory stays O(window) no matter how long the stream is. Each value
    waits for its [emit] in one ring of [window] slots. There is no
    default: {!Batch.window_size} decides it, and a [window] below [chunk]
    is raised to [chunk]. The exact sequential path holds one task at a
    time whatever the window.

    On two or more domains the caller emits only when it cannot supply:
    once the window is full, or once [supply] has returned [None]. A
    completed result therefore waits, held in memory, until then. So
    [window = n] over a batch of known size [n] suits only a consumer
    that does nothing until the end ({!Batch.map}); a consumer that
    prints or writes as it goes wants the default window.

    A raising thunk cannot wedge the pool: its exception is dropped and
    [emit] gets [None] for it, so a caller that needs the failure captures
    it inside the thunk ({!Batch} does, per task). Which domain runs a
    task and when is unobservable; [supply] and [emit] both run on the
    caller, so a stateful producer (a file reader) and a stateful consumer
    need no locking, and [emit] may print or write files. Memory written
    by task [i] is visible to [emit i] (the completion handshake
    synchronizes). *)

val shutdown : t -> unit
(** Drain the queue, stop and join all workers. Idempotent. Using the pool
    afterwards raises [Robust.Failure.Pool_down] instead of deadlocking.

    {b Fault tolerance.} The chaos site ["engine.pool.worker"] (see
    {!Robust.Chaos}) fires between dequeues and kills the worker that
    draws it — except the last live one, which refuses to die — so an
    armed worker-death rule degrades the pool gracefully down to one
    consumer and every batch still completes with ordered results. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] on a fresh pool and shuts it down
    afterwards, also on exception. *)
