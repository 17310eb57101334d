(** The scheduling service behind [sosctl serve] (doc/SERVE.md).

    One server holds a table of per-tenant {!Sos.Online.Session}s and
    answers the {!Protocol} line protocol over any channel pair: requests
    are read one line at a time, handled strictly in order, and answered
    with exactly one reply line each, all on the calling thread. A
    placement query runs through {!Engine.Batch.run}, keyed on its request
    index — inheriting its per-request deadline, bounded retry, and
    deterministic backoff machinery — while mutations are applied
    directly. Scheduling work is deterministic ({!Sos.Online.Session}'s
    tested property), so only wall-clock effects (deadline expiry
    answering [stale]) can differ between runs of one request stream.

    {b Admission control.} The session table is bounded ([max_sessions]),
    and each session carries hard job-count and volume budgets. Work past
    a bound is refused with an explicit [overload] reply — the server
    sheds load instead of growing without bound, so peak RSS is a
    function of the caps, not of how abusive the client is.

    {b Crash safety.} With a checkpoint configured, every reply is
    appended to a {!Robust.Journal.Sharded} write-ahead log {e before} it
    is emitted, keyed by request index and bound to a digest of the
    canonical request. [resume = true] reopens the log and, as the input
    is re-driven, answers journalled indices verbatim from the log
    (re-applying their state transitions, re-solving nothing) and refuses
    a request that no longer matches its journalled digest. A daemon
    killed mid-stream and restarted with [--resume] over the same input
    therefore produces a byte-identical reply transcript. A journal write
    or integrity failure is fail-stop: the WAL is the source of truth, so
    the server reports [error journal]/[error resume-mismatch] and exits
    with code 4 rather than continue unjournalled.

    {b Graceful drain.} Once draining (the [drain] request, or the
    caller's [should_drain] — wired to SIGTERM by [sosctl serve]) the
    server stops admitting mutations ([reject draining]) but still
    answers queries and [close]; at end of input it flushes and reports
    exit code 0. [should_abort] (second signal) stops at the next request
    boundary with code 130. *)

type config = {
  max_sessions : int;  (** session-table bound; [open] past it → overload *)
  max_jobs : int;  (** per-session job budget *)
  max_volume : int;  (** per-session [Σ size] budget *)
  deadline : float option;  (** default per-query deadline, seconds *)
  retries : int;  (** extra solve attempts on transient failure *)
  backoff : Robust.Backoff.policy option;  (** retry delays (none = immediate) *)
  checkpoint : string option;  (** WAL path; [None] = no crash safety *)
  resume : bool;  (** reopen an interrupted run's WAL *)
  shards : int;  (** WAL shard count *)
  sync_every : int;  (** WAL appends between flushes, per shard *)
}

val default : config
(** 64 sessions, 10_000 jobs and 1_000_000 volume per session, no
    deadline, no retries, no checkpoint, 1 shard, flush every entry. *)

val header : config -> string
(** The WAL header line. It binds the admission caps (they shape which
    requests were accepted) but not deadlines or retries (they shape only
    timing). *)

type t
(** A running server: session table, WAL, drain state, reply counters. *)

val create : config -> (t, string) result
(** [Error] when [retries < 0], or when the WAL cannot be started or
    resumed (header mismatch, a shard that cannot be read or written). *)

type summary = {
  requests : int;  (** lines handled, including replayed ones *)
  replayed : int;  (** replies answered verbatim from the WAL *)
  overloads : int;  (** [overload] replies *)
  stale : int;  (** deadline-degraded [stale] replies *)
  errors : int;  (** [error] replies (parse errors included) *)
  sessions : int;  (** sessions still open *)
  exit_code : int;  (** 0 done/drained, 130 aborted, 4 WAL failure *)
}

val serve :
  t ->
  ?pool:Engine.Pool.t ->
  input:in_channel ->
  output:out_channel ->
  ?cancel:Robust.Cancel.t ->
  ?should_drain:(unit -> bool) ->
  ?should_abort:(unit -> bool) ->
  unit ->
  unit
(** Handle requests from [input] until end of input, a [shutdown]
    request, [should_abort], or a WAL failure. Requests are read through
    a {!Lines} reader: a line longer than {!Lines.max_line} bytes takes
    one index and is answered [error parse request longer than 4096
    bytes]. Replies wait in [output]'s buffer and are flushed before each
    read of [input] that may block, right after the first request of
    each such read, and before [serve] returns — so a client that waits
    for a reply always gets it. A failed write raises [Sys_error]. May be called again with
    another channel pair (the unix socket accept loop does); request
    indices keep counting across calls. [cancel] is the parent of every solve's deadline token —
    cancelling it makes in-flight solves unwind as [Cancelled]. [pool] is
    accepted for older callers and ignored: queries run on the calling
    thread. *)

val stopped : t -> bool
(** The server decided to stop ([shutdown], abort, or WAL failure);
    callers running an accept loop must stop offering it connections. *)

val finish : t -> summary
(** Flush and close the WAL and return the final counters. The server
    must not be used afterwards. *)
