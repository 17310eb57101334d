(** Online SoS: jobs arrive over time (release dates) and the scheduler
    learns of a job only at its release. The paper treats the offline
    problem; this module is the natural online extension (window-style
    greedy), kept as an explicitly heuristic variant — no competitive ratio
    is claimed, the benchmark measures it against the clairvoyant lower
    bound.

    Policy, per time step: the active set keeps every started-unfinished
    job (non-preemption), then admits released jobs in admission order
    while fewer than m−1 jobs are active and the active set without its
    largest member stays below the full resource (the window algorithm's
    properties (b)/(e) in spirit). Assignment mirrors Listing 1: everyone
    except the largest active job gets its full requirement, the largest
    the leftover.

    Admission order is not "smallest released requirement". Released jobs
    queue first by generation — the number of admissions made before the
    job was released, fewest first — and only then by smallest
    requirement, ties by submission position. So a job that was released
    but passed over at one admission stays ahead of every job released
    after it. The queue is a binary heap fed from the jobs sorted by
    release, so a full simulation costs O(n log n) plus O(m) per block.

    The simulation does not step through time one unit at a time. It
    jumps from event to event — a release while a slot is free, a job
    finishing, a job's partial last step — and decides one run-length
    block per interval in between, including one per idle gap. A run
    over n jobs therefore has at most 3n blocks whatever its makespan,
    and a solve's work grows with its events, not with its makespan.
    The running jobs sit in one array in (req, position) order, at most
    min(m − 1, n) of them, so a block costs O(m) array work and
    allocates nothing. The expanded schedule is exactly the per-step
    policy's (tested against a per-step reference simulator).

    Two entry points share one engine. {!run} is the one-shot form.
    {!Session} is the incremental form behind [sosctl serve]: jobs are
    submitted one at a time under optional job-count and volume budgets,
    and each [solve] reuses the committed simulation when it can —
    answering from cache when nothing changed, resuming the committed
    simulation from its checkpoint when every new job is released at or
    after that run's latest release R, and only re-simulating from
    scratch when a new arrival is released before R. Both return a
    {!result} keyed by submission position: its job count, makespan and
    start times, what a serve reply reads. A result keeps no blocks.

    The checkpoint is the simulation's state at one admission attempt:
    the first, at a time t >= R, where no job is queued or the queue's
    head was released after the g* jobs that started before R had been
    admitted. Until then every queue head was released before R, so a
    job released at or after R never reaches the head and changes no
    allocation: the run up to the checkpoint is the same with or without
    it. The checkpoint keeps the time, the admissions count, the running
    jobs with their remaining work, and the queued jobs with their
    generations — O(m + queued) words per session. A resume copies the
    committed starts, queues the new jobs released by the checkpoint's
    time, and continues from there, so it costs the blocks after the
    checkpoint plus an O(n) copy of the starts. {!materialize} builds
    the offline views — the sorted {!Instance.t}, the id-keyed
    {!Schedule.Columns.t} and the start times in id order — for callers that
    want them, by running the same simulation again from scratch, and
    checks the result it was given against that run. All three solve
    paths produce results byte-identical to {!run} on the same job set
    (tested property). *)

type arrival = { release : int; size : int; req : int }
(** [release ≥ 0] in time steps; [size], [req] as in {!Instance}. *)

type result = {
  jobs : int;  (** jobs scheduled *)
  makespan : int;  (** the step at which the last job has finished *)
  starts : int array;
      (** [starts.(p)] is the 0-based first step of the job submitted at
          position [p]; [jobs] entries. Read only: a session's next
          solve starts from its last result's array. *)
}
(** A finished simulation, keyed by submission position. It holds no
    schedule blocks: {!materialize} rebuilds them. *)

type offline = {
  instance : Instance.t;  (** the jobs, as an offline instance *)
  schedule : Schedule.Columns.t;  (** over the offline instance's job ids *)
  start_times : int array;  (** 0-based first step of each job, by instance id *)
}

val materialize : m:int -> scale:int -> arrival list -> result -> offline
(** [materialize ~m ~scale arrivals r] is [r] as an offline schedule:
    [arrivals], the jobs [r] scheduled in submission order, as an
    {!Instance.t}; the schedule's blocks keyed by its job ids; and the
    start times in id order. The blocks come from a from-scratch run of
    the simulation over [arrivals], so a call costs O(n log n + blocks),
    and that run must give [r]'s makespan and starts: every call checks
    [r], a resumed result say, against it. Raises
    [Robust.Failure.Invalid] on an arrival {!run} refuses, then
    [Invalid_argument] on [m < 2] or [scale < 1], then
    [Robust.Failure.Invalid (Malformed _)] when [arrivals] does not hold
    [r.jobs] jobs or their run's makespan or any start differs from
    [r]'s. *)

(** Incremental sessions: one tenant's arrival stream, solved on demand. *)
module Session : sig
  type t

  type reject =
    | Bad_arrival of Robust.Failure.invalid
        (** malformed job: negative release, non-positive size or req; or
            [Overflow] when last release + Σ p_j·r_j, a bound on the
            session's makespan, would pass [max_int] *)
    | Jobs_budget of { cap : int }  (** session already holds [cap] jobs *)
    | Volume_budget of { cap : int; volume : int }
        (** admitting the job would push total size past [cap] *)

  val reject_message : reject -> string
  (** One-line human-readable form, stable for protocol error lines. *)

  val create :
    ?max_jobs:int -> ?max_volume:int -> m:int -> scale:int -> unit -> t
  (** A fresh empty session. Budgets are enforced by {!add}; omitted means
      unlimited. [m]/[scale] are validated by the first {!solve}, exactly
      as {!run} validates them. *)

  val add : t -> arrival -> (int, reject) Stdlib.result
  (** Admit one job; [Ok position] is its 0-based submission index.
      Rejected jobs leave the session unchanged. Never raises. *)

  val solve : t -> result
  (** The schedule for everything admitted so far — equal to
      [run ~m ~scale (arrivals t)]. A cached answer costs O(1). A resume
      from the committed checkpoint costs O(m) per block after the
      checkpoint and O(log n) per admission, plus an O(n) copy of the
      starts, O(m + queued + new jobs) set-up, and one O(n) count per
      distinct release among the new jobs released by the checkpoint's
      time. A full re-solve costs O(n log n) plus O(m) per block. None
      builds the offline views ({!materialize} does). Raises [Invalid_argument] on
      [m < 2] or [scale < 1]. May raise {!Robust.Failure.Deadline} (via
      the ambient {!Robust.Context.poll}) or a chaos-injected fault from
      the [sos.online.run] site; either way the session keeps its last
      committed result, so a later [solve] retries and {!peek} still
      answers. *)

  val peek : t -> result option
  (** The last successfully committed result, without solving. [None]
      until the first completed [solve]. The serve layer's stale answer:
      when a fresh solve misses its deadline this is what degrades to. *)

  val dirty : t -> bool
  (** [true] when {!peek}'s answer (or its absence) is stale — jobs were
      admitted after the last committed solve. *)

  val m : t -> int
  val scale : t -> int

  val jobs : t -> int
  (** Jobs admitted. *)

  val volume : t -> int
  (** [Σ size] over admitted jobs. *)

  val arrivals : t -> arrival list
  (** In submission order. *)

  val lower_bound : t -> int
  (** [lower_bound ~m ~scale (arrivals t)], in O(1): the session keeps
      the sums. Raises [Invalid_argument] on [m < 2] or [scale < 1]. *)

  type stats = {
    full_solves : int;  (** re-simulated from time 0 *)
    extended_solves : int;  (** resumed from the committed checkpoint *)
    cached_hits : int;  (** answered with the committed result *)
    blocks : int;  (** blocks simulated by the completed solves *)
  }

  val stats : t -> stats
  (** How the completed solves so far were answered, and the work they
      simulated. A solve that unwinds counts nowhere. *)
end

val run : m:int -> scale:int -> arrival list -> result
(** Raises [Robust.Failure.Invalid] on any arrival {!Session.add} rejects
    as [Bad_arrival], then [Invalid_argument] on [m < 2] or
    [scale < 1]. *)

val lower_bound : m:int -> scale:int -> arrival list -> int
(** Clairvoyant bound: [max(Eq.(1) on all jobs, max_j (release_j + p_j))],
    in one pass over the arrivals. Raises as {!Bounds.lower_bound} would
    on the offline instance: [Robust.Failure.Invalid] on the first
    malformed arrival, then [Invalid_argument] on [m < 2] or [scale < 1],
    then [Robust.Failure.Invalid (Overflow _)] on an overflowing sum. *)

val respects_releases : result -> arrival list -> bool
(** [arrivals] holds [r.jobs] jobs and every one starts, no earlier than
    its release (the schedule validator knows nothing about releases, so
    this is checked separately). *)
