(** Schedules: time-indexed resource/job assignments, with a full validator.

    A schedule is a run-length-encoded list of steps. Each step carries the
    allocations of one time step; [repeat] says how many consecutive time
    steps use exactly these allocations (the step-skipping solver emits
    [repeat > 1]). The same blocks also come as a flat-int-column store,
    {!Columns}, which is what the solver emits and [sosctl batch] reads. For every allocation, [assigned] is the resource share
    handed to the job's processor and [consumed] the amount of its remaining
    requirement actually paid for, i.e. [min(assigned, r_j, s_j(t−1))];
    [assigned − consumed] is wasted resource.

    {b Strongly-polynomial analytics.} Every query below ([validate],
    [completion_times], [utilization], [jobs_per_step], [total_waste],
    [job_spans], [processor_assignment], [render_gantt]) is computed by a
    single fold over the RLE blocks, doing O(|allocs|) work per {e block} —
    never per expanded time step. On the [Fast] solver's output that is
    O((m+n)·n) total (Theorem 3.3's bound), independent of the processing
    volumes; a schedule with makespan 10⁷ and a few hundred blocks is
    analyzed in microseconds. Per-step views are exposed as compact step
    functions ({!profile}); {!to_dense} and {!expand} are the explicit,
    capped escape hatches back to Θ(makespan) form. *)

type alloc = { job : int; assigned : int; consumed : int }

type step = { allocs : alloc list; repeat : int }

type t = {
  inst : Instance.t;
  steps : step list;  (** in time order *)
  makespan : int;  (** [Σ repeat] *)
}

val make : Instance.t -> step list -> t
(** Computes the makespan; raises [Invalid_argument] on a non-positive
    [repeat]. *)

val empty : Instance.t -> t

val of_blocks : Instance.t -> step array -> len:int -> t
(** [of_blocks inst blocks ~len] builds a schedule from the first [len]
    entries of a block array in time order, for callers that accumulate
    [step] records in a growable array (the solver itself now emits a
    {!Columns.t}). One backward pass; the array is not retained. Raises
    [Invalid_argument] on a non-positive [repeat] or [len] out of range. *)

(** {1 RLE-native iteration} *)

val fold_segments :
  t -> init:'acc -> f:('acc -> t0:int -> repeat:int -> alloc list -> 'acc) -> 'acc
(** Fold over the run-length-encoded blocks in time order. [t0] is the
    expanded time index of the block's first step; the block covers
    [t0 .. t0+repeat−1]. All analytics in this module are built on this
    (or on {!segments}) and inherit its O(Σ|allocs|) cost. *)

val segments : t -> (int * int * alloc list) Seq.t
(** The blocks as a lazy [(t0, repeat, allocs)] sequence, for consumers
    that terminate early (e.g. {!render_gantt} stops at its column cap). *)

(** {1 Validation} *)

type violation = {
  at_step : int;  (** expanded time index (0-based), or -1 for global *)
  reason : string;
}

(** {1 Column store}

    The solver's native output: one flat int column per field, no record,
    cons cell or step per allocation. Per block, [repeat.(b)] and
    [first.(b)], the offset of its first allocation; block [b]'s
    allocations are [first.(b) .. first.(b+1) − 1] ([first] keeps one entry
    past the last block). Per allocation, [job.(i)], [assigned.(i)] and
    [consumed.(i)]. Only the first [blocks] (resp. [allocs]) entries are
    meaningful; the columns grow by doubling from capacities sized by the
    instance's n, never by m ([serve] accepts m = [max_int]).

    [validate] checks exist once, here; {!val-validate} on the list form
    converts with {!Columns.of_schedule} first. *)
module Columns : sig
  type schedule := t

  type t = private {
    mutable inst : Instance.t;
    mutable blocks : int;
    mutable repeat : int array;
    mutable first : int array;
    mutable allocs : int;
    mutable job : int array;
    mutable assigned : int array;
    mutable consumed : int array;
    mutable makespan : int;  (** [Σ repeat] when built by {!append} *)
  }

  val create : Instance.t -> t
  (** An empty store with capacity for [2n] blocks and [8n] allocations:
      the Fast solver emits up to about 2 blocks and 8 allocations per
      job, and a 4-job spec needs only a few entries. *)

  val reset : t -> Instance.t -> unit
  (** Empty the store and bind it to another instance, keeping its columns
      unless they are shorter than {!create}'s capacities for that
      instance's n. Whatever the store held before (a solve abandoned
      mid-loop included) is dropped. *)

  val words : t -> int
  (** Words the columns hold, headers aside: their capacity, not the
      blocks and allocations in use. *)

  val append :
    t -> job:int array -> assigned:int array -> consumed:int array -> len:int -> repeat:int -> unit
  (** Add the first [len] entries of three columns as one block of [repeat]
      steps (possibly with no allocation), and add [repeat] to the
      makespan — how the Fast solver appends each RLE block. No check:
      {!validate} rejects [repeat < 1]. *)

  val of_schedule : schedule -> t
  (** The list form's blocks, in order, with its [makespan] field copied as
      is (not recomputed), so {!validate} sees what the list claims. *)

  val to_schedule : t -> schedule
  (** The list form, in one backward pass. A job handed the same amounts in
      consecutive appearances shares one [alloc] record, as the solver's
      list output always did. [to_schedule (of_schedule s)] is
      structurally [s]. *)

  type validator
  (** The validator's per-job scratch (remaining requirement, first and
      last step seen, steps seen, last block seen), grown to the largest n
      it has checked. It shares nothing with the store or the solver. *)

  val validator : unit -> validator

  val validator_words : validator -> int
  (** Words its arrays hold, headers aside. *)

  val validate : ?scratch:validator -> ?preemption_ok:bool -> t -> (unit, violation) result
  (** The checks listed at {!val-validate}, one pass over the columns. With
      [~scratch] the per-job arrays are refilled rather than allocated, so
      a caller that checks one store after another allocates none of them
      again; without it, a fresh scratch is used. *)
end

val validate : ?preemption_ok:bool -> t -> (unit, violation) result
(** Checks, against the schedule's instance:
    - per block: [repeat ≥ 1];
    - per step: at most [m] allocations, pairwise-distinct jobs,
      [Σ assigned ≤ scale], [0 ≤ consumed ≤ min(assigned, r_j)], and
      [consumed < min(assigned, r_j)] only in a job's finishing step;
    - globally: [makespan = Σ repeat];
    - per job: consumed totals exactly [s_j], never over-consumed;
    - unless [preemption_ok]: each job's allocation steps are contiguous
      (non-preemption). Together with [≤ m] jobs per step this suffices
      for non-migration: contiguous intervals of an interval graph with
      clique number ≤ m are m-colourable, so a fixed-processor assignment
      exists. The validator does not build it; {!processor_assignment}
      does, by greedy interval colouring.

    Converts with {!Columns.of_schedule} and runs {!Columns.validate}: one
    pass over the blocks, O(Σ|allocs|), independent of makespan. *)

val assert_valid : ?preemption_ok:bool -> t -> unit
(** Raises [Failure] with the violation message. *)

val expand : t -> t
(** Replace every run-length-encoded step by [repeat] copies. Semantically
    identical; [validate] agrees on both forms (tested property). Only for
    moderate makespans — this is the Θ(makespan) escape hatch. *)

val processor_assignment : ?validate:bool -> t -> (int * int * int) list
(** [(job, processor, start_step)] for each job, computed by greedy interval
    coloring over the block timeline; requires a valid non-preemptive
    schedule. By default the schedule is validated first and [Failure] is
    raised otherwise; internal render/export callers pass [~validate:false]
    to avoid re-validating a schedule they already checked (the coloring
    itself still fails loudly on schedules needing more than [m]
    processors). *)

val job_spans : t -> (int * int * int) list
(** [(job, first_step, last_step)] (0-based, inclusive) for every job that
    receives an allocation, in job order. Works for preemptive schedules
    too (the span then covers the gaps). *)

val completion_times : t -> int array
(** Per job, the 1-based step in which its consumption completes [s_j]
    (0 for a job with [s_j = 0] allocations only — impossible for valid
    schedules of well-formed instances). Raises [Invalid_argument] if some
    job never completes. Completion inside a [repeat > 1] block is located
    by division, not simulation. *)

val sum_completion_times : t -> int
val mean_completion_time : t -> float
(** 0 on the empty instance. *)

(** {1 Step-function profiles}

    Per-step analytics are returned as compact step functions: a
    [(t0, len, value)] array, consecutive and gap-free, covering
    [0 .. makespan−1] with adjacent equal values merged. [|profile| ≤
    |steps|], so the representation stays proportional to the solver
    output, not to the makespan. *)

type 'a profile = (int * int * 'a) array
(** [(t0, len, value)]: the value holds on expanded steps
    [t0 .. t0+len−1]. *)

val profile_length : 'a profile -> int
(** Total covered length ([makespan] for the profiles produced here). *)

val to_dense : ?cap:int -> default:'a -> 'a profile -> 'a array
(** Expand a profile to one cell per time step, for plotting. [cap] bounds
    the array length (the profile is truncated, keeping the first [cap]
    steps); without it the full [profile_length] is materialized —
    Θ(makespan), so always pass [cap] on schedules of huge-volume
    instances. [default] fills a (never-occurring) gap and types the empty
    array. *)

val utilization : t -> float profile
(** Per step, [Σ consumed / scale], as a step function. *)

val assigned_utilization : t -> float profile
(** Per step, [Σ assigned / scale], as a step function. *)

val jobs_per_step : t -> int profile
(** Per step, number of allocations, as a step function. *)

val total_waste : t -> int
(** [Σ (assigned − consumed)] over all steps, in resource units. *)

(** {1 Rendering} *)

val render_gantt : ?max_width:int -> t -> string
(** ASCII Gantt chart (rows = processors, columns = time steps); truncated
    to [max_width] (default 120) columns. Only the blocks intersecting the
    visible columns are walked — O(m·max_width) regardless of makespan. *)

val pp : Format.formatter -> t -> unit
