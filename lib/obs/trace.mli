(** Chrome [trace_event] recorder: span timelines loadable in
    [chrome://tracing] / Perfetto.

    Disabled by default; {!start} turns recording on (one atomic flag, so
    an inactive {!with_span} is just the call). Events carry wall-clock
    timestamps in microseconds relative to {!start} and a caller-chosen
    integer [tid] that Chrome renders as one horizontal track — the engine
    pool passes its worker-domain index so a batch shows one lane per
    domain. Timestamps are wall clock: traces are diagnostics, never part
    of any determinism contract.

    {!export} renders the standard JSON object format
    [{"traceEvents": [...]}]; every event is a complete ("ph":"X"),
    metadata ("M"), or flow ("s"/"t"/"f") record.

    {b Bounded mode.} By default the buffer grows without bound — fine
    for diagnostic runs, fatal for a million-spec stream. [start
    ~ring:N ()] (or {!set_ring}) caps it at the [N] {e newest} events:
    older events are overwritten in place and counted, the count is
    reported as a top-level ["droppedEvents"] field in {!export}, and
    tracing a streamed batch runs in O(N) memory. *)

val start : ?ring:int -> unit -> unit
(** Clear the buffer, set the epoch, start recording. [ring] caps the
    buffer at that many newest events; omitted means unbounded. *)

val stop : unit -> unit
(** Stop recording; the buffer is kept for {!export}. *)

val active : unit -> bool

val reset : unit -> unit
(** Drop all buffered events and zero the dropped count (does not change
    the active flag or the ring cap). *)

val set_ring : int option -> unit
(** Change the buffer bound: [Some n] keeps only the [n] newest events
    from now on (trimming immediately, counting trimmed events as
    dropped); [None] restores unbounded growth. *)

val dropped : unit -> int
(** Events overwritten or trimmed since the last {!reset}/{!start}. *)

type arg = S of string | I of int | F of float
(** Argument values attached to an event ([args] in the trace format). *)

val with_span :
  ?tid:int -> ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk as a named span on track [tid] (default 0); the complete
    event is recorded when the thunk returns {e or raises}. Category
    defaults to ["app"]. *)

val set_thread_name : tid:int -> string -> unit
(** Metadata naming a track, e.g. ["domain-3"]. *)

(** {1 Flow events}

    Flow arrows correlate one logical item across tracks: the batch
    pipeline emits [flow_start] when the producer supplies a spec,
    [flow_step] inside the worker that solves it, and [flow_end] at
    ordered emission/journal append — all sharing [id = spec index], so
    Perfetto draws the spec's path producer → worker → journal. *)

val flow_start : ?tid:int -> ?cat:string -> id:int -> string -> unit
val flow_step : ?tid:int -> ?cat:string -> id:int -> string -> unit
val flow_end : ?tid:int -> ?cat:string -> id:int -> string -> unit

val export : unit -> string
(** The buffered events as a Chrome trace JSON object (plus a
    ["droppedEvents"] count when the ring overwrote any). Valid whether
    or not recording is still active; the buffer is not cleared. *)

