(** Heartbeat reporter for long-running batches.

    A reporter is driven entirely by its caller: {!tick} on every emitted
    result (rate-limited to one line per [interval] seconds of
    [Prelude.Clock] time), {!finish} once at the end. [sosctl batch
    --progress] ticks from the caller-thread pull loop, so heartbeats
    involve no worker domains and never touch stdout (byte-identity is
    preserved).

    Heartbeat line (key=value, one per line, written to [out] — default
    stderr):

    {v progress DONE RATE/s err=N window=OCC/CAP [vmhwm=NkB] v}

    The final line replaces the rate with the whole-run average:

    {v progress done DONE err=N elapsed=Ss avg=RATE/s v}

    There is no total and no ETA: a streaming reader never knows how long
    its corpus is. *)

type t

val create : ?interval:float -> window_cap:int -> ?out:(string -> unit) -> unit -> t
(** [interval] seconds between heartbeats (default 2.0; 0 means every
    tick). [window_cap] is the configured streaming-window capacity shown
    as [window=occ/cap]. [out] receives each line including its ["\n"]
    (default: write and flush stderr). *)

val tick : t -> done_:int -> errors:int -> occupancy:int -> unit
(** Report progress; emits a heartbeat iff at least [interval] seconds
    have passed since the last one. [occupancy] is the current number of
    in-flight specs in the streaming window. *)

val finish : t -> done_:int -> errors:int -> unit
(** Emit the final summary line unconditionally. *)

val beats : t -> int
(** Number of lines emitted so far (tests). *)

(** {1 Pure formatting} (exposed for golden tests) *)

val format_line :
  done_:int -> rate:float -> errors:int -> window:int * int -> rss_kb:int option -> string

val format_final : done_:int -> errors:int -> elapsed_s:float -> string

val status_kb : string -> int option
(** [status_kb field] is a kB-valued field of [/proc/self/status] —
    ["VmHWM"] (peak RSS), ["VmRSS"] (current RSS); [None] where
    unavailable. *)

val peak_rss_kb : Metrics.counter
(** [process.peak_rss_kb], a runtime counter: the process's peak RSS in
    kB. [sosctl] raises it to [status_kb "VmHWM"] right before it writes
    a [--metrics] snapshot. *)
