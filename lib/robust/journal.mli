(** Append-only checkpoint journal for batch runs and the serve WAL.

    A journal records, per completed task, its submission index and the
    exact output payload the run emitted for it, so a killed run can be
    resumed and replay the completed prefix byte-identically instead of
    re-solving it (`sosctl batch --checkpoint PATH --resume`). The one
    public format is {!Sharded}. *)

val digest : string -> string
(** MD5 hex of a string (the serve WAL binds each reply to the digest of
    its canonical request). *)

(** {2 Bound payloads}

    A payload can carry the input it answers, so a resumed run refuses to
    replay it against an input that changed: the serve WAL binds each
    reply to the digest of its canonical request, and [sosctl batch] binds
    each result line to its spec's canonical text. *)

val bind : binding:string -> string -> string
(** [bind ~binding payload] is the payload to journal: [binding] with
    every ['%'], [' '] and ['\n'] percent-encoded ([%25], [%20], [%0A]),
    one space, then [payload]. The encoding makes the first space end the
    binding, so two bindings can never be confused, and leaves a hex
    digest byte-for-byte as is. *)

val unbind :
  binding:string -> string -> (string, [ `Unbound | `Mismatch ]) result
(** The check of a replayed payload against the input it now answers:
    [Ok payload] when it was bound to [binding], [Error `Mismatch] when it
    was bound to another input, [Error `Unbound] when it carries no
    binding at all (it has no space). *)

(** Sharded journal: the checkpoint of `sosctl batch` and the
    write-ahead log of `sosctl serve` (both `--checkpoint PATH`).

    {b File format} (line-oriented text, doc/ROBUSTNESS.md). The journal
    is split over [shards] files — entry [index] lands in shard
    [index mod shards], file [PATH.k], or [PATH] itself when
    [shards = 1]. Each shard is:
    {[
      <header line>                      e.g. "sosj2 seed=7 algo=window"
      <index> <md5-of-payload> <payload>
      ...
    ]}
    The header binds the journal to one run configuration; {!resume}
    refuses a journal whose header differs (resuming under a different
    seed or algorithm would silently mix outputs). What each entry
    answers is bound per entry ({!bind}), not in the header. With
    [N > 1] shards every header is suffixed with [" shard=k/N"], so a
    journal can never be resumed under a different shard count. {!resume}
    drops any entry whose digest does not match its payload — a process
    killed mid-append leaves at most one torn trailing line per shard,
    which is simply re-run. Payloads must be newline-free (enforced by
    {!append}).

    Sharding buys two things for million-spec runs: resume compacts and
    scans shards independently (each is 1/N of the data), and appends can
    be batched behind a [sync_every] flush policy per shard — a channel
    flush every K entries instead of every entry, trading at most
    [K - 1] re-run tasks per shard on a kill for sequential-write
    throughput. A flush hands the lines to the kernel, which is what
    survives a killed process; no append calls [fsync], so a machine
    crash may still lose lines the kernel had not written back. Only
    compaction ({!resume}) fsyncs, before its rename.

    Resume never materializes entries: each shard is streamed line-by-line
    into a {e bitset} of completed indices (125 KB per million tasks)
    while being {e compacted} — torn or corrupt lines dropped, the clean
    file atomically renamed into place — and replayed payloads are read
    back on demand through a forward-only cursor per shard. All reads cost
    O(longest line) memory, never O(file). *)
module Sharded : sig
  type t

  val start : path:string -> ?shards:int -> ?sync_every:int -> header:string -> unit -> t
  (** Create a fresh journal: truncates all [shards] (default 1) shard
      files and writes their headers. [sync_every] (default 1 = flush
      every entry) is the per-shard append count between flushes; both are
      clamped up to 1. *)

  val resume :
    path:string ->
    ?shards:int ->
    ?sync_every:int ->
    header:string ->
    unit ->
    (t, string) result
  (** Reopen an interrupted run's journal: verifies every shard's header
      (mismatch → [Error]), compacts each shard in one streaming pass
      (invalid lines dropped, atomic rename), and records the surviving
      indices in the resume bitset. A missing or empty shard file is
      recreated fresh. *)

  val mem : t -> int -> bool
  (** Did the interrupted run complete this index? (Always [false] on a
      {!start}-ed journal; fresh {!append}s do not set it.) *)

  val completed : t -> int
  (** Number of indices recorded by the interrupted run. *)

  val replay : t -> int -> string option
  (** The payload the interrupted run journalled for this index, or [None]
      if {!mem} is false. Must be called in increasing index order (the
      ordered-emission order): each shard is read through a forward
      cursor with one entry of pushback, so in-order entries cost O(1)
      reads. An entry lying {e behind} the cursor (a shard left
      index-unsorted by a prior resume appending re-run gap indices after
      higher ones) is still found, via a full-shard rescan. [None] with
      {!mem} true therefore means the journal lost the entry — callers
      must treat it as a failure, not as silence. *)

  val append : t -> index:int -> payload:string -> unit
  (** Journal one fresh entry into shard [index mod shards], flushing per
      the [sync_every] policy. Raises [Invalid_argument] if [payload]
      contains a newline. *)

  val flush : t -> unit
  (** Force out any appends still buffered behind [sync_every]. *)

  val close : t -> unit
  (** Flush and close every shard channel and replay cursor. *)

  val shards : t -> int

  val paths : t -> string array
  (** The shard file paths, in shard order. *)
end
