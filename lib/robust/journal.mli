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
    journal can never be resumed under a different shard count. Payloads
    must be newline-free (enforced by {!append}).

    {b The prefix rule.} Entries are appended in index order, so shard
    [k] holds [k], [k + N], [k + 2N], …. {!resume} keeps the longest
    prefix of that sequence whose lines are whole, newline-terminated and
    digest-clean, and cuts the file after it. Whatever follows is run
    again: a torn tail (a kill mid-append leaves at most one per shard), a
    corrupt line, or a gap (an index a signal cancelled while later ones
    finished) with every entry behind it. Runs are deterministic, so that
    rewrites the bytes a replay would have given; after a signal it is at
    most the in-flight window, and a corrupt line costs the rest of its
    shard. The serve WAL is appended in request order and has no gaps.

    Appends flush per shard every [sync_every] entries, trading at most
    [sync_every - 1] re-run tasks per shard on a kill for sequential-write
    throughput. A flush hands the lines to the kernel, which is what
    survives a killed process; no append calls [fsync], so a machine crash
    may lose lines the kernel had not written back. Only {!resume} fsyncs,
    after it cuts a shard. Resume and replay each read a shard once,
    line by line: O(longest line) memory, never O(file). *)
module Sharded : sig
  type t

  val start : path:string -> ?shards:int -> ?sync_every:int -> header:string -> unit -> t
  (** Create a fresh journal: truncates all [shards] (default 1) shard
      files and writes their headers. [sync_every] (default 1 = flush
      every entry) is the per-shard append count between flushes; both are
      clamped up to 1. Raises [Sys_error] when a shard cannot be
      written. *)

  val resume :
    path:string ->
    ?shards:int ->
    ?sync_every:int ->
    header:string ->
    unit ->
    (t, string) result
  (** Reopen an interrupted run's journal: verifies every shard's header
      (mismatch → [Error]) and cuts each shard after its prefix (above)
      with one fsync'd [ftruncate], writing nothing to a shard that is its
      own prefix. A missing or empty shard is recreated fresh. An I/O
      failure is [Error] too. *)

  val mem : t -> int -> bool
  (** Is this index in its shard's kept prefix? (Always [false] on a
      {!start}-ed journal; fresh {!append}s do not set it.) *)

  val completed : t -> int
  (** Number of entries in the kept prefixes. *)

  val replay : t -> int -> string option
  (** The payload the interrupted run journalled for this index, or [None]
      if {!mem} is false. Must be called in increasing index order (the
      ordered-emission order): each shard is read forward once. [None]
      with {!mem} true means the entry is gone — callers must treat it as
      a failure, not as silence. *)

  val append : t -> index:int -> payload:string -> unit
  (** Journal one fresh entry into shard [index mod shards], flushing per
      the [sync_every] policy. Raises [Invalid_argument] if [payload]
      contains a newline. *)

  val close : t -> unit
  (** Flush and close every shard channel and replay reader. *)

  val shards : t -> int

  val paths : t -> string array
  (** The shard file paths, in shard order. *)
end
