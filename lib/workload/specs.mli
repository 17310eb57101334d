(** Streaming spec corpus reader/writer for [sosctl batch].

    A spec corpus is a sequence of records, each describing one instance
    to solve: a generator request ([Gen]: family, [n], [m], optional
    scale) or an instance file reference ([File]). Two encodings are
    autodetected by a single reader:

    - {b text}: the historical newline-delimited form, one
      [FAMILY N M [SCALE]] or [@PATH] per line, blank lines and [#]
      comments skipped (but still counted, so [recno] is the 1-based
      {e physical} line number, locatable in an editor);
    - {b binary}: magic ["sosbin1\n"], a family-name table
      (u32-LE count, then length-prefixed names), then fixed-width
      16-byte records (u32-LE family index, n, m, scale; scale 0 = use
      the family default). [recno] is the 1-based record ordinal.
      Produced by {!convert_to_binary} / {!Writer} (e.g.
      [sosctl export --specs-bin]).

    Reads stream straight off the channel, with no buffer of the
    reader's own, in O(longest line) memory whatever the corpus size,
    and a malformed line or torn trailing binary record becomes a [Bad]
    record carrying the exact diagnostic — the reader never raises on
    bad input. *)

type payload =
  | Gen of { family : string; n : int; m : int; scale : int option }
      (** generate from the named family (validated downstream) *)
  | File of string  (** [@PATH]: read an instance file *)
  | Bad of string  (** malformed spec; the error message to report *)

type record = {
  recno : int;  (** 1-based line (text) / record (binary) number *)
  raw : string;
      (** the record's canonical text ({!canonical}): a generator request
          whitespace-normalized, [@PATH] and a malformed text spec as
          written (trimmed), a corrupt binary record its diagnostic *)
  payload : payload;
}

val parse_line : string -> payload
(** Parse one trimmed, non-blank, non-comment text spec. Integer fields
    must be >= 1; violations and arity errors yield [Bad] with the
    historical `sosctl batch` message. Family names are {e not} resolved
    here (the valid set and the [m] floor depend on the consumer). *)

val canonical : record -> string
(** The canonical text form of a record — whitespace-normalized, identical
    whether the record was read from text or binary, and built once by
    the reader, so reading it costs nothing. Records with equal canonical
    text solve identically: [sosctl batch] binds each checkpoint entry to
    it, and the digest below folds it. *)

val family_names : unit -> string list
(** The generator families a binary corpus can name, in table order:
    {!Sos_gen.all_families} then their [-unit] variants. *)

(** {2 Streaming digest}

    Chained MD5 over the canonical record stream, folded in fixed
    1024-record blocks — O(1) memory, invariant under reader buffering,
    and equal for a text corpus and its binary conversion. No [sosctl]
    command calls these (its checkpoint binds each entry to its spec);
    they stay because [benchmark/]'s replica links them. *)

type digest_state

val digest_create : unit -> digest_state
val digest_line : digest_state -> string -> unit
val digest_finish : digest_state -> string
(** Hex digest of the lines fed so far (the state is spent afterwards). *)

val digest_of_path : string -> (string, string) result
(** One streaming pass over a corpus file: the digest of its canonical
    record stream. [Error] if the file cannot be opened or its binary
    header is corrupt. *)

(** {2 Reading} *)

type source

val open_path : string -> (source, string) result
(** Open a corpus file, sniffing the encoding from its first line: binary
    iff the first 8 bytes are the magic ["sosbin1\n"] (a bare 7-byte
    [sosbin1] is a one-record text corpus). [Error] on I/O failure or a
    corrupt binary family table. *)

val of_channel : In_channel.t -> (source, string) result
(** Same autodetection over an existing channel (e.g. stdin); the channel
    is not closed by {!close}. *)

val is_binary : source -> bool

val read : source -> record option
(** Next record, or [None] at end of input. Text blank/comment lines are
    skipped. Never raises on malformed input (see [Bad]). *)

val close : source -> unit

(** {2 Writing binary corpora} *)

module Writer : sig
  type t

  val create : Out_channel.t -> t
  (** Write the magic and the {!family_names} table; the channel is the
      caller's to close. *)

  val add : t -> family:string -> n:int -> m:int -> ?scale:int -> unit -> (unit, string) result
  (** Append one 16-byte record. [Error] on an unknown family or
      out-of-range field (nothing is written then). *)
end

val convert_to_binary : src:string -> dst:string -> (int, string) result
(** Convert a corpus (usually text) to binary at [dst], streaming both
    sides; returns the record count. Strict: a [Bad] record, an [@PATH]
    spec, or an unknown family aborts with an [Error] naming the record —
    a converted corpus is guaranteed to replay identically. A [dst] that
    cannot be written is an [Error] too. *)
