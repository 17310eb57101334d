(** Bounded request lines over an [in_channel] (doc/SERVE.md).

    The reader pulls its channel through a 4 KiB buffer and splits it at
    ['\n'] as [In_channel.input_line] does: the newline is dropped, ['\r']
    and NUL bytes are kept, an empty line is a line, and a last line
    without a newline is still a line. A line longer than {!max_line}
    bytes is never stored whole: the reader keeps its first {!max_line}
    bytes and skips the rest up to its newline.

    A refill — one [In_channel.input] into the buffer — is the only call
    that may block. [before_refill] runs right before each one, which is
    where [Server.serve] writes the replies it holds. *)

val max_line : int
(** 4096: the longest line returned whole, newline excluded. *)

type t

val create : ?before_refill:(unit -> unit) -> in_channel -> t
(** A reader of the channel's remaining bytes. [before_refill] defaults
    to doing nothing. *)

type line =
  | Line of string  (** a line of at most {!max_line} bytes *)
  | Too_long of string  (** a longer line's first {!max_line} bytes *)

val read : t -> line option
(** The next line, or [None] at end of input (and at every read after
    it). Reads the channel only once the buffer holds no complete
    line. *)

val refills : t -> int
(** Refills so far, the one at end of input included. A change across
    one {!read} means that line's request is the first of a refill. *)
