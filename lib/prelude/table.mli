(** Fixed-width plain-text table rendering for the benchmark harness.

    All experiment tables in [bench/main.exe] are printed through this module
    so that the output is aligned, greppable, and diffable across runs. *)

type align = Left | Right

type t

val create : ?title:string -> (string * align) list -> t
(** [create ~title headers] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** Appends a row. Raises [Invalid_argument] if the arity differs from the
    header arity. *)

val add_sep : t -> unit
(** Appends a horizontal separator line. *)

val render : t -> string
(** Renders the whole table, including title and rules. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)

(** Cell formatting helpers. *)

val fmt_float : ?digits:int -> float -> string
val fmt_ratio : float -> string
(** Ratio with 4 digits, e.g. ["1.0833"]. *)

val fmt_int : int -> string
