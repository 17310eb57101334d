(** An SoS problem instance (Section 1.1).

    [m] identical processors share one divisible resource of total size 1 per
    time step. The resource is represented in exact fixed-point: the instance
    fixes [scale ∈ ℕ] and "1 unit of resource" means [1/scale] of the whole;
    a full time step offers [scale] units. A job is two integers, its size
    [p_j ≥ 1] and its requirement [r_j ≥ 1] in units (it may exceed
    [scale]), and an instance holds them as two int columns, sorted by
    non-decreasing requirement as the paper assumes ([r_1 ≤ … ≤ r_n]), ties
    in the caller's order. Job [i] is index [i] of both columns; its total
    resource requirement is [s_j = p_j · r_j] ({!s}). The permutation back
    to the caller's original order is retained.

    The columns are read-only: the record is private, but an array's cells
    are not, and writing one would break the sort and the checks every
    constructor made. *)

type t = private {
  m : int;  (** number of processors, [≥ 2] *)
  scale : int;  (** resource units per time step, [≥ 1] *)
  size : int array;  (** [size.(i) = p_i ≥ 1], in sorted order; read-only *)
  req : int array;
      (** [req.(i) = r_i ≥ 1], non-decreasing, ties by caller position;
          read-only *)
  original : int array;  (** [original.(i)] = caller position of job [i] *)
}

val create : m:int -> scale:int -> (int * int) list -> t
(** [create ~m ~scale specs] builds an instance from [(size, req)] pairs,
    [req] in units of [1/scale]. Raises [Invalid_argument] if [m < 2],
    [scale < 1], or any size/req is non-positive (the first such job in
    list order, its size before its req). The empty job list is
    allowed. *)

val of_columns : m:int -> scale:int -> size:int array -> req:int array -> t
(** {!create} over two columns: the job at caller position [p] is
    [(size.(p), req.(p))]. Same checks, in the same order, with the same
    messages; raises [Invalid_argument] as well if the columns differ in
    length. Neither array is retained, so a caller may refill them for
    the next instance. *)

val check_shape : m:int -> scale:int -> unit
(** Raises [Invalid_argument] if [m < 2] or [scale < 1], exactly as
    {!create} does. *)

val of_floats : m:int -> scale:int -> (int * float) list -> t
(** Like {!create} with requirements given as fractions of the resource;
    each is rounded to the nearest unit, clamped to at least 1 unit. *)

val n : t -> int

val s : t -> int -> int
(** [s t i] is job [i]'s total resource requirement [s_i = p_i · r_i], in
    resource units. Raises [Invalid_argument] out of range. *)

val total_volume : t -> int
(** [Σ_j p_j]. *)

val total_requirement : t -> int
(** [Σ_j s_j] in resource units. *)

val sum_req : t -> int
(** [r(J) = Σ_j r_j] in resource units. *)

val max_size : t -> int
(** [max_j p_j]; 0 on the empty instance. *)

val unit_size : t -> bool
(** All jobs have [p_j = 1]. *)

val rescale : t -> int -> t
(** [rescale t c] multiplies [scale] and every requirement by [c ≥ 1]. The
    instance is combinatorially identical; useful to make budgets like
    [(⌊m/2⌋−1)/(m−1)] exactly representable. *)

val to_string : t -> string
(** A line-oriented text format, parsed back by {!of_string}: a header
    [sos m scale n], then one [pos size req] line per job, where [pos] is
    the job's original position. Job lines come in the instance's
    sorted order, [(req, pos)] ascending. *)

val of_string : string -> t
(** Raises [Failure] on malformed input, including a position column
    that is not a permutation of [0..n-1], and [Invalid_argument] as
    {!create} does. Lines are separated by ['\n'] and trimmed of
    [String.trim]'s whitespace; blank lines are skipped. Tokens are
    separated by single spaces and read with [int_of_string]'s syntax
    (signs, [0x]/[0o]/[0b]/[0u] prefixes and underscores included). Job
    lines already in [(req, pos)] order, the order {!to_string} writes,
    decode without a sort. *)

(** {1 Strict validation}

    [Result]-returning entry-point validators (doc/ROBUSTNESS.md): the
    CLI, the bench harness, and the batch engine route untrusted input
    through these instead of catching [Invalid_argument] from the raising
    constructors. With [~window:true] they additionally require [m >= 3],
    the precondition of the window algorithm's Theorem 3.3 guarantee. All
    of them guard the Equation (1) lower-bound quantities ([Σ p_j],
    [Σ s_j = Σ p_j·r_j], [Σ r_j]) against [int] overflow, so a huge
    [p_j ≈ max_int/2] is rejected as [Overflow] instead of producing a
    silently negative bound. *)

val validate : ?window:bool -> t -> (t, Robust.Failure.invalid) result
(** Check a constructed instance (constructors already enforce positive
    sizes/requirements; this adds the window precondition and the
    overflow guards). *)

val eq1_sums : t -> int option * int option * int option
(** [(Σ p_j, Σ p_j·r_j, Σ r_j)] in one pass, each [None] when it exceeds
    [max_int]: the overflow-checked fold behind {!validate} and
    [Bounds.lower_bound_checked]. *)

val create_checked :
  ?window:bool -> m:int -> scale:int -> (int * int) list -> (t, Robust.Failure.invalid) result
(** {!create} with every [Invalid_argument] turned into a structured
    reason, plus {!validate}. *)

val of_floats_checked :
  ?window:bool -> m:int -> scale:int -> (int * float) list -> (t, Robust.Failure.invalid) result
(** {!of_floats} with NaN / infinite shares rejected as [Not_finite]
    and non-positive shares as [Nonpositive_req]. *)

val of_string_checked : ?window:bool -> string -> (t, Robust.Failure.invalid) result
(** {!of_string} with parse failures as [Malformed], then the checks of
    {!create_checked} on the jobs in position order. *)
