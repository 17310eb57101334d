(** Mutable execution state of the sliding-window algorithms.

    Tracks, per job [j], the remaining total resource requirement
    [s_j(t) = s_j − Σ shares received] (Section 1.1), and keeps the
    still-unfinished jobs in a doubly-linked list in requirement order so
    that window neighbours ([max L_t(W)], [min R_t(W)]) are O(1). *)

type t

val create : Instance.t -> t
(** Fresh state at time 0: [s_j(0) = s_j], no job started. *)

val reset : t -> Instance.t -> unit
(** [reset t inst] makes [t] the state {!create} [inst] returns, whatever
    [t] held before (a solve abandoned mid-loop included). It refills the
    arrays in place and replaces them only when they hold fewer than
    [Instance.n inst] jobs, so a {!view} taken before may be stale after
    it. *)

val words : t -> int
(** Words the per-job arrays hold, headers aside: their capacity, not the
    current instance's n. *)

val copy : t -> t
val instance : t -> Instance.t
val now : t -> int
(** Number of completed time steps. *)

val tick : t -> unit
(** Advance the clock by one step. *)

val advance : t -> int -> unit
(** Advance the clock by [k ≥ 0] steps (used by the step-skipping solver). *)

val remaining_count : t -> int
val all_finished : t -> bool

val s : t -> int -> int
(** Remaining requirement of job [i], in resource units. *)

val started : t -> int -> bool
(** [s_i(t) < s_i]. *)

val finished : t -> int -> bool
(** [s_i(t) = 0]. *)

val fractured : t -> int -> bool
(** [s_i(t) ∉ {0, r_i, 2·r_i, …}] — Section 3's fractured predicate. *)

val q : t -> int -> int
(** [q_i(t) = s_i(t) mod r_i] (0 when unfractured). *)

val req : t -> int -> int
(** [r_i], denormalized into the state so the hot loops pay one array read
    instead of an instance lookup. *)

val head : t -> int option
(** Smallest-requirement unfinished job. *)

val next_remaining : t -> int -> int option
(** Successor among unfinished jobs; the argument must itself be unfinished. *)

val prev_remaining : t -> int -> int option

val head_idx : t -> int
(** {!head}/{!next_remaining}/{!prev_remaining} with −1 for "none" instead
    of an option — the allocation-free variants the solver hot loops use
    (a [Some] per linked-list hop is the dominant allocation otherwise). *)

val next_idx : t -> int -> int
val prev_idx : t -> int -> int

type view = {
  v_s : int array;
  v_r : int array;
  v_d : int array;  (** [s_j/r_j], maintained by every consume *)
  v_q : int array;  (** [s_j mod r_j], maintained by every consume *)
  v_next : int array;
}
(** Read-only hot view over the state's internal arrays ([s_j], [r_j], the
    cached quotient/remainder by [r_j], and the next-links with −1 for
    "none"). Shared with the state itself — callers must never write
    through it; it exists so the solver's innermost walks pay raw array
    reads instead of cross-module calls (which ocamlopt does not inline
    without flambda) and skip the 64-bit divisions entirely. Stays valid
    across {!consume}/{!unlink}: the arrays are updated in place. *)

val view : t -> view
(** O(1); the record is built once per state, not per call. *)

val consume : t -> int -> int -> unit
(** [consume t i amount] reduces [s_i] by [amount]; raises
    [Invalid_argument] if [amount < 0] or [amount > s_i]. Does not unlink. *)

val consume_block :
  t -> job:int array -> consumed:int array -> len:int -> reps:int -> int list
(** Consume [reps ≥ 1] copies of [consumed.(k)] for job [job.(k)], for every
    [k < len], in one walk over the columns, and return the jobs that
    reached [s = 0], in column order. Updates the cached quotient/remainder
    without a division for full-requirement receivers. Same checks as
    {!consume} per allocation; does not unlink and does not advance the
    clock. *)

val unlink : t -> int -> unit
(** Remove a finished job from the remaining list. Raises
    [Invalid_argument] if the job is not finished or already unlinked. *)

val remaining_jobs : t -> int list
(** Unfinished jobs in requirement order (O(n); for tests/traces). *)
