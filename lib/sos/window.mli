(** Job windows (Definition 3.1) and the auxiliary procedures of Listing 2.

    A window is a set of consecutive unfinished jobs, represented by its
    first and last member in the remaining-jobs list of a {!State.t}. The
    procedures are parameterized by [size] (maximum cardinality) and
    [budget] (available resource, in units of [1/scale]); Section 3 calls
    them with [size = m−1], [budget = scale], Section 4 with smaller values.

    All operations read neighbour information from the state; a window value
    is only meaningful against the state it was computed from. *)

type t

val empty : t
val is_empty : t -> bool
val count : t -> int
val rsum : t -> int
(** [r(W) = Σ_{j∈W} r_j] in resource units. *)

val last : t -> int option
(** [max W] — largest requirement. *)

val first_idx : t -> int
val last_idx : t -> int
(** [min W] and [max W], with −1 for the empty window — allocation-free
    variants for the solver hot loops. *)

val members : State.t -> t -> int list
(** Members in requirement order; O(|W|). *)

val of_members : State.t -> int list -> t
(** Rebuild a window from a non-empty consecutive member list (or [[]] for
    {!empty}). Raises [Invalid_argument] if the jobs are not consecutive
    unfinished jobs. *)

val left_neighbor : State.t -> t -> int option
(** [max L_t(W)]: the largest remaining job strictly left of the window;
    [None] for the empty window (since [L_t(∅) = ∅]). *)

val right_neighbor : State.t -> t -> int option
(** [min R_t(W)]: the smallest remaining job strictly right of the window;
    for the empty window, the head of the remaining list
    (since [R_t(∅) = J(t−1)]). *)

val add_left : State.t -> t -> t
(** Extend by [max L_t(W)]. Raises [Invalid_argument] if there is none. *)

val add_right : State.t -> t -> t
(** Extend by [min R_t(W)]. Raises [Invalid_argument] if there is none. *)

val drop_left : State.t -> t -> t
(** Remove [min W]. Raises [Invalid_argument] on the empty window. *)

val grow_left : State.t -> t -> size:int -> budget:int -> t
(** GrowWindowLeft, literally as printed in Listing 2:
    while [(|W| < size ∧ L_t(W) ≠ ∅) ∧ r(W) < budget] add [max L_t(W)].
    See {!grow_left_fixed} for why the printed condition is too weak. *)

val grow_left_fixed : State.t -> t -> size:int -> budget:int -> t
(** GrowWindowLeft with the condition that Claim 3.6's proof actually
    needs: add [max L_t(W)] while [|W| < size], [L_t(W) ≠ ∅] and the
    window property (b) survives the addition
    ([r(W ∪ {j} ∖ {max W}) < budget]). The literal condition [r(W) < budget]
    stalls as soon as the surviving [max W] alone pushes the total to the
    budget, parking every job left of the window behind it (measurably bad:
    see the giant+dust benchmark); the (b)-preserving condition keeps
    filling the m−2 remaining slots, which is what the analysis assumes. *)

val grow_right : State.t -> t -> size:int -> budget:int -> t
(** GrowWindowRight (Listing 2):
    while [(r(W) < budget ∧ R_t(W) ≠ ∅) ∧ |W| < size] add [min R_t(W)]. *)

val move_right : State.t -> t -> budget:int -> t
(** MoveWindowRight (Listing 2): while [(r(W) < budget ∧ R_t(W) ≠ ∅)] and
    [min W] is unstarted, slide one position right. *)

val prune : State.t -> t -> t
(** Drop finished members (line 2 of Listing 1, [W ∩ J(t−1)]). One
    allocation-free walk of the range, O(|W|). Must be called while the
    finished members are still linked in the state, i.e. before
    {!State.unlink}. *)

val repair : State.t -> t -> finished:int list -> t
(** {!prune} in O(|finished|) instead of O(|W|) for callers that already
    know the jobs that finished this step (the event-driven solver gets
    them from [Assign.apply]): subtracts the finished members lying inside
    the range from the count/requirement totals and advances the bounds
    past finished members. Finished jobs outside the range are ignored.
    Like {!prune}, must be called before {!State.unlink}; the result is
    valid after those unlinks complete (the surviving range then links
    exactly the unfinished members, in {!State.unlink} order). *)

val stable :
  ?variant:[ `Fixed | `Literal ] -> State.t -> t -> size:int -> budget:int -> bool
(** O(1) fixed-point test: [stable st w] is [true] iff [compute st w = w]
    on the current state, decided by checking that all three of
    {!compute}'s loops stall on their first test (grow-left: full, at the
    left border, or the variant's budget condition; grow-right and
    move-right: [r(W) ≥ budget] or at the right border, plus [min W]
    started for move-right). The event-driven solver calls this instead of
    replaying {!compute} when deciding whether a certified span may be
    skipped; [false] never mis-certifies, it only forfeits a skip.
    [Empty] reports [false] (on a state with remaining jobs, {!compute}
    would grow it). *)

val compute :
  ?variant:[ `Fixed | `Literal ] -> State.t -> t -> size:int -> budget:int -> t
(** Grow left, grow right, move right — lines 3–5 of Listing 1. The input
    is the pruned window carried over from the previous step ([empty]
    initially). [`Fixed] (the default) uses {!grow_left_fixed}; [`Literal]
    uses the condition as printed in the paper (kept for the ablation
    experiments). *)

val is_window : State.t -> t -> budget:int -> bool
(** Properties (a)–(d) of Definition 3.1, with the resource total
    generalized from 1 to [budget]. *)

val is_k_maximal : State.t -> t -> k:int -> budget:int -> bool
(** Properties (a)–(f): a window of size ≤ k that is at the left border or
    has exactly [k] jobs, and is at the right border or uses [r(W) ≥ budget]. *)

val is_effectively_maximal : State.t -> t -> k:int -> budget:int -> bool
(** Properties (a)–(d) plus the weakening of (e) that Listing 2 actually
    guarantees: [|W| = k ∨ L_t(W) = ∅ ∨ r(W) ≥ budget], together with (f).

    {b Reproduction finding.} Lemma 3.7 claims every processed window is
    (m−1)-maximal, and Claim 3.6's proof argues GrowWindowLeft cannot stall
    on its budget condition. That argument fails when the previous window's
    [max] job survives a step in which smaller members finish: the carried
    window can then satisfy [r(W) ≥ 1] with [|W| < m−1] while unfinished
    jobs remain on its left, so GrowWindowLeft adds nothing and property (e)
    is violated (see the regression test in [suite_algorithm.ml] for a
    concrete 7-processor instance). The makespan analysis is unaffected:
    in every such "stalled" step the full resource is distributed, so the
    step is covered by the [T_R] case of the proof of Theorem 3.3 — which is
    why the empirical ratio tests still hold. The engine's [~check] mode
    therefore asserts this predicate rather than {!is_k_maximal}. *)
