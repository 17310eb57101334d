(** The reference implementation of the paper's approximation algorithm
    (Listing 1): step-by-step, one iteration per time step, using
    (m−1)-maximal windows and the full resource as budget.

    This implementation is pseudo-polynomial (it touches every time step);
    {!Fast} is the [O((m+n)·n)] version from the proof of Theorem 3.3. Both
    produce identical schedules (tested property). Approximation guarantee
    (Theorem 3.3): makespan ≤ (2 + 1/(m−2))·|OPT| for m ≥ 3, and for unit
    size jobs ≤ (1 + 2/(m−2))·|OPT| + 1. *)

type step_info = {
  time : int;  (** 1-based time step *)
  window : int list;  (** members of the processed (m−1)-maximal window *)
  window_rsum : int;  (** r(W) in resource units *)
  case : Assign.case;
  extra : int option;  (** job started on the reserved m-th processor *)
  at_left_border : bool;  (** L_t(W) = ∅ *)
  at_right_border : bool;  (** R_t(W) = ∅ *)
  finished : int list;  (** jobs completed in this step *)
}

val run : ?check:bool -> ?variant:[ `Fixed | `Literal ] -> Instance.t -> Schedule.Columns.t
(** Runs the algorithm: one block per time step, appended as {!Fast}
    appends its blocks ({!Assign.append}). With [check] (default [false]) every step asserts
    the effective maximality of the processed window (Lemma 3.7 weakened as
    explained at {!Window.is_effectively_maximal}) and Observation 3.2 (at
    most one fractured job survives the step); violations raise
    [Assert_failure]. [variant] selects the GrowWindowLeft condition
    (default [`Fixed], see {!Window.grow_left_fixed}). *)

val run_traced :
  ?check:bool -> ?variant:[ `Fixed | `Literal ] -> Instance.t ->
  Schedule.Columns.t * step_info list
(** Like {!run}, also returning the per-step trace (figure experiments F1,
    F2 and the tests of Lemma 3.8 consume it). *)
