(** Packing algorithms: the paper's window algorithm via the SoS reduction
    (Corollary 3.9), plus the classical baselines it is compared against. *)

val next_fit : Packing.instance -> Packing.packing
(** NextFit for splittable items with cardinality constraints, in input
    order: keep one open bin; pour the current item into it; when the bin
    reaches capacity or its k-th part, close it and open a new one. The
    simple baseline of Chung et al. (asymptotic ratio 3/2 for k = 2, and
    2 − 1/k in general — approaching 2 for large k). *)

val next_fit_decreasing : Packing.instance -> Packing.packing
(** NextFit on items sorted by non-increasing size. *)

val next_fit_increasing : Packing.instance -> Packing.packing
(** NextFit on items sorted by non-decreasing size. Equivalent to the
    window algorithm without the cardinality-aware sliding — the ablation
    baseline. *)

val first_fit : Packing.instance -> Packing.packing
(** First-Fit for splittable items: pour each item (input order) into the
    earliest bins that still have both capacity and a cardinality slot,
    opening a new bin when none fits. Unlike NextFit, old bins stay open. *)

val first_fit_decreasing : Packing.instance -> Packing.packing

val window : Packing.instance -> Packing.packing
(** Corollary 3.9: the m-maximal sliding-window algorithm ({!Sos.Splittable})
    with [k] in the processor role. Asymptotic ratio [1 + 1/(k−1)], running
    time [O((k+n)·n)]. *)

val of_unit_schedule : Sos.Schedule.Columns.t -> Packing.packing
(** Interpret a unit-size SoS schedule as a packing (time steps = bins,
    consumed shares = part sizes) — the inverse of the {!window} reduction.
    Zero-consumption allocations are dropped. *)

val guarantee_window : k:int -> float
(** [1 + 1/(k−1)] (requires k ≥ 2). *)

val guarantee_next_fit : k:int -> float
(** [2 − 1/k], the best known fast-algorithm guarantee cited by the paper. *)
