(** 3-Partition and its reduction to splittable bin packing / unit-size SoS
    (the Theorem 2.1 strong-NP-hardness demonstrator).

    A 3-Partition instance is a multiset of [3q] positive integers summing
    to [q·target] with every element in (target/4, target/2); it is a YES
    instance iff the numbers partition into [q] triples each summing to
    [target].

    Reduction (this repo's variant, for cardinality k = 3): map number
    [a_i] to an item of size [target + a_i] with bin capacity [4·target].
    Any packing into [q] bins has at most [3q] parts for [3q] items, so no
    item is split; each bin then holds exactly 3 whole items of total
    ≤ 4·target, and since the grand total is [4·target·q] every bin sums to
    exactly [4·target] — i.e. the triples solve 3-Partition. Conversely a
    3-Partition solution packs each triple into one bin. Hence the packing
    optimum is [q] iff YES (and ≥ q+1 otherwise), which makes splittable
    bin packing with k = 3 — equivalently unit-size SoS with m = 3 and
    preemption — strongly NP-hard. (The paper's Theorem 2.1 states hardness
    already for m = 2 via the more intricate reduction of Chung et al.; the
    k = 3 variant keeps the equivalence checkable by the exact solver.) *)

type t = private { numbers : int array; target : int; q : int }

val create_checked : int list -> (t, string) result
(** [Error] unless the multiset has [3q] elements summing to [q·target]
    for integral [target] with all elements in (target/4, target/2) —
    i.e. it is a well-formed 3-Partition instance. *)

val create : int list -> t
(** {!create_checked}, raising [Invalid_argument] on [Error]. *)

val solvable : t -> bool
(** Exhaustive search with pruning (exponential; fine for q ≤ 5). *)

val to_binpack : t -> Binpack.Packing.instance
(** The reduction above: k = 3, capacity [4·target], sizes
    [target + a_i]. *)

val to_binpack_k2 : t -> Binpack.Packing.instance
(** A cardinality-2 gadget (Theorem 2.1 claims hardness already for m = 2;
    the paper defers the proof to its full version — this is an independent
    reconstruction, verified against the exact solver): number [a_i] maps
    to an item of size [4·target + 6·a_i] with bin capacity [9·target].
    The optimum is [2q] bins iff the 3-Partition instance is YES:

    - item sizes lie in (5.5·target, 7·target), so two whole items exceed a
      bin and one item never fills it — every component of the (forest)
      item/bin incidence graph uses ≥ 2 bins;
    - a component with [b] bins holds at most [b+1] items (≤ 2 parts per
      bin, forest), and in a [2q]-bin packing the total item mass
      [Σ(4t+6a_i) = 18·t·q] equals the total capacity, so all bins are
      full; counting forces exactly [q] components of 2 bins / 3 whole
      items each, and such a component is full iff its numbers sum to
      [target];
    - conversely a YES triple {i,j,k} packs as [i + part of j | rest of j
      + k]. *)

val k2_gap : t -> int
(** [2q]: the bin threshold for {!to_binpack_k2}. *)

val to_sos : t -> Sos.Instance.t
(** Unit-size SoS instance with m = 3, scale = [4·target]. *)

val yes_gap : t -> int
(** [q]: the bin/makespan threshold — optimum = q iff the instance is
    solvable. *)

val random_yes : Prelude.Rng.t -> q:int -> target:int -> t
(** A random YES instance: draws [q] triples summing to [target] with parts
    in the legal range. [target] must be ≥ 8 and divisible enough to admit
    triples; raises [Invalid_argument] if no legal triple exists. *)
