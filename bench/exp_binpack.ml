(* Bin packing experiments: T3 (Corollary 3.9 vs baselines and exact
   optimum) and H1 (the Theorem 2.1 hardness reduction demo). *)

module Rng = Prelude.Rng
module Table = Prelude.Table
module P = Binpack.Packing
module A = Binpack.Algorithms
open Exp_common

(* T3a: true ratios against the exact optimum on small instances. *)
let t3_small () =
  section
    "T3a — bin packing with splittable items & cardinality constraint k: true \
     ratios vs the exact optimum (small instances, n = 9)";
  note
    "window = Corollary 3.9 algorithm (asymptotic 1+1/(k−1)); next-fit = Chung et \
     al.'s simple baseline (2−1/k). 40 instances per cell, item sizes uniform in \
     (0, 2] bins.";
  let t =
    Table.create
      [
        ("k", Table.Right); ("window mean", Table.Right); ("window max", Table.Right);
        ("1+1/(k-1)", Table.Right); ("next-fit mean", Table.Right);
        ("next-fit max", Table.Right); ("2-1/k", Table.Right);
      ]
  in
  List.iter
    (fun k ->
      let win = ref [] and nf = ref [] in
      for rep = 0 to 39 do
        let rng = Rng.create (base_seed + (100 * rep) + k) in
        let capacity = 1000 in
        let sizes = List.init 9 (fun _ -> Rng.int_in rng 1 (2 * capacity)) in
        let inst = P.instance ~k ~capacity sizes in
        match Exact.Binpack_exact.optimum ~node_limit:1_500_000 inst with
        | None -> ()
        | Some opt ->
            let opt = float_of_int opt in
            win := (float_of_int (P.bins_used (A.window inst)) /. opt) :: !win;
            nf := (float_of_int (P.bins_used (A.next_fit inst)) /. opt) :: !nf
      done;
      let wmean, wmax = ratios_summary (Array.of_list !win) in
      let nmean, nmax = ratios_summary (Array.of_list !nf) in
      Table.add_row t
        [
          Table.fmt_int k; Table.fmt_ratio wmean; Table.fmt_ratio wmax;
          Table.fmt_ratio (A.guarantee_window ~k); Table.fmt_ratio nmean;
          Table.fmt_ratio nmax; Table.fmt_ratio (A.guarantee_next_fit ~k);
        ])
    [ 2; 3; 4; 8 ];
  Table.print t

(* T3b: large instances vs the lower bound: the 1+1/(k−1) vs 2−1/k shape —
   the window algorithm keeps improving with k while NextFit approaches 2
   on its bad families. *)
let t3_large () =
  section
    "T3b — bin packing at scale (n = 400): bins used vs lower bound; \
     adversarial half-capacity items (NextFit's bad case) and uniform items";
  let t =
    Table.create
      [
        ("family", Table.Left); ("k", Table.Right); ("LB", Table.Right);
        ("window", Table.Right); ("w/LB", Table.Right); ("next-fit", Table.Right);
        ("nf/LB", Table.Right); ("nf-decr", Table.Right); ("first-fit", Table.Right);
      ]
  in
  let capacity = 720720 in
  let families =
    [
      ( "uniform(0,1]",
        fun rng -> List.init 400 (fun _ -> Rng.int_in rng 1 capacity) );
      ( "half±eps",
        fun rng ->
          List.init 400 (fun i ->
              if i mod 2 = 0 then (capacity / 2) + 1 + Rng.int rng 3
              else (capacity / 2) - 1 - Rng.int rng 3) );
      ( "tiny+big mix",
        fun rng ->
          List.init 400 (fun _ ->
              if Rng.float rng 1.0 < 0.8 then Rng.int_in rng 1 (capacity / 50)
              else Rng.int_in rng (capacity / 2) capacity) );
    ]
  in
  List.iter
    (fun (name, gen) ->
      List.iter
        (fun k ->
          let rng = Rng.create (base_seed + (17 * k)) in
          let inst = P.instance ~k ~capacity (gen rng) in
          let lb = P.lower_bound inst in
          let w = P.bins_used (A.window inst) in
          let nf = P.bins_used (A.next_fit inst) in
          let nfd = P.bins_used (A.next_fit_decreasing inst) in
          let ff = P.bins_used (A.first_fit inst) in
          Table.add_row t
            [
              name; Table.fmt_int k; Table.fmt_int lb; Table.fmt_int w;
              Table.fmt_ratio (float_of_int w /. float_of_int lb); Table.fmt_int nf;
              Table.fmt_ratio (float_of_int nf /. float_of_int lb); Table.fmt_int nfd;
              Table.fmt_int ff;
            ])
        [ 2; 4; 8; 16 ];
      Table.add_sep t)
    families;
  Table.print t

(* H1: the hardness reduction in action. *)
let h1 () =
  section
    "H1 — Theorem 2.1 demo: 3-Partition ↔ splittable bin packing (k = 3): the \
     packing optimum equals q exactly on YES instances and exceeds it on NO \
     instances";
  let t =
    Table.create
      [
        ("numbers", Table.Left); ("q", Table.Right); ("3-partition", Table.Left);
        ("packing OPT", Table.Right); ("gap holds", Table.Left);
        ("window bins", Table.Right);
      ]
  in
  let cases =
    [
      [ 26; 35; 39; 30; 30; 40 ];
      [ 30; 30; 45; 26; 35; 34 ];
      [ 27; 38; 35; 28; 33; 39 ];
      [ 33; 33; 34; 26; 37; 37; 30; 31; 39 ];
      [ 26; 26; 48; 27; 28; 45; 30; 35; 35 ];
      [ 30; 30; 45; 26; 35; 34; 33; 33; 34 ];
    ]
  in
  List.iter
    (fun numbers ->
      let tp = Exact.Three_partition.create numbers in
      let yes = Exact.Three_partition.solvable tp in
      let q = Exact.Three_partition.yes_gap tp in
      let opt =
        Exact.Binpack_exact.optimum_exn ~node_limit:5_000_000
          (Exact.Three_partition.to_binpack tp)
      in
      let win =
        P.bins_used (A.window (Exact.Three_partition.to_binpack tp))
      in
      let holds = if yes then opt = q else opt > q in
      Table.add_row t
        [
          String.concat "," (List.map string_of_int numbers); Table.fmt_int q;
          (if yes then "YES" else "NO"); Table.fmt_int opt; verdict holds;
          Table.fmt_int win;
        ])
    cases;
  Table.print t;
  note
    "and the cardinality-2 gadget (this repo's reconstruction of the full-version \
     m = 2 hardness; item a → 4t+6a, capacity 9t, threshold 2q):";
  let t2 =
    Table.create
      [
        ("numbers", Table.Left); ("2q", Table.Right); ("3-partition", Table.Left);
        ("packing OPT (k=2)", Table.Right); ("gap holds", Table.Left);
      ]
  in
  List.iter
    (fun numbers ->
      let tp = Exact.Three_partition.create numbers in
      let yes = Exact.Three_partition.solvable tp in
      let gap = Exact.Three_partition.k2_gap tp in
      let opt =
        Exact.Binpack_exact.optimum_exn ~node_limit:8_000_000
          (Exact.Three_partition.to_binpack_k2 tp)
      in
      let holds = if yes then opt = gap else opt > gap in
      Table.add_row t2
        [
          String.concat "," (List.map string_of_int numbers); Table.fmt_int gap;
          (if yes then "YES" else "NO"); Table.fmt_int opt; verdict holds;
        ])
    [
      [ 26; 35; 39; 30; 30; 40 ];
      [ 30; 30; 45; 26; 35; 34 ];
      [ 27; 38; 35; 28; 33; 39 ];
    ];
  Table.print t2
