(* Tests for the 3-Partition machinery and the Theorem 2.1 hardness
   reduction: the reduction's YES/NO gap is verified against the exact bin
   packing solver, exhaustively on small instances. *)

module TP = Exact.Three_partition
module BE = Exact.Binpack_exact
module Rng = Prelude.Rng

let test_create_validation () =
  Alcotest.(check bool) "well-formed accepted" true
    (match TP.create [ 26; 35; 39 ] with _ -> true);
  Alcotest.check_raises "wrong count"
    (Invalid_argument "Three_partition.create: need 3q elements") (fun () ->
      ignore (TP.create [ 1; 2 ]));
  (* 3 elements with an element outside (target/4, target/2). *)
  Alcotest.check_raises "range violated"
    (Invalid_argument "Three_partition.create: element outside (target/4, target/2)")
    (fun () -> ignore (TP.create [ 10; 10; 80 ]))

let test_solvable_basic () =
  let yes = TP.create [ 26; 35; 39; 30; 30; 40 ] in
  Alcotest.(check bool) "solvable yes" true (TP.solvable yes);
  (* q=2, target=100; triples must sum to 100 each: {26,35,39},{26,35,39}
     works, so shuffle to a NO case: elements where no split exists.
     {30,30,45,26,35,34}: sum 200, target 100. Triples summing 100:
     30+30+40? no 40. 30+26+44? no. 30+35+35? only one 35. 30+26+35=91 no…
     45+26+30 = 101, 45+26+35=106, 45+30+30=105, 45+34+26=105, 45+35+30=110,
     45+34+30=109, 45+34+35=114, 45+35+26=106 — no triple with 45 sums to
     100 ⇒ NO. *)
  let no = TP.create [ 30; 30; 45; 26; 35; 34 ] in
  Alcotest.(check bool) "solvable no" false (TP.solvable no)

let test_random_yes_solvable () =
  for seed = 1 to 40 do
    let rng = Rng.create (seed * 37) in
    let t = TP.random_yes rng ~q:(1 + (seed mod 4)) ~target:60 in
    Alcotest.(check bool) "random YES is solvable" true (TP.solvable t)
  done

let test_reduction_gap () =
  (* Exhaustively: the bin packing optimum is q iff 3-Partition is
     solvable; otherwise it is ≥ q+1. *)
  let cases =
    [
      TP.create [ 26; 35; 39; 30; 30; 40 ];
      TP.create [ 30; 30; 45; 26; 35; 34 ];
      TP.create [ 27; 38; 35; 28; 33; 39 ];
      TP.create [ 33; 33; 34 ];
      TP.create [ 26; 37; 37 ];
    ]
  in
  List.iter
    (fun t ->
      let opt = BE.optimum_exn ~node_limit:3_000_000 (TP.to_binpack t) in
      let yes = TP.solvable t in
      let q = TP.yes_gap t in
      if yes then Alcotest.(check int) "YES packs into q bins" q opt
      else
        Alcotest.(check bool)
          (Printf.sprintf "NO needs > %d bins (got %d)" q opt)
          true (opt > q))
    cases

let test_reduction_random_yes () =
  for seed = 1 to 12 do
    let rng = Rng.create (seed * 53) in
    let t = TP.random_yes rng ~q:2 ~target:40 in
    let opt = BE.optimum_exn ~node_limit:3_000_000 (TP.to_binpack t) in
    Alcotest.(check int) "random YES optimum = q" (TP.yes_gap t) opt
  done

let test_to_sos_consistency () =
  let t = TP.create [ 26; 35; 39; 30; 30; 40 ] in
  let sos = TP.to_sos t in
  Alcotest.(check int) "m = 3" 3 sos.Sos.Instance.m;
  Alcotest.(check bool) "unit sizes" true (Sos.Instance.unit_size sos);
  (* The window algorithm (a valid preemptive schedule) must take at least
     the packing optimum = q steps on a YES instance, and the exact solver
     run through the SoS view must agree with the binpack view. *)
  let via_sos = BE.unit_sos_optimum ~node_limit:3_000_000 sos in
  let via_bp = BE.optimum ~node_limit:3_000_000 (TP.to_binpack t) in
  Alcotest.(check (option int)) "two views agree" via_bp via_sos

let test_k2_reduction_gap () =
  (* The cardinality-2 gadget, verified against the exact solver. *)
  let cases =
    [
      TP.create [ 26; 35; 39; 30; 30; 40 ];
      TP.create [ 30; 30; 45; 26; 35; 34 ];
      TP.create [ 27; 38; 35; 28; 33; 39 ];
      TP.create [ 33; 33; 34 ];
    ]
  in
  List.iter
    (fun t ->
      let opt = BE.optimum_exn ~node_limit:6_000_000 (TP.to_binpack_k2 t) in
      let gap = TP.k2_gap t in
      if TP.solvable t then
        Alcotest.(check int) "k2: YES packs into 2q bins" gap opt
      else
        Alcotest.(check bool)
          (Printf.sprintf "k2: NO needs > %d bins (got %d)" gap opt)
          true (opt > gap))
    cases

let test_k2_reduction_random_yes () =
  for seed = 1 to 8 do
    let rng = Rng.create (seed * 71) in
    let t = TP.random_yes rng ~q:2 ~target:36 in
    let opt = BE.optimum_exn ~node_limit:6_000_000 (TP.to_binpack_k2 t) in
    Alcotest.(check int) "k2 random YES optimum = 2q" (TP.k2_gap t) opt
  done

let test_window_on_reduction () =
  (* On YES instances the window algorithm achieves ≤ (1+1/(m−1))·q + 1. *)
  for seed = 1 to 10 do
    let rng = Rng.create (seed * 97) in
    let t = TP.random_yes rng ~q:3 ~target:40 in
    let sched = Sos.Splittable.run (TP.to_sos t) in
    let q = TP.yes_gap t in
    let bound = (1.0 +. (1.0 /. 2.0)) *. float_of_int q +. 1.0 in
    Alcotest.(check bool) "window within corollary bound" true
      (float_of_int sched.makespan <= bound +. 1e-9)
  done

let suite =
  ( "exact",
    [
      Alcotest.test_case "3-partition validation" `Quick test_create_validation;
      Alcotest.test_case "3-partition solvable" `Quick test_solvable_basic;
      Alcotest.test_case "random YES instances solvable" `Quick test_random_yes_solvable;
      Alcotest.test_case "reduction YES/NO gap (Thm 2.1)" `Quick test_reduction_gap;
      Alcotest.test_case "reduction on random YES" `Quick test_reduction_random_yes;
      Alcotest.test_case "k=2 reduction gap (full-version Thm 2.1)" `Quick
        test_k2_reduction_gap;
      Alcotest.test_case "k=2 reduction on random YES" `Quick test_k2_reduction_random_yes;
      Alcotest.test_case "SoS view of reduction" `Quick test_to_sos_consistency;
      Alcotest.test_case "window algorithm on reductions" `Quick test_window_on_reduction;
    ] )
