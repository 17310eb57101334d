(* Tests for splittable bin packing with cardinality constraints:
   validator, baselines, the Corollary 3.9 window algorithm, and the exact
   solver as ground truth. *)

module P = Binpack.Packing
module A = Binpack.Algorithms
module Rng = Prelude.Rng

let check_packing inst packing =
  match P.validate inst packing with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invalid packing: %s" msg

let test_validator_accepts () =
  let inst = P.instance ~k:2 ~capacity:10 [ 6; 6; 8 ] in
  let packing = [ [ (0, 6); (1, 4) ]; [ (1, 2); (2, 8) ] ] in
  check_packing inst packing

let test_validator_rejects () =
  let inst = P.instance ~k:2 ~capacity:10 [ 6; 6; 8 ] in
  let over = [ [ (0, 6); (1, 6) ]; [ (2, 8) ] ] in
  Alcotest.(check bool) "overfull rejected" true (Result.is_error (P.validate inst over));
  let cardinality = [ [ (0, 3); (1, 3); (2, 4) ]; [ (0, 3); (1, 3); (2, 4) ] ] in
  Alcotest.(check bool) "cardinality rejected" true
    (Result.is_error (P.validate inst cardinality));
  let missing = [ [ (0, 6); (1, 4) ]; [ (1, 2); (2, 7) ] ] in
  Alcotest.(check bool) "underpacked rejected" true
    (Result.is_error (P.validate inst missing));
  let split_in_bin = [ [ (0, 3); (0, 3) ]; [ (1, 6); (2, 4) ]; [ (2, 4) ] ] in
  Alcotest.(check bool) "split within a bin rejected" true
    (Result.is_error (P.validate inst split_in_bin))

let test_lower_bound () =
  let inst = P.instance ~k:2 ~capacity:10 [ 6; 6; 8 ] in
  Alcotest.(check int) "lb = max(2, 2)" 2 (P.lower_bound inst);
  let inst2 = P.instance ~k:2 ~capacity:100 [ 1; 1; 1; 1; 1 ] in
  Alcotest.(check int) "cardinality-driven lb" 3 (P.lower_bound inst2)

let test_fragments () =
  Alcotest.(check int) "no splits" 0 (P.fragments [ [ (0, 5) ]; [ (1, 5) ] ]);
  Alcotest.(check int) "one split" 1 (P.fragments [ [ (0, 5); (1, 2) ]; [ (1, 3) ] ])

let random_inst rng =
  let k = Rng.int_in rng 1 5 in
  let capacity = Rng.int_in rng 4 60 in
  let n = Rng.int_in rng 1 9 in
  P.instance ~k ~capacity (List.init n (fun _ -> Rng.int_in rng 1 (2 * capacity)))

let for_random ?(count = 300) name f =
  Alcotest.test_case name `Quick (fun () ->
      for seed = 1 to count do
        let rng = Rng.create (seed * 677) in
        let inst = random_inst rng in
        try f inst
        with e ->
          Alcotest.failf "%s: seed %d (k=%d cap=%d sizes=%s): %s" name seed
            inst.P.k inst.P.capacity
            (String.concat "," (List.map string_of_int (Array.to_list inst.P.sizes)))
            (Printexc.to_string e)
      done)

let prop_algorithms_valid inst =
  check_packing inst (A.next_fit inst);
  check_packing inst (A.next_fit_decreasing inst);
  check_packing inst (A.next_fit_increasing inst);
  check_packing inst (A.first_fit inst);
  check_packing inst (A.first_fit_decreasing inst);
  check_packing inst (A.window inst)

let prop_window_vs_exact inst =
  match Exact.Binpack_exact.optimum ~node_limit:400_000 inst with
  | None -> ()
  | Some opt ->
      let win = P.bins_used (A.window inst) in
      let lb = P.lower_bound inst in
      if opt < lb then Alcotest.failf "exact %d below lower bound %d" opt lb;
      if win < opt then Alcotest.failf "window %d beats exact %d (exactness bug)" win opt;
      if inst.P.k >= 2 then begin
        (* Cor 3.9 asymptotic guarantee, with +1 additive slack. *)
        let bound = A.guarantee_window ~k:inst.P.k in
        if float_of_int win > (bound *. float_of_int opt) +. 1.0 +. 1e-9 then
          Alcotest.failf "window %d exceeds (1+1/(k-1))·opt+1 with opt=%d k=%d" win opt
            inst.P.k
      end

let prop_next_fit_vs_exact inst =
  (* NextFit also has a guarantee (2−1/k asymptotic); check generously. *)
  match Exact.Binpack_exact.optimum ~node_limit:400_000 inst with
  | None -> ()
  | Some opt ->
      let nf = P.bins_used (A.next_fit inst) in
      if nf < opt then Alcotest.failf "next_fit %d beats exact %d" nf opt;
      let bound = A.guarantee_next_fit ~k:inst.P.k in
      if float_of_int nf > (bound *. float_of_int opt) +. 2.0 +. 1e-9 then
        Alcotest.failf "next_fit %d far above guarantee (opt=%d, k=%d)" nf opt inst.P.k

let test_exact_known_cases () =
  (* 3 items of 0.6, k=2: LB=2 but opt=3? Capacity 10, sizes 6,6,6: two bins
     hold ≤ 2 items… bins: [6,4][2,6]… wait: bin1={a:6,b:4}, bin2={b:2,c:6}
     total 18 ≤ 20 ✓ → opt 2. *)
  let inst = P.instance ~k:2 ~capacity:10 [ 6; 6; 6 ] in
  Alcotest.(check int) "three 0.6 items, k=2" 2 (Exact.Binpack_exact.optimum_exn inst);
  (* k=1: items cannot share bins: every item of size s needs ⌈s/cap⌉ bins
     — and parts cannot share either, so opt = Σ ⌈s_i/cap⌉. *)
  let inst1 = P.instance ~k:1 ~capacity:10 [ 6; 6; 25 ] in
  Alcotest.(check int) "k=1 separate bins" 5 (Exact.Binpack_exact.optimum_exn inst1);
  (* A single item larger than a bin: must split across ⌈15/10⌉ = 2 bins. *)
  let inst2 = P.instance ~k:3 ~capacity:10 [ 15 ] in
  Alcotest.(check int) "oversize item" 2 (Exact.Binpack_exact.optimum_exn inst2);
  (* Cardinality binds: 5 unit items, k=2 → ⌈5/2⌉ = 3. *)
  let inst3 = P.instance ~k:2 ~capacity:100 [ 1; 1; 1; 1; 1 ] in
  Alcotest.(check int) "cardinality binds" 3 (Exact.Binpack_exact.optimum_exn inst3);
  Alcotest.(check (option int)) "empty" (Some 0)
    (Exact.Binpack_exact.optimum (P.instance ~k:2 ~capacity:10 []))

let test_exact_matches_brute_small () =
  (* Cross-check the normal-form search against simple enumeration for
     whole-item packings on instances where splitting cannot help:
     all sizes equal capacity/2 and k ≥ 2 → opt = ⌈n/2⌉ bins. *)
  for n = 1 to 7 do
    let inst = P.instance ~k:2 ~capacity:10 (List.init n (fun _ -> 5)) in
    Alcotest.(check int)
      (Printf.sprintf "n=%d half-size items" n)
      ((n + 1) / 2)
      (Exact.Binpack_exact.optimum_exn inst)
  done

let test_exact_witness () =
  (* The reconstructed optimal packing is a genuine certificate: it
     validates and uses exactly [optimum] bins. *)
  for seed = 1 to 120 do
    let rng = Rng.create (seed * 1301) in
    let inst = random_inst rng in
    match Exact.Binpack_exact.optimum_packing ~node_limit:400_000 inst with
    | None -> ()
    | Some (opt, packing) ->
        (match P.validate inst packing with
        | Ok () -> ()
        | Error msg ->
            Alcotest.failf "seed %d: witness invalid: %s (k=%d cap=%d sizes=%s)" seed msg
              inst.P.k inst.P.capacity
              (String.concat ","
                 (List.map string_of_int (Array.to_list inst.P.sizes))));
        if P.bins_used packing <> opt then
          Alcotest.failf "seed %d: witness uses %d bins, optimum is %d" seed
            (P.bins_used packing) opt;
        (match Exact.Binpack_exact.optimum ~node_limit:400_000 inst with
        | Some opt' ->
            if opt <> opt' then Alcotest.failf "seed %d: optimum mismatch" seed
        | None -> ())
  done

let test_schedule_packing_roundtrip () =
  (* window packing → unit-size schedule (via Splittable.run) → packing
     (via of_unit_schedule): valid and same bin count. *)
  for seed = 1 to 80 do
    let rng = Rng.create (seed * 1201) in
    let inst = random_inst rng in
    if inst.P.k >= 2 then begin
      let sos_inst =
        Sos.Instance.create ~m:inst.P.k ~scale:inst.P.capacity
          (Array.to_list (Array.map (fun s -> (1, s)) inst.P.sizes))
      in
      let sched = Sos.Splittable.run sos_inst in
      let packing = A.of_unit_schedule sched in
      (match P.validate inst packing with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "seed %d: roundtrip packing invalid: %s" seed msg);
      Alcotest.(check int) "bin count preserved" sched.makespan
        (P.bins_used packing)
    end
  done

let test_window_matches_splittable_run () =
  (* Corollary 3.9 path consistency: window packing bins = makespan of the
     unit-size SoS algorithm on the corresponding instance. *)
  for seed = 1 to 100 do
    let rng = Rng.create (seed * 911) in
    let inst = random_inst rng in
    if inst.P.k >= 2 then begin
      let sos_inst =
        Sos.Instance.create ~m:inst.P.k ~scale:inst.P.capacity
          (Array.to_list (Array.map (fun s -> (1, s)) inst.P.sizes))
      in
      let bins = P.bins_used (A.window inst) in
      let sched = Sos.Splittable.run sos_inst in
      Alcotest.(check int) "bins = makespan" bins sched.makespan
    end
  done

let qcheck_next_fit_never_below_lb =
  Helpers.qcheck "next_fit ≥ lower bound"
    QCheck.(
      pair (int_range 1 4)
        (list_of_size Gen.(int_range 1 10) (int_range 1 30)))
    (fun (k, sizes) ->
      let inst = P.instance ~k ~capacity:20 sizes in
      P.bins_used (A.next_fit inst) >= P.lower_bound inst)

let qcheck_first_fit_sound =
  Helpers.qcheck "first_fit ≥ lower bound and uses no empty bins"
    QCheck.(
      pair (int_range 1 4)
        (list_of_size Gen.(int_range 1 12) (int_range 1 30)))
    (fun (k, sizes) ->
      let inst = P.instance ~k ~capacity:20 sizes in
      let packing = A.first_fit inst in
      P.bins_used packing >= P.lower_bound inst
      && List.for_all (fun bin -> bin <> []) packing)

let suite =
  ( "binpack",
    [
      Alcotest.test_case "validator accepts" `Quick test_validator_accepts;
      Alcotest.test_case "validator rejects" `Quick test_validator_rejects;
      Alcotest.test_case "lower bound" `Quick test_lower_bound;
      Alcotest.test_case "fragments" `Quick test_fragments;
      for_random "all algorithms produce valid packings" prop_algorithms_valid;
      for_random ~count:200 "window vs exact (Cor 3.9)" prop_window_vs_exact;
      for_random ~count:150 "next_fit vs exact" prop_next_fit_vs_exact;
      Alcotest.test_case "exact solver known cases" `Quick test_exact_known_cases;
      Alcotest.test_case "exact solver half-size items" `Quick test_exact_matches_brute_small;
      Alcotest.test_case "exact witness packing" `Quick test_exact_witness;
      Alcotest.test_case "schedule ↔ packing roundtrip" `Quick
        test_schedule_packing_roundtrip;
      Alcotest.test_case "window = splittable makespan" `Quick
        test_window_matches_splittable_run;
      qcheck_next_fit_never_below_lb;
      qcheck_first_fit_sound;
    ] )
