(* Tests for the workload generators: determinism, distribution sanity, and
   family preconditions. *)

module Rng = Prelude.Rng
module D = Workload.Distributions

let test_distributions_in_range () =
  let rng = Rng.create 11 in
  let cases =
    [
      (D.Uniform { lo = 3; hi = 9 }, 3, 9);
      (D.Bimodal { lo1 = 1; hi1 = 4; lo2 = 50; hi2 = 60; p2 = 0.5 }, 1, 60);
      (D.Pareto { alpha = 1.5; xmin = 5; cap = 100 }, 5, 100);
      (D.Exponential { mean = 10.0; lo = 1; hi = 50 }, 1, 50);
      (D.Choice [| 2; 4; 8 |], 2, 8);
      (D.Constant 7, 7, 7);
    ]
  in
  List.iter
    (fun (d, lo, hi) ->
      for _ = 1 to 500 do
        let x = D.sample rng d in
        if x < lo || x > hi then
          Alcotest.failf "%s produced %d outside [%d,%d]" (D.describe d) x lo hi
      done)
    cases

let test_generator_deterministic () =
  let gen seed =
    Workload.Sos_gen.generate (Rng.create seed) Workload.Sos_gen.bimodal ~n:30 ~m:8 ()
  in
  Alcotest.(check string) "same seed same instance"
    (Sos.Instance.to_string (gen 5))
    (Sos.Instance.to_string (gen 5));
  Alcotest.(check bool) "different seed different instance" true
    (Sos.Instance.to_string (gen 5) <> Sos.Instance.to_string (gen 6))

let test_families_well_formed () =
  let rng = Rng.create 3 in
  List.iter
    (fun family ->
      let inst = Workload.Sos_gen.generate rng family ~n:50 ~m:8 () in
      Alcotest.(check int) (family.Workload.Sos_gen.name ^ " n") 50 (Sos.Instance.n inst))
    Workload.Sos_gen.all_families

let test_unit_of () =
  let rng = Rng.create 4 in
  let family = Workload.Sos_gen.unit_of Workload.Sos_gen.heavy_tail in
  let inst = Workload.Sos_gen.generate rng family ~n:40 ~m:4 () in
  Alcotest.(check bool) "unit sizes" true (Sos.Instance.unit_size inst)

let test_pure_t1_precondition () =
  let rng = Rng.create 9 in
  let m = 8 and scale = Workload.Sos_gen.default_scale in
  let tasks = Workload.Sas_gen.pure_t1 rng ~k:20 ~m ~scale () in
  List.iter
    (fun t ->
      Alcotest.(check bool) "is high" true (Sas.Task.is_high t ~m ~scale))
    tasks

let test_pure_t2_precondition () =
  let rng = Rng.create 10 in
  let m = 8 and scale = Workload.Sos_gen.default_scale in
  let tasks = Workload.Sas_gen.pure_t2 rng ~k:20 ~m ~scale () in
  List.iter
    (fun t ->
      Alcotest.(check bool) "is low" false (Sas.Task.is_high t ~m ~scale))
    tasks

let test_sas_profiles () =
  let rng = Rng.create 12 in
  List.iter
    (fun profile ->
      let inst = Workload.Sas_gen.generate rng profile ~k:10 ~m:8 () in
      Alcotest.(check int) (profile.Workload.Sas_gen.name ^ " k") 10 (Sas.Sas_instance.k inst))
    Workload.Sas_gen.all_profiles

let test_correlated_family () =
  let rng = Rng.create 31 in
  let inst = Workload.Sos_gen.generate_correlated rng ~n:120 ~m:8 () in
  Alcotest.(check int) "n" 120 (Sos.Instance.n inst);
  (* correlation: average requirement of big jobs exceeds that of small. *)
  let split p_threshold =
    let accs = [| (0, 0); (0, 0) |] in
    for i = 0 to Sos.Instance.n inst - 1 do
      let idx = if inst.Sos.Instance.size.(i) >= p_threshold then 1 else 0 in
      let count, total = accs.(idx) in
      accs.(idx) <- (count + 1, total + inst.Sos.Instance.req.(i))
    done;
    accs
  in
  let accs = split 10 in
  let avg (count, total) = if count = 0 then 0.0 else float_of_int total /. float_of_int count in
  Alcotest.(check bool) "requirements correlate with volume" true
    (avg accs.(1) > avg accs.(0));
  (* the scheduler handles the family and meets the guarantee *)
  let s = Helpers.solve inst in
  Helpers.check_valid s;
  let lb = Sos.Bounds.lower_bound inst in
  Alcotest.(check bool) "within guarantee" true
    (float_of_int s.makespan
    <= Sos.Bounds.guarantee_general ~m:8 *. float_of_int lb +. 1e-9)

let test_pareto_heavy_tail () =
  (* The Pareto sampler should produce a meaningfully heavier tail than the
     uniform one at matched support. *)
  let rng = Rng.create 21 in
  let d = D.Pareto { alpha = 1.1; xmin = 1; cap = 1000 } in
  let big = ref 0 in
  for _ = 1 to 10_000 do
    if D.sample rng d > 100 then incr big
  done;
  Alcotest.(check bool) "tail mass exists" true (!big > 50 && !big < 5_000)

let all_twelve =
  Workload.Sos_gen.all_families @ List.map Workload.Sos_gen.unit_of Workload.Sos_gen.all_families

(* The column generator against the list-building one it replaced
   (test/gen_oracle.ml): the same instance text for all twelve families at
   n = 0, 1, 2, 17 and 300 over 40 seeds each, and the same generator
   state afterwards (the next draw agrees). *)
let test_generate_matches_list_oracle () =
  List.iteri
    (fun fi (f : Workload.Sos_gen.family) ->
      List.iter
        (fun n ->
          for seed = 1 to 40 do
            let m = 2 + ((seed + fi) mod 15) in
            let a = Rng.create2 (fi + 1) ((seed * 1000) + n) in
            let b = Rng.copy a in
            let got = Workload.Sos_gen.generate a f ~n ~m () in
            let want = Gen_oracle.generate b f ~n ~m () in
            let what = Printf.sprintf "%s n=%d seed=%d" f.name n seed in
            Alcotest.(check string) what (Sos.Instance.to_string want)
              (Sos.Instance.to_string got);
            Alcotest.(check int) (what ^ ": next draw") (Rng.int b 1_000_000)
              (Rng.int a 1_000_000)
          done)
        [ 0; 1; 2; 17; 300 ])
    all_twelve

(* Per caller position, (size, req). *)
let by_position (inst : Sos.Instance.t) =
  let out = Array.make (Sos.Instance.n inst) (0, 0) in
  Array.iteri (fun i p -> out.(p) <- (inst.size.(i), inst.req.(i))) inst.original;
  out

(* [~scale] rescales every requirement draw: the job at each position keeps
   its size and gets ⌈r·scale/720720⌉ for the list-building generator's
   draw r (which is r itself at the default scale), so 1 ≤ r_j ≤ scale at
   every scale up to max_int, and near-one stays above half the
   resource. *)
let test_generate_rescales () =
  let d = Workload.Sos_gen.default_scale in
  let scales = [ 1; 7; 1000; d; 1_000_000_000_000; max_int ] in
  List.iteri
    (fun fi (f : Workload.Sos_gen.family) ->
      List.iter
        (fun scale ->
          for seed = 1 to 5 do
            let rng () = Rng.create2 (fi + 100) seed in
            let inst = Workload.Sos_gen.generate (rng ()) f ~n:60 ~m:8 ~scale () in
            let base = by_position (Gen_oracle.generate (rng ()) f ~n:60 ~m:8 ()) in
            Alcotest.(check int) "scale kept" scale inst.scale;
            Array.iteri
              (fun p (size, req) ->
                let what = Printf.sprintf "%s scale=%d seed=%d job %d" f.name scale seed p in
                let size0, r0 = base.(p) in
                if req < 1 || req > scale then
                  Alcotest.failf "%s: r_j = %d outside [1, %d]" what req scale;
                Alcotest.(check int) (what ^ ": size") size0 size;
                (* req = ⌈r0·scale/d⌉, the least integer with
                   req·d ≥ r0·scale, checked with scale = q·d + rem so
                   that no product overflows *)
                let q = scale / d and rem = scale mod d in
                let covers x = (x - (r0 * q)) * d >= r0 * rem in
                if not (covers req && not (covers (req - 1))) then
                  Alcotest.failf "%s: r_j = %d is not ceil(%d * scale / %d)" what req r0 d;
                if f.req = Workload.Sos_gen.near_one.req && 2 * (req - (scale / 2)) <= scale mod 2
                then Alcotest.failf "%s: near-one r_j = %d is not above scale/2" what req)
              (by_position inst)
          done)
        scales)
    all_twelve;
  (* A custom family's draw above the whole resource is capped at it; at
     the default scale it is kept. *)
  let over = { Workload.Sos_gen.name = "over"; req = D.Constant (2 * d); size = D.Constant 1 } in
  List.iter
    (fun scale ->
      let inst = Workload.Sos_gen.generate (Rng.create 1) over ~n:3 ~m:2 ~scale () in
      Array.iter
        (fun req ->
          Alcotest.(check int)
            (Printf.sprintf "over-resource draw at scale %d" scale)
            (if scale = d then 2 * d else scale)
            req)
        inst.req)
    scales

let suite =
  ( "workload",
    [
      Alcotest.test_case "distributions in range" `Quick test_distributions_in_range;
      Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
      Alcotest.test_case "column generator ≡ list-building oracle" `Quick
        test_generate_matches_list_oracle;
      Alcotest.test_case "generator rescales requirements" `Quick test_generate_rescales;
      Alcotest.test_case "families well-formed" `Quick test_families_well_formed;
      Alcotest.test_case "unit_of" `Quick test_unit_of;
      Alcotest.test_case "pure T1 precondition" `Quick test_pure_t1_precondition;
      Alcotest.test_case "pure T2 precondition" `Quick test_pure_t2_precondition;
      Alcotest.test_case "sas profiles" `Quick test_sas_profiles;
      Alcotest.test_case "correlated family" `Quick test_correlated_family;
      Alcotest.test_case "pareto heavy tail" `Quick test_pareto_heavy_tail;
    ] )
