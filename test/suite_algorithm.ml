(* End-to-end tests of the approximation algorithm: Listing 1, the fast
   solver, and the unit-size (splittable) variant, against the guarantees of
   Theorem 3.3 and the structural lemmas. *)

open Sos
module Rng = Prelude.Rng

let test_single_job () =
  (* One job, r = 30/10 > scale: it can use at most the full resource per
     step → p·r/scale … with r > scale progress is scale/r per step:
     s = 4*30 = 120, consumes ≤ 10/step? No: consumption per step is
     min(assigned, r) = 10 (the full resource). 120/10 = 12 steps. *)
  let inst = Instance.create ~m:3 ~scale:10 [ (4, 30) ] in
  let s = Listing1.run ~check:true inst in
  Helpers.check_valid s;
  Alcotest.(check int) "makespan" 12 s.makespan

let test_full_requirement_single () =
  (* r = scale: job gets everything, finishes in exactly p steps. *)
  let inst = Instance.create ~m:2 ~scale:10 [ (5, 10) ] in
  let s = Listing1.run ~check:true inst in
  Alcotest.(check int) "makespan = p" 5 s.makespan

let test_two_tiny_jobs_parallel () =
  (* m = 3 (window size 2): two tiny jobs run together. *)
  let inst = Instance.create ~m:3 ~scale:10 [ (2, 1); (2, 1) ] in
  let s = Listing1.run ~check:true inst in
  Helpers.check_valid s;
  Alcotest.(check int) "parallel finish" 2 s.makespan

let test_empty_instance () =
  let inst = Instance.create ~m:4 ~scale:10 [] in
  let s = Listing1.run inst in
  Alcotest.(check int) "empty" 0 s.makespan

let test_known_optimal_fill () =
  (* Jobs exactly fill the resource: 4 unit-size jobs of r = scale/4 with
     m = 5 ≥ 5 → all four run each step at full requirement; p = 3 → 3 steps. *)
  let inst = Instance.create ~m:5 ~scale:100 [ (3, 25); (3, 25); (3, 25); (3, 25) ] in
  let s = Listing1.run ~check:true inst in
  Helpers.check_valid s;
  Alcotest.(check int) "resource-tight optimum" 3 s.makespan

let variants = [ `Fixed; `Literal ]

let prop_valid inst =
  List.iter
    (fun variant -> Helpers.check_valid (Listing1.run ~check:true ~variant inst))
    variants

let prop_fast_equivalent inst =
  List.iter
    (fun variant ->
      let s1 = Listing1.run ~check:true ~variant inst in
      let s2 = Helpers.solve ~variant inst in
      if s1.makespan <> s2.makespan then
        Alcotest.failf "makespan mismatch: listing1=%d fast=%d" s1.makespan s2.makespan;
      if Helpers.steps (Helpers.expand s1) <> Helpers.steps (Helpers.expand s2) then
        Alcotest.fail "expanded schedules differ";
      Helpers.check_valid s2)
    variants

let prop_theorem_3_3 inst =
  let m = inst.Instance.m in
  if m >= 3 && Instance.n inst > 0 then begin
    let lb = Bounds.lower_bound inst in
    let bound = Bounds.guarantee_general ~m in
    let limit = int_of_float (ceil (bound *. float_of_int lb)) in
    List.iter
      (fun variant ->
        let s = Helpers.solve ~variant inst in
        if s.makespan > limit then
          Alcotest.failf "ratio violated: makespan=%d lb=%d bound=%.4f" s.makespan lb bound)
      variants
  end

let prop_unit_size_theorem inst =
  let m = inst.Instance.m in
  if m >= 3 && Instance.n inst > 0 then begin
    let s = Listing1.run inst in
    let lb = Bounds.lower_bound inst in
    let bound = Bounds.guarantee_unit ~m in
    let limit = int_of_float (ceil (bound *. float_of_int lb)) + 1 in
    if s.makespan > limit then
      Alcotest.failf "unit-size bound violated: makespan=%d lb=%d" s.makespan lb
  end

let prop_lemma_3_8 inst =
  (* Border flags are monotone: once the window touches the left (right)
     border it stays there. *)
  let _, trace = Listing1.run_traced inst in
  let rec check seen_left seen_right = function
    | [] -> ()
    | (info : Listing1.step_info) :: rest ->
        if seen_left && not info.at_left_border then
          Alcotest.failf "left border lost at t=%d" info.time;
        if seen_right && not info.at_right_border then
          Alcotest.failf "right border lost at t=%d" info.time;
        check (seen_left || info.at_left_border)
          (seen_right || info.at_right_border)
          rest
  in
  check false false trace

let prop_observation_3_2 inst =
  (* The per-step accounting dichotomy behind Theorem 3.3 (Observation 3.2
     / the algorithmic intuition): every step either gives at least |W|−1
     window jobs their full requirement (or finishes them), or distributes
     the full resource. The single-fracture half of Observation 3.2 is
     asserted by ~check. *)
  let budget = inst.Instance.scale in
  let sched, trace = Listing1.run_traced ~check:true inst in
  let steps = Array.of_list (Helpers.steps sched) in
  List.iteri
    (fun idx (info : Listing1.step_info) ->
      let allocs = steps.(idx).Schedule.allocs in
      let satisfied =
        List.length
          (List.filter
             (fun (a : Schedule.alloc) ->
               a.consumed = inst.Instance.req.(a.job)
               || List.mem a.job info.finished)
             allocs)
      in
      let consumed = List.fold_left (fun acc (a : Schedule.alloc) -> acc + a.consumed) 0 allocs in
      let w = List.length info.window in
      if satisfied < w - 1 && consumed < budget then
        Alcotest.failf
          "step %d: neither %d/%d jobs at full requirement nor full resource (%d/%d)"
          info.time satisfied w consumed budget)
    trace

let prop_evolved_windows_stay_windows inst =
  (* After arbitrary prefixes of the execution, the computed window still
     satisfies Definition 3.1 (a)–(d) and effective maximality. *)
  let st = State.create inst in
  let size = inst.Instance.m - 1 and budget = inst.Instance.scale in
  let carried = ref Window.empty in
  let steps = ref 0 in
  while (not (State.all_finished st)) && !steps < 50 do
    incr steps;
    let w = Window.compute st !carried ~size ~budget in
    if not (Window.is_window st w ~budget) then
      Alcotest.failf "step %d: computed set is not a window" !steps;
    if not (Window.is_effectively_maximal st w ~k:size ~budget) then
      Alcotest.failf "step %d: not effectively maximal" !steps;
    let outcome = Assign.compute st w ~budget ~extra:true in
    let finished = Assign.apply st outcome in
    let survivors = Window.prune st outcome.Assign.window in
    List.iter (State.unlink st) finished;
    carried := survivors;
    State.tick st
  done

let prop_extra_job_invariant inst =
  (* The case-2 extra job (reserved m-th processor) may only be started in a
     step that also finishes a job — the leftover exists precisely because
     the fractured job ι ran out (Section 3.1's discussion); and it always
     belongs to a Case_partial step. *)
  let _, trace = Listing1.run_traced inst in
  List.iter
    (fun (info : Listing1.step_info) ->
      match info.extra with
      | None -> ()
      | Some x ->
          if info.case <> Assign.Case_partial then
            Alcotest.failf "step %d: extra job in a case-1 step" info.time;
          if info.finished = [] then
            Alcotest.failf "step %d: extra job %d started but nothing finished"
              info.time x)
    trace

let prop_splittable inst =
  if Instance.unit_size inst then begin
    let s = Splittable.run inst in
    Helpers.check_valid ~preemption_ok:true s;
    let m = inst.Instance.m in
    let lb = Bounds.lower_bound inst in
    let bound = Bounds.guarantee_unit_modified ~m in
    let limit = int_of_float (ceil (bound *. float_of_int lb)) + 1 in
    if s.makespan > limit then
      Alcotest.failf "splittable bound violated: makespan=%d lb=%d m=%d" s.makespan lb m
  end

let prop_splittable_nonpreemptive inst =
  if Instance.unit_size inst then begin
    let s = Splittable.run_nonpreemptive inst in
    (* genuinely non-preemptive: the strict validator must pass *)
    Helpers.check_valid s;
    let m = inst.Instance.m in
    let lb = Bounds.lower_bound inst in
    let bound = Bounds.guarantee_unit_modified ~m in
    let limit = int_of_float (ceil (bound *. float_of_int lb)) + 1 in
    if s.makespan > limit then
      Alcotest.failf "non-preemptive m-maximal bound violated: makespan=%d lb=%d m=%d"
        s.makespan lb m
  end

let unit_instance rng =
  let scale = Rng.int_in rng 5 200 in
  let m = Rng.int_in rng 2 9 in
  let n = Rng.int_in rng 1 50 in
  let specs = List.init n (fun _ -> (1, Rng.int_in rng 1 (scale * 2))) in
  Instance.create ~m ~scale specs

let for_unit_instances ?(count = 300) name f =
  Alcotest.test_case name `Quick (fun () ->
      for seed = 1 to count do
        let rng = Rng.create (seed * 104729) in
        let inst = unit_instance rng in
        try f inst
        with e ->
          Alcotest.failf "%s: seed %d: %s\n%s" name seed (Printexc.to_string e)
            (Instance.to_string inst)
      done)

(* Large processing volumes: exercises the step-skipping path hard. *)
let big_volume_instance rng =
  let scale = Rng.int_in rng 10 100 in
  let m = Rng.int_in rng 2 6 in
  let n = Rng.int_in rng 1 10 in
  let specs =
    List.init n (fun _ -> (Rng.int_in rng 1 10_000, Rng.int_in rng 1 (scale + (scale / 2))))
  in
  Instance.create ~m ~scale specs

let test_fast_on_big_volumes () =
  for seed = 1 to 60 do
    let rng = Rng.create (seed * 31337) in
    let inst = big_volume_instance rng in
    let s, iters = Fast.run_columns inst in
    (try Helpers.check_valid s
     with e ->
       Alcotest.failf "big volume seed %d: %s\n%s" seed (Printexc.to_string e)
         (Instance.to_string inst));
    (* The fast path must actually compress: far fewer iterations than steps. *)
    if s.makespan > 1000 && iters * 20 > s.makespan then
      Alcotest.failf "fast solver did not compress: %d iters for makespan %d" iters
        s.makespan
  done

let test_fast_equiv_medium_volumes () =
  (* Direct Listing1 comparison needs expandable makespans. *)
  for seed = 1 to 150 do
    let rng = Rng.create (seed * 2741) in
    let scale = Rng.int_in rng 5 60 in
    let m = Rng.int_in rng 2 6 in
    let n = Rng.int_in rng 1 12 in
    let specs =
      List.init n (fun _ -> (Rng.int_in rng 1 60, Rng.int_in rng 1 (scale * 3 / 2)))
    in
    let inst = Instance.create ~m ~scale specs in
    try prop_fast_equivalent inst
    with e ->
      Alcotest.failf "seed %d: %s\n%s" seed (Printexc.to_string e)
        (Instance.to_string inst)
  done

let test_fast_equiv_qevent_stress () =
  (* Deterministic instances engineered so the remainder receiver's q-value
     cycles hit 0 mid-run (the congruence cap of the skip rule): prime-ish
     scales with requirement mixes sharing factors, large volumes. *)
  let cases =
    [
      (3, 7, [ (50, 3); (60, 5); (40, 6) ]);
      (3, 7, [ (100, 2); (100, 5); (100, 7) ]);
      (4, 11, [ (80, 3); (80, 4); (80, 6); (70, 9) ]);
      (3, 12, [ (90, 8); (90, 5); (33, 12) ]);
      (4, 9, [ (64, 2); (64, 2); (64, 7); (10, 9) ]);
      (5, 13, [ (55, 3); (55, 3); (55, 4); (55, 6); (55, 11) ]);
      (2, 5, [ (70, 2); (70, 3) ]);
      (3, 6, [ (77, 4); (77, 4); (77, 5) ]);
    ]
  in
  List.iter
    (fun (m, scale, specs) ->
      let inst = Instance.create ~m ~scale specs in
      try prop_fast_equivalent inst
      with e ->
        Alcotest.failf "m=%d scale=%d: %s\n%s" m scale (Printexc.to_string e)
          (Instance.to_string inst))
    cases

(* Iteration-count goldens for the event-driven solver: the number of
   simulated loop iterations on pinned instances, both window variants.
   These pin the predictive-skip behaviour exactly — a change that costs
   (or saves) even one event shows up here long before it moves wall
   clock. Refresh deliberately if the skip rule is extended. *)
let test_fast_iteration_goldens () =
  let check name inst ~fixed ~literal =
    let s_fix, it_fix = Fast.run_columns ~variant:`Fixed inst in
    let s_lit, it_lit = Fast.run_columns ~variant:`Literal inst in
    Helpers.check_valid s_fix;
    Helpers.check_valid s_lit;
    Alcotest.(check int) (name ^ ": fixed iterations") fixed it_fix;
    Alcotest.(check int) (name ^ ": literal iterations") literal it_lit
  in
  check "pinned-m3"
    (Instance.create ~m:3 ~scale:12 [ (4, 5); (3, 7); (6, 2); (2, 12); (5, 9) ])
    ~fixed:6 ~literal:6;
  check "pinned-m4"
    (Instance.create ~m:4 ~scale:10
       [ (2, 3); (5, 4); (1, 10); (3, 6); (4, 2); (2, 8); (6, 5) ])
    ~fixed:8 ~literal:8;
  let rng = Rng.create 424242 in
  check "bimodal-n60"
    (Workload.Sos_gen.generate rng Workload.Sos_gen.bimodal ~n:60 ~m:8 ())
    ~fixed:50 ~literal:48

(* The perf gate's T7b volume-scaling shapes (same seed recipe as
   bench/exp_perf.ml's make_instance): the simulated iteration count must
   stay linear in n with a small constant. Makespans here are 10^7–10^8
   steps, so a lost skip blows past 2n immediately — long before the
   solver's 16n + 64 hard backstop would trip. *)
let gate_instance ~n ~m ~pmax seed =
  let rng = Rng.create (0xCA51E + seed) in
  let scale = 720720 in
  let specs =
    List.init n (fun _ -> (Rng.int_in rng 1 pmax, Rng.int_in rng 1 scale))
  in
  Instance.create ~m ~scale specs

let test_fast_iterations_linear () =
  List.iter
    (fun (n, pmax) ->
      let inst = gate_instance ~n ~m:8 ~pmax (7 * n * pmax) in
      List.iter
        (fun variant ->
          let sched, iters = Fast.run_columns ~variant inst in
          if iters > 2 * n then
            Alcotest.failf "t7b n=%d pmax=%d: %d iterations > 2n (makespan %d)" n
              pmax iters sched.makespan)
        variants)
    [ (50, 10_000_000); (800, 100_000); (3200, 100_000) ]

let test_makespan_at_least_lb () =
  for seed = 1 to 200 do
    let rng = Rng.create (seed * 13) in
    let inst = Workload.Sos_gen.random_instance rng () in
    let s = Helpers.solve inst in
    let lb = Bounds.lower_bound inst in
    if s.makespan < lb then
      Alcotest.failf "makespan %d below lower bound %d (seed %d)\n%s" s.makespan lb seed
        (Instance.to_string inst)
  done

let test_splittable_pack_structure () =
  let items = [ { Splittable.id = 0; size = 60 }; { id = 1; size = 60 }; { id = 2; size = 60 } ]
  in
  let bins = Splittable.pack items ~size:2 ~budget:100 in
  (* Every bin except possibly the last is full or has k parts; all mass packed. *)
  let total =
    List.fold_left
      (fun acc bin -> List.fold_left (fun acc (_, a) -> acc + a) acc bin)
      0 bins
  in
  Alcotest.(check int) "all packed" 180 total;
  List.iter
    (fun bin ->
      let sum = List.fold_left (fun acc (_, a) -> acc + a) 0 bin in
      Alcotest.(check bool) "bin within capacity" true (sum <= 100);
      Alcotest.(check bool) "cardinality" true (List.length bin <= 2))
    bins;
  (* LB = max(⌈1.8⌉, ⌈3/2⌉) = 2; the algorithm may use at most 3 bins here. *)
  Alcotest.(check bool) "bin count within guarantee" true (List.length bins <= 3)

(* Reproduction finding (see Window.is_effectively_maximal): a distilled
   instance on which the literal Listing 2 produces a step whose window has
   fewer than m−1 jobs, unfinished jobs to its left, and r(W) ≥ 1 — i.e.
   strict (m−1)-maximality (Lemma 3.7 as stated) fails, while the weakened
   invariant (and the Theorem 3.3 ratio) still holds. *)
let test_lemma_3_7_stall () =
  (* m = 7, scale = 127. Small jobs finish out of a full window while the
     large max survives, leaving the carried window overfull. *)
  let specs =
    [ (2, 6); (4, 6); (4, 14); (3, 14); (6, 30); (8, 31); (7, 33); (8, 52); (7, 52);
      (8, 56); (8, 63); (7, 64); (1, 70); (3, 76); (1, 81); (4, 86); (1, 88); (4, 90);
      (5, 97); (2, 101); (8, 103); (6, 106); (1, 106); (3, 108); (2, 110); (7, 114);
      (6, 117); (3, 121); (3, 124); (5, 129); (8, 137); (6, 143); (3, 148) ]
  in
  let inst = Instance.create ~m:7 ~scale:127 specs in
  (* Both variants must run cleanly under the weakened (effective) check... *)
  let s_lit = Listing1.run ~check:true ~variant:`Literal inst in
  let s_fix = Listing1.run ~check:true ~variant:`Fixed inst in
  Helpers.check_valid s_lit;
  Helpers.check_valid s_fix;
  (* ...and under the literal GrowWindowLeft, strict Lemma 3.7 must actually
     fail somewhere: replay the algorithm asserting strict maximality. *)
  let strict_violations variant =
    let st = State.create inst in
    let size = inst.Instance.m - 1 and budget = inst.Instance.scale in
    let carried = ref Window.empty in
    let violations = ref 0 in
    while not (State.all_finished st) do
      let w = Window.compute ~variant st !carried ~size ~budget in
      if not (Window.is_k_maximal st w ~k:size ~budget) then incr violations;
      let outcome = Assign.compute st w ~budget ~extra:true in
      let finished = Assign.apply st outcome in
      let survivors = Window.prune st outcome.Assign.window in
      List.iter (State.unlink st) finished;
      carried := survivors;
      State.tick st
    done;
    !violations
  in
  Alcotest.(check bool) "strict Lemma 3.7 violated under literal Listing 2" true
    (strict_violations `Literal > 0);
  Alcotest.(check int) "fixed GrowWindowLeft restores Lemma 3.7 here" 0
    (strict_violations `Fixed);
  (* The guarantee of Theorem 3.3 holds for both variants. *)
  let lb = Bounds.lower_bound inst in
  let bound = Bounds.guarantee_general ~m:7 in
  List.iter
    (fun (s : Schedule.Columns.t) ->
      Alcotest.(check bool) "ratio within guarantee" true
        (float_of_int s.makespan <= (bound *. float_of_int lb) +. 1e-9))
    [ s_lit; s_fix ]

let test_gantt_renders () =
  let inst = Instance.create ~m:3 ~scale:10 [ (2, 3); (2, 4); (1, 8); (3, 2) ] in
  let s = Listing1.run inst in
  let g = Schedule.render_gantt s in
  Alcotest.(check bool) "has rows" true (List.length (String.split_on_char '\n' g) >= 3)

let test_processor_assignment () =
  let inst = Instance.create ~m:3 ~scale:10 [ (2, 3); (2, 4); (1, 8); (3, 2) ] in
  let s = Listing1.run inst in
  let assignment = Schedule.processor_assignment s in
  Alcotest.(check int) "every job placed" (Instance.n inst) (List.length assignment);
  List.iter
    (fun (_, p, _) ->
      Alcotest.(check bool) "processor in range" true (p >= 0 && p < 3))
    assignment

let test_utilization_profile () =
  let inst = Instance.create ~m:4 ~scale:100 [ (2, 50); (2, 50); (2, 50) ] in
  let s = Listing1.run inst in
  let u = Schedule.utilization s in
  Alcotest.(check int) "covers makespan" s.makespan (Schedule.profile_length u);
  Array.iter
    (fun (_, _, x) -> Alcotest.(check bool) "≤ 1" true (x <= 1.0 +. 1e-9))
    u;
  let dense = Schedule.to_dense ~default:0.0 u in
  Alcotest.(check int) "dense length = makespan" s.makespan (Array.length dense);
  let capped = Schedule.to_dense ~cap:2 ~default:0.0 u in
  Alcotest.(check int) "cap truncates" (min 2 s.makespan) (Array.length capped)

let blocks_of (s : Schedule.t) =
  List.map
    (fun (st : Schedule.step) ->
      ( st.repeat,
        List.map (fun (a : Schedule.alloc) -> (a.job, a.assigned, a.consumed)) st.allocs ))
    s.steps

let column_blocks (c : Schedule.Columns.t) =
  List.init c.blocks (fun b ->
      ( c.repeat.(b),
        List.init
          (c.first.(b + 1) - c.first.(b))
          (fun k ->
            let i = c.first.(b) + k in
            (c.job.(i), c.assigned.(i), c.consumed.(i))) ))

(* The column solve against the list-building loop it replaced
   (test/fast_oracle.ml): the same blocks — repeat, and per allocation job,
   assigned and consumed, in order — from the same number of iterations
   ([sosctl batch] prints the block count on every line). Covers the six
   generator families and their -unit variants at m = 3, 8 and 16, and
   T7b-shaped instances (uniform p in [1, p_max], m = 8) at p_max 10^5 and
   10^7, under both variants. *)
let test_fast_matches_list_oracle () =
  let check label inst =
    List.iter
      (fun variant ->
        let reference, ref_iters = Fast_oracle.run_count ~variant inst in
        let cols, iters = Fast.run_columns ~variant inst in
        let name =
          Printf.sprintf "%s %s" label (match variant with `Fixed -> "fixed" | `Literal -> "literal")
        in
        Alcotest.(check int) (name ^ ": iterations") ref_iters iters;
        Alcotest.(check int) (name ^ ": makespan") reference.Schedule.makespan cols.makespan;
        if blocks_of reference <> column_blocks cols then
          Alcotest.failf "%s: blocks differ from the list oracle" name;
        let listed, listed_iters = Fast.run_count ~variant inst in
        Alcotest.(check int) (name ^ ": run_count iterations") ref_iters listed_iters;
        if listed <> reference then Alcotest.failf "%s: Fast.run_count differs" name)
      variants
  in
  let families =
    Workload.Sos_gen.all_families @ List.map Workload.Sos_gen.unit_of Workload.Sos_gen.all_families
  in
  List.iteri
    (fun fi (f : Workload.Sos_gen.family) ->
      List.iter
        (fun m ->
          for seed = 1 to 3 do
            let rng = Prelude.Rng.create2 (fi + 1) ((m * 10) + seed) in
            let n = 20 + (40 * seed) in
            check
              (Printf.sprintf "%s n=%d m=%d seed=%d" f.name n m seed)
              (Workload.Sos_gen.generate rng f ~n ~m ())
          done)
        [ 3; 8; 16 ])
    families;
  List.iter
    (fun (n, pmax) ->
      let rng = Prelude.Rng.create2 n pmax in
      let scale = Workload.Sos_gen.default_scale in
      let inst =
        Instance.create ~m:8 ~scale
          (List.init n (fun _ -> (Prelude.Rng.int_in rng 1 pmax, Prelude.Rng.int_in rng 1 scale)))
      in
      check (Printf.sprintf "t7b n=%d p_max=%d" n pmax) inst)
    [ (50, 100_000); (400, 100_000); (50, 10_000_000); (400, 10_000_000) ]

(* One workspace through a sequence of solves whose n goes up, down and
   across sosctl batch's bundle size (n = 512): 300, 5, 1, then six times
   a 2000-job solve abandoned mid-loop by the [sos.fast.step] chaos site
   followed by the same 2000 jobs again, then 40. Each completed solve,
   under both variants, must give the blocks, makespan and iterations of
   a fresh [Fast.run_columns] and of the list-building oracle, and the
   validator scratch shared across them must answer as a fresh validator
   does, on the schedule and on the schedule with its last block dropped.
   The store a solve returns is the workspace's own, so after an abandoned
   solve it shows how far that solve got. *)
let test_workspace_reuse () =
  let ws = Fast.workspace () and check = Schedule.Columns.validator () in
  let gen fam ~n ~m seed = Workload.Sos_gen.generate (Rng.create seed) fam ~n ~m () in
  let big = gen Workload.Sos_gen.uniform_wide ~n:2000 ~m:8 4 in
  let store = ref None in
  let solve label inst =
    List.iter
      (fun variant ->
        let name =
          Printf.sprintf "%s %s" label (match variant with `Fixed -> "fixed" | `Literal -> "literal")
        in
        let cols, iters = Fast.run_in ~variant ws inst in
        (match !store with
        | Some c when c != cols -> Alcotest.failf "%s: the workspace changed its store" name
        | _ -> store := Some cols);
        let fresh, fresh_iters = Fast.run_columns ~variant inst in
        let reference, ref_iters = Fast_oracle.run_count ~variant inst in
        Alcotest.(check int) (name ^ ": iterations (fresh)") fresh_iters iters;
        Alcotest.(check int) (name ^ ": iterations (oracle)") ref_iters iters;
        Alcotest.(check int) (name ^ ": makespan") fresh.makespan cols.makespan;
        if column_blocks cols <> column_blocks fresh then
          Alcotest.failf "%s: blocks differ from a fresh solve" name;
        if column_blocks cols <> blocks_of reference then
          Alcotest.failf "%s: blocks differ from the list oracle" name;
        let verdict v = Result.map_error (fun (e : Schedule.violation) -> (e.at_step, e.reason)) v in
        let same what got want =
          if verdict got <> verdict want then
            Alcotest.failf "%s: %s: the shared validator disagrees with a fresh one" name what
        in
        same "schedule" (Schedule.Columns.validate ~scratch:check cols) (Schedule.validate reference);
        if reference.steps <> [] then begin
          let steps = List.filteri (fun i _ -> i < List.length reference.steps - 1) reference.steps in
          let cut = Schedule.Columns.of_schedule (Schedule.make inst steps) in
          same "last block dropped"
            (Schedule.Columns.validate ~scratch:check cut)
            (Schedule.validate (Schedule.make inst steps))
        end)
      variants
  in
  solve "n=300" (gen Workload.Sos_gen.bimodal ~n:300 ~m:16 1);
  solve "n=5" (gen Workload.Sos_gen.uniform_wide ~n:5 ~m:3 2);
  solve "n=1" (gen Workload.Sos_gen.near_one ~n:1 ~m:4 3);
  (* In a task scope the chaos draws are a function of (seed, site, index,
     attempt, hit), so each crash lands at the same step on every run; six
     task indices give six different stopping points, each followed by the
     same 2000 jobs solved again in the dirty workspace. *)
  let full = (fst (Fast.run_columns big)).blocks in
  for index = 0 to 5 do
    let abandoned =
      Robust.Chaos.arm_rules ~seed:7 [ ("sos.fast.step", Robust.Chaos.Fail_prob 0.01) ];
      Fun.protect ~finally:Robust.Chaos.disarm (fun () ->
          Robust.Context.with_ctx
            (Robust.Context.make ~index ~attempt:0 ~cancel:Robust.Cancel.none)
            (fun () ->
              match Fast.run_in ws big with
              | _ -> false
              | exception Robust.Chaos.Injected _ -> true))
    in
    Alcotest.(check bool) "the 2000-job solve was abandoned" true abandoned;
    (match !store with
    | Some c ->
        if not (c.inst == big && c.blocks > 0 && c.blocks < full) then
          Alcotest.failf "the abandoned solve stopped at block %d of %d, not mid-loop" c.blocks
            full
    | None -> Alcotest.fail "no store");
    solve (Printf.sprintf "n=2000 after abandoned solve %d" index) big
  done;
  solve "n=40" (gen Workload.Sos_gen.uniform_small ~n:40 ~m:16 5)

(* [State.reset] against [State.create], on every observable of the state,
   after the state was left dirty: jobs part-consumed (fractured, with a
   remainder q), finished and unlinked, the clock advanced. The sequence
   shrinks the arrays' use, grows them, and shrinks it again. Comparing
   solves is not enough here: a reset that left an abandoned solve's
   remainder in place gave the fresh schedule on every generator family
   at m = 3, 8 and 16, since the solver rewrites a job's remainder before
   it reads it on the instances tried. *)
let test_state_reset () =
  let gen ~n seed = Workload.Sos_gen.generate (Rng.create seed) Workload.Sos_gen.bimodal ~n ~m:8 () in
  let dirty st inst =
    for i = 0 to Instance.n inst - 1 do
      match i mod 3 with
      | 0 -> State.consume st i ((State.s st i / 2) + 1)
      | 1 ->
          State.consume st i (State.s st i);
          State.unlink st i
      | _ -> ()
    done;
    State.advance st 17
  in
  let same label st inst =
    let fresh = State.create inst in
    let n = Instance.n inst in
    let check what got want = Alcotest.(check int) (label ^ ": " ^ what) want got in
    check "now" (State.now st) (State.now fresh);
    check "remaining" (State.remaining_count st) (State.remaining_count fresh);
    check "head" (State.head_idx st) (State.head_idx fresh);
    Alcotest.(check (list int)) (label ^ ": remaining jobs") (State.remaining_jobs fresh)
      (State.remaining_jobs st);
    for i = 0 to n - 1 do
      let job what got want = check (Printf.sprintf "job %d %s" i what) got want in
      job "s" (State.s st i) (State.s fresh i);
      job "q" (State.q st i) (State.q fresh i);
      job "req" (State.req st i) (State.req fresh i);
      job "next" (State.next_idx st i) (State.next_idx fresh i);
      job "prev" (State.prev_idx st i) (State.prev_idx fresh i);
      if State.started st i || State.fractured st i || State.finished st i then
        Alcotest.failf "%s: job %d not as created" label i;
      let v = State.view st in
      job "d" v.v_d.(i) (State.view fresh).v_d.(i)
    done
  in
  let st = State.create (gen ~n:300 1) in
  List.iter
    (fun inst ->
      dirty st (State.instance st);
      State.reset st inst;
      same (Printf.sprintf "reset to n=%d" (Instance.n inst)) st inst)
    [ gen ~n:40 2; gen ~n:2000 3; gen ~n:5 4; gen ~n:300 1 ]

(* Once warmed up, a workspace and a validator scratch take an n = 300,
   m = 16 solve and its validation without allocating anything directly
   in the major heap (where every array of more than 256 words would go). *)
let test_workspace_no_major_alloc () =
  let ws = Fast.workspace () and check = Schedule.Columns.validator () in
  let insts =
    List.mapi
      (fun i fam -> Workload.Sos_gen.generate (Rng.create (i + 11)) fam ~n:300 ~m:16 ())
      Workload.Sos_gen.all_families
  in
  let solve inst =
    let cols, _ = Fast.run_in ws inst in
    match Schedule.Columns.validate ~scratch:check cols with
    | Ok () -> ()
    | Error v -> Alcotest.failf "invalid schedule: %s" v.reason
  in
  List.iter solve insts;
  List.iter
    (fun inst ->
      let minor0, promoted0, major0 = Gc.counters () in
      solve inst;
      let minor1, promoted1, major1 = Gc.counters () in
      Alcotest.(check (float 0.0))
        "words allocated directly in the major heap" 0.0
        (major1 -. major0 -. (promoted1 -. promoted0));
      if minor1 <= minor0 then Alcotest.fail "minor counter did not move")
    insts

let suite =
  ( "algorithm",
    [
      Alcotest.test_case "single big-requirement job" `Quick test_single_job;
      Alcotest.test_case "full-requirement job" `Quick test_full_requirement_single;
      Alcotest.test_case "tiny jobs in parallel" `Quick test_two_tiny_jobs_parallel;
      Alcotest.test_case "empty instance" `Quick test_empty_instance;
      Alcotest.test_case "resource-tight optimum" `Quick test_known_optimal_fill;
      Helpers.for_random_instances "schedule validity (random)" prop_valid;
      Helpers.for_random_instances "window maximality every step (Lemma 3.7)"
        (fun inst -> ignore (Listing1.run ~check:true inst));
      Helpers.for_random_instances "fast ≡ listing1 (random)" prop_fast_equivalent;
      Helpers.for_random_instances ~count:400 "Theorem 3.3 ratio (random)" prop_theorem_3_3;
      Helpers.for_random_instances "Lemma 3.8 border monotonicity" prop_lemma_3_8;
      Helpers.for_random_instances "Observation 3.2 accounting dichotomy"
        prop_observation_3_2;
      Helpers.for_random_instances "evolved windows stay windows"
        prop_evolved_windows_stay_windows;
      Helpers.for_random_instances "extra-job invariant" prop_extra_job_invariant;
      for_unit_instances "unit-size Theorem 3.3 bound" prop_unit_size_theorem;
      for_unit_instances "splittable variant bound (Cor 3.9)" prop_splittable;
      for_unit_instances "non-preemptive m-maximal variant" prop_splittable_nonpreemptive;
      Alcotest.test_case "fast on big volumes" `Quick test_fast_on_big_volumes;
      Alcotest.test_case "fast ≡ listing1 (q-event stress)" `Quick
        test_fast_equiv_qevent_stress;
      Alcotest.test_case "fast ≡ listing1 (medium volumes)" `Quick
        test_fast_equiv_medium_volumes;
      Alcotest.test_case "fast iteration goldens" `Quick test_fast_iteration_goldens;
      Alcotest.test_case "fast columns ≡ list-building oracle" `Quick
        test_fast_matches_list_oracle;
      Alcotest.test_case "state reset equals create" `Quick test_state_reset;
      Alcotest.test_case "fast workspace reused across solves" `Quick test_workspace_reuse;
      Alcotest.test_case "fast workspace: no major allocation once warm" `Quick
        test_workspace_no_major_alloc;
      Alcotest.test_case "fast iterations ≤ 2n (t7b shapes)" `Quick
        test_fast_iterations_linear;
      Alcotest.test_case "makespan ≥ lower bound" `Quick test_makespan_at_least_lb;
      Alcotest.test_case "splittable pack structure" `Quick test_splittable_pack_structure;
      Alcotest.test_case "Lemma 3.7 stall (reproduction finding)" `Quick
        test_lemma_3_7_stall;
      Alcotest.test_case "gantt renders" `Quick test_gantt_renders;
      Alcotest.test_case "processor assignment" `Quick test_processor_assignment;
      Alcotest.test_case "utilization profile" `Quick test_utilization_profile;
    ] )
