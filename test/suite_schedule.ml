(* Failure-injection tests for the schedule validator: every class of
   constraint violation must be caught, and the reported reason must point
   at the right class. Also covers the export module and the preemptive /
   fixed-assignment schedulers. *)

open Sos
module Rng = Prelude.Rng

(* Jobs (size, req): sorted by req the ids become
   id0 = (p=3, r=2, s=6), id1 = (p=2, r=4, s=8), id2 = (p=1, r=6, s=6). *)
let base_instance () = Instance.create ~m:3 ~scale:10 [ (2, 4); (1, 6); (3, 2) ]

let step allocs = { Schedule.allocs; repeat = 1 }
let alloc job assigned consumed = { Schedule.job; assigned; consumed }

(* A valid handcrafted schedule: job2 occupies a processor with a zero
   share in step 2 before receiving everything in step 3. *)
let good_steps () =
  [
    step [ alloc 0 2 2; alloc 1 4 4 ];
    step [ alloc 0 2 2; alloc 1 4 4; alloc 2 0 0 ];
    step [ alloc 0 2 2; alloc 2 6 6 ];
  ]

(* The same blocks appended to a column store one by one, as the solver
   appends them, not through [Columns.of_schedule]: its makespan is the
   blocks' total, whatever the list claims. *)
let built_columns (s : Schedule.t) =
  let c = Schedule.Columns.create s.inst in
  List.iter
    (fun (st : Schedule.step) ->
      let column f = Array.of_list (List.map f st.allocs) in
      Schedule.Columns.append c
        ~job:(column (fun (a : Schedule.alloc) -> a.job))
        ~assigned:(column (fun a -> a.assigned))
        ~consumed:(column (fun a -> a.consumed))
        ~len:(List.length st.allocs) ~repeat:st.repeat)
    s.steps;
  c

(* The validator must name the violation exactly: its step and its
   message, the same from the list entry and from the column validator.
   [columns] defaults to [built_columns]; a case about the list's own
   makespan field passes its conversion. *)
let expect_reason ?columns ~at_step reason sched =
  let columns = match columns with Some c -> c | None -> built_columns sched in
  let check what = function
    | Ok () -> Alcotest.failf "%s: expected violation %S" what reason
    | Error v ->
        Alcotest.(check (pair int string))
          what (at_step, reason) (v.Schedule.at_step, v.Schedule.reason)
  in
  check "list entry" (Schedule.validate sched);
  check "column validator" (Schedule.Columns.validate columns)

let expect_valid ?preemption_ok what sched =
  let check entry = function
    | Ok () -> ()
    | Error v -> Alcotest.failf "%s (%s): %s" what entry v.Schedule.reason
  in
  check "list entry" (Schedule.validate ?preemption_ok sched);
  check "column validator" (Schedule.Columns.validate ?preemption_ok (built_columns sched))

let test_good_schedule () =
  let inst = base_instance () in
  expect_valid "fixture should be valid" (Schedule.make inst (good_steps ()))

let valid_fixture () = (base_instance (), good_steps ())

let test_overuse () =
  let inst, steps = valid_fixture () in
  let steps = step [ alloc 0 6 2; alloc 1 5 4 ] :: List.tl steps in
  expect_reason ~at_step:0 "resource overused: 11 > scale 10" (Schedule.make inst steps)

let test_too_many_jobs () =
  (* Needs n > m: a 2-processor instance with 3 concurrent allocations. *)
  let inst = Instance.create ~m:2 ~scale:10 [ (2, 4); (1, 6); (3, 2) ] in
  let steps = [ step [ alloc 0 2 2; alloc 1 4 4; alloc 2 2 2 ] ] in
  expect_reason ~at_step:0 "too many jobs in one step: 3 > m=2" (Schedule.make inst steps)

let test_double_allocation () =
  let inst, steps = valid_fixture () in
  let steps = step [ alloc 0 2 2; alloc 0 2 2 ] :: List.tl steps in
  expect_reason ~at_step:0 "job 0 allocated twice in one step" (Schedule.make inst steps)

let test_unknown_job () =
  let inst, steps = valid_fixture () in
  let steps = step [ alloc 7 1 1 ] :: steps in
  expect_reason ~at_step:0 "allocation for unknown job 7" (Schedule.make inst steps)

let test_over_consumption_rate () =
  (* consumed beyond min(assigned, r). *)
  let inst, steps = valid_fixture () in
  let steps = step [ alloc 0 2 3 ] :: List.tl steps in
  expect_reason ~at_step:0 "job 0: consumed 3 > min(assigned=2, r=2)" (Schedule.make inst steps)

let test_over_consumption_total () =
  let inst, steps = valid_fixture () in
  let steps = steps @ [ step [ alloc 0 2 2 ] ] in
  expect_reason ~at_step:3 "job 0: over-consumed (2 > remaining 0)" (Schedule.make inst steps)

let test_under_consumption_midrun () =
  (* A job consuming less than min(assigned, r) without finishing. *)
  let inst, steps = valid_fixture () in
  let steps = step [ alloc 0 2 1; alloc 1 4 4 ] :: List.tl steps in
  expect_reason ~at_step:0 "job 0: under-consumed (1 < 2) outside its finishing step"
    (Schedule.make inst steps)

let test_preemption_gap () =
  let inst = Instance.create ~m:2 ~scale:10 [ (2, 4) ] in
  let steps =
    [ step [ alloc 0 4 4 ]; step []; step [ alloc 0 4 4 ] ]
  in
  expect_reason ~at_step:(-1) "job 0 preempted: present 2 of steps [0..2]"
    (Schedule.make inst steps);
  (* ...but with preemption_ok the same schedule passes. *)
  expect_valid ~preemption_ok:true "preemption_ok should accept" (Schedule.make inst steps)

let test_unfinished () =
  let inst = Instance.create ~m:2 ~scale:10 [ (2, 4) ] in
  expect_reason ~at_step:(-1) "job 0 not finished: 4 units left"
    (Schedule.make inst [ step [ alloc 0 4 4 ] ])

let test_rle_under_consumption () =
  (* Under-consumption inside a repeat > 1 block must be rejected even if
     the totals happen to work out. *)
  let inst = Instance.create ~m:2 ~scale:10 [ (4, 4) ] in
  let bad = [ { Schedule.allocs = [ alloc 0 4 2 ]; repeat = 8 } ] in
  expect_reason ~at_step:0 "job 0: under-consumed (2 < 4) outside its finishing step"
    (Schedule.make inst bad);
  let good =
    [ { Schedule.allocs = [ alloc 0 4 4 ]; repeat = 4 } ]
  in
  expect_valid "RLE schedule should be valid" (Schedule.make inst good)

let test_negative_values () =
  let inst, steps = valid_fixture () in
  expect_reason ~at_step:0 "job 0: negative assignment"
    (Schedule.make inst (step [ alloc 0 (-1) 0 ] :: List.tl steps))

(* The per-block double-allocation check, at its edges: the first and
   last block, the first and last job, and the job index just past the
   instance. *)
let test_same_job_consecutive_blocks () =
  let inst = Instance.create ~m:2 ~scale:10 [ (4, 4) ] in
  let blocks =
    [ { Schedule.allocs = [ alloc 0 4 4 ]; repeat = 2 };
      { Schedule.allocs = [ alloc 0 4 4 ]; repeat = 2 } ]
  in
  expect_valid "consecutive blocks should be valid" (Schedule.make inst blocks)

let test_double_allocation_edges () =
  let inst, steps = valid_fixture () in
  let last_twice =
    [ List.nth steps 0; List.nth steps 1; step [ alloc 2 6 6; alloc 0 2 2; alloc 2 6 6 ] ]
  in
  expect_reason ~at_step:2 "job 2 allocated twice in one step" (Schedule.make inst last_twice);
  let in_block b allocs = List.mapi (fun i st -> if i = b then step allocs else st) steps in
  expect_reason ~at_step:1 "job 0 allocated twice in one step"
    (Schedule.make inst (in_block 1 [ alloc 0 2 2; alloc 1 4 4; alloc 0 2 2 ]));
  expect_reason ~at_step:1 "job 2 allocated twice in one step"
    (Schedule.make inst (in_block 1 [ alloc 2 0 0; alloc 0 2 2; alloc 2 0 0 ]))

let test_job_index_past_end () =
  let inst, steps = valid_fixture () in
  expect_reason ~at_step:0 "allocation for unknown job 3"
    (Schedule.make inst (step [ alloc 3 1 1 ] :: steps));
  expect_reason ~at_step:0 "allocation for unknown job -1"
    (Schedule.make inst (step [ alloc (-1) 1 1 ] :: steps))

(* The list form's makespan field and its repeats are what [sosctl batch]
   prints and what every per-job total is scaled by; none of them may be
   taken on trust. *)
let test_makespan_field () =
  let inst, steps = valid_fixture () in
  let s = Schedule.make inst steps in
  let bad = { s with Schedule.makespan = s.Schedule.makespan + 5 } in
  expect_reason ~columns:(Schedule.Columns.of_schedule bad) ~at_step:(-1)
    "makespan 8 differs from the blocks' total 3" bad

let test_empty_negative_block () =
  let inst, steps = valid_fixture () in
  let s = Schedule.make inst steps in
  let bad =
    { s with Schedule.steps = s.Schedule.steps @ [ { Schedule.allocs = []; repeat = -3 } ] }
  in
  expect_reason ~at_step:3 "non-positive repeat -3" bad

let test_negative_repeat_refund () =
  (* One job, p = 2, r = 5 (s = 10). Three steps at 5 over-consume it...
     unless a repeat = -1 block refunds 5 units first. *)
  let inst = Instance.create ~m:2 ~scale:10 [ (2, 5) ] in
  let over = [ { Schedule.allocs = [ alloc 0 5 5 ]; repeat = 3 } ] in
  expect_reason ~at_step:0 "job 0: over-consumed (15 > remaining 10)" (Schedule.make inst over);
  let refund = { Schedule.allocs = [ alloc 0 5 5 ]; repeat = -1 } in
  let bad = { Schedule.inst; steps = refund :: over; makespan = 2 } in
  expect_reason ~at_step:0 "non-positive repeat -1" bad

(* --- export --- *)

let test_csv_exports () =
  let inst = Instance.create ~m:3 ~scale:10 [ (2, 3); (1, 8) ] in
  let sched, trace = Listing1.run_traced inst in
  let csv = Export.schedule_to_csv sched in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check string) "header" "step,job,assigned,consumed" (List.hd lines);
  (* one row per allocation per step; total consumption recoverable *)
  let total =
    List.fold_left
      (fun acc line ->
        match String.split_on_char ',' line with
        | [ _; _; _; c ] when c <> "consumed" -> acc + int_of_string c
        | _ -> acc)
      0 lines
  in
  Alcotest.(check int) "consumption adds up" (Instance.total_requirement inst) total;
  let icsv = Export.instance_to_csv inst in
  Alcotest.(check int) "instance rows" 3 (List.length (String.split_on_char '\n' (String.trim icsv)));
  let ucsv = Export.utilization_to_csv sched in
  let ulines = String.split_on_char '\n' (String.trim ucsv) in
  Alcotest.(check string) "utilization header" "t0,len,assigned,consumed,jobs"
    (List.hd ulines);
  (* one row per RLE block, and the block lengths cover the makespan *)
  Alcotest.(check int) "utilization rows" (sched.blocks + 1) (List.length ulines);
  let covered =
    List.fold_left
      (fun acc line ->
        match String.split_on_char ',' line with
        | _ :: len :: _ when len <> "len" -> acc + int_of_string len
        | _ -> acc)
      0 ulines
  in
  Alcotest.(check int) "utilization covers makespan" sched.makespan covered;
  let rcsv = Export.columns_to_csv_rle sched in
  Alcotest.(check string) "rle header" "t0,repeat,job,assigned,consumed"
    (List.hd (String.split_on_char '\n' rcsv));
  (* the RLE export carries the same total consumption *)
  let rle_total =
    List.fold_left
      (fun acc line ->
        match String.split_on_char ',' line with
        | [ _; rep; _; _; c ] when c <> "consumed" ->
            acc + (int_of_string rep * int_of_string c)
        | _ -> acc)
      0
      (String.split_on_char '\n' (String.trim rcsv))
  in
  Alcotest.(check int) "rle consumption adds up" (Instance.total_requirement inst)
    rle_total;
  let tcsv = Export.trace_to_csv trace inst in
  Alcotest.(check bool) "trace has rows" true (String.length tcsv > 60)

let test_job_spans () =
  for seed = 1 to 60 do
    let rng = Rng.create (seed * 71) in
    let inst = Workload.Sos_gen.random_instance rng () in
    let sched = Helpers.solve inst in
    let spans = Schedule.job_spans sched in
    Alcotest.(check int) "every job has a span" (Instance.n inst) (List.length spans);
    (* spans agree with the processor assignment's start times *)
    let starts = Schedule.processor_assignment sched in
    List.iter
      (fun (j, p, t0) ->
        ignore p;
        match List.find_opt (fun (j', _, _) -> j' = j) spans with
        | Some (_, first, last) ->
            if first <> t0 then Alcotest.failf "seed %d: job %d span start mismatch" seed j;
            if last < first then Alcotest.failf "seed %d: job %d inverted span" seed j
        | None -> Alcotest.failf "seed %d: job %d missing span" seed j)
      starts
  done

let test_completion_times () =
  (* Hand-checkable: job0 (s=6, r=2) finishes in step 3; job1 (s=8, r=4) in
     step 2; job2 (s=6, r=6) in step 3. *)
  let inst = base_instance () in
  let sched = built_columns (Schedule.make inst (good_steps ())) in
  Alcotest.(check (array int)) "completions" [| 3; 2; 3 |]
    (Schedule.completion_times sched);
  Alcotest.(check int) "sum" 8 (Schedule.sum_completion_times sched);
  (* consistency on RLE outputs of the fast solver *)
  for seed = 1 to 60 do
    let rng = Rng.create (seed * 73) in
    let inst = Workload.Sos_gen.random_instance rng () in
    let sched = Helpers.solve inst in
    let c = Schedule.completion_times sched in
    let c' = Schedule.completion_times (Helpers.expand sched) in
    if c <> c' then Alcotest.failf "seed %d: RLE vs expanded completions differ" seed;
    Array.iter
      (fun f ->
        if f < 1 || f > sched.makespan then
          Alcotest.failf "seed %d: completion %d out of range" seed f)
      c;
    (* the makespan is the max completion *)
    Alcotest.(check int) "makespan = max completion" sched.makespan
      (Array.fold_left max 0 c)
  done

let test_expand_agreement () =
  for seed = 1 to 80 do
    let rng = Rng.create (seed * 67) in
    let scale = Rng.int_in rng 10 80 in
    let m = Rng.int_in rng 2 6 in
    let specs =
      List.init (Rng.int_in rng 1 10) (fun _ ->
          (Rng.int_in rng 1 200, Rng.int_in rng 1 (scale * 3 / 2)))
    in
    let inst = Instance.create ~m ~scale specs in
    let sched = Helpers.solve inst in
    let expanded = Helpers.expand sched in
    Alcotest.(check int) "makespan preserved" sched.makespan expanded.makespan;
    (match Schedule.Columns.validate expanded with
    | Ok () -> ()
    | Error v ->
        Alcotest.failf "seed %d: expanded schedule invalid at %d: %s" seed
          v.Schedule.at_step v.Schedule.reason);
    if Export.schedule_to_csv sched <> Export.schedule_to_csv expanded then
      Alcotest.failf "seed %d: CSV differs between RLE and expanded form" seed
  done

(* --- RLE-native analytics vs expand-then-compute reference --- *)

(* The old implementations expanded the RLE before computing; the rewritten
   ones fold over the blocks. These properties pin the two down to exact
   agreement on solver outputs (which contain repeat > 1 blocks). *)

let arb_instance =
  QCheck.(
    triple (int_range 2 6) (int_range 10 80)
      (list_of_size
         Gen.(int_range 1 12)
         (pair (int_range 1 300) (int_range 1 120))))

let instance_of (m, scale, specs) =
  Instance.create ~m ~scale (List.map (fun (p, r) -> (p, min r (scale * 3 / 2))) specs)

(* Reference: expand to repeat = 1 blocks and compute per step naively. *)
let ref_per_step sched f =
  let expanded = Helpers.expand sched in
  Array.init expanded.blocks (fun b -> f (Helpers.block_allocs expanded b))

let qcheck_utilization_matches_reference =
  Helpers.qcheck "utilization/jobs profiles ≡ expand-then-compute" arb_instance
    (fun spec ->
      let inst = instance_of spec in
      let sched = Helpers.solve inst in
      let scale = float_of_int inst.Instance.scale in
      let dense = Schedule.to_dense ~default:0.0 (Schedule.utilization sched) in
      let refd =
        ref_per_step sched (fun allocs ->
            float_of_int
              (List.fold_left (fun acc (a : Schedule.alloc) -> acc + a.consumed) 0 allocs)
            /. scale)
      in
      let densea =
        Schedule.to_dense ~default:0.0 (Schedule.assigned_utilization sched)
      in
      let refa =
        ref_per_step sched (fun allocs ->
            float_of_int
              (List.fold_left (fun acc (a : Schedule.alloc) -> acc + a.assigned) 0 allocs)
            /. scale)
      in
      let densej = Schedule.to_dense ~default:0 (Schedule.jobs_per_step sched) in
      let refj = ref_per_step sched List.length in
      dense = refd && densea = refa && densej = refj)

let qcheck_scalar_analytics_match_reference =
  Helpers.qcheck "completions/waste/spans ≡ expand-then-compute" arb_instance
    (fun spec ->
      let inst = instance_of spec in
      let sched = Helpers.solve inst in
      let expanded = Helpers.expand sched in
      Schedule.completion_times sched = Schedule.completion_times expanded
      && Schedule.total_waste sched = Schedule.total_waste expanded
      && Schedule.job_spans sched = Schedule.job_spans expanded
      && Schedule.processor_assignment sched = Schedule.processor_assignment expanded)

let qcheck_validate_verdict_agrees =
  (* Corrupt the RLE schedule in assorted ways; the validator must return
     the same verdict on the RLE form and on its expansion. *)
  Helpers.qcheck ~count:100 "validate verdict ≡ on RLE and expanded forms"
    QCheck.(pair arb_instance (int_range 0 4))
    (fun (spec, mutation) ->
      let inst = instance_of spec in
      let sched, _ = Fast.run_count inst in
      let mutate_alloc (a : Schedule.alloc) =
        match mutation with
        | 0 -> a
        | 1 -> { a with consumed = a.consumed + 1 }
        | 2 -> { a with assigned = max 0 (a.assigned - 1) }
        | 3 -> { a with consumed = max 0 (a.consumed - 1) }
        | _ -> { a with job = a.job + 1 }
      in
      let mutated =
        match sched.Schedule.steps with
        | [] -> sched
        | st :: rest ->
            let st =
              match st.Schedule.allocs with
              | [] -> st
              | a :: others -> { st with Schedule.allocs = mutate_alloc a :: others }
            in
            { sched with Schedule.steps = st :: rest }
      in
      let expanded = Helpers.expand (Schedule.Columns.of_schedule mutated) in
      Result.is_ok (Schedule.validate mutated)
      = Result.is_ok (Schedule.Columns.validate expanded))

let test_huge_volume_analytics () =
  (* pmax = 10^7: makespan is in the millions but the solver emits O(n)
     blocks; every analytic below must run off the blocks without ever
     materializing an O(makespan) array. *)
  let rng = Rng.create 909090 in
  let specs =
    List.init 50 (fun _ -> (Rng.int_in rng 1 10_000_000, Rng.int_in rng 1 720720))
  in
  let inst = Instance.create ~m:8 ~scale:720720 specs in
  let sched = Helpers.solve inst in
  let blocks = sched.blocks in
  Alcotest.(check bool)
    (Printf.sprintf "huge makespan (%d), few blocks (%d)" sched.makespan blocks)
    true
    (sched.makespan > 1_000_000 && blocks < 10_000);
  let t0 = (Sys.time () [@sos.allow "R2: CPU-time budget assertion on the harness side; not solver-visible time"]) in
  Helpers.check_valid sched;
  let u = Schedule.utilization sched in
  Alcotest.(check bool) "profile segments ≤ blocks" true (Array.length u <= blocks);
  Alcotest.(check int) "profile covers makespan" sched.makespan
    (Schedule.profile_length u);
  let c = Schedule.completion_times sched in
  Alcotest.(check int) "max completion = makespan" sched.makespan
    (Array.fold_left max 0 c);
  let j = Schedule.jobs_per_step sched in
  Alcotest.(check bool) "jobs profile segments ≤ blocks" true (Array.length j <= blocks);
  ignore (Schedule.total_waste sched);
  ignore (Schedule.job_spans sched);
  ignore (Schedule.processor_assignment sched);
  let gantt = Schedule.render_gantt ~max_width:80 sched in
  Alcotest.(check bool) "gantt rendered" true (String.length gantt > 80);
  let ucsv = Export.utilization_to_csv sched in
  Alcotest.(check bool) "utilization csv rows ≤ blocks + header" true
    (List.length (String.split_on_char '\n' (String.trim ucsv)) <= blocks + 1);
  let dt = (Sys.time () [@sos.allow "R2: CPU-time budget assertion on the harness side; not solver-visible time"]) -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "analytics proportional to |steps| (%.3fs)" dt)
    true (dt < 5.0)

(* --- preemptive scheduler --- *)

let test_preemptive_valid_and_ge_lb () =
  for seed = 1 to 200 do
    let rng = Rng.create (seed * 53) in
    let inst = Workload.Sos_gen.random_instance rng () in
    let sched = Preemptive.run inst in
    (match Schedule.Columns.validate ~preemption_ok:true sched with
    | Ok () -> ()
    | Error v ->
        Alcotest.failf "seed %d: invalid preemptive schedule at %d: %s\n%s" seed
          v.Schedule.at_step v.Schedule.reason (Instance.to_string inst));
    let lb = Bounds.lower_bound inst in
    if sched.makespan < lb then
      Alcotest.failf "seed %d: preemptive makespan %d < LB %d" seed sched.makespan lb
  done

let test_preemptive_not_worse_than_serial () =
  (* LRPT water-filling should never exceed one-job-at-a-time. *)
  let inst = Instance.create ~m:4 ~scale:100 [ (2, 50); (2, 50); (2, 50); (2, 50) ] in
  let sched = Preemptive.run inst in
  Alcotest.(check int) "perfect packing" 4 sched.makespan

(* --- fixed assignment --- *)

let test_fixed_assignment_valid () =
  for seed = 1 to 200 do
    let rng = Rng.create (seed * 59) in
    let inst = Workload.Sos_gen.random_instance rng () in
    List.iter
      (fun strategy ->
        let sched = Baselines.Fixed_assignment.run ~strategy inst in
        match Schedule.Columns.validate sched with
        | Ok () -> ()
        | Error v ->
            Alcotest.failf "seed %d: invalid fixed-assignment schedule at %d: %s\n%s"
              seed v.Schedule.at_step v.Schedule.reason (Instance.to_string inst))
      [ Baselines.Fixed_assignment.Round_robin; Baselines.Fixed_assignment.By_volume ]
  done

let test_fixed_assignment_queues () =
  let inst = Instance.create ~m:2 ~scale:10 [ (1, 1); (1, 2); (1, 3); (1, 4) ] in
  let queues = Baselines.Fixed_assignment.assign Baselines.Fixed_assignment.Round_robin inst in
  Alcotest.(check (list int)) "proc 0" [ 0; 2 ] queues.(0);
  Alcotest.(check (list int)) "proc 1" [ 1; 3 ] queues.(1)

let test_window_beats_fixed_assignment_usually () =
  (* Joint optimization should win on average. *)
  let wins = ref 0 and total = ref 0 in
  for seed = 1 to 50 do
    let rng = Rng.create (seed * 61) in
    let inst =
      Workload.Sos_gen.generate rng Workload.Sos_gen.bimodal ~n:80 ~m:8 ()
    in
    let w = (Helpers.solve inst).makespan in
    let f = (Baselines.Fixed_assignment.run inst).makespan in
    incr total;
    if w <= f then incr wins
  done;
  Alcotest.(check bool)
    (Printf.sprintf "window wins %d/%d" !wins !total)
    true
    (!wins * 10 >= !total * 8)

let suite =
  ( "schedule",
    [
      Alcotest.test_case "fixture sanity" `Quick test_good_schedule;
      Alcotest.test_case "inject: resource overuse" `Quick test_overuse;
      Alcotest.test_case "inject: too many jobs" `Quick test_too_many_jobs;
      Alcotest.test_case "inject: double allocation" `Quick test_double_allocation;
      Alcotest.test_case "inject: unknown job" `Quick test_unknown_job;
      Alcotest.test_case "inject: consumption above rate" `Quick test_over_consumption_rate;
      Alcotest.test_case "inject: total over-consumption" `Quick test_over_consumption_total;
      Alcotest.test_case "inject: mid-run under-consumption" `Quick
        test_under_consumption_midrun;
      Alcotest.test_case "inject: preemption gap" `Quick test_preemption_gap;
      Alcotest.test_case "inject: unfinished job" `Quick test_unfinished;
      Alcotest.test_case "inject: RLE under-consumption" `Quick test_rle_under_consumption;
      Alcotest.test_case "inject: negative values" `Quick test_negative_values;
      Alcotest.test_case "inject: same job in consecutive blocks" `Quick
        test_same_job_consecutive_blocks;
      Alcotest.test_case "inject: double allocation at the edges" `Quick
        test_double_allocation_edges;
      Alcotest.test_case "inject: job index n" `Quick test_job_index_past_end;
      Alcotest.test_case "inject: makespan field off its blocks" `Quick test_makespan_field;
      Alcotest.test_case "inject: empty block with negative repeat" `Quick
        test_empty_negative_block;
      Alcotest.test_case "inject: negative repeat refunding consumption" `Quick
        test_negative_repeat_refund;
      Alcotest.test_case "csv exports" `Quick test_csv_exports;
      Alcotest.test_case "RLE expand agreement" `Quick test_expand_agreement;
      qcheck_utilization_matches_reference;
      qcheck_scalar_analytics_match_reference;
      qcheck_validate_verdict_agrees;
      Alcotest.test_case "huge-volume analytics stay RLE-native" `Quick
        test_huge_volume_analytics;
      Alcotest.test_case "job spans" `Quick test_job_spans;
      Alcotest.test_case "completion times" `Quick test_completion_times;
      Alcotest.test_case "preemptive: valid & ≥ LB" `Quick test_preemptive_valid_and_ge_lb;
      Alcotest.test_case "preemptive: perfect packing" `Quick
        test_preemptive_not_worse_than_serial;
      Alcotest.test_case "fixed assignment: valid" `Quick test_fixed_assignment_valid;
      Alcotest.test_case "fixed assignment: queues" `Quick test_fixed_assignment_queues;
      Alcotest.test_case "window beats fixed assignment" `Quick
        test_window_beats_fixed_assignment_usually;
    ] )
