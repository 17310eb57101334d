(* Tests for the SAS (Section 4) machinery: task classification, the
   Listing 3/4 stream schedulers and their per-task guarantees (Lemmas 4.1
   and 4.2), the Lemma 4.3 lower bounds, and the combined Theorem 4.8
   algorithm. *)

module Rng = Prelude.Rng
open Sas

let test_task_basics () =
  let t = Task.v ~id:0 [ 3; 1; 2 ] in
  Alcotest.(check int) "size" 3 (Task.size t);
  Alcotest.(check int) "total req" 6 (Task.total_req t);
  Alcotest.check_raises "empty task" (Invalid_argument "Task.v: empty task") (fun () ->
      ignore (Task.v ~id:0 []))

let test_classification () =
  (* m = 5, scale = 100: T1 iff |T|·100 < 4·r(T) ⇔ avg req > 25. *)
  let high = Task.v ~id:0 [ 30; 30 ] in
  let low = Task.v ~id:1 [ 20; 20 ] in
  let boundary = Task.v ~id:2 [ 25 ] in
  Alcotest.(check bool) "high" true (Task.is_high high ~m:5 ~scale:100);
  Alcotest.(check bool) "low" false (Task.is_high low ~m:5 ~scale:100);
  Alcotest.(check bool) "boundary goes to T2" false (Task.is_high boundary ~m:5 ~scale:100)

let test_partition () =
  let inst =
    Sas_instance.create ~m:5 ~scale:100 [ [ 30; 30 ]; [ 20; 20 ]; [ 100 ]; [ 1; 1; 1 ] ]
  in
  let t1, t2 = Sas_instance.partition inst in
  Alcotest.(check (list int)) "t1 ids" [ 0; 2 ] (List.map (fun t -> t.Task.id) t1);
  Alcotest.(check (list int)) "t2 ids" [ 1; 3 ] (List.map (fun t -> t.Task.id) t2)

let test_normalize_scale () =
  let inst = Sas_instance.create ~m:6 ~scale:7 [ [ 3 ]; [ 5; 2 ] ] in
  let n = Sas_instance.normalize_scale inst in
  Alcotest.(check int) "divisible by 2(m-1)" 0 (n.Sas_instance.scale mod 10);
  (* ratios preserved *)
  let factor = n.Sas_instance.scale / 7 in
  Alcotest.(check int) "req scaled" (3 * factor)
    n.Sas_instance.tasks.(0).Task.reqs.(0)

let test_stream_single_task () =
  (* One task, 4 jobs of 25/100, m = 4, budget = 100: windows of size
     min(4, ⌊100·3/100⌋+1) = 4 → all 4 jobs in step 1. *)
  let r = Stream.run ~m:4 ~budget:100 [ Task.v ~id:0 [ 25; 25; 25; 25 ] ] in
  Alcotest.(check int) "completed at 1" 1 r.Stream.completions.(0);
  Alcotest.(check int) "makespan" 1 r.Stream.makespan

let test_stream_whole_task_fast_path () =
  (* Two tiny tasks fit together in one step. *)
  let tasks = [ Task.v ~id:0 [ 10; 10 ]; Task.v ~id:1 [ 10 ]; Task.v ~id:2 [ 90; 90 ] ] in
  let r = Stream.run ~m:4 ~budget:100 tasks in
  Alcotest.(check int) "task0 step1" 1 r.Stream.completions.(0);
  Alcotest.(check int) "task1 step1" 1 r.Stream.completions.(1);
  Alcotest.(check bool) "task2 later" true (r.Stream.completions.(2) > 1)

let test_stream_conservation () =
  for seed = 1 to 150 do
    let rng = Rng.create (seed * 17) in
    let m = Rng.int_in rng 2 8 in
    let budget = Rng.int_in rng 10 300 in
    let k = Rng.int_in rng 1 8 in
    let tasks =
      List.init k (fun id ->
          Task.v ~id
            (List.init (Rng.int_in rng 1 10) (fun _ -> Rng.int_in rng 1 (budget * 2))))
    in
    let r = Stream.run ~m ~budget tasks in
    (* The library's own audit must agree... *)
    (match Stream.check ~m ~budget tasks r with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "seed %d: Stream.check: %s" seed msg);
    (* ...and so must this test's independent re-derivation below. *)
    List.iter
      (fun step ->
        let used = List.fold_left (fun acc a -> acc + a.Stream.amount) 0 step in
        if used > budget then Alcotest.failf "seed %d: budget overused (%d>%d)" seed used budget;
        if List.length step > m then
          Alcotest.failf "seed %d: too many jobs in a step" seed)
      r.Stream.steps;
    (* Full work conservation per (task, item). *)
    let expect = Hashtbl.create 16 in
    List.iteri
      (fun pos task ->
        Array.iteri (fun i req -> Hashtbl.replace expect (pos, i) req) task.Task.reqs)
      tasks;
    List.iter
      (List.iter (fun a ->
           let key = (a.Stream.task, a.Stream.item) in
           let left = Hashtbl.find expect key - a.Stream.amount in
           Hashtbl.replace expect key left))
      r.Stream.steps;
    (Hashtbl.iter
       (fun (t, i) left ->
         if left <> 0 then Alcotest.failf "seed %d: task %d item %d left %d" seed t i left)
       expect
    [@sos.allow "R5: order-free universal assertion over all entries; nothing is emitted or digested"]);
    (* Completion times match the last allocation step of each task. *)
    List.iteri
      (fun pos _ ->
        let last = ref 0 in
        List.iteri
          (fun step_idx step ->
            if List.exists (fun a -> a.Stream.task = pos) step then last := step_idx + 1)
          r.Stream.steps;
        if !last <> r.Stream.completions.(pos) then
          Alcotest.failf "seed %d: completion mismatch task %d (%d vs %d)" seed pos !last
            r.Stream.completions.(pos))
      tasks
  done

let test_lemma_4_1 () =
  (* Listing 3 on pure-T1 task sets: f_i ≤ ⌈Σ_{l≤i} r(T_l) / R⌉. *)
  for seed = 1 to 80 do
    let rng = Rng.create (seed * 211) in
    let m = 4 + 2 * (seed mod 5) in
    let scale = Workload.Sos_gen.default_scale in
    let m1 = m / 2 in
    let budget = (m1 - 1) * scale / (m - 1) in
    let tasks = Workload.Sas_gen.pure_t1 rng ~k:(Rng.int_in rng 1 8) ~m ~scale () in
    let sorted = Combined.sort_for_listing3 tasks in
    let r = Combined.run_listing3 ~m:m1 ~budget sorted in
    let bounds = Bounds.listing3_completion_bounds ~budget sorted in
    Array.iteri
      (fun pos f ->
        if f > bounds.(pos) then
          Alcotest.failf "seed %d m=%d: Lemma 4.1 violated at task %d: f=%d bound=%d"
            seed m pos f bounds.(pos))
      r.Stream.completions
  done

let test_lemma_4_2 () =
  (* Listing 4 on pure-T2 task sets: f_i ≤ ⌈Σ_{l≤i} |T_l| / (m'−1)⌉. *)
  for seed = 1 to 80 do
    let rng = Rng.create (seed * 223) in
    let m = 4 + 2 * (seed mod 5) in
    let scale = Workload.Sos_gen.default_scale in
    let m2 = m - (m / 2) in
    let budget = scale / 2 in
    let tasks = Workload.Sas_gen.pure_t2 rng ~k:(Rng.int_in rng 1 8) ~m ~scale () in
    let sorted = Combined.sort_for_listing4 tasks in
    let r = Combined.run_listing4 ~m:m2 ~budget sorted in
    let bounds = Bounds.listing4_completion_bounds ~m:m2 sorted in
    Array.iteri
      (fun pos f ->
        if f > bounds.(pos) then
          Alcotest.failf "seed %d m=%d: Lemma 4.2 violated at task %d: f=%d bound=%d"
            seed m pos f bounds.(pos))
      r.Stream.completions
  done

let test_lemma_4_3_bounds () =
  (* (a): two tasks with r(T) = 1.5 and 0.5 (scale 10: 15 and 5):
     sorted prefix sums 5, 20 → ⌈0.5⌉+⌈2.0⌉ = 1+2 = 3. *)
  let tasks = [ Task.v ~id:0 [ 15 ]; Task.v ~id:1 [ 5 ] ] in
  Alcotest.(check int) "resource bound" 3 (Bounds.resource_order_bound ~scale:10 tasks);
  (* (b): sizes 1 and 3 on m=2: prefixes 1, 4 → ⌈1/2⌉+⌈4/2⌉ = 1+2 = 3. *)
  let tasks2 = [ Task.v ~id:0 [ 1; 1; 1 ]; Task.v ~id:1 [ 1 ] ] in
  Alcotest.(check int) "count bound" 3 (Bounds.count_order_bound ~m:2 tasks2);
  Alcotest.(check int) "trivial k bound" 2
    (Bounds.lower_bound ~m:100 ~scale:1_000_000 tasks2)

let test_combined_valid_and_bounded () =
  for seed = 1 to 60 do
    let rng = Rng.create (seed * 4409) in
    let inst = Workload.Sas_gen.random_instance rng () in
    let report = Combined.run inst in
    (* The merged schedule is resource/processor-feasible. *)
    (match Sos.Schedule.Columns.validate ~preemption_ok:true report.Combined.schedule with
    | Ok () -> ()
    | Error v ->
        Alcotest.failf "seed %d: invalid merged schedule at %d: %s" seed v.Sos.Schedule.at_step
          v.Sos.Schedule.reason);
    (* Every completion time is sane and the sum is within the asymptotic
       guarantee with a generous additive term (o(1)·OPT + q-terms). *)
    Array.iter
      (fun f -> if f < 1 then Alcotest.failf "seed %d: zero completion time" seed)
      report.Combined.completions;
    let k = Sas_instance.k inst in
    let bound = Bounds.guarantee ~m:inst.Sas_instance.m in
    let limit =
      (bound *. float_of_int report.Combined.lower_bound) +. float_of_int (2 * k) +. 4.0
    in
    if float_of_int report.Combined.sum_completions > limit then
      Alcotest.failf "seed %d: sum completions %d above %f (lb=%d m=%d k=%d)" seed
        report.Combined.sum_completions limit report.Combined.lower_bound
        inst.Sas_instance.m k
  done

let test_combined_partition_counts () =
  let inst =
    Sas_instance.create ~m:6 ~scale:100 [ [ 90; 90 ]; [ 1; 1; 1; 1 ]; [ 50 ] ]
  in
  let report = Combined.run inst in
  Alcotest.(check int) "t1 count" 2 report.Combined.t1_count;
  Alcotest.(check int) "t2 count" 1 report.Combined.t2_count;
  Alcotest.(check int) "all tasks completed"
    (Sas_instance.k inst)
    (Array.length (Array.of_list (Array.to_list report.Combined.completions)))

let test_stream_minimum_parameters () =
  (* m = 2, budget = 1: everything serializes one unit at a time. *)
  let tasks = [ Task.v ~id:0 [ 3; 2 ]; Task.v ~id:1 [ 1 ] ] in
  let r = Stream.run ~m:2 ~budget:1 tasks in
  (match Stream.check ~m:2 ~budget:1 tasks r with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "check: %s" msg);
  Alcotest.(check int) "makespan = total work" 6 r.Stream.makespan;
  Alcotest.(check int) "task 0 completes at 5" 5 r.Stream.completions.(0);
  Alcotest.(check int) "task 1 completes last" 6 r.Stream.completions.(1)

let test_stream_oversize_job () =
  (* A single job larger than the budget crosses several steps. *)
  let tasks = [ Task.v ~id:0 [ 25 ] ] in
  let r = Stream.run ~m:4 ~budget:10 tasks in
  Alcotest.(check int) "⌈25/10⌉ steps" 3 r.Stream.completions.(0)

let test_combined_smallest_m () =
  (* m = 4 (the minimum) and m = 5 (odd split): both halves get ≥ 2
     processors and positive budgets. *)
  List.iter
    (fun m ->
      let inst =
        Sas_instance.create ~m ~scale:(2 * (m - 1))
          [ [ 1; 1; 1 ]; [ 2 * (m - 1) ]; [ 3; 3 ] ]
      in
      let report = Combined.run inst in
      Array.iter
        (fun f -> Alcotest.(check bool) "positive completion" true (f >= 1))
        report.Combined.completions;
      match Sos.Schedule.Columns.validate ~preemption_ok:true report.Combined.schedule with
      | Ok () -> ()
      | Error v -> Alcotest.failf "m=%d: %s" m v.Sos.Schedule.reason)
    [ 4; 5 ]

let test_serial_baseline () =
  for seed = 1 to 40 do
    let rng = Rng.create (seed * 83) in
    let inst = Workload.Sas_gen.random_instance rng () in
    let completions, sum = Serial.run inst in
    (* Completions are positive, monotone in the clock, and the sum is never
       below the Lemma 4.3 lower bound. *)
    Array.iter (fun f -> if f < 1 then Alcotest.failf "seed %d: completion < 1" seed) completions;
    Alcotest.(check int) "sum matches" sum (Array.fold_left ( + ) 0 completions);
    let lb =
      Bounds.lower_bound ~m:inst.Sas_instance.m ~scale:inst.Sas_instance.scale
        (Array.to_list inst.Sas_instance.tasks)
    in
    if sum < lb then Alcotest.failf "seed %d: serial sum %d below LB %d" seed sum lb;
    (* Submission order is also sane. *)
    let _, sum_sub = Serial.run ~order:Serial.Submission inst in
    if sum_sub < lb then Alcotest.failf "seed %d: submission-order sum below LB" seed
  done

let test_flat_sos () =
  let inst = Sas_instance.create ~m:4 ~scale:10 [ [ 3; 7 ]; [ 5 ] ] in
  let flat = Sas_instance.flat_sos inst in
  Alcotest.(check int) "job count" 3 (Sos.Instance.n flat);
  Alcotest.(check bool) "unit sizes" true (Sos.Instance.unit_size flat)

let suite =
  ( "sas",
    [
      Alcotest.test_case "task basics" `Quick test_task_basics;
      Alcotest.test_case "T1/T2 classification" `Quick test_classification;
      Alcotest.test_case "partition" `Quick test_partition;
      Alcotest.test_case "normalize scale" `Quick test_normalize_scale;
      Alcotest.test_case "stream: single task" `Quick test_stream_single_task;
      Alcotest.test_case "stream: whole-task fast path" `Quick
        test_stream_whole_task_fast_path;
      Alcotest.test_case "stream: conservation (random)" `Quick test_stream_conservation;
      Alcotest.test_case "Lemma 4.1 per-task bound" `Quick test_lemma_4_1;
      Alcotest.test_case "Lemma 4.2 per-task bound" `Quick test_lemma_4_2;
      Alcotest.test_case "Lemma 4.3 lower bounds" `Quick test_lemma_4_3_bounds;
      Alcotest.test_case "combined: valid & bounded (random)" `Quick
        test_combined_valid_and_bounded;
      Alcotest.test_case "combined: partition counts" `Quick test_combined_partition_counts;
      Alcotest.test_case "stream: minimum parameters" `Quick test_stream_minimum_parameters;
      Alcotest.test_case "stream: oversize job" `Quick test_stream_oversize_job;
      Alcotest.test_case "combined: smallest m" `Quick test_combined_smallest_m;
      Alcotest.test_case "serial baseline" `Quick test_serial_baseline;
      Alcotest.test_case "flat SoS view" `Quick test_flat_sos;
    ] )
