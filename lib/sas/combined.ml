(* Entry-point telemetry for the Theorem 4.8 combined scheduler
   (doc/OBSERVABILITY.md). *)
let c_runs = Obs.Metrics.counter "sas.combined.runs"
let c_t1 = Obs.Metrics.counter "sas.combined.t1_tasks"
let c_t2 = Obs.Metrics.counter "sas.combined.t2_tasks"
let h_run = Obs.Metrics.runtime_hist "sas.combined.run_s"

type report = {
  instance : Sas_instance.t;
  completions : int array;
  sum_completions : int;
  makespan : int;
  lower_bound : int;
  t1_count : int;
  t2_count : int;
  schedule : Sos.Schedule.Columns.t;
}

let sort_for_listing3 tasks =
  List.sort
    (fun a b -> compare (Task.total_req a, a.Task.id) (Task.total_req b, b.Task.id))
    tasks

let sort_for_listing4 tasks =
  List.sort (fun a b -> compare (Task.size a, a.Task.id) (Task.size b, b.Task.id)) tasks

let run_listing3 ~m ~budget tasks = Stream.run ~m ~budget (sort_for_listing3 tasks)
let run_listing4 ~m ~budget tasks = Stream.run ~m ~budget (sort_for_listing4 tasks)

let run raw =
  Obs.Metrics.time h_run @@ fun () ->
  Obs.Metrics.incr c_runs;
  Robust.Context.poll ();
  Robust.Chaos.point "sas.combined.run";
  let inst = Sas_instance.normalize_scale raw in
  let m = inst.Sas_instance.m and scale = inst.Sas_instance.scale in
  let t1, t2 = Sas_instance.partition inst in
  Obs.Metrics.add c_t1 (List.length t1);
  Obs.Metrics.add c_t2 (List.length t2);
  let m1 = m / 2 in
  let m2 = m - m1 in
  let budget1 = (m1 - 1) * scale / (m - 1) in
  let budget2 = scale / 2 in
  let t1_sorted = sort_for_listing3 t1 in
  let t2_sorted = sort_for_listing4 t2 in
  let r1 = Stream.run ~m:m1 ~budget:budget1 t1_sorted in
  let r2 = Stream.run ~m:m2 ~budget:budget2 t2_sorted in
  let k = Sas_instance.k inst in
  let completions = Array.make k 0 in
  List.iteri
    (fun pos task -> completions.(task.Task.id) <- r1.Stream.completions.(pos))
    t1_sorted;
  List.iteri
    (fun pos task -> completions.(task.Task.id) <- r2.Stream.completions.(pos))
    t2_sorted;
  (* Merge the two parallel step sequences into one global schedule over the
     flattened unit-job instance. *)
  let flat = Sas_instance.flat_sos inst in
  let offsets = Array.make k 0 in
  let (_ : int) =
    Array.fold_left
      (fun acc task ->
        offsets.(task.Task.id) <- acc;
        acc + Task.size task)
      0 inst.Sas_instance.tasks
  in
  let sorted_pos = Array.make (Sos.Instance.n flat) 0 in
  Array.iteri (fun s orig -> sorted_pos.(orig) <- s) flat.Sos.Instance.original;
  let ids_of order = Array.of_list (List.map (fun task -> task.Task.id) order) in
  let t1_ids = ids_of t1_sorted and t2_ids = ids_of t2_sorted in
  let global_alloc ids (a : Stream.alloc) =
    let caller_pos = offsets.(ids.(a.Stream.task)) + a.Stream.item in
    { Sos.Schedule.job = sorted_pos.(caller_pos); assigned = a.Stream.amount;
      consumed = a.Stream.amount }
  in
  let schedule = Sos.Schedule.Columns.create flat in
  let rec merge s1 s2 =
    Robust.Context.poll ();
    match (s1, s2) with
    | [], [] -> ()
    | a1 :: r1', s2 ->
        let a2, r2' = (match s2 with a :: r -> (a, r) | [] -> ([], [])) in
        Sos.Schedule.Columns.add_block schedule ~repeat:1
          (List.map (global_alloc t1_ids) a1 @ List.map (global_alloc t2_ids) a2);
        merge r1' r2'
    | [], a2 :: r2' ->
        Sos.Schedule.Columns.add_block schedule ~repeat:1 (List.map (global_alloc t2_ids) a2);
        merge [] r2'
  in
  merge r1.Stream.steps r2.Stream.steps;
  {
    instance = inst;
    completions;
    sum_completions = Array.fold_left ( + ) 0 completions;
    makespan = max r1.Stream.makespan r2.Stream.makespan;
    lower_bound =
      Bounds.lower_bound ~m ~scale (Array.to_list inst.Sas_instance.tasks);
    t1_count = List.length t1;
    t2_count = List.length t2;
    schedule;
  }

let ratio report =
  if report.lower_bound = 0 then
    if report.sum_completions = 0 then 1.0 else infinity
  else float_of_int report.sum_completions /. float_of_int report.lower_bound
