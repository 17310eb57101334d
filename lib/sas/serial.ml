type order = Submission | Shortest_first

let run ?(order = Shortest_first) inst =
  let tasks = Array.to_list inst.Sas_instance.tasks in
  let tasks =
    match order with
    | Submission -> tasks
    | Shortest_first ->
        List.sort
          (fun a b -> compare (Task.total_req a, a.Task.id) (Task.total_req b, b.Task.id))
          tasks
  in
  let completions = Array.make (Sas_instance.k inst) 0 in
  let clock = ref 0 in
  List.iter
    (fun task ->
      let jobs = Array.to_list (Array.map (fun r -> (1, r)) task.Task.reqs) in
      let sub =
        Sos.Instance.create ~m:inst.Sas_instance.m ~scale:inst.Sas_instance.scale jobs
      in
      let sched, _ = Sos.Fast.run_columns sub in
      clock := !clock + sched.makespan;
      completions.(task.Task.id) <- !clock)
    tasks;
  (completions, Array.fold_left ( + ) 0 completions)
