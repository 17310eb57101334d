type t = { m : int; scale : int; tasks : Task.t array }

let create ~m ~scale reqss =
  if m < 4 then invalid_arg "Sas_instance.create: need m >= 4";
  if scale < 1 then invalid_arg "Sas_instance.create: need scale >= 1";
  let tasks = List.mapi (fun id reqs -> Task.v ~id reqs) reqss in
  { m; scale; tasks = Array.of_list tasks }

let k t = Array.length t.tasks
let total_jobs t = Array.fold_left (fun acc task -> acc + Task.size task) 0 t.tasks

let partition t =
  let high, low =
    List.partition
      (fun task -> Task.is_high task ~m:t.m ~scale:t.scale)
      (Array.to_list t.tasks)
  in
  (high, low)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
[@@sos.allow "A2: Euclid's algorithm terminates in O(log min(a,b)) divisions; no poll needed"]

let normalize_scale t =
  let want = 2 * (t.m - 1) in
  let factor = want / gcd t.scale want in
  if factor = 1 then t
  else
    {
      t with
      scale = t.scale * factor;
      tasks =
        Array.map
          (fun task ->
            Task.v ~id:task.Task.id
              (Array.to_list (Array.map (fun r -> r * factor) task.Task.reqs)))
          t.tasks;
    }

let flat_sos t =
  let specs =
    Array.to_list t.tasks
    |> List.concat_map (fun task ->
           Array.to_list (Array.map (fun r -> (1, r)) task.Task.reqs))
  in
  Sos.Instance.create ~m:t.m ~scale:t.scale specs
