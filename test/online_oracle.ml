(* The per-step reference for [Sos.Online]: one loop iteration and one
   [repeat = 1] step per simulated time step, idle steps included. This
   is the simulator the library ran before it moved to event-driven
   blocks, kept as it was (less its chaos site and cancellation poll) so
   the suite can check that [Online.run] still produces the same
   makespan, start times and expanded steps. It shares no code with the
   library's simulator; it costs Θ(makespan), so keep its inputs small. *)

open Sos

type sim = {
  mutable t : int;
  mutable steps_rev : Schedule.step list;  (** allocs carry positions *)
  mutable pending : int list;
      (** positions, in admission order: (req, position) ascending at the
          start; each admission moves the released ones ahead of the rest *)
  mutable active : int list;  (** positions *)
  rem : int array;  (** remaining requirement units per position *)
  start : int array;  (** first allocated step per position, -1 *)
}

let simulate ~m ~scale ~releases ~reqs sim =
  let n = Array.length releases in
  let max_release = Array.fold_left max 0 releases in
  let budget_rem =
    List.fold_left
      (fun acc p -> acc + sim.rem.(p))
      0
      (List.rev_append sim.pending sim.active)
  in
  let fuel = ref (max_release + budget_rem + n + 4) in
  while sim.pending <> [] || sim.active <> [] do
    decr fuel;
    if !fuel < 0 then failwith "Online_oracle.run: no progress";
    let rec admit () =
      if List.length sim.active < m - 1 then begin
        let released, rest =
          List.partition (fun p -> releases.(p) <= sim.t) sim.pending
        in
        match released with
        | [] -> ()
        | cand :: more_released ->
            let members = cand :: sim.active in
            let sum = List.fold_left (fun acc p -> acc + reqs.(p)) 0 members in
            let mx = List.fold_left (fun acc p -> max acc reqs.(p)) 0 members in
            if sum - mx < scale then begin
              sim.active <- members;
              sim.pending <- more_released @ rest;
              admit ()
            end
      end
    in
    admit ();
    (if sim.active = [] then
       sim.steps_rev <- { Schedule.allocs = []; repeat = 1 } :: sim.steps_rev
     else begin
       let ordered =
         List.sort (fun a b -> compare (reqs.(a), a) (reqs.(b), b)) sim.active
       in
       let rec split_last acc = function
         | [ last ] -> (List.rev acc, last)
         | x :: rest -> split_last (x :: acc) rest
         | [] -> assert false
       in
       let others, biggest = split_last [] ordered in
       let spent = ref 0 in
       let allocs_others =
         List.map
           (fun p ->
             let assigned = min reqs.(p) sim.rem.(p) in
             spent := !spent + assigned;
             { Schedule.job = p; assigned; consumed = assigned })
           others
       in
       let leftover = scale - !spent in
       let big_assigned = min (min leftover reqs.(biggest)) sim.rem.(biggest) in
       let allocs =
         allocs_others
         @ [ { Schedule.job = biggest; assigned = big_assigned; consumed = big_assigned } ]
       in
       List.iter
         (fun (a : Schedule.alloc) ->
           if sim.start.(a.job) < 0 then sim.start.(a.job) <- sim.t;
           sim.rem.(a.job) <- sim.rem.(a.job) - a.consumed)
         allocs;
       sim.steps_rev <- { Schedule.allocs; repeat = 1 } :: sim.steps_rev;
       sim.active <- List.filter (fun p -> sim.rem.(p) > 0) sim.active
     end);
    sim.t <- sim.t + 1
  done

(* A from-scratch run over [arrivals] (assumed well-formed), mapped onto
   the offline instance's job ids as [Online.materialize] maps a result. *)
let run ~m ~scale (arrivals : Online.arrival list) : Online.offline =
  let inst =
    Instance.create ~m ~scale
      (List.map (fun (a : Online.arrival) -> (a.size, a.req)) arrivals)
  in
  let n = Instance.n inst in
  let field f = Array.of_list (List.map f arrivals) in
  let releases = field (fun a -> a.Online.release) in
  let reqs = field (fun a -> a.Online.req) in
  let sizes = field (fun a -> a.Online.size) in
  let sim =
    {
      t = 0;
      steps_rev = [];
      pending =
        List.sort (fun p q -> compare (reqs.(p), p) (reqs.(q), q)) (List.init n Fun.id);
      active = [];
      rem = Array.init n (fun p -> sizes.(p) * reqs.(p));
      start = Array.make n (-1);
    }
  in
  simulate ~m ~scale ~releases ~reqs sim;
  let id_of_pos = Array.make n 0 in
  Array.iteri (fun id pos -> id_of_pos.(pos) <- id) inst.Instance.original;
  let rec trim = function
    | { Schedule.allocs = []; _ } :: rest -> trim rest
    | steps -> steps
  in
  let steps =
    List.rev_map
      (fun (step : Schedule.step) ->
        {
          step with
          Schedule.allocs =
            List.map
              (fun (a : Schedule.alloc) -> { a with Schedule.job = id_of_pos.(a.job) })
              step.Schedule.allocs;
        })
      (trim sim.steps_rev)
  in
  let start_times = Array.init n (fun id -> sim.start.(inst.Instance.original.(id))) in
  let schedule = Schedule.Columns.of_schedule (Schedule.make inst steps) in
  { Online.instance = inst; schedule; start_times }
