type requires = Any | Window | Unit_sizes

type t = {
  name : string;
  requires : requires;
  preemptive : bool;
  run : Sos.Instance.t -> Sos.Schedule.t;
}

let solver ?(preemptive = false) name requires run = { name; requires; preemptive; run }

let all =
  [
    solver "window" Window (fun i -> Sos.Fast.run i);
    solver "listing1" Window (fun i -> Sos.Listing1.run ~check:true i);
    solver "unit" Unit_sizes Sos.Splittable.run ~preemptive:true;
    solver "unit-np" Unit_sizes Sos.Splittable.run_nonpreemptive;
    solver "list-sched" Any (fun i -> List_scheduling.run i);
    solver "greedy" Any Greedy_fair.run;
    solver "naive-fracture" Window Sos.Ablation.run_naive_fracture;
    solver "no-move" Window Sos.Ablation.run_no_move;
    solver "literal" Window (fun i -> Sos.Fast.run ~variant:`Literal i);
    solver "preemptive" Any (fun i -> Sos.Preemptive.run i) ~preemptive:true;
    solver "fixed-assignment" Any (fun i -> Fixed_assignment.run i);
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) all

let check s (inst : Sos.Instance.t) =
  match s.requires with
  | Window when inst.m < 3 -> Error (Robust.Failure.Too_few_processors { m = inst.m; need = 3 })
  | Unit_sizes when not (Sos.Instance.unit_size inst) ->
      Error
        (Robust.Failure.Malformed
           (Printf.sprintf "-a %s needs unit job sizes (every p_j = 1)" s.name))
  | Any | Window | Unit_sizes -> Ok inst
