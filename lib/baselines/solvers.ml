type requires = Any | Window | Unit_sizes

type t = {
  name : string;
  requires : requires;
  preemptive : bool;
  run : Sos.Instance.t -> Sos.Schedule.Columns.t;
  run_in : Sos.Fast.workspace -> Sos.Instance.t -> Sos.Schedule.Columns.t;
}

(* A window solver: [Fast] on a fresh workspace, or on the caller's. *)
let windowed name variant =
  {
    name;
    requires = Window;
    preemptive = false;
    run = (fun i -> fst (Sos.Fast.run_columns ~variant i));
    run_in = (fun ws i -> fst (Sos.Fast.run_in ~variant ws i));
  }

(* A reference algorithm that builds the list form; it has no use for a
   workspace. *)
let listed ?(preemptive = false) name requires run =
  let run i = Sos.Schedule.Columns.of_schedule (run i) in
  { name; requires; preemptive; run; run_in = (fun _ i -> run i) }

let all =
  [
    windowed "window" `Fixed;
    listed "listing1" Window (fun i -> Sos.Listing1.run ~check:true i);
    listed "unit" Unit_sizes Sos.Splittable.run ~preemptive:true;
    listed "unit-np" Unit_sizes Sos.Splittable.run_nonpreemptive;
    listed "list-sched" Any (fun i -> List_scheduling.run i);
    listed "greedy" Any Greedy_fair.run;
    listed "naive-fracture" Window Sos.Ablation.run_naive_fracture;
    listed "no-move" Window Sos.Ablation.run_no_move;
    windowed "literal" `Literal;
    listed "preemptive" Any (fun i -> Sos.Preemptive.run i) ~preemptive:true;
    listed "fixed-assignment" Any (fun i -> Fixed_assignment.run i);
  ]

let schedule s inst = Sos.Schedule.Columns.to_schedule (s.run inst)

let find name = List.find_opt (fun s -> String.equal s.name name) all

let check s (inst : Sos.Instance.t) =
  match s.requires with
  | Window when inst.m < 3 -> Error (Robust.Failure.Too_few_processors { m = inst.m; need = 3 })
  | Unit_sizes when not (Sos.Instance.unit_size inst) ->
      Error
        (Robust.Failure.Malformed
           (Printf.sprintf "-a %s needs unit job sizes (every p_j = 1)" s.name))
  | Any | Window | Unit_sizes -> Ok inst
