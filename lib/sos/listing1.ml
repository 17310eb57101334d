type step_info = {
  time : int;
  window : int list;
  window_rsum : int;
  case : Assign.case;
  extra : int option;
  at_left_border : bool;
  at_right_border : bool;
  finished : int list;
}

let run_traced ?(check = false) ?(variant = `Fixed) inst =
  let st = State.create inst in
  let size = inst.Instance.m - 1 in
  let budget = inst.Instance.scale in
  let cols = Schedule.Columns.create inst in
  let trace = ref [] in
  let carried = ref Window.empty in
  let fuel = ref (Instance.total_requirement inst + 1) in
  while not (State.all_finished st) do
    decr fuel;
    if !fuel < 0 then Robust.Failure.internal_error "Listing1.run: no progress";
    let w = Window.compute ~variant st !carried ~size ~budget in
    if check then assert (Window.is_effectively_maximal st w ~k:size ~budget);
    let members = Window.members st w in
    let info_left = Window.left_neighbor st w = None in
    let info_right = Window.right_neighbor st w = None in
    let outcome = Assign.compute st w ~budget ~extra:true in
    let finished = Assign.apply st outcome in
    if check then begin
      (* Observation 3.2: at most one fractured job after the step. *)
      let fractured =
        List.filter (State.fractured st) (Window.members st outcome.Assign.window)
      in
      assert (List.length fractured <= 1)
    end;
    Assign.append outcome cols ~repeat:1;
    trace :=
      {
        time = State.now st + 1;
        window = members;
        window_rsum = Window.rsum w;
        case = outcome.Assign.case;
        extra = outcome.Assign.extra;
        at_left_border = info_left;
        at_right_border = info_right;
        finished;
      }
      :: !trace;
    let survivors = Window.prune st outcome.Assign.window in
    List.iter (State.unlink st) finished;
    carried := survivors;
    State.tick st
  done;
  (cols, List.rev !trace)

let run ?check ?variant inst = fst (run_traced ?check ?variant inst)
