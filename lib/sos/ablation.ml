let generic_run inst ~window_of ~assign =
  let st = State.create inst in
  let cols = Schedule.Columns.create inst in
  let carried = ref Window.empty in
  let fuel = ref (Instance.total_requirement inst + 1) in
  while not (State.all_finished st) do
    decr fuel;
    if !fuel < 0 then Robust.Failure.internal_error "Ablation: no progress";
    let w = window_of st !carried in
    let allocs, w' = assign st w in
    let finished =
      List.filter_map
        (fun (a : Schedule.alloc) ->
          State.consume st a.job a.consumed;
          if State.finished st a.job then Some a.job else None)
        allocs
    in
    Schedule.Columns.add_block cols ~repeat:1 allocs;
    let survivors = Window.prune st w' in
    List.iter (State.unlink st) finished;
    carried := survivors;
    State.tick st
  done;
  cols

let naive_assign st w ~budget =
  let ms = Window.members st w in
  let mx = match Window.last w with Some j -> j | None -> assert false in
  let req j = (State.instance st).Instance.req.(j) in
  let spent = ref 0 in
  let allocs =
    List.map
      (fun j ->
        let assigned =
          if j = mx then min (budget - !spent) (req j) else req j
        in
        let assigned = max 0 assigned in
        spent := !spent + assigned;
        let consumed = min (min assigned (req j)) (State.s st j) in
        { Schedule.job = j; assigned; consumed })
      ms
  in
  (allocs, w)

let run_naive_fracture inst =
  let size = inst.Instance.m - 1 and budget = inst.Instance.scale in
  generic_run inst
    ~window_of:(fun st w -> Window.compute st w ~size ~budget)
    ~assign:(fun st w -> naive_assign st w ~budget)

let run_no_move inst =
  let size = inst.Instance.m - 1 and budget = inst.Instance.scale in
  let window_of st w =
    let w = Window.grow_left_fixed st w ~size ~budget in
    Window.grow_right st w ~size ~budget
  in
  (* extra:false — the soundness of starting an extra job on the m-th
     processor (single-fracture invariant) rests on MoveWindowRight, which
     this ablation removes. *)
  generic_run inst ~window_of ~assign:(fun st w ->
      let outcome = Assign.compute st w ~budget ~extra:false in
      (Assign.allocs outcome, outcome.Assign.window))
