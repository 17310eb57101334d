(* Deterministic counters over the solver's internal structure plus one
   wall-clock histogram; all disabled by default (doc/OBSERVABILITY.md).
   The unit counters reconcile exactly with Schedule analytics on the
   produced schedule: consumed = Σ s_j, assigned − consumed = total_waste,
   iterations + skipped_steps = makespan (tested in suite_obs). *)
let c_runs = Obs.Metrics.counter "sos.fast.runs"
let c_iters = Obs.Metrics.counter "sos.fast.iterations"
let c_blocks = Obs.Metrics.counter "sos.fast.blocks"
let c_skip_hits = Obs.Metrics.counter "sos.fast.skip_hits"
let c_skipped = Obs.Metrics.counter "sos.fast.skipped_steps"
let c_reuses = Obs.Metrics.counter "sos.fast.window_reuses"
let c_makespan = Obs.Metrics.counter "sos.fast.makespan_steps"
let c_assigned = Obs.Metrics.counter "sos.fast.assigned_units"
let c_consumed = Obs.Metrics.counter "sos.fast.consumed_units"
let c_waste = Obs.Metrics.counter "sos.fast.waste_units"

(* Distribution telemetry. The two deterministic histograms record
   per-run algorithmic values — byte-identical at any [-j] — while the
   latency histogram is runtime class; its buckets summarize every run of
   a million-spec stream in O(1) memory. All three cost one atomic flag
   load when disabled. *)
let h_iters =
  Obs.Metrics.hist
    ~bounds:(Obs.Metrics.log_bounds ~lo:1.0 ~hi:1e6 ~per_decade:5)
    "sos.fast.iterations_per_run"

let h_blocks =
  Obs.Metrics.hist
    ~bounds:(Obs.Metrics.log_bounds ~lo:1.0 ~hi:1e6 ~per_decade:5)
    "sos.fast.blocks_per_run"

let h_solve = Obs.Metrics.runtime_hist "sos.fast.solve_s"

(* Resource accounting for the block just appended ([repeat] identical
   steps): fold its allocation columns once, scale by the repeat count. *)
let record_block (c : Schedule.Columns.t) =
  let b = c.blocks - 1 in
  let a = ref 0 and k = ref 0 in
  for i = c.first.(b) to c.first.(b + 1) - 1 do
    a := !a + c.assigned.(i);
    k := !k + c.consumed.(i)
  done;
  let repeat = c.repeat.(b) in
  Obs.Metrics.incr c_blocks;
  Obs.Metrics.add c_assigned (repeat * !a);
  Obs.Metrics.add c_consumed (repeat * !k);
  Obs.Metrics.add c_waste (repeat * (!a - !k))

(* The solve's buffers: the state, the per-step scratch and the column
   store. [run_in] reinitialises all three for its instance, so a solve
   abandoned mid-loop (a chaos crash, a deadline, a cancel) leaves nothing
   the next one reads. *)
type workspace = { st : State.t; scratch : Assign.scratch; cols : Schedule.Columns.t }

let no_jobs = Instance.create ~m:2 ~scale:1 []

let workspace () =
  {
    st = State.create no_jobs;
    scratch = Assign.make_scratch ();
    cols = Schedule.Columns.create no_jobs;
  }

let workspace_words ws =
  State.words ws.st + Assign.scratch_words ws.scratch + Schedule.Columns.words ws.cols

let run_in ?(variant = `Fixed) ws inst =
  Obs.Metrics.time h_solve @@ fun () ->
  Obs.Metrics.incr c_runs;
  Robust.Chaos.point "sos.fast.run";
  let { st; scratch; cols } = ws in
  State.reset st inst;
  Schedule.Columns.reset cols inst;
  let size = inst.Instance.m - 1 in
  let budget = inst.Instance.scale in
  let carried = ref Window.empty in
  (* Window pre-computed for the next iteration (the stability probe below
     lands on exactly the window the next iteration would compute, so it is
     handed over instead of recomputed). *)
  let pre = ref Window.empty in
  let have_pre = ref false in
  let iters = ref 0 in
  while not (State.all_finished st) do
    incr iters;
    Obs.Metrics.incr c_iters;
    (* Cooperative cancellation/deadline poll plus a per-step chaos site:
       both are one atomic load when nothing is armed, so the hot loop
       stays allocation-free and the bench gate's overhead budget holds. *)
    Robust.Context.poll ();
    Robust.Chaos.point "sos.fast.step";
    (* Backstop against an event-logic regression: every simulated step
       either finishes a job, starts the extra job, hits a q-event, or
       opens a provably-stable span that is skipped whole, so iterations
       are O(n); anything near this budget is a bug, not workload. *)
    if !iters > (16 * Instance.n inst) + 64 then
      Robust.Failure.internal_error "Fast.run_in: iteration budget exceeded";
    let w =
      if !have_pre then begin
        have_pre := false;
        Obs.Metrics.incr c_reuses;
        !pre
      end
      else Window.compute ~variant st !carried ~size ~budget
    in
    let outcome = Assign.compute ~scratch st w ~budget ~extra:true in
    (* Predictive skip: Assign certified [repeats] further identical steps;
       Window.stable certifies the window is a fixed point of
       Window.compute, which the repeated steps preserve (a positive
       certificate implies no job finishes before the span's last step, so
       membership, requirements and the started-status of min W are
       untouched in between). The whole span is then paid for in this
       single iteration — one bulk apply, one RLE block. *)
    let k = outcome.Assign.repeats in
    let reps =
      if k > 0 && Window.stable ~variant st w ~size ~budget then 1 + k else 1
    in
    let finished_jobs = Assign.apply_n st outcome ~reps in
    State.advance st reps;
    Assign.append outcome cols ~repeat:reps;
    if Obs.Metrics.enabled () then begin
      record_block cols;
      if reps > 1 then begin
        Obs.Metrics.incr c_skip_hits;
        Obs.Metrics.add c_skipped (reps - 1)
      end
    end;
    (match finished_jobs with
    | [] ->
        if reps > 1 then begin
          (* The span ended without a finisher only because a non-multiple
             receiver's q-event cut it short; the state still has the same
             membership and the window is still at its fixed point, so the
             next iteration's compute would return [w] — hand it over. *)
          carried := w;
          pre := w;
          have_pre := true
        end
        else carried := outcome.Assign.window
    | fs ->
        (* O(|finished|) window repair, then unlink (repair needs the links
           still intact). *)
        let survivors = Window.repair st outcome.Assign.window ~finished:fs in
        List.iter (State.unlink st) fs;
        carried := survivors)
  done;
  Obs.Metrics.add c_makespan (State.now st);
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.hist_observe_int h_iters !iters;
    Obs.Metrics.hist_observe_int h_blocks cols.Schedule.Columns.blocks
  end;
  (cols, !iters)

let run_columns ?variant inst = run_in ?variant (workspace ()) inst

let run_count ?variant inst =
  let cols, iters = run_columns ?variant inst in
  (Schedule.Columns.to_schedule cols, iters)

