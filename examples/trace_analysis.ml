(* Trace analysis: drive the reference algorithm with tracing on, inspect
   the window trajectory (the objects the paper's proofs talk about), and
   export everything as CSV for external tooling.

   Run with: dune exec examples/trace_analysis.exe [--csv] *)

let () =
  let want_csv = Array.exists (fun a -> a = "--csv") Sys.argv in
  let rng = Prelude.Rng.create 20170724 (* SPAA'17, day one *) in
  let inst =
    Workload.Sos_gen.generate rng Workload.Sos_gen.bimodal ~n:36 ~m:5 ()
  in
  let sched, trace = Sos.Listing1.run_traced ~check:true inst in

  if want_csv then begin
    (* Machine-readable: paste into your plotting tool of choice. *)
    print_string (Sos.Export.trace_to_csv trace inst);
    exit 0
  end;

  Printf.printf "bimodal instance: n=%d, m=%d, makespan %d (LB %d)\n\n"
    (Sos.Instance.n inst) inst.Sos.Instance.m sched.makespan
    (Sos.Bounds.lower_bound inst);

  (* The analysis of Theorem 3.3 revolves around two phase boundaries:
     T_L (window first smaller than m−1) and T_R (window requirement first
     below the budget). Recover both from the trace. *)
  let m = inst.Sos.Instance.m and scale = inst.Sos.Instance.scale in
  let t_l =
    List.find_opt (fun i -> List.length i.Sos.Listing1.window < m - 1) trace
  and t_r = List.find_opt (fun i -> i.Sos.Listing1.window_rsum < scale) trace in
  let time = function Some i -> string_of_int i.Sos.Listing1.time | None -> "-" in
  Printf.printf "T_L (first |W| < m-1)   : step %s\n" (time t_l);
  Printf.printf "T_R (first r(W) < 1)    : step %s\n" (time t_r);
  let full_steps =
    List.length (List.filter (fun i -> i.Sos.Listing1.window_rsum >= scale) trace)
  in
  Printf.printf "full-resource steps     : %d of %d\n" full_steps (List.length trace);
  let case1 =
    List.length (List.filter (fun i -> i.Sos.Listing1.case = Sos.Assign.Case_full) trace)
  in
  Printf.printf "case-1 / case-2 steps   : %d / %d\n" case1 (List.length trace - case1);
  let extras =
    List.length (List.filter (fun i -> i.Sos.Listing1.extra <> None) trace)
  in
  Printf.printf "m-th processor used     : %d times\n\n" extras;

  let sizes =
    Array.of_list
      (List.map (fun i -> float_of_int (List.length i.Sos.Listing1.window)) trace)
  in
  print_string
    (Prelude.Ascii_plot.series ~height:6 ~title:"window size over time"
       ~x_label:"step" ~y_label:"|W|" sizes);
  let rsums =
    Array.of_list
      (List.map
         (fun i -> float_of_int i.Sos.Listing1.window_rsum /. float_of_int scale)
         trace)
  in
  print_string
    (Prelude.Ascii_plot.series ~height:6 ~title:"window requirement r(W) over time"
       ~x_label:"step" ~y_label:"r(W)" rsums);
  print_newline ();
  print_endline "Gantt (first 100 steps):";
  print_string (Sos.Schedule.render_gantt ~max_width:100 sched);
  print_newline ();
  print_endline "re-run with --csv for the machine-readable trace."
