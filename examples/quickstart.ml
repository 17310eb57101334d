(* Quickstart: the 60-second tour of the public API.
   Run with: dune exec examples/quickstart.exe *)

let () =
  (* An instance: 4 processors sharing one resource. Resource amounts are
     exact fixed-point — with scale = 100, a requirement of 25 means "25%
     of the resource finishes one unit of work per step". Each job is
     (size, requirement). *)
  let inst =
    Sos.Instance.create ~m:4 ~scale:100
      [
        (3, 25);  (* three units of work at a quarter of the resource     *)
        (3, 25);
        (2, 60);  (* data-hungry job: 60% of the resource per work unit   *)
        (5, 10);  (* long but frugal                                      *)
        (1, 100); (* needs the whole resource for its single unit         *)
      ]
  in

  (* The paper's sliding-window algorithm (Theorem 3.3), polynomial-time
     implementation: the schedule as run-length-encoded blocks in flat int
     columns, and the number of loop iterations it took. *)
  let schedule, _iterations = Sos.Fast.run_columns inst in

  Printf.printf "makespan      : %d steps\n" schedule.makespan;
  Printf.printf "lower bound   : %d steps (Equation (1))\n" (Sos.Bounds.lower_bound inst);
  Printf.printf "proven ratio  : <= %.3f (= 2 + 1/(m-2))\n"
    (Sos.Bounds.guarantee_general ~m:4);

  (* Every schedule can be validated independently: resource never overused,
     at most m jobs per step, non-preemptive, work conserved. *)
  (match Sos.Schedule.Columns.validate schedule with
  | Ok () -> print_endline "validation    : ok"
  | Error v -> Printf.printf "validation    : FAILED at %d: %s\n" v.Sos.Schedule.at_step v.Sos.Schedule.reason);

  (* Inspect it. *)
  print_newline ();
  print_endline "Gantt chart (rows = processors, letters = jobs):";
  print_string (Sos.Schedule.render_gantt schedule);
  print_newline ();
  print_endline "resource utilization per step:";
  print_endline
    ("  "
    ^ Prelude.Ascii_plot.sparkline
        (Sos.Schedule.to_dense ~default:0.0 (Sos.Schedule.utilization schedule)))
