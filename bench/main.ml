(* The benchmark harness: regenerates every experiment table/figure of
   EXPERIMENTS.md. Run everything: `dune exec bench/main.exe`; a subset:
   `dune exec bench/main.exe -- t1 t4 f1`. `-j N` sets the domain count for
   the parallel sweeps (default: all recommended domains); the tables are
   byte-identical at any -j — parallelism only moves wall clock. *)

let all : (string * string * (unit -> unit)) list =
  [
    ("t1", "Theorem 3.3 ratio, general sizes", Exp_sos.t1);
    ("t2", "Theorem 3.3 ratio, unit sizes + m-maximal variant", Exp_sos.t2);
    ( "t3", "Corollary 3.9 bin packing (exact + at scale)",
      fun () ->
        Exp_binpack.t3_small ();
        Exp_binpack.t3_large () );
    ("t4", "Theorem 4.8 SAS ratio", Exp_sas.t4);
    ("t5", "Lemmas 4.1/4.2 per-task bounds", Exp_sas.t5);
    ("t6", "crossover vs baselines", Exp_sos.t6);
    ( "t7", "running time (Bechamel + scaling)",
      fun () ->
        Exp_perf.t7_bechamel ();
        Exp_perf.t7_scaling () );
    ("gate", "perf gate: solver + RLE analytics → BENCH_fast.json", Exp_gate.gate);
    ("f1", "utilization profile figure", Exp_sos.f1);
    ("f2", "window trajectory figure", Exp_sos.f2);
    ("f3", "guarantee curve figure", Exp_sos.f3);
    ("a1", "ablations", Exp_sos.a1);
    ("e1", "extension: price of non-preemption", Exp_sos.e1);
    ("e2", "extension: joint vs fixed assignment", Exp_sos.e2);
    ("e3", "extension: online arrivals", Exp_sos.e3);
    ("e4", "extension: input stability", Exp_sos.e4);
    ("h1", "Theorem 2.1 hardness reduction demo", Exp_binpack.h1);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec strip_j acc = function
    | [] -> List.rev acc
    | ("-j" | "--domains") :: v :: rest ->
        (match int_of_string_opt v with
        | Some d when d >= 1 -> Exp_common.domains := d
        | _ ->
            Printf.eprintf "-j expects a positive integer (got %S)\n" v;
            exit 2);
        strip_j acc rest
    | a :: rest -> strip_j (a :: acc) rest
  in
  let args = strip_j [] args in
  (* `gate --check`: regression-check the solver rows against the committed
     BENCH_fast.json (exit 1 past GATE_MAX_REGRESSION_PCT) — the CI mode. *)
  if List.mem "--check" args then Exp_gate.check_mode := true;
  let args =
    List.filter
      (fun a -> a <> "--" && a <> "--table" && a <> "--figure" && a <> "--check")
      args
  in
  let selected =
    if args = [] then all
    else
      List.filter_map
        (fun a ->
          match List.find_opt (fun (id, _, _) -> id = a) all with
          | Some exp -> Some exp
          | None ->
              Printf.eprintf "unknown experiment %S (known: %s)\n" a
                (String.concat " " (List.map (fun (id, _, _) -> id) all));
              exit 2)
        args
  in
  Printf.printf
    "Sharing is Caring (SPAA 2017) — experiment harness\n\
     paper: Kling, Maecker, Riechers, Skopalik. All bounds refer to DESIGN.md /\n\
     EXPERIMENTS.md; every table is deterministic (fixed seeds).\n";
  let t0 = Prelude.Clock.now () in
  List.iter (fun (_, _, run) -> run ()) selected;
  (* The wall clock goes to stderr, so stdout is the same on every run
     (bench/experiments.expected pins it). *)
  flush stdout;
  Printf.eprintf "\ntotal: %.1f s\n" (Prelude.Clock.now () -. t0);
  let violated = Atomic.get Exp_common.violations in
  if violated > 0 then begin
    Printf.eprintf "%d bound cell(s) VIOLATED\n" violated;
    exit 1
  end
