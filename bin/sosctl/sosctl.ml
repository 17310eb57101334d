(* sosctl — command-line front end for the Sharing-is-Caring scheduler.

   Subcommands: generate instances, solve them with any of the implemented
   algorithms, run quick ratio experiments, pack bins, schedule task sets,
   and demo the hardness reduction. `sosctl <cmd> --help` for details. *)

open Cmdliner

let read_input = function
  | "-" -> In_channel.input_all stdin
  | path -> In_channel.with_open_text path In_channel.input_all

(* Exit-code discipline (doc/ROBUSTNESS.md): 0 success, 1 batch completed
   with per-task failures, 2 usage error / invalid input, 3 a solver
   produced an invalid schedule, 4 a checkpoint journal cannot be trusted
   (fail-stop), 130 interrupted (SIGINT, cooperative cancel).
   [Usage] carries the message for code 2. *)
exception Usage of string

let invalid_input reason =
  Printf.eprintf "sosctl: invalid input: %s\n"
    (Robust.Failure.invalid_to_string reason);
  2

let malformed fmt = Printf.ksprintf (fun msg -> invalid_input (Robust.Failure.Malformed msg)) fmt

(* Continue with [k] on [Ok]; an [Error] is invalid input. *)
let checked result k = match result with Ok v -> k v | Error msg -> malformed "%s" msg

(* A comma-separated list of integers in int_of_string's syntax; the
   first token that is not one is invalid input. *)
let int_list what text k =
  let tokens = String.split_on_char ',' text in
  match List.find_opt (fun t -> int_of_string_opt t = None) tokens with
  | Some t ->
      invalid_input (Robust.Failure.Malformed (Printf.sprintf "%s: %S is not an integer" what t))
  | None -> k (List.map int_of_string tokens)

module Solvers = Baselines.Solvers

(* Load an instance through the strict validator (doc/ROBUSTNESS.md);
   with [solver], also under that solver's precondition (Solvers.check).
   The window check runs inside the validator, in its usual place. *)
let load_instance ?solver file k =
  let checked text =
    match solver with
    | None -> Sos.Instance.of_string_checked text
    | Some s ->
        Result.bind
          (Sos.Instance.of_string_checked ~window:(s.Solvers.requires = Window) text)
          (Solvers.check s)
  in
  match read_input file with
  | exception Sys_error msg -> invalid_input (Robust.Failure.Malformed msg)
  | text -> ( match checked text with Ok inst -> k inst | Error reason -> invalid_input reason)

(* ------------------------------------------------------- observability *)

(* Shared --metrics[=PATH] / --trace=PATH flags (doc/OBSERVABILITY.md).
   [with_obs] enables the requested sinks, runs the subcommand, then dumps:
   metrics go to stderr by default (stdout stays byte-identical — the batch
   determinism contract) or to PATH (JSON when PATH ends in .json,
   OpenMetrics when it ends in .prom, text otherwise); the trace is always
   a Chrome trace-event JSON file. *)

let obs_flags =
  let metrics =
    Arg.(
      value
      & opt ~vopt:(Some "-") (some string) None
      & info [ "metrics" ] ~docv:"PATH"
          ~doc:
            "Record telemetry counters and histograms (latencies included) during \
             the run and dump a snapshot: to stderr ($(b,--metrics) alone), or to $(docv) (JSON if \
             it ends in .json, OpenMetrics exposition if it ends in .prom, text \
             otherwise).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Record wall-clock spans and write a Chrome trace-event JSON timeline \
             to $(docv) (open in chrome://tracing or ui.perfetto.dev).")
  in
  Term.(const (fun metrics trace -> (metrics, trace)) $ metrics $ trace)

let with_obs (metrics, trace) run =
  if metrics <> None then Obs.Metrics.enable ();
  if trace <> None then begin
    Obs.Trace.start ();
    Obs.Trace.set_thread_name ~tid:0 "main"
  end;
  let code = run () in
  (match trace with
  | Some path ->
      Obs.Trace.stop ();
      Obs.Trace.write path
  | None -> ());
  (match metrics with
  | Some "-" -> prerr_string (Obs.Metrics.snapshot ())
  | Some path ->
      let body =
        if Filename.check_suffix path ".json" then Obs.Metrics.snapshot_json ()
        else if Filename.check_suffix path ".prom" then Obs.Metrics.to_openmetrics ()
        else Obs.Metrics.snapshot ()
      in
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc body)
  | None -> ());
  code

let family_of_name name =
  match
    List.find_opt
      (fun f -> f.Workload.Sos_gen.name = name)
      (Workload.Sos_gen.all_families
      @ List.map Workload.Sos_gen.unit_of Workload.Sos_gen.all_families)
  with
  | Some f -> Ok f
  | None ->
      Error
        (Printf.sprintf "unknown family %s (try: %s, or append -unit)" name
           (String.concat ", "
              (List.map (fun f -> f.Workload.Sos_gen.name) Workload.Sos_gen.all_families)))

let solver_flag ~default =
  let names = List.map (fun s -> (s.Solvers.name, s)) Solvers.all in
  Arg.(
    value
    & opt (enum names) (Option.get (Solvers.find default))
    & info [ "algo"; "a" ]
        ~doc:("Algorithm: " ^ doc_alts_enum names ^ " (preconditions: doc/CLI.md)."))

(* ------------------------------------------------------------------ gen *)

let gen_cmd =
  let run family n m seed scale =
    match family_of_name family with
    | Error msg -> malformed "%s" msg
    | Ok family ->
        if m < 2 then invalid_input (Robust.Failure.Too_few_processors { m; need = 2 })
        else if scale < 1 then invalid_input (Robust.Failure.Bad_scale scale)
        else if n < 0 then malformed "n must be >= 0"
        else begin
          let rng = Prelude.Rng.create seed in
          let inst = Workload.Sos_gen.generate rng family ~n ~m ~scale () in
          match Sos.Instance.validate inst with
          | Ok _ ->
              print_string (Sos.Instance.to_string inst);
              0
          | Error reason -> invalid_input reason
        end
  in
  let family =
    Arg.(value & opt string "bimodal" & info [ "family"; "f" ] ~doc:"Workload family.")
  in
  let n = Arg.(value & opt int 50 & info [ "n" ] ~doc:"Number of jobs.") in
  let m = Arg.(value & opt int 8 & info [ "m" ] ~doc:"Number of processors.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let scale =
    Arg.(
      value
      & opt int Workload.Sos_gen.default_scale
      & info [ "scale" ] ~doc:"Resource units per time step.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a random SoS instance (text format on stdout).")
    Term.(const run $ family $ n $ m $ seed $ scale)

(* ---------------------------------------------------------------- solve *)

(* solve and analyze: load under the solver's precondition, solve, and
   validate the column store before [report] sees its list form; an
   invalid schedule is a solver bug and exits 3. *)
let solve_checked solver file report =
  load_instance ~solver file @@ fun inst ->
  let cols = Obs.Trace.with_span ~cat:"cli" "solve" (fun () -> solver.Solvers.run inst) in
  match
    Obs.Trace.with_span ~cat:"cli" "validate" (fun () ->
        Sos.Schedule.Columns.validate ~preemption_ok:solver.preemptive cols)
  with
  | Ok () -> report inst (Sos.Schedule.Columns.to_schedule cols)
  | Error v ->
      Printf.eprintf "INVALID schedule at step %d: %s\n" v.Sos.Schedule.at_step
        v.Sos.Schedule.reason;
      3

let instance_file =
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc:"Instance file or - for stdin.")

let solve_cmd =
  let run obs solver file gantt quiet =
    with_obs obs @@ fun () ->
    solve_checked solver file @@ fun inst sched ->
    let lb = Sos.Bounds.lower_bound inst in
    Printf.printf "jobs        : %d\n" (Sos.Instance.n inst);
    Printf.printf "processors  : %d\n" inst.Sos.Instance.m;
    Printf.printf "makespan    : %d\n" sched.Sos.Schedule.makespan;
    Printf.printf "lower bound : %d\n" lb;
    Printf.printf "ratio vs LB : %.4f\n"
      (Sos.Bounds.ratio ~lb ~makespan:sched.Sos.Schedule.makespan);
    Printf.printf "wasted res. : %d units (%.2f steps worth)\n"
      (Sos.Schedule.total_waste sched)
      (float_of_int (Sos.Schedule.total_waste sched)
      /. float_of_int inst.Sos.Instance.scale);
    if inst.Sos.Instance.m >= 3 then
      Printf.printf "Thm 3.3 bnd : %.4f\n"
        (Sos.Bounds.guarantee_general ~m:inst.Sos.Instance.m);
    if (not quiet) && gantt && not solver.preemptive then begin
      print_newline ();
      print_string (Sos.Schedule.render_gantt sched)
    end;
    0
  in
  let gantt = Arg.(value & flag & info [ "gantt" ] ~doc:"Render an ASCII Gantt chart.") in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Summary only.") in
  Cmd.v
    (Cmd.info "solve" ~doc:"Solve an SoS instance and validate the schedule.")
    Term.(const run $ obs_flags $ solver_flag ~default:"window" $ instance_file $ gantt $ quiet)

(* -------------------------------------------------------------- analyze *)

let analyze_cmd =
  let run obs solver file =
    with_obs obs @@ fun () ->
    solve_checked solver file @@ fun inst sched ->
    (* Everything below reads the RLE blocks / step-function profiles:
       safe on huge-volume instances whose makespan is in the millions. *)
    let u = Obs.Trace.with_span ~cat:"cli" "analytics" (fun () -> Sos.Schedule.utilization sched) in
    let seg_stats (p : float Sos.Schedule.profile) =
      Array.fold_left
        (fun (peak, sum) (_, len, v) -> (max peak v, sum +. (float_of_int len *. v)))
        (0.0, 0.0) p
    in
    let peak, area = seg_stats u in
    let jobs = Sos.Schedule.jobs_per_step sched in
    let peak_jobs = Array.fold_left (fun acc (_, _, k) -> max acc k) 0 jobs in
    Printf.printf "jobs            : %d\n" (Sos.Instance.n inst);
    Printf.printf "processors      : %d\n" inst.Sos.Instance.m;
    Printf.printf "makespan        : %d\n" sched.Sos.Schedule.makespan;
    Printf.printf "RLE blocks      : %d\n" (List.length sched.Sos.Schedule.steps);
    Printf.printf "profile segments: %d (utilization), %d (jobs)\n" (Array.length u)
      (Array.length jobs);
    Printf.printf "lower bound     : %d\n" (Sos.Bounds.lower_bound inst);
    Printf.printf "mean completion : %.2f\n" (Sos.Schedule.mean_completion_time sched);
    Printf.printf "utilization     : peak %.4f, mean %.4f\n" peak
      (if sched.Sos.Schedule.makespan = 0 then 0.0
       else area /. float_of_int sched.Sos.Schedule.makespan);
    Printf.printf "peak jobs/step  : %d\n" peak_jobs;
    Printf.printf "wasted resource : %d units (%.2f steps worth)\n"
      (Sos.Schedule.total_waste sched)
      (float_of_int (Sos.Schedule.total_waste sched)
      /. float_of_int inst.Sos.Instance.scale);
    0
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Solve and report RLE-native analytics (strongly polynomial: safe for \
             huge processing volumes).")
    Term.(const run $ obs_flags $ solver_flag ~default:"window" $ instance_file)

(* ---------------------------------------------------------------- ratio *)

let ratio_cmd =
  let run obs family n m reps seed =
    with_obs obs @@ fun () ->
    match family_of_name family with
    | Error msg -> malformed "%s" msg
    | Ok _ when m < 2 -> invalid_input (Robust.Failure.Too_few_processors { m; need = 2 })
    | Ok _ when n < 0 -> malformed "n must be >= 0"
    | Ok _ when reps < 1 -> malformed "--reps must be >= 1 (got %d)" reps
    | Ok family ->
        let ratios =
          Array.init reps (fun rep ->
              let rng = Prelude.Rng.create (seed + rep) in
              let inst = Workload.Sos_gen.generate rng family ~n ~m () in
              let s = Sos.Fast.run inst in
              Sos.Bounds.theorem_3_3_bound inst ~makespan:s.Sos.Schedule.makespan)
        in
        let s = Prelude.Stats.summarize ratios in
        Printf.printf "family=%s n=%d m=%d reps=%d\n" family.Workload.Sos_gen.name n m reps;
        Printf.printf "ratio vs LB: mean=%.4f p50=%.4f max=%.4f\n" s.Prelude.Stats.mean
          s.Prelude.Stats.p50 s.Prelude.Stats.max;
        if m >= 3 then
          Printf.printf "proven bound: %.4f\n" (Sos.Bounds.guarantee_general ~m);
        0
  in
  let family = Arg.(value & opt string "bimodal" & info [ "family"; "f" ]) in
  let n = Arg.(value & opt int 100 & info [ "n" ]) in
  let m = Arg.(value & opt int 8 & info [ "m" ]) in
  let reps = Arg.(value & opt int 20 & info [ "reps" ]) in
  let seed = Arg.(value & opt int 1 & info [ "seed" ]) in
  Cmd.v
    (Cmd.info "ratio" ~doc:"Quick approximation-ratio experiment on a workload family.")
    Term.(const run $ obs_flags $ family $ n $ m $ reps $ seed)

(* -------------------------------------------------------------- binpack *)

let binpack_cmd =
  let run obs k capacity sizes show optimal =
    with_obs obs @@ fun () ->
    int_list "SIZES" sizes @@ fun sizes ->
    checked (Binpack.Packing.instance_checked ~k ~capacity sizes) @@ fun inst ->
    let packing = Binpack.Algorithms.window inst in
    Binpack.Packing.assert_valid inst packing;
    Printf.printf "items       : %d\n" (List.length sizes);
    Printf.printf "bins used   : %d\n" (Binpack.Packing.bins_used packing);
    Printf.printf "lower bound : %d\n" (Binpack.Packing.lower_bound inst);
    Printf.printf "fragments   : %d\n" (Binpack.Packing.fragments packing);
    (match Exact.Binpack_exact.optimum ~node_limit:500_000 inst with
    | Some opt -> Printf.printf "exact OPT   : %d\n" opt
    | None -> Printf.printf "exact OPT   : (search limit exceeded)\n");
    if show then begin
      Printf.printf "\nwindow packing:\n";
      Format.printf "%a" Binpack.Packing.pp packing
    end;
    if optimal then begin
      match Exact.Binpack_exact.optimum_packing ~node_limit:500_000 inst with
      | Some (opt, witness) ->
          Binpack.Packing.assert_valid inst witness;
          Printf.printf "\noptimal packing (%d bins):\n" opt;
          Format.printf "%a" Binpack.Packing.pp witness
      | None -> Printf.printf "\noptimal packing: (search limit exceeded)\n"
    end;
    0
  in
  let k = Arg.(value & opt int 3 & info [ "k" ] ~doc:"Cardinality constraint.") in
  let capacity = Arg.(value & opt int 1000 & info [ "capacity"; "c" ]) in
  let sizes =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SIZES" ~doc:"Comma-separated item sizes (in capacity units).")
  in
  let show = Arg.(value & flag & info [ "show" ] ~doc:"Print the window packing.") in
  let optimal =
    Arg.(value & flag & info [ "optimal" ] ~doc:"Also print an exact optimal packing.")
  in
  Cmd.v
    (Cmd.info "binpack"
       ~doc:"Pack splittable items under a cardinality constraint (Corollary 3.9).")
    Term.(const run $ obs_flags $ k $ capacity $ sizes $ show $ optimal)

(* ------------------------------------------------------------------ sas *)

let sas_cmd =
  let run obs profile_name k m seed =
    with_obs obs @@ fun () ->
    let profile =
      List.find_opt
        (fun p -> p.Workload.Sas_gen.name = profile_name)
        Workload.Sas_gen.all_profiles
    in
    match profile with
    | None ->
        malformed "unknown profile %s (try: %s)" profile_name
          (String.concat ", "
             (List.map (fun p -> p.Workload.Sas_gen.name) Workload.Sas_gen.all_profiles))
    | Some _ when m < 4 -> malformed "sas needs m >= 4 processors (got m = %d)" m
    | Some _ when k < 1 -> malformed "-k must be >= 1 (got %d)" k
    | Some profile ->
        let rng = Prelude.Rng.create seed in
        let inst = Workload.Sas_gen.generate rng profile ~k ~m () in
        let report = Sas.Combined.run inst in
        Printf.printf "tasks          : %d (T1: %d, T2: %d)\n" k
          report.Sas.Combined.t1_count report.Sas.Combined.t2_count;
        Printf.printf "sum completions: %d\n" report.Sas.Combined.sum_completions;
        Printf.printf "avg completion : %.2f\n"
          (float_of_int report.Sas.Combined.sum_completions /. float_of_int k);
        Printf.printf "makespan       : %d\n" report.Sas.Combined.makespan;
        Printf.printf "lower bound    : %d\n" report.Sas.Combined.lower_bound;
        Printf.printf "ratio vs LB    : %.4f\n" (Sas.Combined.ratio report);
        Printf.printf "Thm 4.8 bound  : %.4f (+ o(1))\n" (Sas.Bounds.guarantee ~m);
        0
  in
  let profile = Arg.(value & opt string "cloud-mix" & info [ "profile"; "p" ]) in
  let k = Arg.(value & opt int 20 & info [ "k" ] ~doc:"Number of tasks.") in
  let m = Arg.(value & opt int 8 & info [ "m" ]) in
  let seed = Arg.(value & opt int 1 & info [ "seed" ]) in
  Cmd.v
    (Cmd.info "sas"
       ~doc:"Schedule a task set for average completion time (Theorem 4.8).")
    Term.(const run $ obs_flags $ profile $ k $ m $ seed)

(* --------------------------------------------------------------- export *)

let export_cmd =
  let run file what solver specs_bin =
    match specs_bin with
    (* Corpus converter, not an instance exporter: FILE is a text spec
       corpus for `sosctl batch`, compiled to the compact binary form
       (strict — any malformed or @PATH spec aborts the conversion). *)
    | Some _ when file = "-" ->
        prerr_endline "sosctl export: --specs-bin needs a spec FILE (not stdin)";
        2
    | Some out -> (
        match Workload.Specs.convert_to_binary ~src:file ~dst:out with
        | Ok n ->
            Printf.printf "wrote %d specs to %s\n" n out;
            0
        | Error msg ->
            prerr_endline ("sosctl export: --specs-bin: " ^ msg);
            2)
    | None -> (
        match what with
        | `Instance ->
            load_instance file @@ fun inst ->
            print_string (Sos.Export.instance_to_csv inst);
            0
        | (`Schedule | `Schedule_rle | `Utilization | `Trace | `Svg) as what ->
            load_instance ~solver file @@ fun inst ->
            print_string
              (match what with
              (* Only -w trace needs Listing 1's step-by-step traced run, and
                 only the window solvers have one; the CSV/SVG writers are
                 RLE-native, so they take the solver's compressed schedule
                 and stay strongly polynomial. *)
              | `Trace ->
                  let trace =
                    match solver.Solvers.name with
                    | "window" | "listing1" -> snd (Sos.Listing1.run_traced inst)
                    | "literal" -> snd (Sos.Listing1.run_traced ~variant:`Literal inst)
                    | _ -> []
                  in
                  Sos.Export.trace_to_csv trace inst
              | `Schedule -> Sos.Export.schedule_to_csv (Solvers.schedule solver inst)
              | `Schedule_rle -> Sos.Export.columns_to_csv_rle (solver.run inst)
              | `Utilization -> Sos.Export.utilization_to_csv (Solvers.schedule solver inst)
              | `Svg -> Sos.Svg.render ~title:"sosctl schedule" (Solvers.schedule solver inst));
            0)
  in
  let what =
    Arg.(
      value
      & opt
          (enum
             [
               ("schedule", `Schedule); ("schedule-rle", `Schedule_rle);
               ("instance", `Instance);
               ("utilization", `Utilization); ("trace", `Trace); ("svg", `Svg);
             ])
          `Schedule
      & info [ "what"; "w" ] ~doc:"What to export (CSV, or an SVG Gantt chart).")
  in
  let file = Arg.(value & pos 0 string "-" & info [] ~docv:"FILE") in
  let specs_bin =
    Arg.(
      value
      & opt (some string) None
      & info [ "specs-bin" ]
          ~doc:
            "Convert the batch spec corpus $(i,FILE) (text, one $(i,FAMILY N M \
             [SCALE]) per line) to the compact binary form at $(docv) — 16 bytes \
             per spec, autodetected by $(b,sosctl batch). Strict: malformed or \
             @PATH specs abort the conversion."
          ~docv:"OUT")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export instances, schedules, traces as CSV; compile spec corpora to binary.")
    Term.(const run $ file $ what $ solver_flag ~default:"listing1" $ specs_bin)

(* ------------------------------------------------ fault-tolerance flags *)

(* The flags batch and serve share (doc/ROBUSTNESS.md): bounded retry with
   deterministic backoff, the sharded checkpoint journal, and the seeded
   chaos injector. *)
type fault_tolerance = {
  retries : int;
  backoff_base : float;
  checkpoint : string option;
  resume : bool;
  shards : int;
  sync_every : int;
  chaos : string option;
  chaos_seed : int option;
}

let fault_tolerance_flags =
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Re-run a failed spec (batch) or query (serve) up to $(docv) extra times; only \
             transient failures (task exceptions, deadline expiry) retry. Attempt \
             $(i,a) re-derives its randomness from (--seed, index, $(i,a)), so output \
             stays byte-identical at any -j.")
  in
  let backoff_base =
    Arg.(
      value & opt float 0.01
      & info [ "backoff-base" ] ~docv:"SECS"
          ~doc:
            "First-retry delay; later retries back off exponentially (capped at 1s, \
             jittered from (--seed, index, attempt)). 0 retries immediately.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"PATH"
          ~doc:
            "Journal every batch result line, or every serve reply before it is \
             emitted, to $(docv) (see --shards, --sync-every), enabling --resume.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Replay the --checkpoint journal of a killed run verbatim and compute only \
             the rest, so the output is byte-identical to an uninterrupted run. \
             Refused if the journal header does not match; exits 4 when a \
             journalled entry is missing or answers another spec (batch) or \
             request (serve).")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Shard the journal over $(docv) files ($(i,PATH.k) holds entry i when i mod \
             $(docv) = k; 1 = one file). Resume with the same count.")
  in
  let sync_every =
    Arg.(
      value & opt int 1
      & info [ "sync-every" ] ~docv:"K"
          ~doc:
            "Flush each journal shard every $(docv) appends; a kill then loses up to \
             $(docv)-1 entries per shard, recomputed on resume.")
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:
            "Arm the seeded fault injector (grammar and sites: doc/ROBUSTNESS.md), e.g. \
             $(b,sos.fast.run@3,19:attempts=1) or $(b,serve.request+0.005~0.5).")
  in
  let chaos_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-seed" ] ~docv:"N" ~doc:"Seed for probabilistic chaos draws (default 0).")
  in
  Term.(
    const (fun retries backoff_base checkpoint resume shards sync_every chaos chaos_seed ->
        { retries; backoff_base; checkpoint; resume; shards; sync_every; chaos; chaos_seed })
    $ retries $ backoff_base $ checkpoint $ resume $ shards $ sync_every $ chaos
    $ chaos_seed)

(* Check the shared flags, arm the chaos injector, and return the retry
   backoff policy: none for a 0.0 base (immediate retries), otherwise
   capped jittered delays keyed on (seed, index, attempt), byte-identical
   at any -j. Raises [Usage]. *)
let arm_fault_tolerance ~seed ft =
  if ft.retries < 0 then raise (Usage "--retries must be >= 0");
  if ft.backoff_base < 0.0 then raise (Usage "--backoff-base must be >= 0");
  if ft.resume && ft.checkpoint = None then raise (Usage "--resume requires --checkpoint PATH");
  if ft.shards < 1 then raise (Usage "--shards must be >= 1");
  if ft.sync_every < 1 then raise (Usage "--sync-every must be >= 1");
  Option.iter
    (fun spec ->
      match Robust.Chaos.arm ~seed:(Option.value ft.chaos_seed ~default:0) spec with
      | Ok () -> ()
      | Error msg -> raise (Usage ("bad chaos spec: " ^ msg)))
    ft.chaos;
  if ft.backoff_base > 0.0 then Some (Robust.Backoff.policy ~base:ft.backoff_base ~seed ())
  else None

(* ---------------------------------------------------------------- batch *)

(* Solve many instances on the Engine domain pool. Specs stream off a
   corpus file or stdin — newline-delimited text or the compact binary
   form, both read through the autodetecting streaming reader
   (Workload.Specs) — under a bounded in-flight window (--window, default
   4 x domains x chunk), so a million-spec corpus runs in O(window)
   memory. Results stream to stdout in spec order as they complete, one
   line per instance, with no timing in the lines: the output is
   byte-identical at every -j (the acceptance check CI runs).
   Determinism discipline: spec i's generator on attempt a is seeded by
   (--seed, i, a), never by the domain that happens to solve it.

   Resilience (doc/ROBUSTNESS.md): per-spec failures become structured
   `<idx> error <class> line <l>: <msg>` lines; --retries/--task-timeout
   map onto Engine.Batch's bounded deterministic retry and cooperative
   deadlines; --checkpoint journals every emitted line, bound to its
   spec's canonical text (sharded over --shards files, flushed per
   --sync-every), so a killed run resumed with --resume replays the
   completed prefix byte-identically, and fail-stops with exit 4 on an
   entry that is missing or answers another spec; --chaos arms the
   seeded fault injector; SIGINT cancels the batch-wide token and exits
   130. *)

(* What a batch task hands back: the figures of a freshly solved
   instance's line (and its --out-dir CSV text), read from the store
   inside the task, or a marker that its output line was already journaled
   by the interrupted run and will be replayed verbatim at emit time (never
   recomputed — even an armed chaos rule on the task site cannot change a
   replayed line). No store outlives its task. *)
type batch_result =
  | Solved of {
      label : string;
      n : int;
      m : int;
      makespan : int;
      lb : int;
      blocks : int;
      csv : string option;
    }
  | Replayed

(* The solve buffers one batch task borrows: a [Fast] workspace and a
   validator scratch. A run keeps its idle bundles on an [Atomic] free
   list, so a task on any domain takes one that is not in use, reinitialises
   it for its instance, and gives it back when done (also when the solve
   failed: the next solve reinitialises whatever it left). A borrow or a
   give-back that loses a race with another domain allocates a fresh
   bundle or drops this one instead of retrying, so neither loops. *)
module Bundles = struct
  type bundle = { ws : Sos.Fast.workspace; check : Sos.Schedule.Columns.validator }

  (* A bundle holds about 40 words per job of the largest instance it
     solved: 7 in the state, 28 in the store, 5 in the validator, plus the
     step scratch. A task borrows one only for an instance that [fits], and
     only a bundle whose buffers stay within [budget] goes back on the free
     list. A larger instance is solved on the one-shot path, whose state
     is garbage before its schedule is validated; a borrowed bundle would
     keep the state alive through validation and so raise the peak by 7n
     words. Over the seed-1 batch-large corpus (n 800-3200) on a 2-vCPU VM,
     peak RSS from sosbench (10 s runs) and top heap words from
     OCAMLRUNPARAM=v=0x400 sosctl batch -j 1 read:
       no bundles                          10.58, 10.55 MB   553,676 words
       bundles for every n, all kept       12.32, 12.39 MB
       bundles for every n, kept n <= 512  10.95, 10.94 MB   576,107 words
       bundles for n <= 512 only (this)    10.44, 10.38 MB   553,676 words
     batch-mixed (n 100-300) takes every spec through a bundle. *)
  let words_per_job = 41
  let budget = words_per_job * 512
  let fits inst = words_per_job * Sos.Instance.n inst <= budget
  let words b = Sos.Fast.workspace_words b.ws + Sos.Schedule.Columns.validator_words b.check

  let create () : bundle list Atomic.t = Atomic.make []

  let borrow free =
    match Atomic.get free with
    | b :: rest as seen when Atomic.compare_and_set free seen rest -> b
    | _ -> { ws = Sos.Fast.workspace (); check = Sos.Schedule.Columns.validator () }

  let give_back free b =
    if words b <= budget then begin
      let seen = Atomic.get free in
      ignore (Atomic.compare_and_set free seen (b :: seen))
    end

  let with_bundle free f =
    let b = borrow free in
    Fun.protect ~finally:(fun () -> give_back free b) (fun () -> f b)
end

(* Streamed aggregation for --summary: per-line stdout is suppressed and
   every emitted line (fresh or replayed — so an interrupted-and-resumed
   run summarizes identically to an uninterrupted one) is folded into a
   ratio histogram, per-family means, and an error-class table, all in
   O(families + classes) memory. Rendering sorts every table, so the
   summary is deterministic at any -j. *)
module Summary = struct
  type fam = { mutable count : int; mutable ratio_sum : float; mutable mks_sum : float }

  type t = {
    mutable ok : int;
    mutable err : int;
    mutable timeouts : int; (* the deadline subset of err, reported separately *)
    hist : int array; (* 20 buckets [1.00,2.00) step 0.05, + the >= 2 tail *)
    fams : (string, fam) Hashtbl.t;
    errs : (string, int ref) Hashtbl.t;
  }

  let create () =
    {
      ok = 0;
      err = 0;
      timeouts = 0;
      hist = Array.make 21 0;
      fams = Hashtbl.create 16;
      errs = Hashtbl.create 8;
    }

  let add st line =
    match String.split_on_char ' ' line with
    | _ :: "ok" :: label :: fields ->
        (* Read "key=value" back out of the line emit wrote, so the
           aggregator needs no second result representation. *)
        let field key ~default =
          let pre = key ^ "=" in
          let n = String.length pre in
          List.find_map
            (fun f ->
              if String.starts_with ~prefix:pre f then
                float_of_string_opt (String.sub f n (String.length f - n))
              else None)
            fields
          |> Option.value ~default
        in
        st.ok <- st.ok + 1;
        let ratio = field "ratio" ~default:1.0 in
        let mks = field "makespan" ~default:0.0 in
        let b =
          if ratio >= 2.0 then 20
          else if ratio < 1.0 then 0
          else int_of_float ((ratio -. 1.0) /. 0.05)
        in
        st.hist.(min b 20) <- st.hist.(min b 20) + 1;
        let fam =
          match Hashtbl.find_opt st.fams label with
          | Some f -> f
          | None ->
              let f = { count = 0; ratio_sum = 0.0; mks_sum = 0.0 } in
              Hashtbl.add st.fams label f;
              f
        in
        fam.count <- fam.count + 1;
        fam.ratio_sum <- fam.ratio_sum +. ratio;
        fam.mks_sum <- fam.mks_sum +. mks
    | _ :: "error" :: cls :: _ -> (
        st.err <- st.err + 1;
        if cls = "deadline" then st.timeouts <- st.timeouts + 1;
        match Hashtbl.find_opt st.errs cls with
        | Some r -> incr r
        | None -> Hashtbl.add st.errs cls (ref 1))
    | _ -> ()

  let sorted_bindings tbl = List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

  let render st =
    Printf.printf "specs  %d\nok     %d\nerrors %d\n" (st.ok + st.err) st.ok st.err;
    if st.timeouts > 0 then Printf.printf "timeouts %d\n" st.timeouts;
    if st.ok > 0 then begin
      print_string "ratio histogram (Theorem 3.3 bound):\n";
      let peak = Array.fold_left max 1 st.hist in
      Array.iteri
        (fun b count ->
          if count > 0 then begin
            let label =
              if b = 20 then ">=2.00        "
              else
                Printf.sprintf "[%.2f,%.2f)   "
                  (1.0 +. (0.05 *. float_of_int b))
                  (1.0 +. (0.05 *. float_of_int (b + 1)))
            in
            Printf.printf "  %s %-8d %s\n" label count
              (String.make (max 1 (count * 40 / peak)) '#')
          end)
        st.hist;
      print_string "per-family:\n";
      List.iter
        (fun (name, f) ->
          Printf.printf "  %-20s %-8d mean-ratio %.4f  mean-makespan %.1f\n" name f.count
            (f.ratio_sum /. float_of_int f.count)
            (f.mks_sum /. float_of_int f.count))
        (sorted_bindings st.fams)
    end;
    if st.err > 0 then begin
      print_string "error classes:\n";
      List.iter
        (fun (cls, r) -> Printf.printf "  %-20s %d\n" cls !r)
        (sorted_bindings st.errs)
    end;
    flush stdout
end

let batch_cmd =
  let run obs file jobs seed out_dir solver ft task_timeout verbose_errors (_stream : bool)
      summary chunk win_opt progress =
    with_obs obs @@ fun () ->
    try
      if jobs < 1 then raise (Usage "-j must be >= 1");
      (match task_timeout with
      | Some t when t <= 0.0 -> raise (Usage "--task-timeout must be > 0")
      | _ -> ());
      if chunk < 1 then raise (Usage "--chunk must be >= 1");
      (match win_opt with
      | Some w when w < 1 -> raise (Usage "--window must be >= 1")
      | _ -> ());
      let backoff = arm_fault_tolerance ~seed ft in
      (* Backtraces are only captured by the runtime when recording is on;
         --verbose-errors implies it so Task_exn backtraces are real. *)
      if verbose_errors then Printexc.record_backtrace true;
      (match out_dir with
      | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
      | _ -> ());
      let window = solver.Solvers.requires = Window in
      let bundles = Bundles.create () in
      let solve idx (r : Workload.Specs.record) =
        let open Robust.Failure in
        let admit = function Ok inst -> inst | Error reason -> raise (Invalid reason) in
        let label, inst =
          match r.payload with
          | Workload.Specs.Bad msg -> raise (Invalid (Malformed msg))
          | Workload.Specs.File path ->
              let text =
                match In_channel.with_open_text path In_channel.input_all with
                | exception Sys_error msg -> raise (Invalid (Malformed msg))
                | text -> text
              in
              (path, admit (Sos.Instance.of_string_checked ~window text))
          | Workload.Specs.Gen { family; n; m; scale } ->
              let need = if window then 3 else 2 in
              if m < need then raise (Invalid (Too_few_processors { m; need }));
              let family =
                match family_of_name family with
                | Ok f -> f
                | Error msg -> raise (Invalid (Malformed msg))
              in
              let scale = Option.value scale ~default:Workload.Sos_gen.default_scale in
              (* (--seed, index, attempt): a retried attempt re-derives
                 its randomness deterministically at any -j. *)
              let rng = Prelude.Rng.create3 seed idx (Robust.Context.attempt ()) in
              let inst = Workload.Sos_gen.generate rng family ~n ~m ~scale () in
              (family.Workload.Sos_gen.name, admit (Sos.Instance.validate ~window inst))
        in
        let inst = admit (Solvers.check solver inst) in
        Obs.Trace.flow_step ~id:idx "spec";
        let report ?scratch (cols : Sos.Schedule.Columns.t) =
          (match Sos.Schedule.Columns.validate ?scratch ~preemption_ok:solver.preemptive cols with
          | Ok () -> ()
          | Error v ->
              Robust.Failure.internal_error "invalid schedule at step %d: %s"
                v.Sos.Schedule.at_step v.Sos.Schedule.reason);
          Solved
            {
              label;
              n = Sos.Instance.n inst;
              m = inst.Sos.Instance.m;
              makespan = cols.makespan;
              lb = Sos.Bounds.lower_bound inst;
              blocks = cols.blocks;
              csv = Option.map (fun _ -> Sos.Export.columns_to_csv_rle cols) out_dir;
            }
        in
        if Bundles.fits inst then
          Bundles.with_bundle bundles (fun { ws; check } ->
              report ~scratch:check (solver.run_in ws inst))
        else report (solver.run inst)
      in
      let src =
        match
          if file = "-" then Workload.Specs.of_channel stdin else Workload.Specs.open_path file
        with
        | Ok s -> s
        | Error msg -> raise (Usage msg)
      in
      let win = match win_opt with Some w -> max chunk w | None -> 4 * jobs * chunk in
      (* Keep the newest 64k trace events, not all of them, so a
         million-spec run with --trace stays in constant memory (the
         export reports the overwritten count as "droppedEvents"). *)
      if Obs.Trace.active () then Obs.Trace.set_ring (Some 65536);
      (* The header binds the journal to the run configuration, so a
         resume under another seed or algorithm is refused up front; each
         entry binds its line to its spec's canonical text, identical for
         a text corpus and its binary conversion. *)
      let journal =
        Option.map
          (fun path ->
            let header = Printf.sprintf "sosj2 seed=%d algo=%s" seed solver.name in
            let { shards; sync_every; _ } = ft in
            if not ft.resume then Robust.Journal.Sharded.start ~path ~shards ~sync_every ~header ()
            else
              match Robust.Journal.Sharded.resume ~path ~shards ~sync_every ~header () with
              | Ok j -> j
              | Error msg -> raise (Usage ("cannot resume: " ^ msg)))
          ft.checkpoint
      in
      let batch_token = Robust.Cancel.create () in
      let prev_sigint =
        Sys.signal Sys.sigint
          (Sys.Signal_handle (fun _ -> Robust.Cancel.cancel batch_token))
      in
      (* SIGTERM (the service-manager stop signal) behaves exactly like
         SIGINT — cancel, drain in-flight work, close the journal — but is
         distinguishable in the exit code (143 vs 130) so supervisors can
         tell "operator interrupt" from "orchestrated stop". *)
      let term_seen = ref false in
      let prev_sigterm =
        Sys.signal Sys.sigterm
          (Sys.Signal_handle
             (fun _ ->
               term_seen := true;
               Robust.Cancel.cancel batch_token))
      in
      (* The records in flight, by index mod [win]: written by the
         producer, read by emit — both on the calling thread, at most
         [win] indices apart. *)
      let inflight = Array.make win { Workload.Specs.recno = 0; raw = ""; payload = Bad "" } in
      let failures = ref 0 in
      (* Set once a replayed entry cannot be trusted: the batch is
         cancelled, and nothing after the fail-stop line is emitted. *)
      let fail_stopped = ref false in
      let summary_state = if summary then Some (Summary.create ()) else None in
      (* --progress heartbeats: ticked on the caller thread after each
         ordered emission, so they cost the workers nothing, write only to
         stderr (stdout byte-identity holds), and need no domains. *)
      let emitted = ref 0 in
      let produced = ref 0 in
      let progress =
        Option.map (fun interval -> Obs.Progress.create ~interval ~window_cap:win ()) progress
      in
      let after_emit idx =
        incr emitted;
        Obs.Trace.flow_end ~id:idx "spec";
        Option.iter
          (fun p ->
            Obs.Progress.tick p ~done_:!emitted ~errors:!failures
              ~occupancy:(!produced - !emitted))
          progress
      in
      let emit_line line =
        match summary_state with
        | Some st -> Summary.add st line
        | None ->
            print_endline line;
            flush stdout
      in
      (* A fresh line is journalled, bound to the spec it answers. *)
      let emit_fresh idx line =
        emit_line line;
        Option.iter
          (fun j ->
            Robust.Journal.Sharded.append j ~index:idx
              ~payload:
                (Robust.Journal.bind
                   ~binding:(Workload.Specs.canonical inflight.(idx mod win))
                   line))
          journal
      in
      (* Fail-stop, as the serve WAL does: a journal that lost an entry, or
         whose entry answers another spec, cannot be replayed
         byte-identically, so the batch stops there with exit 4 instead of
         emitting a line the uninterrupted run would not have. *)
      let fail_stop fmt =
        Printf.ksprintf
          (fun line ->
            fail_stopped := true;
            incr failures;
            emit_line line;
            Robust.Cancel.cancel batch_token)
          fmt
      in
      let emit idx (outcome : batch_result Engine.Batch.outcome) =
        let r = inflight.(idx mod win) in
        match (outcome, journal) with
        | _ when !fail_stopped -> ()
        | Ok Replayed, None -> ()
        | Ok Replayed, Some j -> (
            match Robust.Journal.Sharded.replay j idx with
            | None ->
                fail_stop
                  "%d error journal line %d: checkpoint entry missing on replay (corrupt \
                   journal; re-run without --resume)"
                  idx r.recno
            | Some entry -> (
                match Robust.Journal.unbind ~binding:(Workload.Specs.canonical r) entry with
                | Ok line -> (
                    (* An error line also names its spec's input line,
                       which the canonical text does not fix: a comment
                       added above the spec moves it. *)
                    match String.split_on_char ' ' line with
                    | _ :: "error" :: _ :: "line" :: l :: _
                      when l <> Printf.sprintf "%d:" r.recno ->
                        fail_stop
                          "%d error resume-mismatch line %d: spec %S was journalled at \
                           another line (re-run without --resume)"
                          idx r.recno (Workload.Specs.canonical r)
                    | _ :: "error" :: _ ->
                        incr failures;
                        emit_line line
                    | _ -> emit_line line)
                | Error `Unbound ->
                    fail_stop
                      "%d error journal line %d: checkpoint entry carries no spec (corrupt \
                       journal; re-run without --resume)"
                      idx r.recno
                | Error `Mismatch ->
                    fail_stop
                      "%d error resume-mismatch line %d: spec %S differs from the journalled \
                       one (re-run without --resume)"
                      idx r.recno (Workload.Specs.canonical r)))
        | Ok (Solved { label; n; m; makespan; lb; blocks; csv }), _ ->
            (match (out_dir, csv) with
            | Some dir, Some csv ->
                Out_channel.with_open_text
                  (Printf.sprintf "%s/batch-%04d.csv" dir idx)
                  (fun oc -> Out_channel.output_string oc csv)
            | _ -> ());
            emit_fresh idx
              (Printf.sprintf "%d ok %s n=%d m=%d makespan=%d lb=%d ratio=%.4f blocks=%d"
                 idx label n m makespan lb
                 (Sos.Bounds.ratio ~lb ~makespan)
                 blocks)
        | Error { failure = Robust.Failure.Cancelled; _ }, _ ->
            (* Interrupted, not failed: no line, no journal entry —
               --resume re-runs it. *)
            ()
        | Error (e : Engine.Batch.error), _ ->
            incr failures;
            let message = String.map (function '\n' | '\r' -> ' ' | c -> c) e.message in
            emit_fresh idx
              (Printf.sprintf "%d error %s line %d: %s" idx
                 (Robust.Failure.class_name e.failure) r.recno message);
            if verbose_errors then begin
              Printf.eprintf "batch: task %d (line %d) failed after %d attempt%s: %s\n" idx
                r.recno e.attempts
                (if e.attempts = 1 then "" else "s")
                (Robust.Failure.to_string e.failure);
              if e.backtrace <> "" then prerr_string e.backtrace;
              flush stderr
            end
      in
      let producer i =
        if Robust.Cancel.cancelled batch_token then None
        else
          match Workload.Specs.read src with
          | None -> None
          | Some r ->
              incr produced;
              inflight.(i mod win) <- r;
              Obs.Trace.flow_start ~id:i "spec";
              let skip =
                match journal with Some j -> Robust.Journal.Sharded.mem j i | None -> false
              in
              Some (fun () -> if skip then Replayed else solve i r)
      in
      Fun.protect
        ~finally:(fun () -> Workload.Specs.close src)
        (fun () ->
          Obs.Trace.with_span ~cat:"cli" "batch"
            ~args:[ ("domains", Obs.Trace.I jobs); ("window", Obs.Trace.I win) ]
            (fun () ->
              Engine.Pool.with_pool ~domains:jobs (fun pool ->
                  ignore
                    (Engine.Batch.stream_seq pool ~chunk ~window:win ~retries:ft.retries
                       ?task_timeout ?backoff ~cancel:batch_token producer
                       ~f:(fun idx outcome ->
                         emit idx outcome;
                         after_emit idx)))));
      Option.iter Robust.Journal.Sharded.close journal;
      Sys.set_signal Sys.sigint prev_sigint;
      Sys.set_signal Sys.sigterm prev_sigterm;
      Robust.Chaos.disarm ();
      (match summary_state with Some st -> Summary.render st | None -> ());
      Option.iter (fun p -> Obs.Progress.finish p ~done_:!emitted ~errors:!failures) progress;
      if !fail_stopped then 4
      else if Robust.Cancel.cancelled batch_token then if !term_seen then 143 else 130
      else if !failures > 0 then 1
      else 0
    with Usage msg ->
      prerr_endline ("sosctl batch: " ^ msg);
      2
  in
  let file =
    Arg.(
      value & pos 0 string "-"
      & info [] ~docv:"SPECS"
          ~doc:
            "Instance spec corpus (file or - for stdin): newline-delimited text — \
             each line $(i,FAMILY N M [SCALE]), generated deterministically from \
             (--seed, record index, attempt), or $(i,@PATH), an instance file; \
             blank lines and # comments are skipped — or the compact binary form \
             written by $(b,sosctl export --specs-bin) (autodetected by magic).")
  in
  let jobs =
    Arg.(
      value
      & opt int (Engine.Pool.recommended_domain_count ())
      & info [ "j"; "domains" ]
          ~doc:
            "Worker domains. Output is byte-identical for any value; only wall \
             time changes.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Base PRNG seed for generated specs.") in
  let out_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "out-dir" ]
          ~doc:"Also write each schedule as RLE CSV to $(docv)/batch-NNNN.csv."
          ~docv:"DIR")
  in
  let task_timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "task-timeout" ]
          ~doc:
            "Cooperative per-spec deadline in seconds; an attempt that exceeds it \
             fails with class $(b,deadline) (and is retried if --retries allows)."
          ~docv:"SECS")
  in
  let verbose_errors =
    Arg.(
      value & flag
      & info [ "verbose-errors" ]
          ~doc:
            "For each failed spec, also print the failure class, attempt count, \
             and the backtrace captured at the raise site to stderr (stdout stays \
             byte-identical).")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Accepted for older command lines and ignored: batch always streams its \
             specs through the bounded window (see --window).")
  in
  let summary =
    Arg.(
      value & flag
      & info [ "summary" ]
          ~doc:
            "Suppress per-spec result lines and print an aggregate instead: ratio \
             histogram, per-family counts/means, error-class table. Aggregation \
             streams (O(1) memory) and includes replayed lines, so a resumed run \
             summarizes identically to an uninterrupted one.")
  in
  let chunk =
    Arg.(
      value & opt int 1
      & info [ "chunk" ]
          ~doc:
            "Consecutive specs per queued unit of pool work (default 1). Larger \
             chunks amortize queue synchronization for sub-millisecond specs; \
             output bytes never change."
          ~docv:"C")
  in
  let win_opt =
    Arg.(
      value
      & opt (some int) None
      & info [ "window" ]
          ~doc:
            "Max specs in flight between the corpus reader and ordered emission \
             (default 4 x domains x chunk). Peak RSS grows with $(docv), not with \
             the corpus; output bytes never change."
          ~docv:"W")
  in
  let progress =
    Arg.(
      value
      & opt ~vopt:(Some 2.0) (some float) None
      & info [ "progress" ]
          ~doc:
            "Emit a heartbeat line to stderr every $(docv) seconds (default 2): \
             done count, specs/s, error count, window occupancy, and peak RSS; a \
             final line summarizes the whole run. Driven from the caller-thread \
             pull loop — stdout stays byte-identical."
          ~docv:"SECS")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Solve a stream of instances on the multicore pool (specs stream through \
          a bounded window, so memory does not grow with the corpus; results \
          stream in input order; deterministic at any -j; per-spec failures \
          become structured error lines).")
    Term.(
      const run $ obs_flags $ file $ jobs $ seed $ out_dir $ solver_flag ~default:"window"
      $ fault_tolerance_flags $ task_timeout $ verbose_errors $ stream $ summary $ chunk
      $ win_opt $ progress)

(* ---------------------------------------------------------------- serve *)

(* Unix-socket transport: connections are served one at a time on the
   caller thread — replies across connections share one request-index
   stream and one write-ahead log, so concurrent connections would race
   the journal ordering. accept(2) is where stop signals land as EINTR,
   so the accept step runs under Robust.Supervise: an interrupted accept
   classifies as a transient failure, is retried after a deterministic
   backoff, and every retry re-checks the drain/abort flags first. *)
let serve_socket srv ~pool ~cancel ~should_drain ~should_abort ?backoff path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let stop () = Serve.Server.stopped srv || should_abort () || should_drain () in
      let rec loop () =
        if stop () then ()
        else begin
          let outcome =
            Robust.Supervise.run ~restarts:4 ?backoff (fun () ->
                if stop () then ()
                else begin
                  let conn, _ = Unix.accept sock in
                  Fun.protect
                    ~finally:(fun () ->
                      try Unix.close conn with Unix.Unix_error _ -> ())
                    (fun () ->
                      Serve.Server.serve srv ~pool
                        ~input:(Unix.in_channel_of_descr conn)
                        ~output:(Unix.out_channel_of_descr conn)
                        ~cancel ~should_drain ~should_abort ())
                end)
          in
          (match outcome.Robust.Supervise.result with
          | Ok () -> ()
          | Error f ->
              Printf.eprintf "serve: connection failed: %s\n%!"
                (Robust.Failure.to_string f));
          loop ()
        end
      in
      loop ())

let serve_cmd =
  let run obs jobs seed max_sessions max_jobs max_volume deadline ft socket =
    with_obs obs @@ fun () ->
    try
      if jobs < 1 then raise (Usage "-j must be >= 1");
      if max_sessions < 1 then raise (Usage "--max-sessions must be >= 1");
      if max_jobs < 1 then raise (Usage "--max-jobs must be >= 1");
      if max_volume < 1 then raise (Usage "--max-volume must be >= 1");
      (match deadline with
      | Some d when d <= 0.0 -> raise (Usage "--deadline must be > 0")
      | _ -> ());
      let backoff = arm_fault_tolerance ~seed ft in
      let { retries; checkpoint; resume; shards; sync_every; _ } = ft in
      match
        Serve.Server.create
          { max_sessions; max_jobs; max_volume; deadline; retries; backoff; checkpoint; resume;
            shards; sync_every }
      with
      | Error msg -> raise (Usage ("cannot open checkpoint: " ^ msg))
      | Ok srv ->
          (* First SIGTERM drains (stop admitting, finish in-flight,
             checkpoint, exit 0); a second SIGTERM — or any SIGINT — hard
             cancels: in-flight solves unwind as Cancelled and the loop
             stops at the next request boundary with code 130. *)
          let cancel = Robust.Cancel.create () in
          let terms = ref 0 in
          let ints = ref 0 in
          let prev_sigterm =
            Sys.signal Sys.sigterm
              (Sys.Signal_handle
                 (fun _ ->
                   incr terms;
                   if !terms >= 2 then Robust.Cancel.cancel cancel))
          in
          let prev_sigint =
            Sys.signal Sys.sigint
              (Sys.Signal_handle
                 (fun _ ->
                   incr ints;
                   Robust.Cancel.cancel cancel))
          in
          let should_drain () = !terms >= 1 in
          let should_abort () = !ints >= 1 || !terms >= 2 in
          Engine.Pool.with_pool ~domains:jobs (fun pool ->
              match socket with
              | None ->
                  Serve.Server.serve srv ~pool ~input:stdin ~output:stdout ~cancel
                    ~should_drain ~should_abort ()
              | Some path ->
                  serve_socket srv ~pool ~cancel ~should_drain ~should_abort ?backoff
                    path);
          Sys.set_signal Sys.sigterm prev_sigterm;
          Sys.set_signal Sys.sigint prev_sigint;
          Robust.Chaos.disarm ();
          let s = Serve.Server.finish srv in
          let rss =
            match Obs.Progress.status_kb "VmHWM" with
            | Some kb -> string_of_int kb
            | None -> "-"
          in
          Printf.eprintf
            "serve: requests=%d replayed=%d overloads=%d stale=%d errors=%d \
             sessions=%d peak-rss-kb=%s\n\
             %!"
            s.Serve.Server.requests s.replayed s.overloads s.stale s.errors s.sessions
            rss;
          s.exit_code
    with Usage msg ->
      prerr_endline ("sosctl serve: " ^ msg);
      2
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "domains" ]
          ~doc:
            "Worker domains for placement queries. Reply bytes are identical at \
             any value; only latency changes.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~doc:"Base PRNG seed for deterministic retry-backoff jitter.")
  in
  let max_sessions =
    Arg.(
      value & opt int 64
      & info [ "max-sessions" ]
          ~doc:
            "Session-table bound: an $(b,open) past it is refused with an \
             $(b,overload) reply instead of growing memory."
          ~docv:"N")
  in
  let max_jobs =
    Arg.(
      value & opt int 10_000
      & info [ "max-jobs" ]
          ~doc:"Per-session job budget; a $(b,submit) past it is shed as $(b,overload)."
          ~docv:"N")
  in
  let max_volume =
    Arg.(
      value & opt int 1_000_000
      & info [ "max-volume" ]
          ~doc:
            "Per-session volume budget (sum of job sizes); a $(b,submit) that \
             would exceed it is shed as $(b,overload)."
          ~docv:"V")
  in
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ]
          ~doc:
            "Default per-query deadline in seconds (a request-level \
             $(b,deadline=) overrides it). A query that exceeds its deadline \
             degrades to the tenant's last good schedule, marked $(b,stale) — \
             or an $(b,error deadline) reply when none exists yet."
          ~docv:"SECS")
  in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ]
          ~doc:
            "Listen on a unix domain socket at $(docv) instead of stdin/stdout; \
             connections are served sequentially, sharing one request-index \
             stream and one WAL."
          ~docv:"PATH")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduling service: a line protocol of per-tenant sessions \
          (open/submit/query/close) with admission control and overload \
          shedding, per-query deadlines degrading to last-good schedules, a \
          write-ahead log for crash-safe --resume, and graceful drain on \
          SIGTERM (see doc/SERVE.md).")
    Term.(
      const run $ obs_flags $ jobs $ seed $ max_sessions $ max_jobs $ max_volume
      $ deadline $ fault_tolerance_flags $ socket)

(* ------------------------------------------------------------- hardness *)

let hardness_cmd =
  let run numbers =
    int_list "NUMBERS" numbers @@ fun numbers ->
    checked
      (Result.map_error
         (( ^ ) "not a 3-Partition instance: ")
         (Exact.Three_partition.create_checked numbers))
    @@ fun tp ->
    let yes = Exact.Three_partition.solvable tp in
    let q = Exact.Three_partition.yes_gap tp in
    Printf.printf "3-partition  : %s\n" (if yes then "YES" else "NO");
    Printf.printf "q (threshold): %d\n" q;
    (match
       Exact.Binpack_exact.optimum ~node_limit:5_000_000
         (Exact.Three_partition.to_binpack tp)
     with
    | Some opt ->
        Printf.printf "packing OPT  : %d\n" opt;
        Printf.printf "gap holds    : %b\n" (if yes then opt = q else opt > q)
    | None -> Printf.printf "packing OPT  : (search limit exceeded)\n");
    let sched = Sos.Splittable.run (Exact.Three_partition.to_sos tp) in
    Printf.printf "window steps : %d\n" sched.Sos.Schedule.makespan;
    0
  in
  let numbers =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"NUMBERS" ~doc:"Comma-separated 3-Partition numbers (3q of them).")
  in
  Cmd.v
    (Cmd.info "hardness" ~doc:"Run the Theorem 2.1 reduction on a 3-Partition instance.")
    Term.(const run $ numbers)

(* --------------------------------------------------------------- corpus *)

let corpus_cmd =
  let run name =
    match name with
    | None ->
        List.iter
          (fun e ->
            Printf.printf "%-18s n=%-4d m=%-2d  %s\n" e.Workload.Corpus.name
              (Sos.Instance.n e.Workload.Corpus.instance)
              e.Workload.Corpus.instance.Sos.Instance.m e.Workload.Corpus.note)
          Workload.Corpus.all;
        0
    | Some name -> begin
        match Workload.Corpus.find name with
        | None -> malformed "unknown corpus entry %S" name
        | Some e ->
            let inst = e.Workload.Corpus.instance in
            Printf.printf "%s: %s\n\n" e.Workload.Corpus.name e.Workload.Corpus.note;
            let lb = Sos.Bounds.lower_bound inst in
            Printf.printf "  %-22s %d\n" "lower bound" lb;
            (match e.Workload.Corpus.exact_opt with
            | Some opt -> Printf.printf "  %-22s %d\n" "exact optimum" opt
            | None -> ());
            (* Every solver whose precondition the entry meets. *)
            List.iter
              (fun (s : Solvers.t) ->
                if Result.is_ok (Solvers.check s inst) then
                  Printf.printf "  %-22s %d\n" s.name (s.run inst).Sos.Schedule.Columns.makespan)
              Solvers.all;
            0
      end
  in
  let entry_name =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Entry to run.")
  in
  Cmd.v
    (Cmd.info "corpus" ~doc:"List or run the fixed regression corpus.")
    Term.(const run $ entry_name)

(* ------------------------------------------------------------- obs-diff *)

(* Snapshot comparator: parse two Obs.Metrics snapshots (text, JSON, or
   OpenMetrics — Obs.Snapshot autodetects), join them on the flat key
   space, and report added/removed/changed scalars. With
   --max-regression-pct it becomes a CI gate: exit 1 when any compared
   metric moved by more than P percent (P = 0 demands exact equality —
   the right setting for deterministic-class counters over a fixed
   corpus). *)
let obs_diff_cmd =
  let run a_path b_path max_reg only cls =
    try
      let load path =
        match Obs.Snapshot.load path with
        | exception Sys_error msg -> raise (Usage msg)
        | entries -> entries
      in
      let has_prefix p s =
        String.length s >= String.length p && String.sub s 0 (String.length p) = p
      in
      let wanted (e : Obs.Snapshot.entry) =
        (match only with None -> true | Some p -> has_prefix p e.key)
        && match cls with None -> true | Some c -> e.cls = Some c
      in
      let to_map path =
        let m =
          load path |> List.filter wanted
          |> List.map (fun (e : Obs.Snapshot.entry) -> (e.key, e.v))
          |> List.sort_uniq compare
        in
        if m = [] then
          raise
            (Usage
               (path
              ^ ": no metrics matched (wrong format? --class on a text snapshot, which \
                 records no class?)"));
        m
      in
      let a = to_map a_path and b = to_map b_path in
      let compared = ref 0
      and changed = ref 0
      and added = ref 0
      and removed = ref 0
      and worst = ref 0.0 in
      let pct va vb =
        if va = vb then 0.0
        else if va = 0.0 then infinity
        else abs_float ((vb -. va) /. va) *. 100.0
      in
      let rec go xs ys =
        match (xs, ys) with
        | [], [] -> ()
        | (k, v) :: tx, [] ->
            incr removed;
            Printf.printf "  - %-44s %.6g\n" k v;
            go tx []
        | [], (k, v) :: ty ->
            incr added;
            Printf.printf "  + %-44s %.6g\n" k v;
            go [] ty
        | ((ka, va) :: tx as xs'), ((kb, vb) :: ty as ys') ->
            if ka < kb then begin
              incr removed;
              Printf.printf "  - %-44s %.6g\n" ka va;
              go tx ys'
            end
            else if kb < ka then begin
              incr added;
              Printf.printf "  + %-44s %.6g\n" kb vb;
              go xs' ty
            end
            else begin
              incr compared;
              let p = pct va vb in
              if p > 0.0 then begin
                incr changed;
                if p > !worst then worst := p;
                Printf.printf "  ~ %-44s %.6g -> %.6g  (%.2f%%)\n" ka va vb p
              end;
              go tx ty
            end
      in
      go a b;
      Printf.printf "obs-diff: %d compared, %d changed, %d added, %d removed" !compared
        !changed !added !removed;
      if !changed > 0 then Printf.printf "; worst %.2f%%" !worst;
      print_newline ();
      match max_reg with
      | Some limit when !worst > limit ->
          Printf.eprintf "obs-diff: regression %.2f%% exceeds --max-regression-pct %g\n"
            !worst limit;
          1
      | Some _ | None -> 0
    with Usage msg ->
      prerr_endline ("sosctl obs-diff: " ^ msg);
      2
  in
  let a_path =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"A" ~doc:"Baseline snapshot (text, JSON, or OpenMetrics).")
  in
  let b_path =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"B" ~doc:"Candidate snapshot to compare against $(i,A).")
  in
  let max_reg =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-regression-pct" ]
          ~doc:
            "Exit 1 if any compared metric differs from $(i,A) by more than $(docv) \
             percent (0 demands exact equality). Without this flag the diff is \
             informational and always exits 0."
          ~docv:"P")
  in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ]
          ~doc:"Restrict the comparison to metrics whose key starts with $(docv)."
          ~docv:"PREFIX")
  in
  let cls =
    Arg.(
      value
      & opt (some (enum [ ("det", "det"); ("runtime", "runtime") ])) None
      & info [ "class" ]
          ~doc:
            "Restrict to one determinism class (JSON and OpenMetrics snapshots record \
             it; plain-text snapshots do not). $(b,det) with \
             --max-regression-pct 0 is the deterministic trajectory gate."
          ~docv:"CLASS")
  in
  Cmd.v
    (Cmd.info "obs-diff"
       ~doc:
         "Compare two telemetry snapshots (text/JSON/OpenMetrics) and optionally \
          fail on regressions — the CI replacement for ad-hoc greps over \
          BENCH_metrics.json.")
    Term.(const run $ a_path $ b_path $ max_reg $ only $ cls)

let () =
  let doc = "Multiprocessor scheduling with a sharable resource (SPAA 2017)" in
  let info = Cmd.info "sosctl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            gen_cmd; solve_cmd; analyze_cmd; ratio_cmd; binpack_cmd; sas_cmd;
            export_cmd; corpus_cmd; hardness_cmd; batch_cmd; serve_cmd; obs_diff_cmd;
          ]))
