(* GATE — the reproducible perf gate: fast solver + RLE-native analytics on
   fixed-seed instances, written to BENCH_fast.json so every future PR has
   a wall-clock trajectory to regress against. The instances are exactly
   the T7a shapes (n = 100..1600, m = 16, p_max = 20) plus two T7b
   volume-scaling shapes, including the huge-volume one (p_max = 10^7)
   whose analytics would take minutes if anything expanded the RLE.

   t7c is the batch-throughput section: a fixed 512-instance corpus solved
   on the Engine pool at domains ∈ {1, 2, 4, max}, recording wall time and
   speedup (and asserting the results are identical at every domain count —
   the engine's determinism contract, checked on every gate run).

   Run: `dune exec bench/main.exe -- gate` (a few seconds). CI uploads the
   JSON as an artifact; EXPERIMENTS.md explains how to read/refresh it. *)

module Table = Prelude.Table
module Clock = Prelude.Clock
open Exp_common

(* (name, n, m, pmax, seed) — seeds match Exp_perf's T7a/T7b rows so the
   gate numbers are directly comparable with the Bechamel tables. *)
let shapes =
  [
    ("t7a-n100", 100, 16, 20, 3 * 100);
    ("t7a-n200", 200, 16, 20, 3 * 200);
    ("t7a-n400", 400, 16, 20, 3 * 400);
    ("t7a-n800", 800, 16, 20, 3 * 800);
    ("t7a-n1600", 1600, 16, 20, 3 * 1600);
    ("t7b-n50-p1e7", 50, 8, 10_000_000, 7 * 50 * 10_000_000);
    ("t7b-n3200-p1e5", 3200, 8, 100_000, 7 * 3200 * 100_000);
  ]

let reps = 3

(* The full downstream pipeline on the solver output: everything here must
   stay proportional to |steps|, not makespan. *)
let analytics cols =
  (match Sos.Schedule.Columns.validate cols with
  | Ok () -> ()
  | Error v -> failwith ("gate: invalid schedule: " ^ v.Sos.Schedule.reason));
  ignore (Sos.Schedule.completion_times cols);
  ignore (Sos.Schedule.utilization cols);
  ignore (Sos.Schedule.assigned_utilization cols);
  ignore (Sos.Schedule.jobs_per_step cols);
  ignore (Sos.Schedule.total_waste cols);
  ignore (Sos.Schedule.processor_assignment cols);
  ignore (Sos.Schedule.render_gantt ~max_width:100 cols);
  ignore (Sos.Export.utilization_to_csv cols)

type row = {
  name : string;
  n : int;
  m : int;
  pmax : int;
  wall_s : float;
  iters : int;
  steps : int;
  makespan : int;
  analytics_s : float;
}

(* Existing field names are stable for trajectory comparison across PRs;
   [domains]/[best_of] make each row self-describing across machines (the
   single-instance rows are always solved on 1 domain, best-of-[reps]). *)
let json_of_row r =
  Printf.sprintf
    "  {\"name\": %S, \"n\": %d, \"m\": %d, \"pmax\": %d, \"wall_s\": %.6f, \
     \"iters\": %d, \"steps\": %d, \"makespan\": %d, \"analytics_s\": %.6f, \
     \"domains\": 1, \"best_of\": %d}"
    r.name r.n r.m r.pmax r.wall_s r.iters r.steps r.makespan r.analytics_s reps

type t7c_row = { domains : int; wall_s : float; speedup : float }

let t7c_instances = 512

(* [cores_available] makes the t7c speedups interpretable across machines:
   Domain.recommended_domain_count (via Engine.Pool.recommended_domain_count). *)
let json_of_t7c (r : t7c_row) =
  Printf.sprintf
    "  {\"name\": \"t7c-d%d\", \"section\": \"t7c\", \"domains\": %d, \
     \"cores_available\": %d, \"best_of\": %d, \"instances\": %d, \
     \"wall_s\": %.6f, \"speedup\": %.3f}"
    r.domains r.domains
    (Engine.Pool.recommended_domain_count ())
    reps t7c_instances r.wall_s r.speedup

let write_json path lines =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc "[\n";
      Out_channel.output_string oc (String.concat ",\n" lines);
      Out_channel.output_string oc "\n]\n")

(* --------------------------------------------------------- t7c corpus *)

(* A fixed mixed corpus: family and size rotate with the task index, and
   each instance's RNG is seeded by (base, index) — the engine's
   determinism discipline, so the corpus is independent of who solves it. *)
let t7c_corpus () =
  let families = Array.of_list Workload.Sos_gen.all_families in
  Array.init t7c_instances (fun i ->
      let rng = Prelude.Rng.create2 (base_seed + 0x7C3) i in
      let family = families.(i mod Array.length families) in
      let n = 100 + (50 * (i mod 5)) in
      Exp_common.checked (Workload.Sos_gen.generate rng family ~n ~m:16 ()))

(* Makespan fingerprint of a whole batch: order-sensitive, so it also
   catches result-reordering bugs, not just wrong makespans. *)
let fingerprint outcomes =
  Array.fold_left
    (fun acc r ->
      match r with
      | Ok mk -> ((acc * 31) + mk) land max_int
      | Error (e : Engine.Batch.error) -> failwith ("t7c solve failed: " ^ e.message))
    17 outcomes

let t7c () =
  let corpus = t7c_corpus () in
  let tasks =
    Array.map (fun inst () -> (fst (Sos.Fast.run_columns inst)).Sos.Schedule.Columns.makespan) corpus
  in
  let solve_all d = fingerprint (Engine.Batch.map ~domains:d ~chunk:4 tasks) in
  let dmax = Engine.Pool.recommended_domain_count () in
  let ds = List.sort_uniq compare [ 1; 2; 4; dmax ] in
  let measured =
    List.map (fun d -> (d, Clock.best_of ~k:reps (fun () -> solve_all d))) ds
  in
  let fp1 =
    match measured with (_, (fp, _)) :: _ -> fp | [] -> assert false
  in
  List.iter
    (fun (d, (fp, _)) ->
      if fp <> fp1 then
        failwith
          (Printf.sprintf
             "t7c: batch results at %d domains differ from 1 domain (determinism \
              violation)" d))
    measured;
  let base_wall = match measured with (_, (_, w)) :: _ -> w | [] -> assert false in
  List.map
    (fun (d, (_, wall_s)) -> { domains = d; wall_s; speedup = base_wall /. wall_s })
    measured

(* ------------------------------------------------------------ t7d *)

(* Streaming-batch throughput: a binary spec corpus streamed off disk
   through Workload.Specs -> Engine.Batch.stream_seq under the bounded
   window — the same constant-memory pipeline as `sosctl batch`, whose
   only feed it is (the gate re-implements it in-process; sosbench's
   batch-stream workload runs the real binary).
   Rows record specs/s and peak RSS for 1e5 and 1e6 specs: the two RSS
   numbers being (nearly) equal at a 10x corpus-size gap is the
   constant-memory acceptance check, preserved in BENCH_fast.json. The
   chunk size is autotuned per machine (best of {64, 256, 1024} on a 32k
   warm-up slice) because the sync-cost/batching tradeoff moves with core
   count and allocator behaviour. *)

type t7d_row = {
  t7d_name : string;
  t7d_specs : int;
  t7d_chunk : int;
  t7d_domains : int;
  t7d_wall_s : float;
  specs_per_s : float;
  peak_rss_kb : int;
  rss_before_kb : int;
}

let json_of_t7d r =
  Printf.sprintf
    "  {\"name\": %S, \"section\": \"t7d\", \"specs\": %d, \"chunk\": %d, \
     \"domains\": %d, \"cores_available\": %d, \"best_of\": 1, \"wall_s\": %.6f, \
     \"specs_per_s\": %.0f, \"peak_rss_kb\": %d, \"rss_before_kb\": %d}"
    r.t7d_name r.t7d_specs r.t7d_chunk r.t7d_domains
    (Engine.Pool.recommended_domain_count ())
    r.t7d_wall_s r.specs_per_s r.peak_rss_kb r.rss_before_kb

(* Writing "5" resets the peak-RSS watermark so VmHWM measures this
   section, not whatever t7a..t7c peaked at earlier; best effort (some
   kernels refuse), which is why rows also record rss_before_kb. *)
let reset_peak_rss () =
  match
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        Out_channel.output_string oc "5")
  with
  | () -> ()
  | exception Sys_error _ -> ()

let t7d_family = Workload.Sos_gen.uniform_small

let t7d_write_corpus path count =
  Out_channel.with_open_bin path (fun oc ->
      let w = Workload.Specs.Writer.create oc in
      for _ = 1 to count do
        match
          Workload.Specs.Writer.add w ~family:t7d_family.Workload.Sos_gen.name ~n:4 ~m:4 ()
        with
        | Ok () -> ()
        | Error msg -> failwith ("t7d: " ^ msg)
      done)

(* One streaming pass: pull records off the reader, solve each exactly as
   `sosctl batch` does — randomness from (seed, index, attempt 0) — and
   fold the makespans into the order-sensitive fingerprint on ordered
   emission. Returns (count, fingerprint). *)
let t7d_run path ~domains ~chunk =
  let src =
    match Workload.Specs.open_path path with
    | Ok s -> s
    | Error msg -> failwith ("t7d: " ^ msg)
  in
  Fun.protect
    ~finally:(fun () -> Workload.Specs.close src)
    (fun () ->
      let fp = ref 17 in
      let count =
        Engine.Pool.with_pool ~domains (fun pool ->
            Engine.Batch.stream_seq pool ~chunk
              (fun i ->
                match Workload.Specs.read src with
                | None -> None
                | Some r ->
                    Some
                      (fun () ->
                        match r.Workload.Specs.payload with
                        | Workload.Specs.Gen { n; m; _ } ->
                            let rng = Prelude.Rng.create3 (base_seed + 0x7D4) i 0 in
                            let inst =
                              Workload.Sos_gen.generate rng t7d_family ~n ~m ()
                            in
                            (fst (Sos.Fast.run_columns inst)).Sos.Schedule.Columns.makespan
                        | _ -> failwith "t7d: unexpected record"))
              ~f:(fun _ -> function
                | Ok mk -> fp := ((!fp * 31) + mk) land max_int
                | Error (e : Engine.Batch.error) ->
                    failwith ("t7d solve failed: " ^ e.message)))
      in
      (count, !fp))

let t7d_warmup_specs = 32_768
let t7d_chunk_candidates = [ 64; 256; 1024 ]

let t7d () =
  let dmax = Engine.Pool.recommended_domain_count () in
  let tmp = Filename.temp_file "sos-t7d" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      t7d_write_corpus tmp t7d_warmup_specs;
      let tune =
        List.map
          (fun c ->
            let _, w = Clock.best_of ~k:1 (fun () -> t7d_run tmp ~domains:dmax ~chunk:c) in
            (c, w))
          t7d_chunk_candidates
      in
      let chunk, _ =
        List.fold_left
          (fun (bc, bw) (c, w) -> if w < bw then (c, w) else (bc, bw))
          (match tune with x :: _ -> x | [] -> assert false)
          tune
      in
      let fp_1e5 = ref 0 in
      let rows =
        List.map
          (fun (name, count) ->
            t7d_write_corpus tmp count;
            let rss_before = Option.value (Obs.Progress.status_kb "VmRSS") ~default:0 in
            reset_peak_rss ();
            let (got, fp), wall_s =
              Clock.best_of ~k:1 (fun () -> t7d_run tmp ~domains:dmax ~chunk)
            in
            if got <> count then
              failwith (Printf.sprintf "t7d: streamed %d of %d specs" got count);
            if count = 100_000 then fp_1e5 := fp;
            {
              t7d_name = name;
              t7d_specs = count;
              t7d_chunk = chunk;
              t7d_domains = dmax;
              t7d_wall_s = wall_s;
              specs_per_s = float_of_int count /. wall_s;
              peak_rss_kb = Option.value (Obs.Progress.status_kb "VmHWM") ~default:0;
              rss_before_kb = rss_before;
            })
          [ ("t7d-stream-1e5", 100_000); ("t7d-stream-1e6", 1_000_000) ]
      in
      (* Determinism cross-check on the streamed path: the 1e5 corpus at 1
         domain must fingerprint identically to the dmax run above. *)
      t7d_write_corpus tmp 100_000;
      let (_, fp1), _ = Clock.best_of ~k:1 (fun () -> t7d_run tmp ~domains:1 ~chunk) in
      if fp1 <> !fp_1e5 then
        failwith
          "t7d: streamed batch results at 1 domain differ from the parallel run \
           (determinism violation)";
      (chunk, tune, rows))

(* ------------------------------------------------------------- obs row *)

(* Telemetry overhead gate (doc/OBSERVABILITY.md). Two measurements on the
   t7a-n200 solver row:

   - [vs_prev_pct] — the disabled-sink check: this build (instrumentation
     compiled in, sinks off, the default) against the wall_s recorded in
     the previous BENCH_fast.json. If GATE_MAX_REGRESSION_PCT is set (CI
     sets 2 on the 5.1 leg) the gate fails when the regression exceeds it.
     Cross-run wall clock is noisy; best-of-[reps] minima keep this stable
     on an otherwise idle machine.
   - [counters_overhead_pct] — same shape with counters recording, an
     upper bound on what --metrics costs. Both sides of this comparison
     are measured back-to-back here, after explicit warm-up runs and with
     a higher best-of than the trajectory rows: comparing against the
     trajectory row's wall_s (measured much earlier in the gate run, on a
     colder process) once produced a nonsense −38% "overhead".

   The snapshot section re-solves the 512-instance t7c corpus with
   counters on at 1 and 2 domains, asserts the deterministic snapshot is
   byte-identical (the tentpole's core promise), and writes it to
   BENCH_metrics.json (a CI artifact). *)

let obs_shape_name = "t7a-n200"

(* Previous value of [field] for row [name] in the committed
   BENCH_fast.json: each row is one line, so a line-based scan is enough —
   no JSON parser needed. *)
let prev_field path name field =
  if not (Sys.file_exists path) then None
  else begin
    let contents = In_channel.with_open_text path In_channel.input_all in
    let needle = Printf.sprintf "\"name\": %S" name in
    let field = Printf.sprintf "\"%s\": " field in
    String.split_on_char '\n' contents
    |> List.find_map (fun line ->
           let contains s =
             let n = String.length s and l = String.length line in
             let rec go i = i + n <= l && (String.sub line i n = s || go (i + 1)) in
             go 0
           in
           let index_after s =
             let n = String.length s and l = String.length line in
             let rec go i = if i + n > l then None
               else if String.sub line i n = s then Some (i + n) else go (i + 1)
             in
             go 0
           in
           if not (contains needle) then None
           else
             match index_after field with
             | None -> None
             | Some start ->
                 let stop = ref start in
                 while !stop < String.length line && line.[!stop] <> ',' && line.[!stop] <> '}' do
                   incr stop
                 done;
                 float_of_string_opt (String.sub line start (!stop - start)))
  end

let prev_wall path name = prev_field path name "wall_s"

type obs_row = {
  wall_disabled_s : float;
  wall_counters_s : float;
  counters_overhead_pct : float;
  vs_prev_pct : float option;
}

(* Best-of for the two overhead measurements: overheads of a few percent
   need tighter minima than the trajectory rows' wall clocks. *)
let obs_reps = 3 * reps
let obs_warmup = 3

let json_of_obs r =
  Printf.sprintf
    "  {\"name\": \"obs-%s\", \"section\": \"obs\", \"best_of\": %d, \
     \"wall_disabled_s\": %.6f, \"wall_counters_s\": %.6f, \
     \"counters_overhead_pct\": %.2f, \"vs_prev_pct\": %s}"
    obs_shape_name obs_reps r.wall_disabled_s r.wall_counters_s
    r.counters_overhead_pct
    (match r.vs_prev_pct with Some p -> Printf.sprintf "%.2f" p | None -> "null")

let obs_overhead rows =
  let row = List.find (fun r -> r.name = obs_shape_name) rows in
  let prev = prev_wall "BENCH_fast.json" obs_shape_name in
  let inst = Exp_perf.make_instance ~n:row.n ~m:row.m ~pmax:row.pmax (3 * row.n) in
  (* Warm up code paths and allocator state before either measurement. *)
  for _ = 1 to obs_warmup do ignore (Sos.Fast.run_columns inst) done;
  let _, wall_disabled_s =
    Clock.best_of ~k:obs_reps (fun () -> Sos.Fast.run_columns inst)
  in
  Obs.Metrics.enable ();
  Obs.Metrics.reset ();
  let _, wall_counters_s =
    Clock.best_of ~k:obs_reps (fun () -> Sos.Fast.run_columns inst)
  in
  Obs.Metrics.disable ();
  let pct a b = (a -. b) /. b *. 100.0 in
  {
    wall_disabled_s;
    wall_counters_s;
    counters_overhead_pct = pct wall_counters_s wall_disabled_s;
    vs_prev_pct = Option.map (pct row.wall_s) prev;
  }

let check_regression r =
  match (Sys.getenv_opt "GATE_MAX_REGRESSION_PCT", r.vs_prev_pct) with
  | Some threshold, Some pct ->
      let threshold = float_of_string threshold in
      if pct > threshold then
        failwith
          (Printf.sprintf
             "gate: disabled-sink solver wall time on %s regressed %.2f%% vs the \
              previous BENCH_fast.json (threshold %.2f%%)"
             obs_shape_name pct threshold)
  | _ -> ()

let metrics_snapshot_path = "BENCH_metrics.json"

(* Handles onto the library-registered distribution histograms: the
   registry dedupes by name, so these resolve to the instruments the
   solver and bound modules observe into. Solve latency is runtime-class
   (quoted in the gate notes only); the ratio histogram is deterministic
   and therefore part of the byte-identity assertion below. *)
let h_solve = Obs.Metrics.runtime_hist "sos.fast.solve_s"

let h_ratio =
  Obs.Metrics.hist
    ~bounds:(Obs.Metrics.linear_bounds ~lo:1.0 ~hi:3.0 ~step:0.05)
    "sos.bounds.ratio"

let obs_snapshot () =
  let corpus = t7c_corpus () in
  (* Each task also rates its makespan against the Equation-(1) lower
     bound, so BENCH_metrics.json carries the approximation-ratio
     distribution of the whole corpus next to the Theorem 3.3 guarantee. *)
  let tasks =
    Array.map
      (fun inst () ->
        let makespan = (fst (Sos.Fast.run_columns inst)).Sos.Schedule.Columns.makespan in
        ignore (Sos.Bounds.theorem_3_3_bound inst ~makespan);
        makespan)
      corpus
  in
  Obs.Metrics.enable ();
  let snap d =
    Obs.Metrics.reset ();
    ignore (Engine.Batch.map ~domains:d ~chunk:4 tasks);
    Obs.Metrics.snapshot ~cls:`Deterministic ()
  in
  let s1 = snap 1 in
  let s2 = snap 2 in
  if s1 <> s2 then
    failwith "gate: deterministic counter snapshot differs between -j 1 and -j 2";
  (* The last (-j 2) run's full snapshot, runtime metrics included, is the
     artifact; its deterministic section equals the -j 1 one just checked. *)
  let json = Obs.Metrics.snapshot_json ~cls:`All () in
  Obs.Metrics.disable ();
  Out_channel.with_open_text metrics_snapshot_path (fun oc ->
      Out_channel.output_string oc json);
  note
    "corpus solve latency: p50 %.1f us, p99 %.1f us, max %.1f us (%d solves, \
     runtime class)"
    (Obs.Metrics.hist_quantile h_solve 0.50 *. 1e6)
    (Obs.Metrics.hist_quantile h_solve 0.99 *. 1e6)
    (Obs.Metrics.hist_max h_solve *. 1e6)
    (Obs.Metrics.hist_count h_solve);
  note
    "corpus makespan/lower-bound ratio: p50 %.3f, p99 %.3f, max %.3f over %d \
     instances (deterministic; Theorem 3.3 guarantees <= 2 + 1/(m-2))"
    (Obs.Metrics.hist_quantile h_ratio 0.50)
    (Obs.Metrics.hist_quantile h_ratio 0.99)
    (Obs.Metrics.hist_max h_ratio)
    (Obs.Metrics.hist_count h_ratio);
  s1

(* ------------------------------------------------------------- --check *)

(* `gate --check` (set from bench/main.ml): after measuring the solver
   rows, compare each t7a/t7b wall_s against the committed BENCH_fast.json
   and exit 1 on any regression beyond GATE_MAX_REGRESSION_PCT (default
   10%% when the variable is unset). Regressions under [check_slack_s]
   absolute are never failures: the sub-100µs rows flap by tens of percent
   run-to-run from scheduling noise alone, and the percentage threshold
   only means something once the delta clears the noise floor. CI runs
   the gate in this mode on the 5.1 leg so a hot-loop regression fails
   the build, not just the artifact trajectory. *)
let check_mode = ref false
let check_slack_s = 50e-6

let gate_threshold () =
  match Sys.getenv_opt "GATE_MAX_REGRESSION_PCT" with
  | Some v -> (
      match float_of_string_opt v with
      | Some t -> t
      | None ->
          Printf.eprintf "gate --check: bad GATE_MAX_REGRESSION_PCT %S\n" v;
          exit 2)
  | None -> 10.0

let check_rows rows =
  let threshold = gate_threshold () in
  let failures =
    List.filter_map
      (fun r ->
        match prev_wall "BENCH_fast.json" r.name with
        | None -> None
        | Some prev ->
            let pct = (r.wall_s -. prev) /. prev *. 100.0 in
            if pct > threshold && r.wall_s -. prev > check_slack_s then
              Some (r.name, prev, r.wall_s, pct)
            else None)
      rows
  in
  match failures with
  | [] ->
      note
        "--check: no solver row regressed more than %.2f%% vs the committed \
         BENCH_fast.json"
        threshold
  | fs ->
      List.iter
        (fun (name, prev, now, pct) ->
          Printf.eprintf
            "gate --check: %s wall_s regressed %+.2f%% (%.6f s -> %.6f s, \
             threshold %.2f%%)\n"
            name pct prev now threshold)
        fs;
      exit 1

(* Streaming-throughput regression check on the t7d rows. Throughput is
   far noisier than the microsecond solver rows (disk cache state, CI
   neighbours — ~20%% swings between back-to-back local runs), so the
   threshold is relaxed to a 40%% floor: it catches the gross failures
   this section exists for (a 2x slowdown, memory thrash) without
   flapping on load noise. A missing committed row (first run on a
   machine) is never a failure. *)
let check_t7d rows =
  let threshold = Float.max 40.0 (3.0 *. gate_threshold ()) in
  let failures =
    List.filter_map
      (fun r ->
        match prev_field "BENCH_fast.json" r.t7d_name "specs_per_s" with
        | None -> None
        | Some prev ->
            let pct = (prev -. r.specs_per_s) /. prev *. 100.0 in
            if pct > threshold then Some (r.t7d_name, prev, r.specs_per_s, pct)
            else None)
      rows
  in
  match failures with
  | [] ->
      note
        "--check: no streaming row lost more than %.0f%% specs/s vs the committed \
         BENCH_fast.json"
        threshold
  | fs ->
      List.iter
        (fun (name, prev, now, pct) ->
          Printf.eprintf
            "gate --check: %s specs_per_s regressed %.2f%% (%.0f -> %.0f, threshold \
             %.0f%%)\n"
            name pct prev now threshold)
        fs;
      exit 1

(* ---------------------------------------------------------------- gate *)

let gate () =
  section "GATE — fast solver + RLE analytics perf gate (fixed seeds)";
  let rows =
    List.map
      (fun (name, n, m, pmax, seed) ->
        let inst = Exp_perf.make_instance ~n ~m ~pmax seed in
        let (cols, iters), wall_s =
          Clock.best_of ~k:reps (fun () -> Sos.Fast.run_columns inst)
        in
        let (), analytics_s = Clock.best_of ~k:reps (fun () -> analytics cols) in
        {
          name; n; m; pmax; wall_s; iters;
          steps = cols.Sos.Schedule.Columns.blocks;
          makespan = cols.makespan;
          analytics_s;
        })
      shapes
  in
  let t =
    Table.create
      [
        ("shape", Table.Left); ("n", Table.Right); ("max p_j", Table.Right);
        ("makespan", Table.Right); ("iters", Table.Right); ("blocks", Table.Right);
        ("solve", Table.Right); ("analytics", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.name; Table.fmt_int r.n; Table.fmt_int r.pmax; Table.fmt_int r.makespan;
          Table.fmt_int r.iters; Table.fmt_int r.steps;
          Printf.sprintf "%.2f ms" (r.wall_s *. 1e3);
          Printf.sprintf "%.2f ms" (r.analytics_s *. 1e3);
        ])
    rows;
  Table.print t;
  section
    (Printf.sprintf
       "GATE t7c — batch throughput: %d-instance corpus on the Engine pool \
        (this machine recommends %d domains)"
       t7c_instances
       (Engine.Pool.recommended_domain_count ()));
  let t7c_rows = t7c () in
  let t2 =
    Table.create
      [ ("domains", Table.Right); ("wall", Table.Right); ("speedup", Table.Right) ]
  in
  List.iter
    (fun r ->
      Table.add_row t2
        [
          Table.fmt_int r.domains;
          Printf.sprintf "%.1f ms" (r.wall_s *. 1e3);
          Printf.sprintf "%.2fx" r.speedup;
        ])
    t7c_rows;
  Table.print t2;
  note "batch results byte-identical at every domain count: ok";
  section
    "GATE t7d — streaming batch: binary corpus through the bounded window \
     (constant memory)";
  let t7d_chunk, t7d_tune, t7d_rows = t7d () in
  note "chunk autotune on a %d-spec warm-up slice: %s -> picked %d" t7d_warmup_specs
    (String.concat ", "
       (List.map (fun (c, w) -> Printf.sprintf "%d=%.0fms" c (w *. 1e3)) t7d_tune))
    t7d_chunk;
  let t3 =
    Table.create
      [
        ("corpus", Table.Left); ("specs", Table.Right); ("chunk", Table.Right);
        ("domains", Table.Right); ("wall", Table.Right); ("specs/s", Table.Right);
        ("peak RSS", Table.Right);
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t3
        [
          r.t7d_name; Table.fmt_int r.t7d_specs; Table.fmt_int r.t7d_chunk;
          Table.fmt_int r.t7d_domains;
          Printf.sprintf "%.2f s" r.t7d_wall_s;
          Printf.sprintf "%.0f" r.specs_per_s;
          (if r.peak_rss_kb = 0 then "n/a"
           else Printf.sprintf "%d kB" r.peak_rss_kb);
        ])
    t7d_rows;
  Table.print t3;
  note "streamed results byte-identical at 1 domain and %d domains: ok"
    (Engine.Pool.recommended_domain_count ());
  section "GATE obs — telemetry overhead + deterministic snapshot";
  let obs_row = obs_overhead rows in
  note "solver %s: disabled sinks %.2f ms, counters on %.2f ms (%+.2f%%)"
    obs_shape_name
    (obs_row.wall_disabled_s *. 1e3)
    (obs_row.wall_counters_s *. 1e3)
    obs_row.counters_overhead_pct;
  (match obs_row.vs_prev_pct with
  | Some pct ->
      note "disabled-sink wall vs previous BENCH_fast.json: %+.2f%%" pct
  | None -> note "no previous BENCH_fast.json row to regress against");
  let det_snapshot = obs_snapshot () in
  note
    "deterministic counter snapshot of the %d-instance corpus byte-identical at \
     -j 1 and -j 2 (%d counters): ok; wrote %s"
    t7c_instances
    (List.length (String.split_on_char '\n' (String.trim det_snapshot)))
    metrics_snapshot_path;
  if !check_mode then begin
    check_rows rows;
    check_t7d t7d_rows
  end;
  check_regression obs_row;
  let path = "BENCH_fast.json" in
  write_json path
    (List.map json_of_row rows @ List.map json_of_t7c t7c_rows
    @ List.map json_of_t7d t7d_rows
    @ [ json_of_obs obs_row ]);
  note
    "wrote %s (best of %d runs per shape/config; analytics = validate + \
     completions + profiles + waste + proc-assignment + gantt + csv, all \
     RLE-native; t7c = %d instances solved on the domain pool)"
    path reps t7c_instances
