(* The per-layer metrics: one entry per span the replicas record.

   For each span three numbers come out: the median self time per call,
   the call count and the share of the traced wall time. The result line
   (--trace 1) carries the shares, the derived ratios and the traced wall
   time, the numbers an optimisation moves; the medians, the counts and
   the sum of the shares go to the results file and the `run` printout.
   A layer that does not run in a workload has no time per call, so a
   median would read a constant 0 there; a share of 0 is simply true. A
   count is fixed by the inputs. Every workload reports every entry, so
   the metric set is the same on all five. *)

type value = Median_us | Median_s | Per_task_us

(* (span name, metric name, how the value is derived from self times) *)
let spans =
  [
    ("specs.read", "specs.read_us", Median_us);
    ("specs.digest", "specs.digest_us", Median_us);
    ("gen.generate", "gen.generate_us", Median_us);
    ("instance.decode", "instance.decode_us", Median_us);
    ("instance.validate", "instance.validate_us", Median_us);
    ("fast.run", "fast.run_us", Median_us);
    ("bench", "bench_us", Median_us);
    ("schedule.of_blocks", "schedule.of_blocks_us", Median_us);
    ("schedule.validate", "schedule.validate_us", Median_us);
    ("bounds", "bounds_us", Median_us);
    ("emit", "emit_us", Median_us);
    (* the root span around Engine.Batch.stream_seq: its self time is the
       engine's own cost, reported per task *)
    ("engine", "engine.overhead_us", Per_task_us);
    ("journal.start", "journal.start_us", Median_us);
    ("journal.append", "journal.append_us", Median_us);
    ("journal.resume", "journal.resume_s", Median_s);
    ("journal.replay", "journal.replay_us", Median_us);
    ("protocol.parse", "protocol.parse_us", Median_us);
    ("protocol.binding", "protocol.binding_us", Median_us);
    ("server.request.open", "server.request.open_us", Median_us);
    ("server.request.submit", "server.request.submit_us", Median_us);
    ("server.request.query", "server.request.query_us", Median_us);
    ("server.request.close", "server.request.close_us", Median_us);
    ("online.add", "online.add_us", Median_us);
    ("online.solve_full", "online.solve_full_us", Median_us);
    ("online.solve_extended", "online.solve_extended_us", Median_us);
    ("online.solve_cached", "online.solve_cached_us", Median_us);
    ("online.lower_bound", "online.lower_bound_us", Median_us);
    (* the serve replica opening and closing its server and journals *)
    ("serve.setup", "serve.setup_us", Median_us);
    (* the serve replica's per-request root: the benchmark's own loop *)
    ("bench.request", "bench.request_us", Median_us);
  ]

(* Derived per-layer numbers; each workload fills the ones that apply. *)
let extras =
  [
    ("fast.iters_per_spec", "count");
    ("fast.steps_per_iter", "count");
    ("online.reuse_frac", "fraction");
    ("online.sim_steps_per_query", "count");
    ("server.self_us.share", "fraction");
    (* the recorder's own bookkeeping, which no span's self time holds *)
    ("tracer.share", "fraction");
    ("trace.overhead", "ratio");
    ("trace.wall_s", "s");
  ]

let unit_of = function Median_s -> "s" | Median_us | Per_task_us -> "us"

(* The names and units of the result line's metrics, in order. *)
let line_names = List.map (fun (_, m, _) -> (m ^ ".share", "fraction")) spans @ extras

(* Metrics from a traced replica run of [wall_ns]; [tasks] divides the
   engine's self time. Returns the result line's metrics, the metrics
   for the results file (per-call medians, counts, share.sum), the names
   of spans missing from [spans] (so the caller can flag them) and the
   sum of all shares. *)
let of_tracer tr ~wall_ns ~tasks ~extras:given =
  let wall = float_of_int (max 1 wall_ns) in
  let shares, reported =
    List.split
      (List.map
         (fun (span, m, how) ->
           let total = Tracer.total_ns tr span and n = Tracer.count tr span in
           let v =
             match how with
             | Median_us -> Tracer.median_self_us tr span
             | Median_s -> Tracer.median_self_us tr span /. 1e6
             | Per_task_us -> if tasks = 0 then 0.0 else float_of_int total /. float_of_int tasks /. 1e3
           in
           ( Report.metric (m ^ ".share") "fraction" (float_of_int total /. wall),
             [
               Report.metric m (unit_of how) v;
               Report.metric (m ^ ".n") "count"
                 (float_of_int (match how with Per_task_us when n > 0 -> tasks | _ -> n));
             ] ))
         spans)
  in
  let tracer_share = float_of_int (Tracer.bookkeeping_ns tr) /. wall in
  let share_sum =
    List.fold_left (fun acc name -> acc +. float_of_int (Tracer.total_ns tr name)) 0.0 (Tracer.names tr) /. wall
    +. tracer_share
  in
  let given = ("tracer.share", tracer_share) :: ("trace.wall_s", wall /. 1e9) :: given in
  let extra =
    List.map (fun (name, unit) -> Report.metric name unit (Option.value (List.assoc_opt name given) ~default:0.0)) extras
  in
  let unlisted = List.filter (fun name -> not (List.exists (fun (s, _, _) -> s = name) spans)) (Tracer.names tr) in
  ( shares @ extra,
    List.concat reported @ [ Report.metric "share.sum" "fraction" share_sum ],
    unlisted,
    share_sum )
