(* The five workloads and what one run of each measures and checks.

   A run with [~trace:false] measures the end-to-end metrics with nothing
   traced: sosctl runs as a child process on the generated inputs, and
   its output is checked line by line and across passes. A run with
   [~trace:true] runs sosctl with --metrics on the first quarter of the
   inputs and the in-process replica over the same quarter, traced, then
   untraced (the tracing overhead is the ratio of the two; the traced
   replay also pays the process's warm-up, so the ratio errs high).
   sosctl's output must equal the replica's byte for byte, traced and
   untraced, and its counters must reconcile with the replica's; the run reports
   the per-layer metrics (shares and ratios on the result line, per-call
   medians and counts beside them, see Layers) and a Chrome trace.

   The gated end-to-end metrics are the ones every workload has:
   items_per_s (specs, or requests streamed to the server as fast as it
   takes them),
   setup_s and peak_rss_mb. The serve latency ladder and batch-stream's
   --resume rate are reported beside them, not gated (README.md says
   why). *)

type ctx = {
  sosctl : string;
  work : string;  (** directory for generated inputs and outputs *)
  out_dir : string;  (** where trace files are written *)
  seed : int;
  scale : float;  (** 1.0 = the benchmarked size; the tests use 0.01 *)
  seconds : float;  (** how long the repeated passes of a run may take *)
  ladder : bool;  (** also run the serve latency ladder *)
}

type t = { name : string; why : string; run : ctx -> trace:bool -> Report.result }

(* Set-up probes: at least [setup_probes] before the first pass and one
   after the last, then more while they fit in [probe_share] of the run's
   seconds, up to [max_probes] each (cheap set-ups get more samples);
   between passes, at least one and more while they fit in
   [between_budget_s]. *)
let setup_probes = 3
let max_probes = 40
let probe_share = 0.08
let between_budget_s = 0.25

(* The share of a serve run's seconds its stream of requests lasts. *)
let stream_share = 0.85

(* Open-loop rates of the serve ladder and the rate the latency metrics
   are read at. max_rps is the highest rate whose p99 stays within the
   workload's limit with fewer than 1% of the requests unanswered when
   its last request falls due. *)
let ladder = [ 1000.0; 2000.0; 4000.0 ]
let ladder_requests = 4_000
let report_rate = 1000.0

let s = Mclock.s_of_ns
let floats l = Report.List (List.map (fun v -> Report.Float v) l)
let med l = if l = [] then 0.0 else Stats.median (Array.of_list l)

let equal_files checks what a b =
  if Checks.digest_file a <> Checks.digest_file b then Checks.fail checks "%s" what

(* sosctl's own telemetry, from a --metrics text snapshot: "name value". *)
let counters path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l with
         | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
         | _ -> None)

let reconcile checks path pairs =
  let cs = counters path in
  List.iter
    (fun (name, ours) ->
      match List.assoc_opt name cs with
      | Some theirs when theirs = ours -> ()
      | Some theirs -> Checks.fail checks "reconcile %s: replica %d, sosctl %d" name ours theirs
      | None -> Checks.fail checks "reconcile %s: missing from sosctl --metrics" name)
    pairs

let finish checks ~metrics ~reported ~runs ~details () =
  {
    Report.metrics;
    reported;
    attempted = checks.Checks.attempted * runs;
    failed = checks.Checks.failed * runs;
    problems = Checks.problems checks;
    details;
  }

let per_layer checks ctx name tr ~wall_ns ~untraced_ns ~tasks extras =
  let metrics, reported, unlisted, share_sum =
    Layers.of_tracer tr ~wall_ns ~tasks
      ~extras:(("trace.overhead", float_of_int wall_ns /. float_of_int (max 1 untraced_ns)) :: extras)
  in
  List.iter (fun n -> Checks.fail checks "span %s has no per-layer metric" n) unlisted;
  if share_sum < 0.9 || share_sum > 1.1 then Checks.fail checks "layer shares sum to %.3f" share_sum;
  Proc.mkdir_p ctx.out_dir;
  let trace = Filename.concat ctx.out_dir (name ^ ".trace.json") in
  Tracer.write_chrome tr trace;
  (metrics, reported, trace)

(* --------------------------------------------------------------- passes *)

let must_exit checks what (r : Proc.run) =
  if not (Proc.exited_ok r.Proc.status) then
    Checks.fail checks "%s: sosctl %s" what (Proc.describe_status r.Proc.status)

(* Items/s over consecutive runs of output lines, each about
   [Proc.segment_s] long (a short pass counts whole), from line [skip]
   on. The reported rate ([rate]) is the 10th percentile of these
   segment rates, pooled over the run: the rate the program keeps up
   through all but its slowest tenth. On the reference host other
   tenants slow the program for seconds to minutes at a time, to a level
   that repeats from run to run, with short fast bursts when they pause.
   A run rarely misses the slow level and often misses the bursts, so
   the low end of the segments varies least from run to run; the mean,
   the median and the fastest segments track the bursts. This needs a
   workload whose cost per line does not drift along the output, which
   is why the serve workloads skip their warm-up. *)
let throughput ?(skip = 0) (r : Proc.run) out =
  match Proc.segment_rates r ~path:out ~skip with
  | Some rates -> rates
  | None -> Option.to_list (Proc.whole_rate r ~path:out)

let pct l p = if l = [] then 0.0 else Stats.nearest_rank (Stats.sorted_copy (Array.of_list l)) p
let rate segments = pct segments 0.1

type passes = {
  count : int;
  rates : float list;
  follow_rates : float list;  (** the same for the follow-up run (batch-stream's --resume) *)
  setups : float list;
  rss_mb : float list;
  first_out : string;
  digest : string;
}

(* Set-up probes of [args] (spawn to first output byte, then killed): a
   call runs at least [at_least] and more while they fit in [budget_s],
   up to [max_probes]. The runs spread them over their whole length: the
   host's speed shifts for seconds at a time, and probes taken in one
   burst all see one state. *)
let prober ctx checks ~args ?stdin ~err () =
  let setups = ref [] in
  let probe () =
    match Proc.first_output ?stdin ~prog:ctx.sosctl ~args ~err () with
    | Ok ns -> setups := s ns :: !setups
    | Error st -> Checks.fail checks "set-up probe: sosctl %s before any output" (Proc.describe_status st)
  in
  let probes ~at_least ~budget_s =
    let t0 = Mclock.now_s () in
    let rec go k =
      if k < at_least || (k < max_probes && Mclock.now_s () -. t0 < budget_s) then begin
        probe ();
        go (k + 1)
      end
    in
    go 0
  in
  (probes, fun () -> List.rev !setups)

(* Set-up probes, then full passes of the same command, repeated while
   [ctx.seconds] allows, then more probes. At least one more probe runs
   before each pass after the first.
   Each pass's stdout must equal the first's, which [check_first] checks
   line by line. [follow] runs after each pass (batch-stream's --resume)
   and must reproduce the same stdout. *)
let run_passes ctx checks ~dir ~args ?follow ~check_first () =
  let path = Filename.concat dir in
  let err = path "stderr.txt" in
  let run args out = Proc.run_polled ~prog:ctx.sosctl ~args ~out ~err () in
  let probes, setups = prober ctx checks ~args ~err () in
  probes ~at_least:setup_probes ~budget_s:(probe_share *. ctx.seconds);
  let first_out = path "out-0.txt" in
  let rates = ref [] and follow_rates = ref [] and rss = ref [] and digest = ref "" in
  let t0 = Mclock.now_s () in
  let rec go k =
    let ts = Mclock.now_s () in
    if k > 0 then probes ~at_least:1 ~budget_s:between_budget_s;
    let out = if k = 0 then first_out else path "out-n.txt" in
    let r = run args out in
    must_exit checks (Printf.sprintf "pass %d" k) r;
    rates := throughput r out @ !rates;
    if k = 0 then begin
      check_first out;
      digest := Checks.digest_file out
    end
    else if Checks.digest_file out <> !digest then Checks.fail checks "pass %d stdout differs from pass 0" k;
    let peak = ref r.Proc.rss_kb in
    Option.iter
      (fun (fargs, what) ->
        let fout = path "follow.out" in
        let f = run fargs fout in
        must_exit checks (Printf.sprintf "pass %d %s" k what) f;
        if Checks.digest_file fout <> !digest then Checks.fail checks "pass %d: %s stdout differs" k what;
        follow_rates := throughput f fout @ !follow_rates;
        peak := max !peak f.Proc.rss_kb)
      follow;
    rss := (float_of_int !peak /. 1024.0) :: !rss;
    let took = Mclock.now_s () -. ts in
    if Checks.ok checks && Mclock.now_s () -. t0 +. took <= ctx.seconds then go (k + 1) else k + 1
  in
  let count = go 0 in
  probes ~at_least:1 ~budget_s:(probe_share *. ctx.seconds);
  { count; rates = !rates; follow_rates = !follow_rates; setups = setups (); rss_mb = !rss; first_out; digest = !digest }

(* The serve runs: set-up probes, then one server fed the workload's
   request stream over a pipe as fast as it takes it, then more probes.
   The stream runs to at least the end of the prepared transcript and on
   until [stream_share] of [ctx.seconds] has passed, so the server's
   warm-up is paid once and the rest of the run is spent past it. Every
   reply is checked, and the digest covers the replies to the
   transcript. The rate leaves out the warm-up. *)
let run_stream ctx checks (p : Serve_wl.prepared) ~args =
  let path = Serve_wl.path p in
  let err = path "stderr.txt" and out = path "out.txt" in
  let probes, setups = prober ctx checks ~args ~stdin:(path "transcript.txt") ~err () in
  probes ~at_least:setup_probes ~budget_s:(probe_share *. ctx.seconds);
  let n = Array.length p.Serve_wl.lines in
  let next = Serve_wl.stream p and sent = ref 0 in
  let until = Mclock.now_s () +. (stream_share *. ctx.seconds) in
  let feed () =
    if !sent >= n && Mclock.now_s () >= until then None
    else begin
      incr sent;
      Some (next ())
    end
  in
  let r = Proc.run_polled ~feed ~prog:ctx.sosctl ~args ~out ~err () in
  must_exit checks "stream" r;
  let replies = Checks.iter_lines out (fun i l -> Checks.serve_reply checks ~index:i l) in
  if replies <> !sent then Checks.fail checks "%d replies to %d requests" replies !sent;
  let rates = throughput ~skip:p.Serve_wl.warmup r out in
  probes ~at_least:1 ~budget_s:(probe_share *. ctx.seconds);
  {
    count = 1;
    rates;
    follow_rates = [];
    setups = setups ();
    rss_mb = [ float_of_int r.Proc.rss_kb /. 1024.0 ];
    first_out = out;
    digest = Digest.to_hex (Digest.string (Checks.prefix_lines out n));
  }

(* Set-up time is the fastest tenth of the probes (the 10th percentile):
   outside load only ever delays one, and the median of a run's set-ups
   moved by up to 2x between runs on the reference host. *)
let gated (ps : passes) =
  [
    Report.metric "items_per_s" "1/s" (rate ps.rates);
    Report.metric "setup_s" "s" (pct ps.setups 0.1);
    Report.metric "peak_rss_mb" "MB" (med ps.rss_mb);
  ]

let pass_details (ps : passes) =
  [
    ("digest", Report.Str ps.digest);
    ("passes", Report.Int ps.count);
    ("items_per_s_samples", floats ps.rates);
    ("setup_s_samples", floats ps.setups);
  ]

(* --------------------------------------------------------------- batch *)

let batch kind name why =
  let run ctx ~trace =
    let p = Batch_wl.prepare kind ~dir:(Filename.concat ctx.work name) ~seed:ctx.seed ~scale:ctx.scale in
    let checks = Checks.create () in
    let args = Batch_wl.args p ~checkpoint:(Batch_wl.path p "ck") in
    let same_as_replica (r : Batch_wl.replica) reference =
      if Proc.read_file r.Batch_wl.out <> reference then
        Checks.fail checks "replica output differs from sosctl on the first %d specs" p.Batch_wl.prefix_specs;
      Option.iter
        (fun rout -> equal_files checks "replica --resume output differs from its fresh run" rout r.Batch_wl.out)
        r.Batch_wl.resume_out
    in
    if not trace then begin
      let follow =
        match kind with
        | Batch_wl.Stream -> Some (args ~corpus:p.Batch_wl.corpus ~resume:true (), "--resume")
        | Batch_wl.Mixed | Batch_wl.Large -> None
      in
      let ps =
        run_passes ctx checks ~dir:p.Batch_wl.dir ~args:(args ~corpus:p.Batch_wl.corpus ()) ?follow
          ~check_first:(fun out -> Checks.batch_file checks out ~expected:p.Batch_wl.specs)
          ()
      in
      let reported =
        if ps.follow_rates = [] then [] else [ Report.metric "resume_specs_per_s" "1/s" (rate ps.follow_rates) ]
      in
      finish checks ~metrics:(gated ps) ~reported ~runs:ps.count ~details:(pass_details ps) ()
    end
    else begin
      let out = Batch_wl.path p "recon.out" and mpath = Batch_wl.path p "recon-metrics.txt" in
      let r =
        Proc.run_polled ~prog:ctx.sosctl
          ~args:
            (Batch_wl.args p ~corpus:p.Batch_wl.prefix ~checkpoint:(Batch_wl.path p "recon-ck") ~metrics:mpath ())
          ~out ~err:(Batch_wl.path p "stderr.txt") ()
      in
      must_exit checks "sosctl --metrics run" r;
      Checks.batch_file checks out ~expected:p.Batch_wl.prefix_specs;
      let tr = Tracer.create ~enabled:true () in
      let t = Batch_wl.replica ~tracer:tr p ~corpus:p.Batch_wl.prefix in
      same_as_replica t (Proc.read_file out);
      let traced_digest = Checks.digest_file t.Batch_wl.out in
      let u = Batch_wl.replica p ~corpus:p.Batch_wl.prefix in
      if Checks.digest_file u.Batch_wl.out <> traced_digest then
        Checks.fail checks "traced and untraced replica outputs differ";
      let untraced_ns = u.Batch_wl.wall_ns in
      reconcile checks mpath [ ("sos.fast.iterations", t.Batch_wl.iters); ("sos.fast.blocks", t.Batch_wl.blocks) ];
      let tasks = max 1 t.Batch_wl.tasks in
      let metrics, reported, trace_file =
        per_layer checks ctx name tr ~wall_ns:t.Batch_wl.wall_ns ~untraced_ns ~tasks:t.Batch_wl.tasks
          [
            ("fast.iters_per_spec", float_of_int t.Batch_wl.iters /. float_of_int tasks);
            ("fast.steps_per_iter", float_of_int t.Batch_wl.steps /. float_of_int (max 1 t.Batch_wl.iters));
          ]
      in
      finish checks ~metrics ~reported ~runs:1
        ~details:
          [
            ("trace_file", Report.Str trace_file);
            ("traced_wall_s", Report.Float (s t.Batch_wl.wall_ns));
            ("untraced_wall_s", Report.Float (s untraced_ns));
            ("fast_iterations", Report.Int t.Batch_wl.iters);
            ("fast_blocks", Report.Int t.Batch_wl.blocks);
          ]
        ()
    end
  in
  { name; why; run }

(* --------------------------------------------------------------- serve *)

(* The open-loop ladder: one fresh server per rate, each sent the same
   first [ladder_requests] of the transcript; every rung's replies must
   equal the streamed run's replies to them ([replies_file]). *)
let serve_ladder ctx checks (p : Serve_wl.prepared) ~p99_limit_ms ~replies_file =
  let n = min (Array.length p.Serve_wl.lines) (Inputs.scaled ctx.scale ladder_requests) in
  let lines = Array.sub p.Serve_wl.lines 0 n in
  let replies = Checks.prefix_lines replies_file n in
  let rungs =
    List.map
      (fun rate ->
        let r = Serve_wl.run_rung p ~sosctl:ctx.sosctl ~rate ~lines in
        (match r.Serve_wl.status with
        | Unix.WEXITED 0 -> ()
        | st -> Checks.fail checks "rung %.0f/s: sosctl serve %s" rate (Proc.describe_status st));
        if r.Serve_wl.replies <> replies then Checks.fail checks "replies at %.0f/s differ from the streamed run" rate;
        r)
      ladder
  in
  let pct a p = if Array.length a = 0 then 0.0 else Stats.nearest_rank (Stats.sorted_copy a) p in
  let p99 (r : Serve_wl.rung) = pct r.Serve_wl.latency_ms 0.99 in
  let meets (r : Serve_wl.rung) =
    p99 r <= p99_limit_ms && float_of_int r.Serve_wl.unanswered_at_end < 0.01 *. float_of_int n
  in
  let at = List.find (fun (r : Serve_wl.rung) -> r.Serve_wl.rate = report_rate) rungs in
  let reported =
    [
      Report.metric "p50_ms" "ms" (pct at.Serve_wl.latency_ms 0.5);
      Report.metric "p99_ms" "ms" (p99 at);
      Report.metric "query_p50_ms" "ms" (pct at.Serve_wl.query_ms 0.5);
      Report.metric "max_rps" "1/s"
        (List.fold_left (fun acc (r : Serve_wl.rung) -> if meets r then r.Serve_wl.rate else acc) 0.0 rungs);
    ]
  in
  let rung_json (r : Serve_wl.rung) =
    let lat = Stats.sorted_copy r.Serve_wl.latency_ms in
    let tail = Stats.highest_supported (Array.length lat) [ 0.5; 0.9; 0.99; 0.999 ] in
    Report.Obj
      [
        ("rate", Report.Float r.Serve_wl.rate);
        ("samples", Report.Int (Array.length lat));
        ("p50_ms", Report.Float (pct lat 0.5));
        ("p99_ms", Report.Float (p99 r));
        ("tail_percentile", match tail with Some t -> Report.Float t | None -> Report.Null);
        ("tail_ms", match tail with Some t -> Report.Float (pct lat t) | None -> Report.Null);
        ("query_p50_ms", Report.Float (pct r.Serve_wl.query_ms 0.5));
        ("lateness_p99_ms", Report.Float (pct r.Serve_wl.lateness_ms 0.99));
        ("lateness_max_ms", Report.Float (pct r.Serve_wl.lateness_ms 1.0));
        ("unanswered_at_end", Report.Int r.Serve_wl.unanswered_at_end);
        ("meets_limit", Report.Bool (meets r));
        ("setup_s", Report.Float r.Serve_wl.setup_s);
        ("peak_rss_mb", Report.Float (float_of_int r.Serve_wl.rss_kb /. 1024.0));
      ]
  in
  (reported, List.map rung_json rungs)

let serve kind name ~p99_limit_ms why =
  let run ctx ~trace =
    let p = Serve_wl.prepare kind ~dir:(Filename.concat ctx.work name) ~seed:ctx.seed ~scale:ctx.scale in
    let checks = Checks.create () in
    let q = p.Serve_wl.prefix_n in
    if not trace then begin
      let ps = run_stream ctx checks p ~args:(Serve_wl.args p ~wal:(Serve_wl.path p "wal") ()) in
      let reported, rungs =
        if ctx.ladder then serve_ladder ctx checks p ~p99_limit_ms ~replies_file:ps.first_out else ([], [])
      in
      finish checks ~metrics:(gated ps) ~reported ~runs:ps.count
        ~details:(pass_details ps @ [ ("rungs", Report.List rungs); ("p99_limit_ms", Report.Float p99_limit_ms) ])
        ()
    end
    else begin
      let input = Serve_wl.path p "prefix.txt" in
      Inputs.write_file input (String.concat "" (List.init q (fun i -> p.Serve_wl.lines.(i) ^ "\n")));
      let out = Serve_wl.path p "recon.out" and mpath = Serve_wl.path p "recon-metrics.txt" in
      let r =
        Proc.run_polled ~stdin:input ~prog:ctx.sosctl
          ~args:(Serve_wl.args p ~wal:(Serve_wl.path p "recon-wal") ~metrics:mpath ())
          ~out ~err:(Serve_wl.path p "stderr.txt") ()
      in
      must_exit checks "sosctl serve --metrics run" r;
      ignore (Checks.iter_lines out (fun i l -> Checks.serve_reply checks ~index:i l));
      let tr = Tracer.create ~enabled:true () in
      let t = Serve_wl.replica ~tracer:tr p ~n:q in
      equal_files checks "replica replies differ from sosctl" t.Serve_wl.out out;
      let traced_digest = Checks.digest_file t.Serve_wl.out in
      let u = Serve_wl.replica p ~n:q in
      if Checks.digest_file u.Serve_wl.out <> traced_digest then
        Checks.fail checks "traced and untraced replica replies differ";
      let untraced_ns = u.Serve_wl.wall_ns in
      reconcile checks mpath
        [
          ("serve.solve.full", t.Serve_wl.full);
          ("serve.solve.extended", t.Serve_wl.extended);
          ("serve.solve.cached", t.Serve_wl.cached);
        ];
      let queries = float_of_int (max 1 t.Serve_wl.queries) in
      let self_ns = t.Serve_wl.server_self_ns in
      let metrics, reported, trace_file =
        per_layer checks ctx name tr ~wall_ns:t.Serve_wl.wall_ns ~untraced_ns ~tasks:q
          [
            ("online.reuse_frac", float_of_int (t.Serve_wl.extended + t.Serve_wl.cached) /. queries);
            ("online.sim_steps_per_query", float_of_int t.Serve_wl.sim_steps /. queries);
            ( "server.self_us.share",
              float_of_int (Array.fold_left ( + ) 0 self_ns) /. float_of_int (max 1 t.Serve_wl.wall_ns) );
          ]
      in
      let reported = reported @ [ Report.metric "server.self_us" "us" (Stats.median_int self_ns /. 1e3) ] in
      finish checks ~metrics ~reported ~runs:1
        ~details:
          [
            ("trace_file", Report.Str trace_file);
            ("traced_wall_s", Report.Float (s t.Serve_wl.wall_ns));
            ("untraced_wall_s", Report.Float (s untraced_ns));
            ( "solves",
              Report.Obj
                [
                  ("full", Report.Int t.Serve_wl.full);
                  ("extended", Report.Int t.Serve_wl.extended);
                  ("cached", Report.Int t.Serve_wl.cached);
                ] );
          ]
        ()
    end
  in
  { name; why; run }

let all =
  [
    batch Batch_wl.Mixed "batch-mixed"
      "24k text specs over the six generator families, n 100-300, m 16: the Fast core plus instance and schedule validation";
    batch Batch_wl.Large "batch-large"
      "2k @PATH specs over 300 T7b-shaped files (n up to 3200, p_max up to 1e7): decode and schedule analytics dominate";
    batch Batch_wl.Stream "batch-stream"
      "1M tiny sosbin1 specs, streamed with a 4-shard checkpoint, then --resume: decode, emission, stdout and journal dominate";
    (* The p99 limits put max_rps on an interior rung at the commit that
       added the benchmark: a full re-simulation answers in well under a
       millisecond, an extension over 200 idle steps takes about two. *)
    serve Serve_wl.Dense "serve-dense" ~p99_limit_ms:4.0
      "one server fed a stream of requests from 16 tenants, with a WAL; releases at or just after the last, so every query \
       re-simulates in full";
    serve Serve_wl.Sparse "serve-sparse" ~p99_limit_ms:25.0
      "the same stream with no WAL; releases 200 steps apart, so queries extend the simulation over long idle gaps";
  ]

let find name = List.find_opt (fun w -> w.name = name) all
