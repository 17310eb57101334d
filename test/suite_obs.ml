(* Tests for the telemetry layer (lib/obs): counter/histogram mechanics,
   latency timing, the determinism-class split in snapshots, trace export
   well-formedness, the registry tables of doc/OBSERVABILITY.md, the
   reconciliation of the solver's unit counters with Schedule analytics,
   and the batch-level determinism contract (deterministic snapshot
   byte-identical at any -j). *)

module Metrics = Obs.Metrics
module Trace = Obs.Trace
module Progress = Obs.Progress
module Snapshot = Obs.Snapshot
module Rng = Prelude.Rng

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Record inside [f] with fresh values; recording is switched off again
   afterwards (the suite must not leave the process-wide flag on). *)
let with_recording f =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect ~finally:(fun () -> Metrics.disable ()) f

(* A tiny JSON validity checker — values, objects, arrays, strings with
   escapes, numbers, true/false/null — enough to assert the snapshot and
   trace exporters emit well-formed JSON without a json dependency. *)
let json_is_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail () = raise Exit in
  let expect c = if peek () = Some c then advance () else fail () in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let keyword w =
    String.iter (fun c -> if peek () = Some c then advance () else fail ()) w
  in
  let digits () =
    let d = ref 0 in
    let rec go () =
      match peek () with
      | Some '0' .. '9' ->
          incr d;
          advance ();
          go ()
      | _ -> ()
    in
    go ();
    if !d = 0 then fail ()
  in
  let number () =
    if peek () = Some '-' then advance ();
    digits ();
    if peek () = Some '.' then (advance (); digits ());
    match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ()
  in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail ()
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail ()
              done;
              go ()
          | _ -> fail ())
      | Some _ ->
          advance ();
          go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> keyword "true"
    | Some 'f' -> keyword "false"
    | Some 'n' -> keyword "null"
    | _ -> fail ()
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else
      let rec members () =
        skip_ws ();
        string_lit ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            members ()
        | Some '}' -> advance ()
        | _ -> fail ()
      in
      members ()
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else
      let rec elems () =
        value ();
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            elems ()
        | Some ']' -> advance ()
        | _ -> fail ()
      in
      elems ()
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Exit -> false

let test_json_checker_sanity () =
  List.iter
    (fun (expected, s) ->
      Alcotest.(check bool) (Printf.sprintf "json %S" s) expected (json_is_valid s))
    [
      (true, "{}");
      (true, "{\"a\": [1, -2.5e3, \"x\\n\", true, null]}");
      (true, "[\n\n  ]");
      (false, "{\"a\": }");
      (false, "[1, 2");
      (false, "{\"a\": 1} trailing");
      (false, "\"unterminated");
    ]

let test_counter_basics () =
  let c = Metrics.counter "test.obs.basic" in
  Metrics.disable ();
  Metrics.reset ();
  Metrics.incr c;
  Metrics.add c 5;
  Alcotest.(check int) "disabled ops are no-ops" 0 (Metrics.value c);
  with_recording (fun () ->
      Metrics.incr c;
      Metrics.add c 41;
      Alcotest.(check int) "incr/add accumulate" 42 (Metrics.value c);
      Alcotest.(check int) "get by name" 42 (Metrics.get "test.obs.basic"));
  Alcotest.(check int) "value retained after disable" 42 (Metrics.value c);
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes, keeps registration" 0
    (Metrics.get "test.obs.basic");
  Alcotest.(check bool) "registration idempotent" true
    (Metrics.counter "test.obs.basic" == c)

let test_registry_errors () =
  ignore (Metrics.counter "test.obs.det");
  ignore (Metrics.runtime_hist "test.obs.h");
  Alcotest.check_raises "counter re-registered as runtime"
    (Invalid_argument
       "Obs.Metrics: \"test.obs.det\" already registered with another class")
    (fun () -> ignore (Metrics.runtime_counter "test.obs.det"));
  Alcotest.check_raises "counter re-registered as histogram"
    (Invalid_argument "Obs.Metrics: \"test.obs.det\" already registered as a counter")
    (fun () -> ignore (Metrics.runtime_hist "test.obs.det"));
  Alcotest.check_raises "histogram re-registered as counter"
    (Invalid_argument "Obs.Metrics: \"test.obs.h\" already registered as a histogram")
    (fun () -> ignore (Metrics.counter "test.obs.h"));
  Alcotest.check_raises "get unknown name"
    (Invalid_argument "Obs.Metrics.get: unknown counter \"test.obs.nope\"")
    (fun () -> ignore (Metrics.get "test.obs.nope"));
  Alcotest.check_raises "get on a histogram"
    (Invalid_argument "Obs.Metrics.get: \"test.obs.h\" is a histogram") (fun () ->
      ignore (Metrics.get "test.obs.h"))

let test_record_max () =
  let g = Metrics.runtime_counter "test.obs.hwm" in
  with_recording (fun () ->
      Metrics.record_max g 7;
      Metrics.record_max g 3;
      Metrics.record_max g 11;
      Alcotest.(check int) "high-water mark keeps the max" 11 (Metrics.value g))

let test_timer () =
  let h = Metrics.runtime_hist "test.obs.timer_s" in
  Metrics.reset ();
  Metrics.disable ();
  Alcotest.(check int) "disabled time is just the call" 9
    (Metrics.time h (fun () -> 9));
  (Metrics.stamp h) ();
  Alcotest.(check int) "disabled time and stamp record nothing" 0 (Metrics.hist_count h);
  with_recording (fun () ->
      Alcotest.(check int) "time returns the thunk's value" 4
        (Metrics.time h (fun () -> 4));
      (try Metrics.time h (fun () -> failwith "boom") with Failure _ -> ());
      let waited = Metrics.stamp h in
      waited ();
      let snap = Metrics.snapshot ~cls:`Runtime () in
      Alcotest.(check bool) "exception still observed (count=3)" true
        (contains snap "test.obs.timer_s count=3"));
  (* Wall time never reaches the deterministic class. *)
  let det = Metrics.hist "test.obs.timer_det" in
  let refused =
    Invalid_argument
      "Obs.Metrics: \"test.obs.timer_det\" is a deterministic histogram; latencies need \
       runtime_hist"
  in
  Alcotest.check_raises "time refuses a det histogram" refused (fun () ->
      Metrics.time det ignore);
  Alcotest.check_raises "stamp refuses a det histogram" refused (fun () ->
      ignore (Metrics.stamp det : unit -> unit))

let test_snapshot_classes () =
  let c = Metrics.counter "test.obs.cls_det" in
  let g = Metrics.runtime_counter "test.obs.cls_rt" in
  let t = Metrics.runtime_hist "test.obs.cls_timer" in
  with_recording (fun () ->
      Metrics.add c 3;
      Metrics.add g 9;
      Metrics.time t ignore);
  let det = Metrics.snapshot ~cls:`Deterministic () in
  let rt = Metrics.snapshot ~cls:`Runtime () in
  let all = Metrics.snapshot () in
  Alcotest.(check bool) "det counter line" true (contains det "test.obs.cls_det 3\n");
  Alcotest.(check bool) "runtime counter excluded from det" false
    (contains det "cls_rt");
  Alcotest.(check bool) "runtime hist excluded from det" false (contains det "cls_timer");
  Alcotest.(check bool) "runtime has the gauge" true
    (contains rt "test.obs.cls_rt 9\n");
  Alcotest.(check bool) "runtime has the runtime hist" true
    (contains rt "test.obs.cls_timer count=1");
  Alcotest.(check bool) "runtime excludes det counters" false (contains rt "cls_det");
  Alcotest.(check bool) "all has every class" true
    (contains all "cls_det" && contains all "cls_rt" && contains all "cls_timer");
  let names =
    String.split_on_char '\n' all
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> List.hd (String.split_on_char ' ' l))
  in
  Alcotest.(check bool) "snapshot sorted by name" true
    (List.sort compare names = names)

let test_snapshot_json () =
  let c = Metrics.counter "test.obs.json" in
  with_recording (fun () -> Metrics.add c 17);
  let js = Metrics.snapshot_json () in
  Alcotest.(check bool) "snapshot_json well-formed" true (json_is_valid js);
  Alcotest.(check bool) "counter serialized with its class" true
    (contains js "{\"name\": \"test.obs.json\", \"class\": \"det\", \"value\": 17}");
  Alcotest.(check bool) "deterministic snapshot_json well-formed" true
    (json_is_valid (Metrics.snapshot_json ~cls:`Deterministic ()))

let test_trace_export () =
  Trace.start ();
  Fun.protect ~finally:(fun () -> Trace.stop ()) (fun () ->
      Trace.set_thread_name ~tid:3 "domain-3";
      let r =
        Trace.with_span ~tid:3 ~cat:"test"
          ~args:[ ("n", Trace.I 7); ("tag", Trace.S "x\"y\n"); ("f", Trace.F 0.5) ]
          "unit.span"
          (fun () -> 12)
      in
      Alcotest.(check int) "with_span returns the thunk's value" 12 r;
      (try
         Trace.with_span "raising.span" (fun () -> failwith "boom")
       with Failure _ -> ()));
  let js = Trace.export () in
  Alcotest.(check bool) "trace export well-formed JSON" true (json_is_valid js);
  Alcotest.(check bool) "has the traceEvents key" true (contains js "\"traceEvents\"");
  Alcotest.(check bool) "complete event recorded" true
    (contains js "\"name\":\"unit.span\"" && contains js "\"ph\":\"X\"");
  Alcotest.(check bool) "span on its track" true (contains js "\"tid\":3");
  Alcotest.(check bool) "raising span still closed" true
    (contains js "\"name\":\"raising.span\"");
  Alcotest.(check bool) "thread name metadata" true
    (contains js "\"thread_name\"" && contains js "\"name\":\"domain-3\"");
  Alcotest.(check bool) "string arg escaped" true (contains js "x\\\"y\\n");
  Trace.reset ();
  let empty = Trace.export () in
  Alcotest.(check bool) "reset drops events" false (contains empty "unit.span");
  Alcotest.(check bool) "empty export still well-formed" true (json_is_valid empty);
  Alcotest.(check int) "inactive with_span is just the call" 5
    (Trace.with_span "ignored" (fun () -> 5))

(* ------------------------------------------------------------ histograms *)

let test_hist_basics () =
  let h = Metrics.hist "test.obs.hist.basic" in
  Metrics.reset ();
  Metrics.disable ();
  Metrics.hist_observe h 1.0;
  Alcotest.(check int) "disabled observe is a no-op" 0 (Metrics.hist_count h);
  with_recording (fun () ->
      Metrics.hist_observe h 0.5;
      Metrics.hist_observe_int h 3;
      Metrics.hist_observe h 2.0;
      Alcotest.(check int) "count" 3 (Metrics.hist_count h);
      Alcotest.(check (float 1e-9)) "max is exact" 3.0 (Metrics.hist_max h);
      Alcotest.(check (float 1e-9)) "q=1 is the max" 3.0 (Metrics.hist_quantile h 1.0));
  Alcotest.(check bool) "registration idempotent" true
    (Metrics.hist "test.obs.hist.basic" == h);
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "empty quantile is 0" 0.0 (Metrics.hist_quantile h 0.5)

(* Quantile goldens on a fully known distribution: 1..100 into decade-of-10
   linear buckets puts exactly 10 observations in each, so every quantile
   is the bucket upper bound — except where the exact max clamps it. *)
let test_hist_quantile_golden () =
  let h =
    Metrics.hist ~bounds:(Metrics.linear_bounds ~lo:10.0 ~hi:100.0 ~step:10.0)
      "test.obs.hist.golden"
  in
  Metrics.reset ();
  with_recording (fun () ->
      for v = 1 to 100 do
        Metrics.hist_observe_int h v
      done;
      List.iter
        (fun (q, expected) ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "p%g" (q *. 100.0))
            expected (Metrics.hist_quantile h q))
        [ (0.5, 50.0); (0.9, 90.0); (0.99, 100.0); (1.0, 100.0) ]);
  (* The representative never exceeds the observed max: 3 values far below
     the first bound report the exact max, not the bound. *)
  let tight = Metrics.hist ~bounds:[| 10.0 |] "test.obs.hist.clamp" in
  with_recording (fun () ->
      List.iter (Metrics.hist_observe tight) [ 1.0; 2.0; 2.5 ];
      Alcotest.(check (float 1e-9)) "quantile clamped to max" 2.5
        (Metrics.hist_quantile tight 0.5));
  (* Above-range observations land in the overflow bucket, whose
     representative is the exact max. *)
  let ov = Metrics.hist ~bounds:[| 10.0 |] "test.obs.hist.overflow" in
  with_recording (fun () ->
      Metrics.hist_observe ov 1234.5;
      Alcotest.(check (float 1e-9)) "overflow reports the max" 1234.5
        (Metrics.hist_quantile ov 0.5);
      Alcotest.(check int) "overflow counted" 1 (Metrics.hist_count ov))

(* ----------------------------------------------------------- OpenMetrics *)

let test_openmetrics () =
  let c = Metrics.counter "test.obs.om.c" in
  let h = Metrics.hist ~bounds:[| 1.0; 10.0 |] "test.obs.om.h" in
  let lat = Metrics.runtime_hist "test.obs.om.lat_s" in
  with_recording (fun () ->
      Metrics.add c 17;
      Metrics.hist_observe h 0.5;
      Metrics.hist_observe h 3.0;
      Metrics.hist_observe h 99.0;
      Metrics.time lat ignore);
  let om = Metrics.to_openmetrics () in
  Alcotest.(check bool) "counter TYPE line" true
    (contains om "# TYPE test_obs_om_c counter");
  Alcotest.(check bool) "counter sample with class label" true
    (contains om "test_obs_om_c_total{class=\"det\"} 17\n");
  Alcotest.(check bool) "histogram TYPE line" true
    (contains om "# TYPE test_obs_om_h histogram");
  Alcotest.(check bool) "cumulative buckets with +Inf" true
    (contains om "test_obs_om_h_bucket{class=\"det\",le=\"1\"} 1\n"
    && contains om "test_obs_om_h_bucket{class=\"det\",le=\"10\"} 2\n"
    && contains om "test_obs_om_h_bucket{class=\"det\",le=\"+Inf\"} 3\n"
    && contains om "test_obs_om_h_count{class=\"det\"} 3\n");
  Alcotest.(check bool) "ends with # EOF" true
    (let n = String.length om in
     n >= 6 && String.sub om (n - 6) 6 = "# EOF\n");
  (* Every non-comment line is `name{labels} value` with a parseable
     value — the shape a Prometheus scraper requires. *)
  String.split_on_char '\n' om
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then begin
           (match line.[0] with
           | 'a' .. 'z' | 'A' .. 'Z' | '_' -> ()
           | c -> Alcotest.failf "bad metric name start %C in %S" c line);
           match String.rindex_opt line ' ' with
           | None -> Alcotest.failf "no value separator in %S" line
           | Some i -> (
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               match float_of_string_opt v with
               | Some _ -> ()
               | None -> Alcotest.failf "unparseable value %S in %S" v line)
         end);
  Alcotest.(check bool) "latency is a runtime histogram" true
    (contains om "test_obs_om_lat_s_count{class=\"runtime\"} 1\n");
  Alcotest.(check bool) "no summary family" false (contains om "summary");
  (* The deterministic exposition excludes every runtime instrument,
     latencies included. *)
  let det = Metrics.to_openmetrics ~cls:`Deterministic () in
  Alcotest.(check bool) "det exposition has no latencies" false
    (contains det "test_obs_om_lat_s");
  Alcotest.(check bool) "det exposition keeps det hists" true
    (contains det "test_obs_om_h_bucket")

(* -------------------------------------------------------------- progress *)

let test_progress_format () =
  List.iter
    (fun (expected, got) -> Alcotest.(check string) expected expected got)
    [
      ( "progress 250 125/s err=3 window=7/64 vmhwm=5616kB",
        Progress.format_line ~done_:250 ~rate:125.4 ~errors:3 ~window:(7, 64)
          ~rss_kb:(Some 5616) );
      ( "progress 42 0/s err=0 window=0/4",
        Progress.format_line ~done_:42 ~rate:0.0 ~errors:0 ~window:(0, 4) ~rss_kb:None );
      ( "progress done 1000 err=2 elapsed=4.0s avg=250/s",
        Progress.format_final ~done_:1000 ~errors:2 ~elapsed_s:4.0 );
      ( "progress done 5 err=0 elapsed=0.0s avg=0/s",
        Progress.format_final ~done_:5 ~errors:0 ~elapsed_s:0.0 );
    ]

let test_progress_reporter () =
  let buf = Buffer.create 256 in
  let p =
    Progress.create ~interval:0.0 ~window_cap:64 ~out:(Buffer.add_string buf) ()
  in
  Progress.tick p ~done_:1 ~errors:0 ~occupancy:3;
  Progress.tick p ~done_:2 ~errors:1 ~occupancy:2;
  Progress.finish p ~done_:10 ~errors:1;
  Alcotest.(check int) "three lines emitted" 3 (Progress.beats p);
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "buffer holds them" 3 (List.length lines);
  let first = List.nth lines 0 in
  Alcotest.(check bool) "heartbeat shape" true
    (String.starts_with ~prefix:"progress 1 " first && contains first "window=3/64");
  let last = List.nth lines 2 in
  Alcotest.(check bool) "final line shape" true
    (String.starts_with ~prefix:"progress done 10 err=1 " last);
  (* A long interval rate-limits ticks to silence. *)
  let q = Progress.create ~interval:3600.0 ~window_cap:4 ~out:(Buffer.add_string buf) () in
  Progress.tick q ~done_:1 ~errors:0 ~occupancy:1;
  Progress.tick q ~done_:2 ~errors:0 ~occupancy:1;
  Alcotest.(check int) "ticks inside the interval are silent" 0 (Progress.beats q)

(* ----------------------------------------------------------- trace rings *)

let test_trace_ring () =
  (* Bounded from the start: 10 events through a 4-slot ring keep the 4
     newest and count 6 drops, reported in the export. *)
  Trace.start ~ring:4 ();
  for i = 1 to 10 do
    Trace.with_span (Printf.sprintf "ring.%02d" i) ignore
  done;
  Trace.stop ();
  Alcotest.(check int) "drops counted" 6 (Trace.dropped ());
  let js = Trace.export () in
  Alcotest.(check bool) "bounded export well-formed" true (json_is_valid js);
  Alcotest.(check bool) "newest events kept" true
    (contains js "ring.07" && contains js "ring.08" && contains js "ring.09"
    && contains js "ring.10");
  Alcotest.(check bool) "oldest events gone" false
    (contains js "ring.01" || contains js "ring.06");
  Alcotest.(check bool) "droppedEvents reported" true
    (contains js "\"droppedEvents\":6");
  (* set_ring on a live unbounded buffer trims to the newest K immediately. *)
  Trace.start ();
  for i = 1 to 10 do
    Trace.with_span (Printf.sprintf "trim.%02d" i) ignore
  done;
  Trace.set_ring (Some 3);
  Alcotest.(check int) "trim counted as drops" 7 (Trace.dropped ());
  let js = Trace.export () in
  Alcotest.(check bool) "survivors are the newest 3" true
    (contains js "trim.08" && contains js "trim.09" && contains js "trim.10"
    && not (contains js "trim.07"));
  (* Back to unbounded: new events append without dropping. *)
  Trace.set_ring None;
  Trace.with_span "after.unbound" ignore;
  Trace.stop ();
  Alcotest.(check int) "no further drops" 7 (Trace.dropped ());
  Alcotest.(check bool) "appended event present" true
    (contains (Trace.export ()) "after.unbound");
  Trace.reset ()

let test_trace_flow () =
  Trace.start ();
  Fun.protect ~finally:(fun () -> Trace.stop ()) (fun () ->
      Trace.flow_start ~id:9 "spec";
      Trace.flow_step ~tid:2 ~id:9 "spec";
      Trace.flow_end ~id:9 "spec");
  let js = Trace.export () in
  Alcotest.(check bool) "flow export well-formed" true (json_is_valid js);
  Alcotest.(check bool) "start/step/end phases" true
    (contains js "\"ph\":\"s\"" && contains js "\"ph\":\"t\""
    && contains js "\"ph\":\"f\"");
  Alcotest.(check bool) "shared flow id" true (contains js "\"id\":9");
  Alcotest.(check bool) "binding point on the end event" true
    (contains js "\"bp\":\"e\"");
  Alcotest.(check bool) "step on the worker track" true (contains js "\"tid\":2");
  Trace.reset ()

(* The bounded-trace memory smoke (doc/ROBUSTNESS.md): 200k events through
   a 1024-slot ring must keep the peak heap flat — the delta bound is far
   below the ~50 MB an unbounded buffer of that size would allocate. *)
let test_trace_ring_flat_memory () =
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.top_heap_words in
  Trace.start ~ring:1024 ();
  for i = 0 to 199_999 do
    Trace.flow_start ~id:i "spec"
  done;
  Trace.stop ();
  Alcotest.(check bool) "almost everything dropped" true (Trace.dropped () >= 198_000);
  let after = (Gc.quick_stat ()).Gc.top_heap_words in
  let delta_words = after - before in
  Alcotest.(check bool)
    (Printf.sprintf "peak heap grew %d words (cap 2M)" delta_words)
    true
    (delta_words < 2_000_000);
  Trace.reset ()

(* ------------------------------------------------------ snapshot parsing *)

(* The three renderings of one registry must parse back to the same
   values — this is what makes [sosctl obs-diff] format-agnostic. *)
let test_snapshot_parse () =
  let c = Metrics.counter "test.obs.parse.c" in
  let h = Metrics.hist "test.obs.parse.h" in
  with_recording (fun () ->
      Metrics.add c 17;
      List.iter (Metrics.hist_observe h) [ 1.0; 2.0; 3.0 ]);
  let text = Snapshot.parse (Metrics.snapshot ()) in
  let js = Snapshot.parse (Metrics.snapshot_json ()) in
  let om = Snapshot.parse (Metrics.to_openmetrics ()) in
  let find what es key =
    match List.find_opt (fun e -> e.Snapshot.key = key) es with
    | Some e -> e
    | None -> Alcotest.failf "%s: key %S missing" what key
  in
  Alcotest.(check (float 0.0)) "text counter" 17.0
    (find "text" text "test.obs.parse.c").Snapshot.v;
  Alcotest.(check (float 0.0)) "json counter" 17.0
    (find "json" js "test.obs.parse.c").Snapshot.v;
  Alcotest.(check (option string)) "json carries the class" (Some "det")
    (find "json" js "test.obs.parse.c").Snapshot.cls;
  Alcotest.(check (float 0.0)) "prom counter (sanitized name)" 17.0
    (find "prom" om "test_obs_parse_c_total").Snapshot.v;
  (* Histogram summary keys agree across text and JSON renderings. *)
  List.iter
    (fun k ->
      let tk = (find "text" text ("test.obs.parse.h." ^ k)).Snapshot.v in
      let jk = (find "json" js ("test.obs.parse.h." ^ k)).Snapshot.v in
      Alcotest.(check (float 1e-6)) (Printf.sprintf "hist %s text=json" k) tk jk)
    [ "count"; "p50"; "p90"; "p99"; "max" ];
  Alcotest.(check (float 0.0)) "hist count parsed" 3.0
    (find "text" text "test.obs.parse.h.count").Snapshot.v;
  Alcotest.(check (float 1e-9)) "hist max parsed exactly" 3.0
    (find "text" text "test.obs.parse.h.max").Snapshot.v

(* The OpenMetrics exposition of a histogram is a cumulative bucket
   family terminated by [_bucket{le="+Inf"}]; the parser must treat the
   bucket series as shape (skip it) while still extracting the scalar
   [_count]/[_sum] samples, and the [+Inf] bucket itself must equal the
   total count — the exposition's own internal consistency. *)
let test_snapshot_parse_prom_histogram () =
  let h = Metrics.hist "test.obs.prom.h" in
  with_recording (fun () -> List.iter (Metrics.hist_observe h) [ 0.5; 1.5; 2.5; 1e9 ]);
  let om = Metrics.to_openmetrics () in
  Alcotest.(check bool) "exposition has bucket series" true
    (contains om "test_obs_prom_h_bucket{");
  Alcotest.(check bool) "exposition has the +Inf terminal bucket" true
    (contains om "test_obs_prom_h_bucket{class=\"det\",le=\"+Inf\"} 4");
  let es = Snapshot.parse om in
  Alcotest.(check bool) "bucket series skipped by the parser" true
    (List.for_all (fun e -> not (contains e.Snapshot.key "_bucket")) es);
  let find key =
    match List.find_opt (fun e -> e.Snapshot.key = key) es with
    | Some e -> e
    | None -> Alcotest.failf "prom: key %S missing" key
  in
  let count = find "test_obs_prom_h_count" in
  Alcotest.(check (float 0.0)) "histogram count parsed" 4.0 count.Snapshot.v;
  Alcotest.(check (option string)) "histogram class label parsed" (Some "det")
    count.Snapshot.cls;
  (* The exposition renders floats with %.9g, so the 4.5 below the 1e9
     observation is rounded away in transit; allow for that precision. *)
  Alcotest.(check (float 16.0)) "histogram sum parsed" (0.5 +. 1.5 +. 2.5 +. 1e9)
    (find "test_obs_prom_h_sum").Snapshot.v

(* Round-trip against the JSON rendering of the same registry: modulo
   name sanitization ([a.b.c] -> [a_b_c_total]/[a_b_c_count]), the prom
   parse and the JSON parse must agree on every scalar they share. *)
let test_snapshot_prom_json_roundtrip () =
  let c = Metrics.counter "test.obs.rt.c" in
  let h = Metrics.hist "test.obs.rt.h" in
  with_recording (fun () ->
      Metrics.add c 23;
      List.iter (Metrics.hist_observe h) [ 1.0; 2.0; 4.0 ]);
  let om = Snapshot.parse (Metrics.to_openmetrics ()) in
  let js = Snapshot.parse (Metrics.snapshot_json ()) in
  let find what es key =
    match List.find_opt (fun e -> e.Snapshot.key = key) es with
    | Some e -> e
    | None -> Alcotest.failf "%s: key %S missing" what key
  in
  Alcotest.(check (float 0.0)) "counter prom = json" (find "json" js "test.obs.rt.c").Snapshot.v
    (find "prom" om "test_obs_rt_c_total").Snapshot.v;
  Alcotest.(check (float 0.0)) "hist count prom = json"
    (find "json" js "test.obs.rt.h.count").Snapshot.v
    (find "prom" om "test_obs_rt_h_count").Snapshot.v;
  Alcotest.(check (option string)) "classes agree"
    (find "json" js "test.obs.rt.c").Snapshot.cls
    (find "prom" om "test_obs_rt_c_total").Snapshot.cls

(* ------------------------------------------------------ registry docs *)

(* doc/OBSERVABILITY.md's two registry tables against the live registry:
   every metric the libraries register is a row with its kind, and every
   row names a registered metric. A row may list siblings as
   [`a.b.c` / `.d`], short for a.b.c and a.b.d; the per-domain counters
   engine.pool.dN.tasks share one row. *)
let test_registry_doc_parity () =
  (* The per-domain counters register when a pool starts. *)
  Engine.Pool.with_pool ~domains:2 ignore;
  Metrics.reset ();
  let library name =
    List.exists
      (fun prefix -> String.starts_with ~prefix name)
      [ "sos."; "engine."; "robust."; "serve."; "sas."; "binpack."; "process." ]
  in
  let fold_domain name =
    match Scanf.sscanf name "engine.pool.d%u.tasks%!" ignore with
    | () -> "engine.pool.dN.tasks"
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> name
  in
  let registered =
    Metrics.snapshot_json ()
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match Scanf.sscanf line " {\"name\": %S, \"class\": %S" (fun n c -> (n, c)) with
           | exception (Scanf.Scan_failure _ | End_of_file) -> None
           | name, cls when library name ->
               let kind = if cls = "det" then "D" else "R" in
               Some (fold_domain name, if contains line "\"buckets\"" then kind ^ "H" else kind)
           | _ -> None)
    |> List.sort_uniq compare
  in
  let names cell =
    let rec go base acc = function
      | [] -> List.rev acc
      | tok :: rest when String.length tok > 0 && tok.[0] = '.' ->
          go base ((base ^ tok) :: acc) rest
      | tok :: rest -> go (String.sub tok 0 (String.rindex tok '.')) (tok :: acc) rest
    in
    String.split_on_char '`' cell
    |> List.filteri (fun i _ -> i mod 2 = 1)
    |> go "" []
  in
  let rows =
    In_channel.with_open_text "../doc/OBSERVABILITY.md" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.fold_left
         (fun (inside, acc) line ->
           if String.starts_with ~prefix:"## " line then (line = "## Metric registry", acc)
           else if inside && String.starts_with ~prefix:"| `" line then (inside, line :: acc)
           else (inside, acc))
         (false, [])
    |> snd
    |> List.concat_map (fun line ->
           match String.split_on_char '|' line with
           | _ :: cell :: kind :: _ -> List.map (fun n -> (n, String.trim kind)) (names cell)
           | _ -> Alcotest.failf "doc/OBSERVABILITY.md: bad registry row %S" line)
    |> List.sort compare
  in
  Alcotest.(check (list (pair string string)))
    "doc/OBSERVABILITY.md registry tables = registered metrics" registered rows

(* ------------------------------------------------- counter reconciliation *)

(* Solve [inst] with counters on and check that the solver's unit counters
   agree exactly with the Schedule analytics of the very schedule it
   produced — the counters are an independent account of the same events. *)
let reconcile_checks inst =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect ~finally:(fun () -> Metrics.disable ()) @@ fun () ->
  let sched, iters = Sos.Fast.run_columns inst in
  let get = Metrics.get in
  Alcotest.(check int) "one run recorded" 1 (get "sos.fast.runs");
  Alcotest.(check int) "iterations counter = simulated loop count" iters
    (get "sos.fast.iterations");
  Alcotest.(check int) "iterations + skipped_steps = makespan_steps"
    (get "sos.fast.makespan_steps")
    (get "sos.fast.iterations" + get "sos.fast.skipped_steps");
  Alcotest.(check int) "makespan_steps = schedule makespan" sched.makespan
    (get "sos.fast.makespan_steps");
  Alcotest.(check int) "blocks = RLE steps emitted" sched.blocks (get "sos.fast.blocks");
  Alcotest.(check int) "consumed_units = Σ s_j"
    (Sos.Instance.total_requirement inst)
    (get "sos.fast.consumed_units");
  Alcotest.(check int) "waste_units = Schedule.total_waste"
    (Sos.Schedule.total_waste sched)
    (get "sos.fast.waste_units");
  Alcotest.(check int) "assigned − consumed = waste"
    (get "sos.fast.waste_units")
    (get "sos.fast.assigned_units" - get "sos.fast.consumed_units")

let test_reconcile_pinned () =
  reconcile_checks
    (Sos.Instance.create ~m:3 ~scale:12
       [ (4, 5); (3, 7); (6, 2); (2, 12); (5, 9) ])

let test_reconcile_random () =
  for seed = 1 to 40 do
    let rng = Rng.create (seed * 104729) in
    let inst = Workload.Sos_gen.random_instance rng ~max_n:12 ~max_size:8 () in
    try reconcile_checks inst
    with e ->
      Alcotest.failf "seed %d: %s\ninstance:\n%s" seed (Printexc.to_string e)
        (Sos.Instance.to_string inst)
  done

(* --------------------------------------------- batch snapshot determinism *)

(* Solve the same 64-instance corpus on [domains] workers and return the
   deterministic counter snapshot. Instances derive from (seed, index) via
   the engine's own seeding discipline, so the work — and therefore every
   deterministic counter — is identical at any domain count. *)
let det_snapshot_of_batch ~domains seed =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect ~finally:(fun () -> Metrics.disable ()) @@ fun () ->
  let tasks =
    Array.init 64 (fun i () ->
        let rng = Rng.create2 seed i in
        let inst = Workload.Sos_gen.random_instance rng ~max_n:8 ~max_m:4 ~max_size:5 () in
        let sched, _ = Sos.Fast.run_columns inst in
        (* Rating the makespan feeds the deterministic ratio histogram, so
           the byte-identity property below covers histogram buckets and
           quantiles, not just counters. *)
        ignore (Sos.Bounds.theorem_3_3_bound inst ~makespan:sched.Sos.Schedule.Columns.makespan);
        sched.Sos.Schedule.Columns.makespan)
  in
  Array.iter
    (function
      | Ok _ -> ()
      | Error (e : Engine.Batch.error) ->
          Alcotest.failf "task %d failed: %s" e.index e.message)
    (Engine.Batch.map ~domains ~chunk:4 tasks);
  Metrics.snapshot ~cls:`Deterministic ()

let qcheck_batch_snapshot_deterministic =
  Helpers.qcheck ~count:4
    "64-task batch: deterministic snapshot byte-identical at -j 1/2/4"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let s1 = det_snapshot_of_batch ~domains:1 seed in
      let s2 = det_snapshot_of_batch ~domains:2 seed in
      let s4 = det_snapshot_of_batch ~domains:4 seed in
      String.length s1 > 0
      && contains s1 "sos.bounds.ratio"
      && contains s1 "sos.fast.iterations_per_run"
      && s1 = s2 && s2 = s4)

(* Snapshot.parse skips what it cannot read: random bytes behind no
   prefix, or behind the byte or sample that selects each format, parse
   without raising. *)
let prop_snapshot_parse_total =
  Helpers.fuzz "Snapshot.parse never raises on random bytes"
    ~prefixes:[ ""; "{"; "#"; "x_total{" ]
    ~specials:[ '{'; '}'; '['; ']'; '"'; '\\'; ':'; ','; '\n'; ' '; '#'; '='; '.'; '-'; 'e' ]
    (fun text -> ignore (Obs.Snapshot.parse text : Obs.Snapshot.entry list); true)

let suite =
  ( "obs",
    [
      prop_snapshot_parse_total;
      Alcotest.test_case "json checker sanity" `Quick test_json_checker_sanity;
      Alcotest.test_case "counter basics" `Quick test_counter_basics;
      Alcotest.test_case "registry errors" `Quick test_registry_errors;
      Alcotest.test_case "record_max" `Quick test_record_max;
      Alcotest.test_case "timer" `Quick test_timer;
      Alcotest.test_case "snapshot classes" `Quick test_snapshot_classes;
      Alcotest.test_case "snapshot json" `Quick test_snapshot_json;
      Alcotest.test_case "trace export" `Quick test_trace_export;
      Alcotest.test_case "hist basics" `Quick test_hist_basics;
      Alcotest.test_case "hist quantile goldens" `Quick test_hist_quantile_golden;
      Alcotest.test_case "openmetrics exposition" `Quick test_openmetrics;
      Alcotest.test_case "progress format goldens" `Quick test_progress_format;
      Alcotest.test_case "progress reporter" `Quick test_progress_reporter;
      Alcotest.test_case "trace ring bounded" `Quick test_trace_ring;
      Alcotest.test_case "trace flow events" `Quick test_trace_flow;
      Alcotest.test_case "trace ring flat memory" `Quick test_trace_ring_flat_memory;
      Alcotest.test_case "snapshot parse roundtrip" `Quick test_snapshot_parse;
      Alcotest.test_case "snapshot prom histogram (+Inf bucket)" `Quick
        test_snapshot_parse_prom_histogram;
      Alcotest.test_case "snapshot prom/json round-trip" `Quick
        test_snapshot_prom_json_roundtrip;
      Alcotest.test_case "registry tables match doc/OBSERVABILITY.md" `Quick
        test_registry_doc_parity;
      Alcotest.test_case "solver counters reconcile (pinned)" `Quick
        test_reconcile_pinned;
      Alcotest.test_case "solver counters reconcile (random)" `Quick
        test_reconcile_random;
      qcheck_batch_snapshot_deterministic;
    ] )
