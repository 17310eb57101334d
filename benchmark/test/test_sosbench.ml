open Benchlib

let sosctl = ref ""

(* --- inputs --- *)

let dir_contents dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, Proc.read_file (Filename.concat dir f)))

let test_inputs_seeded () =
  let same name a b = Alcotest.(check bool) (name ^ ": same seed, same bytes") true (a = b) in
  let differ name a b = Alcotest.(check bool) (name ^ ": other seed, other bytes") false (a = b) in
  let mixed seed = Inputs.mixed_corpus ~seed ~scale:0.01 in
  same "mixed" (mixed 7) (mixed 7);
  differ "mixed" (mixed 7) (mixed 8);
  let serve seed gap = fst (Inputs.serve_transcript ~seed ~scale:0.05 ~gap) in
  same "dense" (serve 7 Inputs.dense_gap) (serve 7 Inputs.dense_gap);
  differ "dense" (serve 7 Inputs.dense_gap) (serve 8 Inputs.dense_gap);
  same "sparse" (serve 7 Inputs.sparse_gap) (serve 7 Inputs.sparse_gap);
  differ "sparse" (serve 7 Inputs.sparse_gap) (serve 8 Inputs.sparse_gap);
  (* the warm-up ends with the close of the last first-generation tenant *)
  let text, warmup = Inputs.serve_transcript ~seed:7 ~scale:1.0 ~gap:Inputs.dense_gap in
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let first_closes =
    List.filter
      (fun i -> String.starts_with ~prefix:"close " lines.(i) && String.ends_with ~suffix:"g0" lines.(i))
      (List.init (Array.length lines) Fun.id)
  in
  Alcotest.(check int) "every first generation is closed" Inputs.serve_tenants (List.length first_closes);
  Alcotest.(check int) "warm-up ends at the last of them" (1 + List.nth first_closes (Inputs.serve_tenants - 1)) warmup;
  let dir = "inputs" in
  Proc.mkdir_p dir;
  let large seed =
    let corpus = Inputs.large_corpus ~seed ~scale:0.01 ~dir in
    (corpus, dir_contents dir)
  in
  let a = large 7 in
  same "large" a (large 7);
  differ "large" a (large 8);
  Alcotest.(check int) "large: one spec per line" (Inputs.scaled 0.01 Inputs.large_specs)
    (List.length (String.split_on_char '\n' (fst a)) - 1)

(* --- statistics --- *)

let test_percentiles () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let check name want p = Alcotest.(check (float 0.0)) name want (Stats.nearest_rank a p) in
  check "p50 of 1..100" 50.0 0.5;
  check "p90 of 1..100" 90.0 0.9;
  check "p99 of 1..100" 99.0 0.99;
  check "p100 of 1..100" 100.0 1.0;
  Alcotest.(check (float 0.0)) "nearest rank is an observed value" 2.0 (Stats.nearest_rank [| 1.0; 2.0; 3.0 |] 0.5);
  (* ten samples beyond: p99 needs n >= 1000, p90 needs n >= 100 *)
  Alcotest.(check bool) "p90 supported at 100" true (Stats.supported 100 0.9);
  Alcotest.(check bool) "p99 unsupported at 100" false (Stats.supported 100 0.99);
  Alcotest.(check bool) "p99 unsupported at 999" false (Stats.supported 999 0.99);
  Alcotest.(check bool) "p99 supported at 1000" true (Stats.supported 1000 0.99);
  Alcotest.(check (option (float 0.0))) "highest supported at 3999" (Some 0.99)
    (Stats.highest_supported 3999 [ 0.5; 0.9; 0.99; 0.999 ]);
  Alcotest.(check (option (float 0.0))) "highest supported at 40" (Some 0.5)
    (Stats.highest_supported 40 [ 0.5; 0.9; 0.99 ]);
  Alcotest.(check (option (float 0.0))) "nothing supported at 9" None (Stats.highest_supported 9 [ 0.5 ]);
  Alcotest.(check (float 0.0)) "median even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

(* --- spans --- *)

let test_self_time () =
  (* Clock readings in call order. The first is the recorder's epoch; each
     span reads the clock on entry, at its start, at its stop and after
     its bookkeeping. Bookkeeping (entry to start, stop to after) counts
     toward no span's self time. *)
  let ticks =
    ref
      [
        0 (* epoch *);
        0; 1 (* root *);
        5; 6; 16; 18 (* a: 10 long *);
        20; 21 (* b *);
        25; 26; 31; 32 (* c: 5 long *);
        40; 41 (* b ends: 19 long *);
        50; 52 (* root ends: 49 long *);
      ]
  in
  let clock () =
    match !ticks with
    | t :: rest ->
        ticks := rest;
        t
    | [] -> failwith "clock"
  in
  let tr = Tracer.create ~clock ~enabled:true () in
  Tracer.span tr "root" ~id:(-1) (fun () ->
      Tracer.span tr "a" ~id:0 ignore;
      Tracer.span tr "b" ~id:0 (fun () -> Tracer.span tr "c" ~id:0 ignore));
  let self name = Tracer.total_ns tr name in
  Alcotest.(check int) "root self = 49 - (10 + 19) - bookkeeping 5" 15 (self "root");
  Alcotest.(check int) "a self" 10 (self "a");
  Alcotest.(check int) "b self = 19 - 5 - bookkeeping 2" 12 (self "b");
  Alcotest.(check int) "c self" 5 (self "c");
  Alcotest.(check int) "bookkeeping" 10 (Tracer.bookkeeping_ns tr);
  Alcotest.(check int) "self times and bookkeeping cover the run" 52
    (List.fold_left (fun acc n -> acc + self n) (Tracer.bookkeeping_ns tr) (Tracer.names tr));
  Alcotest.(check (list string)) "layers in first-seen order" [ "a"; "c"; "b"; "root" ] (Tracer.names tr);
  let off = Tracer.create ~enabled:false () in
  Alcotest.(check int) "disabled recorder still runs the call" 3 (Tracer.span off "x" ~id:0 (fun () -> 3));
  Alcotest.(check (list string)) "and records nothing" [] (Tracer.names off)

(* --- open loop --- *)

let test_open_loop () =
  let start = 1_000_000_000 in
  Alcotest.(check int) "request 1 is due at the start" start (Serve_wl.due ~start ~rate:1000.0 1);
  Alcotest.(check int) "request 5 at 4000/s is due 1 ms in" (start + 1_000_000) (Serve_wl.due ~start ~rate:4000.0 5);
  Alcotest.(check int) "request 3 at 1000/s" (start + 2_000_000) (Serve_wl.due ~start ~rate:1000.0 3);
  Alcotest.(check (float 1e-9)) "latency counts from the due time" 1.5
    (Serve_wl.since_due_ms ~start ~rate:1000.0 3 ~at:(start + 3_500_000));
  Alcotest.(check (float 1e-9)) "a request queued on time is 0 late" 0.0
    (Serve_wl.since_due_ms ~start ~rate:500.0 2 ~at:(start + 2_000_000))

(* --- output checks --- *)

let test_checks () =
  let problems lines =
    let c = Checks.create () in
    List.iteri (fun index line -> Checks.batch_line c ~index line) lines;
    (Checks.problems c, c.Checks.failed)
  in
  let ok = "0 ok uniform-small n=4 m=4 makespan=10 lb=8 ratio=1.2500 blocks=3" in
  Alcotest.(check (pair (list string) int)) "a good line passes" ([], 0) (problems [ ok ]);
  let bad what line = Alcotest.(check bool) what true (fst (problems [ line ]) <> []) in
  bad "lb above makespan" "0 ok uniform-small n=4 m=4 makespan=10 lb=11 ratio=0.9091 blocks=3";
  bad "ratio above 2 + 1/(m-2)" "0 ok uniform-small n=4 m=4 makespan=30 lb=10 ratio=3.0000 blocks=3";
  (* 13/6 is exactly 2 + 1/(8-2); its printed ratio rounds up past the bound *)
  Alcotest.(check (pair (list string) int)) "a ratio on the bound passes" ([], 0)
    (problems [ "0 ok uniform-small n=8 m=8 makespan=13 lb=6 ratio=2.1667 blocks=3" ]);
  bad "a ratio just above the bound" "0 ok uniform-small n=8 m=8 makespan=14 lb=6 ratio=2.3333 blocks=3";
  bad "index out of order" "1 ok uniform-small n=4 m=4 makespan=10 lb=8 ratio=1.2500 blocks=3";
  Alcotest.(check (pair (list string) int)) "an error line counts as failed" ([], 1)
    (problems [ "0 error invalid line 1: bad" ])

(* --- the workloads, end to end at 1/100 scale --- *)

let test_workload (w : Workloads.t) () =
  let ctx =
    {
      Workloads.sosctl = !sosctl;
      work = "work";
      out_dir = "traces";
      seed = 3;
      scale = 0.01;
      seconds = 0.0;
      ladder = true;
    }
  in
  List.iter
    (fun trace ->
      let r = w.Workloads.run ctx ~trace in
      let what = if trace then "traced" else "end to end" in
      Alcotest.(check (list string)) (what ^ ": every check passes") [] r.Report.problems;
      Alcotest.(check bool) (what ^ ": attempted") true (r.Report.attempted > 0);
      Alcotest.(check int) (what ^ ": failed") 0 r.Report.failed;
      let names = List.map (fun (m : Report.metric) -> m.Report.name) r.Report.metrics in
      if trace then
        Alcotest.(check (list string)) "every per-layer metric" (List.map fst Layers.line_names) names
      else
        Alcotest.(check (list string)) "end-to-end metrics" [ "items_per_s"; "setup_s"; "peak_rss_mb" ] names;
      (* peak_rss_mb is left out: a child living a few milliseconds may
         exit before its status is polled. *)
      if not trace then
        List.iter
          (fun (m : Report.metric) ->
            if m.Report.name <> "peak_rss_mb" then
              Alcotest.(check bool) (m.Report.name ^ " is never 0") true (m.Report.value > 0.0))
          r.Report.metrics)
    [ false; true ]

let () =
  sosctl := Sys.argv.(1);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "sosbench"
    [
      ( "sosbench",
        [
          Alcotest.test_case "inputs are a function of the seed" `Quick test_inputs_seeded;
          Alcotest.test_case "nearest-rank percentiles and the median" `Quick test_percentiles;
          Alcotest.test_case "self time over nested spans" `Quick test_self_time;
          Alcotest.test_case "open-loop due times and lateness" `Quick test_open_loop;
          Alcotest.test_case "batch line checks" `Quick test_checks;
        ]
        @ List.map
            (fun (w : Workloads.t) -> Alcotest.test_case ("workload " ^ w.Workloads.name ^ " at 1/100") `Quick (test_workload w))
            Workloads.all );
    ]
