(* Layer 11 — sosgraph, the whole-program analysis passes.

   Where soslint's rules are per-file (suite_lint.ml), sosgraph's passes
   A1-A4 are interprocedural: every fixture below plants its violation at
   least one call-graph edge away from the entry point that makes it a
   violation, so the tests fail if the call graph, the per-module
   resolution, or the reachability closures break — not just the syntactic
   matchers. Same matrix as the lint suite: per pass one violating fixture
   (exact file:line listing, exit 1), one clean fixture exercising the
   interprocedural escape hatch (a callee that polls, an Atomic, a
   taxonomy carrier), and one suppressed via [@sos.allow]. Plus the
   cross-cutting checks: byte-identical double runs on fixtures and on
   the repo itself, the JSON report, the per-pass baseline cycle, and the
   invariant that the repo is clean under its committed baseline. *)

let sosgraph = "../tools/analysis/sosgraph.exe"
let fixtures = "fixtures_analysis"

let run_graph args =
  let ic = Unix.open_process_in (sosgraph ^ " " ^ args) in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, Buffer.contents buf)

let graph_root ?(extra = "") root =
  run_graph (Printf.sprintf "--root %s/%s %s lib bin bench" fixtures root extra)

let summary_line ~files ~functions ~edges ~violations ~suppressed ~sites =
  Printf.sprintf
    "sosgraph: %d files, %d functions, %d edges, %d violations, %d suppressed hits via %d \
     [@sos.allow] sites\n"
    files functions edges violations suppressed sites

(* ------------------------------------------------- per-pass fixtures *)

(* (pass, violating listing, (files, functions, edges) per variant).
   Sizes differ per fixture because the clean variants add the callee
   that provides the escape hatch. *)
let expected =
  [
    ( "a1",
      [
        "lib/sos/fast.ml:3 A1 det-class solver entry Sos.Fast.run is wall-clock/RNG/DLS/env \
         tainted: via Sos.Fast.run -> Sos.Fast.helper -> Sos.Fast.helper2; seed wall-clock \
         Unix.gettimeofday (lib/sos/fast.ml:1)";
      ],
      ((1, 3, 2), (1, 3, 2), (1, 3, 2)) );
    ( "a2",
      [
        "lib/sos/fast.ml:3 A2 while loop in Sos.Fast.spin (reachable from Sos.Fast.run_in) never \
         reaches Robust.Context.poll/Chaos.point \xe2\x80\x94 un-cancellable";
      ],
      ((1, 2, 1), (1, 3, 3), (1, 2, 1)) );
    ( "a3",
      [
        "lib/sos/ablation.ml:1 A3 module-toplevel mutable state Sos.Ablation.runs (ref) is used \
         by Sos.Ablation.run_no_move, which runs on pool workers (reachable from \
         Sos.Ablation.run_no_move): use Atomic, Domain.DLS, or an explicit allow";
        "lib/sos/cache.ml:1 A3 module-toplevel mutable state Sos.Cache.hits (ref) is used by \
         Sos.Cache.bump, which runs on pool workers (reachable from Engine.Pool.worker): use \
         Atomic, Domain.DLS, or an explicit allow";
      ],
      ((3, 5, 3), (2, 3, 2), (2, 3, 2)) );
    ( "a4",
      [
        "lib/sos/packer.ml:1 A4 failwith in Sos.Packer.go is reachable from sosctl \
         (Sosctl.main) but maps to no Robust.Failure class";
      ],
      ((2, 2, 1), (2, 2, 1), (2, 2, 1)) );
  ]

let test_pass_violating pass listing (files, functions, edges) () =
  let code, out = graph_root (pass ^ "_bad") in
  let expected =
    String.concat "" (List.map (fun l -> l ^ "\n") listing)
    ^ summary_line ~files ~functions ~edges ~violations:(List.length listing) ~suppressed:0
        ~sites:0
  in
  Alcotest.(check string) (pass ^ " listing") expected out;
  Alcotest.(check int) (pass ^ " exit") 1 code

let test_pass_clean pass (files, functions, edges) () =
  let code, out = graph_root (pass ^ "_clean") in
  Alcotest.(check string)
    (pass ^ " clean listing")
    (summary_line ~files ~functions ~edges ~violations:0 ~suppressed:0 ~sites:0)
    out;
  Alcotest.(check int) (pass ^ " clean exit") 0 code

let test_pass_allow pass (files, functions, edges) () =
  let code, out = graph_root (pass ^ "_allow") in
  Alcotest.(check string)
    (pass ^ " allow listing")
    (summary_line ~files ~functions ~edges ~violations:0 ~suppressed:1 ~sites:1)
    out;
  Alcotest.(check int) (pass ^ " allow exit") 0 code

(* --------------------------------------------------- cross-cutting *)

let test_deterministic_output () =
  let fixture_args = Printf.sprintf "--root %s/a1_bad lib bin bench" fixtures in
  let code1, out1 = run_graph fixture_args in
  let code2, out2 = run_graph fixture_args in
  Alcotest.(check string) "fixture bytes identical" out1 out2;
  Alcotest.(check int) "fixture exits agree" code1 code2;
  let repo_args =
    "--root .. --exclude-dir test/fixtures_lint --exclude-dir test/fixtures_analysis lib bin \
     bench test"
  in
  let _, repo1 = run_graph repo_args in
  let _, repo2 = run_graph repo_args in
  Alcotest.(check string) "repo scan bytes identical" repo1 repo2

let test_json_report () =
  let path = Filename.temp_file "sosgraph" ".json" in
  let _code, _out = graph_root ~extra:("--json " ^ path) "a4_bad" in
  let ic = open_in_bin path in
  let json = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> Alcotest.(check bool) ("contains " ^ needle) true (contains needle))
    [
      "\"files_checked\": 2";
      "\"functions\": 2";
      "\"edges\": 1";
      "\"violations\": 1";
      "\"suppressed\": 0";
      "\"allow_sites\": 0";
      "{\"id\": \"A1\", \"name\": \"determinism-taint\", \"violations\": 0, \"suppressed\": 0}";
      "{\"id\": \"A4\", \"name\": \"failure-taxonomy-reachability\", \"violations\": 1, \
       \"suppressed\": 0}";
      "\"file\": \"lib/sos/packer.ml\", \"line\": 1, \"pass\": \"A4\"";
    ];
  let count c = String.fold_left (fun acc x -> if x = c then acc + 1 else acc) 0 json in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check int) "balanced brackets" (count '[') (count ']');
  Alcotest.(check bool) "ends with newline" true (json.[String.length json - 1] = '\n')

let test_baseline_roundtrip () =
  let path = Filename.temp_file "sosgraph" ".baseline" in
  let code, _ = graph_root ~extra:("--write-baseline " ^ path) "a4_allow" in
  Alcotest.(check int) "write exit" 0 code;
  let ic = open_in path in
  let rows = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "per-pass rows" "A1 0\nA2 0\nA3 0\nA4 1\n" rows;
  let code, _ = graph_root ~extra:("--baseline " ^ path) "a4_allow" in
  Alcotest.(check int) "within baseline" 0 code;
  Sys.remove path

let test_baseline_regression () =
  let path = Filename.temp_file "sosgraph" ".baseline" in
  let oc = open_out path in
  output_string oc "A4 0\n";
  close_out oc;
  let code, out = graph_root ~extra:("--baseline " ^ path) "a4_allow" in
  Sys.remove path;
  Alcotest.(check int) "allow-count increase fails" 1 code;
  let mentions =
    String.split_on_char '\n' out
    |> List.exists (fun l ->
           String.length l >= 3 && String.sub l 0 3 = "A4:"
           && String.length l > String.length "A4: 1 suppressed")
  in
  Alcotest.(check bool) "explains the baseline breach" true mentions

(* The repo itself must analyse clean under the committed per-pass
   baseline: this is the invariant CI enforces via `dune build @analyze`,
   re-checked here so `dune runtest` alone also catches a regression. *)
let test_repo_is_clean () =
  let code, out =
    run_graph
      "--root .. --baseline ../tools/analysis/allow_baseline.txt --exclude-dir \
       test/fixtures_lint --exclude-dir test/fixtures_analysis lib bin bench test"
  in
  let lines = String.split_on_char '\n' out in
  let listing =
    List.filter
      (fun l -> l <> "" && not (String.length l >= 9 && String.sub l 0 9 = "sosgraph:"))
      lines
  in
  Alcotest.(check (list string)) "no violations in lib/ bin/ bench/ test/" [] listing;
  Alcotest.(check int) "repo analyses clean" 0 code

let suite =
  let per_pass =
    expected
    |> List.concat_map (fun (pass, listing, (bad, clean, allow)) ->
           [
             Alcotest.test_case (pass ^ " violating fixture") `Quick
               (test_pass_violating pass listing bad);
             Alcotest.test_case (pass ^ " clean fixture") `Quick (test_pass_clean pass clean);
             Alcotest.test_case (pass ^ " suppressed fixture") `Quick
               (test_pass_allow pass allow);
           ])
  in
  ( "analysis",
    per_pass
    @ [
        Alcotest.test_case "output byte-identical across runs" `Quick test_deterministic_output;
        Alcotest.test_case "json report" `Quick test_json_report;
        Alcotest.test_case "baseline roundtrip" `Quick test_baseline_roundtrip;
        Alcotest.test_case "baseline regression rejected" `Quick test_baseline_regression;
        Alcotest.test_case "repo analyses clean" `Quick test_repo_is_clean;
      ] )
