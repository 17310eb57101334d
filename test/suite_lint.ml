(* Layer 10 — soslint, the repo-invariant static-analysis pass.

   Each rule R1-R7 is exercised against three fixture mini-repos under
   test/fixtures_lint/: one violating (exact file:line rule output and
   exit 1), one clean (exit 0, and for most rules the clean fixture
   doubles as a scope test — the same construct placed where the rule
   does not apply), and one suppressed via [@sos.allow] (exit 0 with the
   suppression counted). On top of the per-rule matrix: the R0
   allow-syntax checks (malformed payload, unused allow), byte-identical
   output across consecutive runs, the JSON summary, and the committed
   allowlist baseline mechanism. *)

let soslint = "../tools/lint/soslint.exe"
let fixtures = "fixtures_lint"

(* Run soslint and capture (exit code, stdout). Stderr is left alone:
   on the fixture corpus the linter writes nothing there, and an
   unexpected parse error would surface as a bad exit code anyway. *)
let run_lint args =
  let ic = Unix.open_process_in (soslint ^ " " ^ args) in
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

let lint_root ?(extra = "") root = run_lint (Printf.sprintf "--root %s/%s %s" fixtures root extra)

let summary_line ~files ~violations ~suppressed ~sites =
  Printf.sprintf "soslint: %d files, %d violations, %d suppressed hits via %d [@sos.allow] sites\n"
    files violations suppressed sites

(* ------------------------------------------------- per-rule fixtures *)

(* (rule, violating-fixture listing). The clean and allow fixtures are
   derived from the rule id. *)
let expected_violations =
  [
    ( "r1",
      [ "lib/workload/gen.ml:2 R1 stdlib Random is global mutable state; use Prelude.Rng (seeded, splittable)" ] );
    ( "r2",
      [
        "lib/sas/timing.ml:2 R2 Unix.gettimeofday: wall-clock reads go through Prelude.Clock only";
        "lib/sas/timing.ml:7 R2 Unix.time: wall-clock reads go through Prelude.Clock only (via \
         module alias U)";
      ] );
    ("r3", [ "lib/sos/lock.ml:2 R3 Mutex.create: libraries are Atomic-only (deterministic)" ]);
    ("r4", [ "lib/sos/report.ml:2 R4 print_endline: stdout belongs to sosctl results, not library code" ]);
    ( "r5",
      [ "lib/sos/export.ml:2 R5 Hashtbl.iter: iteration order is unspecified; sort keys before any emission/digest" ] );
    ( "r6",
      [
        "lib/sos/fast.ml:2 R6 failwith: hot paths raise Robust.Failure carriers (or Failure.internal_error)";
        "lib/sos/fast.ml:3 R6 raise Exit: hot paths raise Robust.Failure carriers";
      ] );
    ( "r7",
      [
        "lib/sos/cmp.ml:2 R7 polymorphic = on a float-bearing expression; use Float.equal/Float.compare";
        "lib/sos/cmp.ml:3 R7 polymorphic min on a float-bearing expression; use Float.equal/Float.compare";
      ] );
  ]

let test_rule_violating rule listing () =
  let code, out = lint_root (rule ^ "_bad") in
  let expected =
    String.concat "" (List.map (fun l -> l ^ "\n") listing)
    ^ summary_line ~files:1 ~violations:(List.length listing) ~suppressed:0 ~sites:0
  in
  Alcotest.(check string) (rule ^ " listing") expected out;
  Alcotest.(check int) (rule ^ " exit") 1 code

let test_rule_clean rule () =
  let code, out = lint_root (rule ^ "_clean") in
  Alcotest.(check string)
    (rule ^ " clean listing")
    (summary_line ~files:1 ~violations:0 ~suppressed:0 ~sites:0)
    out;
  Alcotest.(check int) (rule ^ " clean exit") 0 code

let test_rule_allow rule () =
  let code, out = lint_root (rule ^ "_allow") in
  Alcotest.(check string)
    (rule ^ " allow listing")
    (summary_line ~files:1 ~violations:0 ~suppressed:1 ~sites:1)
    out;
  Alcotest.(check int) (rule ^ " allow exit") 0 code

(* --------------------------------------------------- cross-cutting *)

let test_allow_syntax () =
  let code, out = lint_root "r0_bad" in
  let expected =
    "lib/sos/oops.ml:1 R0 malformed [@sos.allow]: missing ':' \xe2\x80\x94 expected \"Rn: reason\"\n"
    ^ "lib/sos/oops.ml:3 R0 unused [@sos.allow \"R1: ...\"]: it suppresses no hit\n"
    ^ summary_line ~files:1 ~violations:2 ~suppressed:0 ~sites:1
  in
  Alcotest.(check string) "r0 listing" expected out;
  Alcotest.(check int) "r0 exit" 1 code

(* The acceptance bar for a lint tool that gates CI: two consecutive runs
   produce byte-identical output — both on a violating fixture and on the
   full repo scan. *)
let test_deterministic_output () =
  let fixture_args = Printf.sprintf "--root %s/r7_bad" fixtures in
  let code1, out1 = run_lint fixture_args in
  let code2, out2 = run_lint fixture_args in
  Alcotest.(check string) "fixture bytes identical" out1 out2;
  Alcotest.(check int) "fixture exits agree" code1 code2;
  let repo_args =
    "--root .. --exclude-dir test/fixtures_lint --exclude-dir test/fixtures_analysis lib bin \
     bench test"
  in
  let _, repo1 = run_lint repo_args in
  let _, repo2 = run_lint repo_args in
  Alcotest.(check string) "repo scan bytes identical" repo1 repo2

let test_json_summary () =
  let path = Filename.temp_file "soslint" ".json" in
  let _code, _out = lint_root ~extra:("--json " ^ path) "r6_bad" in
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
      "\"files_checked\": 1";
      "\"violations\": 2";
      "\"suppressed\": 0";
      "\"allow_sites\": 0";
      "{\"id\": \"R6\", \"name\": \"failure-taxonomy\", \"violations\": 2, \"suppressed\": 0}";
      "\"file\": \"lib/sos/fast.ml\", \"line\": 2, \"rule\": \"R6\"";
    ];
  (* structurally sane: balanced braces/brackets, trailing newline *)
  let count c = String.fold_left (fun acc x -> if x = c then acc + 1 else acc) 0 json in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check int) "balanced brackets" (count '[') (count ']');
  Alcotest.(check bool) "ends with newline" true (json.[String.length json - 1] = '\n')

let test_baseline_roundtrip () =
  let path = Filename.temp_file "soslint" ".baseline" in
  (* 1 suppressed R1 hit in r1_allow: writing then checking must pass. *)
  let code, _ = lint_root ~extra:("--write-baseline " ^ path) "r1_allow" in
  Alcotest.(check int) "write exit" 0 code;
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  Alcotest.(check string) "baseline row" "R1 1" first;
  let code, _ = lint_root ~extra:("--baseline " ^ path) "r1_allow" in
  Alcotest.(check int) "within baseline" 0 code;
  Sys.remove path

let test_baseline_regression () =
  let path = Filename.temp_file "soslint" ".baseline" in
  let oc = open_out path in
  output_string oc "R1 0\n";
  close_out oc;
  let code, out = lint_root ~extra:("--baseline " ^ path) "r1_allow" in
  Sys.remove path;
  Alcotest.(check int) "allow-count increase fails" 1 code;
  let mentions =
    String.split_on_char '\n' out
    |> List.exists (fun l ->
           String.length l >= 3 && String.sub l 0 3 = "R1:"
           && String.length l > String.length "R1: 1 suppressed")
  in
  Alcotest.(check bool) "explains the baseline breach" true mentions

(* The repo itself must lint clean — including the test suites, minus the
   fixture mini-repos that violate rules on purpose: this is the invariant
   CI enforces via `dune build @lint`, re-checked here from the build tree
   so `dune runtest` alone also catches a violation. *)
let test_repo_is_clean () =
  let code, out =
    run_lint
      "--root .. --baseline ../tools/lint/allow_baseline.txt --exclude-dir test/fixtures_lint \
       --exclude-dir test/fixtures_analysis lib bin bench test"
  in
  let lines = String.split_on_char '\n' out in
  let listing = List.filter (fun l -> l <> "" && not (String.length l >= 8 && String.sub l 0 8 = "soslint:")) lines in
  Alcotest.(check (list string)) "no violations in lib/ bin/ bench/" [] listing;
  Alcotest.(check int) "repo lints clean" 0 code

let suite =
  let per_rule =
    expected_violations
    |> List.concat_map (fun (rule, listing) ->
           [
             Alcotest.test_case (rule ^ " violating fixture") `Quick
               (test_rule_violating rule listing);
             Alcotest.test_case (rule ^ " clean fixture") `Quick (test_rule_clean rule);
             Alcotest.test_case (rule ^ " suppressed fixture") `Quick (test_rule_allow rule);
           ])
  in
  ( "lint",
    per_rule
    @ [
        Alcotest.test_case "allow syntax policed (R0)" `Quick test_allow_syntax;
        Alcotest.test_case "output byte-identical across runs" `Quick test_deterministic_output;
        Alcotest.test_case "json summary" `Quick test_json_summary;
        Alcotest.test_case "baseline roundtrip" `Quick test_baseline_roundtrip;
        Alcotest.test_case "baseline regression rejected" `Quick test_baseline_regression;
        Alcotest.test_case "repo lints clean" `Quick test_repo_is_clean;
      ] )
