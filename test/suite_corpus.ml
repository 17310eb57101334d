(* Golden regression tests over the fixed corpus: algorithm outputs on these
   instances are pinned so that any behavioural change is caught. The pinned
   makespans were produced by this implementation and hand-checked against
   the lower bounds / exact optima where available. *)

open Sos
module Corpus = Workload.Corpus
module Solvers = Baselines.Solvers

(* Makespan of every registered solver whose precondition the entry
   meets, keyed by its -a name. *)
let run_all entry =
  let inst = entry.Corpus.instance in
  List.filter_map
    (fun (s : Solvers.t) ->
      match Solvers.check s inst with
      | Ok inst -> Some (s.name, (s.run inst).Schedule.makespan)
      | Error _ -> None)
    Solvers.all

let test_corpus_validity () =
  List.iter
    (fun entry ->
      let inst = entry.Corpus.instance in
      List.iter
        (fun (s : Solvers.t) ->
          match Solvers.check s inst with
          | Ok inst -> Helpers.check_valid ~preemption_ok:s.preemptive (s.run inst)
          | Error reason ->
              if s.requires = Any then
                Alcotest.failf "%s rejects %s: %s" s.name entry.Corpus.name
                  (Robust.Failure.invalid_to_string reason))
        Solvers.all)
    Corpus.all

let test_exact_opt_entries () =
  List.iter
    (fun entry ->
      match entry.Corpus.exact_opt with
      | None -> ()
      | Some opt ->
          let inst = entry.Corpus.instance in
          let lb = Bounds.lower_bound inst in
          if lb > opt then
            Alcotest.failf "%s: recorded optimum %d below LB %d" entry.Corpus.name opt lb;
          (* window algorithm can never beat the (preemptive) optimum *)
          let w = (Fast.run inst).Schedule.makespan in
          if w < opt then
            Alcotest.failf "%s: window %d beats recorded optimum %d" entry.Corpus.name w
              opt;
          (* and for the unit-size entries the exact solver agrees *)
          if Instance.unit_size inst then begin
            match Exact.Binpack_exact.unit_sos_optimum ~node_limit:3_000_000 inst with
            | Some solver_opt ->
                Alcotest.(check int)
                  (entry.Corpus.name ^ ": solver matches recorded optimum")
                  opt solver_opt
            | None -> Alcotest.failf "%s: solver exceeded limit" entry.Corpus.name
          end)
    Corpus.all

let test_three_tight_golden () =
  let ms = run_all Corpus.three_tight in
  Alcotest.(check int) "window optimal" 5 (List.assoc "window" ms);
  Alcotest.(check int) "list-sched optimal here too" 5 (List.assoc "list-sched" ms)

let test_giant_dust_golden () =
  let ms = run_all Corpus.giant_dust in
  Alcotest.(check int) "window" 68 (List.assoc "window" ms);
  Alcotest.(check int) "literal stalls" 93 (List.assoc "literal" ms);
  Alcotest.(check int) "list-sched" 89 (List.assoc "list-sched" ms)

let test_eps_pairs_golden () =
  let ms = run_all Corpus.eps_pairs in
  Alcotest.(check int) "window hits LB" 60 (List.assoc "window" ms);
  Alcotest.(check int) "naive wastes half" 90 (List.assoc "naive-fracture" ms)

let test_corpus_lookup () =
  Alcotest.(check bool) "find existing" true (Corpus.find "giant-dust" <> None);
  Alcotest.(check bool) "find missing" true (Corpus.find "nope" = None);
  Alcotest.(check int) "six entries" 6 (List.length Corpus.all)

let test_determinism () =
  (* Same instance, same algorithm → byte-identical schedules. *)
  List.iter
    (fun entry ->
      let inst = entry.Corpus.instance in
      let a = Export.schedule_to_csv (Fast.run inst) in
      let b = Export.schedule_to_csv (Fast.run inst) in
      if a <> b then Alcotest.failf "%s: nondeterministic schedule" entry.Corpus.name)
    Corpus.all

let suite =
  ( "corpus",
    [
      Alcotest.test_case "all algorithms valid on corpus" `Quick test_corpus_validity;
      Alcotest.test_case "recorded optima consistent" `Quick test_exact_opt_entries;
      Alcotest.test_case "golden: three-tight" `Quick test_three_tight_golden;
      Alcotest.test_case "golden: giant-dust" `Quick test_giant_dust_golden;
      Alcotest.test_case "golden: eps-pairs" `Quick test_eps_pairs_golden;
      Alcotest.test_case "lookup" `Quick test_corpus_lookup;
      Alcotest.test_case "determinism" `Quick test_determinism;
    ] )
