(* Tests for the comparison baselines: Garey–Graham list scheduling and the
   greedy fair-share scheduler. *)

module Rng = Prelude.Rng
open Sos

let test_list_scheduling_serializes_conflicts () =
  (* Two jobs each needing the whole resource cannot overlap: 2·p steps. *)
  let inst = Instance.create ~m:4 ~scale:10 [ (3, 10); (3, 10) ] in
  let s = Baselines.List_scheduling.run inst in
  Helpers.check_valid s;
  Alcotest.(check int) "serialized" 6 s.Schedule.makespan

let test_list_scheduling_parallelizes () =
  (* Four jobs of 1/4 requirement run together. *)
  let inst = Instance.create ~m:4 ~scale:100 [ (5, 25); (5, 25); (5, 25); (5, 25) ] in
  let s = Baselines.List_scheduling.run inst in
  Helpers.check_valid s;
  Alcotest.(check int) "parallel" 5 s.Schedule.makespan

let test_list_scheduling_oversize_requirement () =
  (* r > scale is clamped: job takes ⌈s/scale⌉ steps alone. *)
  let inst = Instance.create ~m:2 ~scale:10 [ (2, 25) ] in
  let s = Baselines.List_scheduling.run inst in
  Helpers.check_valid s;
  Alcotest.(check int) "clamped duration" 5 s.Schedule.makespan

let test_greedy_fair_shares () =
  (* Two identical full-resource jobs share 50/50 under water-filling:
     each needs 2·p steps; they run concurrently → makespan 2·p. *)
  let inst = Instance.create ~m:2 ~scale:10 [ (3, 10); (3, 10) ] in
  let s = Baselines.Greedy_fair.run inst in
  Helpers.check_valid s;
  Alcotest.(check int) "shared fairly" 6 s.Schedule.makespan

let prop_valid inst =
  List.iter
    (fun sched -> Helpers.check_valid sched)
    [
      Baselines.List_scheduling.run inst;
      Baselines.List_scheduling.run ~order:Baselines.List_scheduling.By_volume_desc inst;
      Baselines.List_scheduling.run ~order:Baselines.List_scheduling.By_total_req_desc inst;
      Baselines.Greedy_fair.run inst;
    ]

let prop_garey_graham_ratio inst =
  (* 3−3/m against the lower bound (the proof compares against the same
     primitives, like Theorem 3.3's). *)
  if Instance.n inst > 0 && inst.Instance.m >= 2 then begin
    let s = Baselines.List_scheduling.run inst in
    let lb = Bounds.lower_bound inst in
    (* Clamping r_j > scale changes the model; restrict to instances the
       original guarantee speaks about. *)
    let clamped =
      List.exists
        (fun i -> (Instance.job inst i).Job.req > inst.Instance.scale)
        (List.init (Instance.n inst) Fun.id)
    in
    if not clamped then begin
      let bound = Baselines.List_scheduling.guarantee ~m:inst.Instance.m in
      let limit = (bound *. float_of_int lb) +. float_of_int lb +. 1.0 in
      (* Generous: the GG bound is against OPT ≥ lb; add slack for small lb. *)
      if float_of_int s.Schedule.makespan > limit then
        Alcotest.failf "list scheduling far above (3-3/m): makespan=%d lb=%d"
          s.Schedule.makespan lb
    end
  end

let test_window_beats_list_on_giant_and_dust () =
  let inst = Workload.Adversarial.giant_and_dust ~m:8 ~dust:200 ~scale:720720 in
  let win = (Fast.run inst).Schedule.makespan in
  let ls = (Baselines.List_scheduling.run inst).Schedule.makespan in
  Alcotest.(check bool)
    (Printf.sprintf "window (%d) ≤ list scheduling (%d)" win ls)
    true (win <= ls)

let test_adversarial_families_valid () =
  let instances =
    [
      Workload.Adversarial.giant_and_dust ~m:4 ~dust:20 ~scale:1000;
      Workload.Adversarial.epsilon_pairs ~pairs:10 ~m:4 ~scale:1000;
      Workload.Adversarial.footnote_fracture ~m:5 ~scale:1000;
      Workload.Adversarial.staircase ~n:12 ~m:4 ~scale:1000;
      Workload.Adversarial.worst_case_ratio_family ~m:5 ~scale:1000;
    ]
  in
  List.iter
    (fun inst ->
      Helpers.check_valid (Fast.run inst);
      Helpers.check_valid (Baselines.List_scheduling.run inst))
    instances

module Solvers = Baselines.Solvers

(* Each solver's precondition, then doc/CLI.md's algorithm table row by
   row against the solver table. *)
let test_solver_table () =
  let m2 = Instance.create ~m:2 ~scale:10 [ (1, 5); (1, 5) ] in
  let sized = Instance.create ~m:6 ~scale:10 [ (1, 5); (2, 5) ] in
  List.iter
    (fun (s : Solvers.t) ->
      match (s.requires, Solvers.check s m2, Solvers.check s sized) with
      | Window, Error (Robust.Failure.Too_few_processors { m = 2; need = 3 }), Ok _
      | Any, Ok _, Ok _ ->
          ()
      | Unit_sizes, Ok _, Error (Malformed msg) when Helpers.contains msg ("-a " ^ s.name) -> ()
      | _ -> Alcotest.failf "%s: wrong precondition" s.name)
    Solvers.all;
  let row line =
    match List.map String.trim (String.split_on_char '|' line) with
    | [ ""; name; _; pre; sched; "" ] -> (String.sub name 1 (String.length name - 2), pre, sched)
    | _ -> Alcotest.failf "doc/CLI.md: bad algorithm row %S" line
  in
  let rows =
    In_channel.with_open_text "../doc/CLI.md" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (String.starts_with ~prefix:"| `")
    |> List.map row
  in
  let doc (s : Solvers.t) =
    ( s.name,
      (match s.requires with Any -> "any" | Window -> "m ≥ 3" | Unit_sizes -> "every p_j = 1"),
      if s.preemptive then "preemptive" else "non-preemptive" )
  in
  Alcotest.(check (list (triple string string string)))
    "doc/CLI.md algorithm table" (List.map doc Solvers.all) rows;
  List.iter (fun (name, _, _) -> if Solvers.find name = None then Alcotest.failf "find %s" name) rows

let suite =
  ( "baselines",
    [
      Alcotest.test_case "list scheduling serializes" `Quick
        test_list_scheduling_serializes_conflicts;
      Alcotest.test_case "list scheduling parallelizes" `Quick
        test_list_scheduling_parallelizes;
      Alcotest.test_case "oversize requirement clamped" `Quick
        test_list_scheduling_oversize_requirement;
      Alcotest.test_case "greedy fair shares" `Quick test_greedy_fair_shares;
      Helpers.for_random_instances "baselines produce valid schedules" prop_valid;
      Helpers.for_random_instances ~count:200 "Garey–Graham ratio sanity"
        prop_garey_graham_ratio;
      Alcotest.test_case "window beats list scheduling (giant+dust)" `Quick
        test_window_beats_list_on_giant_and_dust;
      Alcotest.test_case "adversarial families valid" `Quick
        test_adversarial_families_valid;
      Alcotest.test_case "solver table preconditions and doc" `Quick test_solver_table;
    ] )
