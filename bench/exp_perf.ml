(* T7: the running-time claims. Theorem 3.3: O((m+n)·n), independent of the
   processing volumes; the step-by-step Listing 1 is pseudo-polynomial.
   Bechamel measures wall time; the iteration counter of Fast.run_count
   shows the combinatorial work directly. *)

module Rng = Prelude.Rng
module Table = Prelude.Table
module Clock = Prelude.Clock
open Exp_common
open Bechamel
open Toolkit

let make_instance ~n ~m ~pmax seed =
  let rng = Rng.create (base_seed + seed) in
  let scale = 720720 in
  let specs =
    List.init n (fun _ -> (Rng.int_in rng 1 pmax, Rng.int_in rng 1 scale))
  in
  Sos.Instance.create ~m ~scale specs

let bechamel_run tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  Analyze.merge ols instances results

let t7_bechamel () =
  section "T7a — wall-clock per run (Bechamel, monotonic clock)";
  note
    "the window algorithm (Fast) across n at m = 16; Listing 1 (step-by-step) and \
     the baselines at n = 200 for comparison. Volumes 1–20.";
  let named =
    List.concat_map
      (fun n ->
        let inst = make_instance ~n ~m:16 ~pmax:20 (3 * n) in
        [ (Printf.sprintf "fast n=%4d" n, fun () -> ignore (Sos.Fast.run_columns inst)) ])
      [ 100; 200; 400; 800; 1600 ]
    @ (let inst = make_instance ~n:200 ~m:16 ~pmax:20 999 in
       [
         ("listing1 n= 200", fun () -> ignore (Sos.Listing1.run inst));
         ("list-sched n= 200", fun () -> ignore (Baselines.List_scheduling.run inst));
         ("greedy n= 200", fun () -> ignore (Baselines.Greedy_fair.run inst));
         ("splittable(unit) n= 200",
          fun () ->
            ignore
              (Sos.Splittable.run
                 (Workload.Sos_gen.generate (Rng.create 4)
                    (Workload.Sos_gen.unit_of Workload.Sos_gen.uniform_wide)
                    ~n:200 ~m:16 ())));
       ])
  in
  let tests =
    Test.make_grouped ~name:"t7"
      (List.map (fun (name, fn) -> Test.make ~name (Staged.stage fn)) named)
  in
  let results = bechamel_run tests in
  let t =
    Table.create [ ("benchmark", Table.Left); ("time/run", Table.Right) ]
  in
  let clock = Measure.label Instance.monotonic_clock in
  let tbl = Hashtbl.find results clock in
  (* Sort rows by benchmark name before they ever reach the table:
     bechamel hands results back as a Hashtbl whose iteration order is
     unspecified (lint rule R5). *)
  let rows =
    (Hashtbl.fold
    [@sos.allow "R5: the fold only gathers (name, estimate) pairs; they are sorted by name \
                 below before any row is rendered"])
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> nan
        in
        (name, ns) :: acc)
      tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, ns) ->
      let cell =
        if Float.is_nan ns then "n/a"
        else if ns > 1e6 then Printf.sprintf "%8.3f ms" (ns /. 1e6)
        else Printf.sprintf "%8.3f us" (ns /. 1e3)
      in
      Table.add_row t [ name; cell ])
    rows;
  Table.print t

let t7_scaling () =
  section
    "T7b — O((m+n)·n) in practice: simulated loop iterations of the fast solver \
     are independent of the processing volumes (pseudo-polynomial Listing 1 is \
     not)";
  let t =
    Table.create
      [
        ("n", Table.Right); ("max p_j", Table.Right); ("makespan", Table.Right);
        ("fast iterations", Table.Right); ("fast time", Table.Right);
        ("listing1 time", Table.Right);
      ]
  in
  List.iter
    (fun (n, pmax) ->
      let inst = make_instance ~n ~m:8 ~pmax (7 * n * pmax) in
      let (cols, iters), fast_time = Clock.time_it (fun () -> Sos.Fast.run_columns inst) in
      let listing1_time =
        if Sos.Instance.total_volume inst <= 50_000 then begin
          let _, dt = Clock.time_it (fun () -> Sos.Listing1.run inst) in
          Printf.sprintf "%.3f s" dt
        end
        else "skipped (pseudo-poly)"
      in
      Table.add_row t
        [
          Table.fmt_int n; Table.fmt_int pmax; Table.fmt_int cols.Sos.Schedule.Columns.makespan;
          Table.fmt_int iters; Printf.sprintf "%.3f s" fast_time; listing1_time;
        ])
    [
      (50, 10); (50, 1000); (50, 100_000); (50, 10_000_000);
      (200, 10); (200, 100_000);
      (800, 10); (800, 100_000);
      (3200, 100_000);
    ];
  Table.print t;
  note
    "fast iterations track n (not Σp_j): the jump rule of the proof of Theorem \
     3.3 compresses every no-completion run of steps."
