(* Large-scale smoke tests: the implementation stays correct and fast at
   sizes two orders of magnitude above the rest of the suite. *)

open Sos
module Rng = Prelude.Rng

let test_fast_large () =
  let rng = Rng.create 424242 in
  let inst =
    Workload.Sos_gen.generate rng Workload.Sos_gen.bimodal ~n:5000 ~m:32 ()
  in
  let t0 = (Sys.time () [@sos.allow "R2: CPU-time budget assertion on the harness side; not solver-visible time"]) in
  let sched = Helpers.solve inst in
  let dt = (Sys.time () [@sos.allow "R2: CPU-time budget assertion on the harness side; not solver-visible time"]) -. t0 in
  Helpers.check_valid sched;
  let lb = Bounds.lower_bound inst in
  Alcotest.(check bool) "within guarantee" true
    (float_of_int sched.makespan <= Bounds.guarantee_general ~m:32 *. float_of_int lb);
  Alcotest.(check bool) (Printf.sprintf "fast enough (%.2fs)" dt) true (dt < 20.0)

let test_fast_huge_volumes () =
  let rng = Rng.create 434343 in
  let specs =
    List.init 500 (fun _ -> (Rng.int_in rng 1 1_000_000, Rng.int_in rng 1 720720))
  in
  let inst = Instance.create ~m:16 ~scale:720720 specs in
  let sched, iters = Fast.run_columns inst in
  Helpers.check_valid sched;
  Alcotest.(check bool)
    (Printf.sprintf "iterations (%d) independent of volumes (makespan %d)" iters
       sched.makespan)
    true
    (iters < 20_000 && sched.makespan > 1_000_000)

let test_splittable_large () =
  let rng = Rng.create 454545 in
  let items =
    List.init 3000 (fun i -> { Splittable.id = i; size = Rng.int_in rng 1 1000 })
  in
  let bins = Splittable.pack items ~size:16 ~budget:500 in
  let total =
    List.fold_left
      (fun acc bin -> List.fold_left (fun acc (_, a) -> acc + a) acc bin)
      0 bins
  in
  Alcotest.(check int) "mass conserved"
    (List.fold_left (fun acc it -> acc + it.Splittable.size) 0 items)
    total

let test_sas_large () =
  let rng = Rng.create 464646 in
  let inst = Workload.Sas_gen.generate rng Workload.Sas_gen.cloud_mix ~k:400 ~m:16 () in
  let report = Sas.Combined.run inst in
  (match Sos.Schedule.Columns.validate ~preemption_ok:true report.Sas.Combined.schedule with
  | Ok () -> ()
  | Error v -> Alcotest.failf "invalid at %d: %s" v.Sos.Schedule.at_step v.Sos.Schedule.reason);
  let bound = Sas.Bounds.guarantee ~m:16 in
  let ratio = Sas.Combined.ratio report in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.3f within %.3f + o(1)" ratio bound)
    true
    (ratio <= bound +. 0.25)

let test_online_large () =
  let rng = Rng.create 474747 in
  let arrivals =
    List.init 2000 (fun _ ->
        {
          Online.release = Rng.int_in rng 0 500;
          size = Rng.int_in rng 1 8;
          req = Rng.int_in rng 1 10_000;
        })
  in
  let r = Online.run ~m:24 ~scale:10_000 arrivals in
  (match
     Schedule.Columns.validate (Online.materialize ~m:24 ~scale:10_000 arrivals r).Online.schedule
   with
  | Ok () -> ()
  | Error v -> Alcotest.failf "invalid at %d: %s" v.Schedule.at_step v.Schedule.reason);
  Alcotest.(check bool) "releases respected" true (Online.respects_releases r arrivals)

let suite =
  ( "scale",
    [
      Alcotest.test_case "fast n=5000" `Slow test_fast_large;
      Alcotest.test_case "fast with 10^6 volumes" `Slow test_fast_huge_volumes;
      Alcotest.test_case "splittable n=3000" `Slow test_splittable_large;
      Alcotest.test_case "sas k=400" `Slow test_sas_large;
      Alcotest.test_case "online n=2000" `Slow test_online_large;
    ] )
