(* Datacenter bandwidth sharing — the motivating scenario of the paper's
   introduction: m worker nodes share one top-of-rack uplink. Jobs range
   from bandwidth-saturating shuffles to CPU-bound analytics that barely
   touch the network. The scheduler decides both placement and how the
   uplink is divided, re-dividing every step.

   We compare the paper's sliding-window algorithm against Garey–Graham
   list scheduling (which must reserve a job's full bandwidth for its whole
   run — the classical "no fractional shares" model) and a fair-share
   scheduler, on a realistic mix.

   Run with: dune exec examples/datacenter_bandwidth.exe *)

module Rng = Prelude.Rng
module Table = Prelude.Table

(* Requirements in MiB/s of a 1024 MiB/s uplink: scale = 1024. *)
let make_cluster ~seed ~jobs =
  let rng = Rng.create seed in
  let job _ =
    match Rng.int rng 10 with
    | 0 | 1 ->
        (* shuffle: wants 40–90% of the uplink, 2–6 work units *)
        (Rng.int_in rng 2 6, Rng.int_in rng 400 920)
    | 2 | 3 | 4 ->
        (* ingest: 5–20% of the uplink, longer *)
        (Rng.int_in rng 4 12, Rng.int_in rng 50 200)
    | _ ->
        (* analytics: trickle of telemetry, ~0.1–2% *)
        (Rng.int_in rng 5 20, Rng.int_in rng 1 20)
  in
  Sos.Instance.create ~m:12 ~scale:1024 (List.init jobs job)

let () =
  let inst = make_cluster ~seed:42 ~jobs:120 in
  Printf.printf
    "Cluster: %d jobs on %d workers sharing a 1 GiB/s uplink (scale=%d)\n"
    (Sos.Instance.n inst) inst.Sos.Instance.m inst.Sos.Instance.scale;
  Printf.printf "aggregate demand: %.1f uplink-seconds of traffic, %d work units\n\n"
    (float_of_int (Sos.Instance.total_requirement inst)
    /. float_of_int inst.Sos.Instance.scale)
    (Sos.Instance.total_volume inst);

  let lb = Sos.Bounds.lower_bound inst in
  let t =
    Table.create
      [
        ("scheduler", Table.Left); ("makespan", Table.Right); ("vs LB", Table.Right);
        ("wasted uplink (steps)", Table.Right);
      ]
  in
  let row name sched =
    Table.add_row t
      [
        name;
        Table.fmt_int sched.Sos.Schedule.Columns.makespan;
        Table.fmt_ratio (float_of_int sched.makespan /. float_of_int lb);
        Table.fmt_float
          (float_of_int (Sos.Schedule.total_waste sched) /. 1024.0);
      ]
  in
  row "sliding window (paper)" (fst (Sos.Fast.run_columns inst));
  row "list scheduling (GG75)" (Baselines.List_scheduling.run inst);
  row "fair share" (Baselines.Greedy_fair.run inst);
  Table.add_row t [ "lower bound (Eq. 1)"; Table.fmt_int lb; "1.0000"; "-" ];
  Table.print t;

  print_endline "uplink utilization under the window algorithm:";
  let sched = Sos.Listing1.run inst in
  let dense s = Sos.Schedule.to_dense ~default:0.0 (Sos.Schedule.utilization s) in
  print_endline ("  " ^ Prelude.Ascii_plot.sparkline (dense sched));
  print_endline "and under list scheduling (reserved full shares):";
  let ls = Baselines.List_scheduling.run inst in
  print_endline ("  " ^ Prelude.Ascii_plot.sparkline (dense ls));
  print_newline ();
  print_endline
    "The window algorithm packs partial shares around the big shuffles; list\n\
     scheduling leaves the uplink idle whenever the next job's full demand\n\
     does not fit."
