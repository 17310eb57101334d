(* Power capping — the second resource the paper's introduction names:
   a rack of servers shares a power budget. Batch jobs arrive during the
   day; each has a power draw it wants (its requirement) and degrades
   linearly when capped below it. The operator schedules online: jobs are
   unknown until they arrive.

   Uses the online extension (Sos.Online): a window-style greedy admitting
   the thriftiest released jobs while the non-largest draws fit the cap.

   Run with: dune exec examples/power_capping.exe *)

module Rng = Prelude.Rng

let watts = 1 (* resource units are watts; cap = 12_000 W *)
let cap = 12_000 * watts

let workday rng =
  (* Three waves: overnight batch (release 0), morning surge (~step 60),
     afternoon stragglers (~step 140). *)
  let job release_lo release_hi =
    let release = Rng.int_in rng release_lo release_hi in
    match Rng.int rng 3 with
    | 0 ->
        (* training job: 2–6 kW draw, long *)
        { Sos.Online.release; size = Rng.int_in rng 8 20; req = Rng.int_in rng 2_000 6_000 }
    | 1 ->
        (* CI batch: ~1 kW, medium *)
        { Sos.Online.release; size = Rng.int_in rng 3 10; req = Rng.int_in rng 600 1_500 }
    | _ ->
        (* housekeeping: 100–400 W *)
        { Sos.Online.release; size = Rng.int_in rng 2 6; req = Rng.int_in rng 100 400 }
  in
  List.concat
    [
      List.init 25 (fun _ -> job 0 0);
      List.init 30 (fun _ -> job 50 80);
      List.init 20 (fun _ -> job 130 160);
    ]

let () =
  let rng = Rng.create 88 in
  let arrivals = workday rng in
  let m = 16 in
  Printf.printf "%d jobs over the day on %d servers under a %d W rack cap\n\n"
    (List.length arrivals) m cap;
  let r = Sos.Online.run ~m ~scale:cap arrivals in
  let lb = Sos.Online.lower_bound ~m ~scale:cap arrivals in
  let schedule = (Sos.Online.materialize ~m ~scale:cap arrivals r).Sos.Online.schedule in
  (match Sos.Schedule.Columns.validate schedule with
  | Ok () -> ()
  | Error v -> failwith v.Sos.Schedule.reason);
  assert (Sos.Online.respects_releases r arrivals);
  Printf.printf "all jobs done at step : %d\n" r.Sos.Online.makespan;
  Printf.printf "clairvoyant bound     : %d\n" lb;
  Printf.printf "online/clairvoyant    : %.4f\n\n"
    (float_of_int r.Sos.Online.makespan /. float_of_int lb);
  let u =
    Sos.Schedule.to_dense ~default:0.0 (Sos.Schedule.utilization schedule)
  in
  print_endline "rack power draw over the day (fraction of cap):";
  print_endline ("  " ^ Prelude.Ascii_plot.sparkline u);
  let jobs =
    Array.map float_of_int
      (Sos.Schedule.to_dense ~default:0
         (Sos.Schedule.jobs_per_step schedule))
  in
  print_endline "servers busy:";
  print_endline ("  " ^ Prelude.Ascii_plot.sparkline jobs);
  print_newline ();
  print_endline
    "The greedy keeps the rack at the cap through each wave and drains the\n\
     thrifty jobs between waves; big training jobs absorb the leftover watts."
