(* Composed cloud services (Section 4 of the paper): users submit
   applications (tasks) made of many parallel jobs — a response is ready
   only when every job of the application finished. The operator cares
   about the average response time across applications, not the makespan.

   The Theorem 4.8 algorithm splits applications into bandwidth-heavy (T1)
   and fan-out-heavy (T2) classes and schedules the classes on separate
   halves of the cluster with fixed resource budgets. We compare its sum of
   completion times against the Lemma 4.3 lower bound and against a naive
   "run applications one after another" policy.

   Run with: dune exec examples/cloud_tasks.exe *)

module Rng = Prelude.Rng
module Table = Prelude.Table

let scale = Workload.Sos_gen.default_scale

let make_applications ~seed ~count =
  let rng = Rng.create seed in
  let application i =
    match i mod 3 with
    | 0 ->
        (* ETL pipeline: 3–6 stages, each wants 30–70% of the bandwidth *)
        List.init (Rng.int_in rng 3 6) (fun _ ->
            Rng.int_in rng (3 * scale / 10) (7 * scale / 10))
    | 1 ->
        (* map fan-out: 20–60 mappers, each a sliver *)
        List.init (Rng.int_in rng 20 60) (fun _ -> Rng.int_in rng 1 (scale / 100))
    | _ ->
        (* mixed microservice graph *)
        List.init (Rng.int_in rng 5 15) (fun _ -> Rng.int_in rng (scale / 200) (scale / 5))
  in
  Sas.Sas_instance.create ~m:10 ~scale (List.init count application)

let () =
  let inst = make_applications ~seed:7 ~count:30 in
  let k = Sas.Sas_instance.k inst in
  Printf.printf "%d applications, %d jobs total, %d workers\n\n" k
    (Sas.Sas_instance.total_jobs inst) inst.Sas.Sas_instance.m;

  let report = Sas.Combined.run inst in
  (* Naive operator policy: applications one after another (shortest total
     demand first), each on the whole machine. *)
  let _, serial = Sas.Serial.run inst in

  Printf.printf "class split: %d bandwidth-heavy (T1), %d fan-out (T2)\n"
    report.Sas.Combined.t1_count report.Sas.Combined.t2_count;
  let t =
    Table.create
      [
        ("policy", Table.Left); ("sum of completions", Table.Right);
        ("avg response", Table.Right); ("vs lower bound", Table.Right);
      ]
  in
  let lb = float_of_int report.Sas.Combined.lower_bound in
  Table.add_row t
    [
      "Theorem 4.8 (split T1/T2)";
      Table.fmt_int report.Sas.Combined.sum_completions;
      Table.fmt_float (float_of_int report.Sas.Combined.sum_completions /. float_of_int k);
      Table.fmt_ratio (float_of_int report.Sas.Combined.sum_completions /. lb);
    ];
  Table.add_row t
    [
      "serial (one app at a time)";
      Table.fmt_int serial;
      Table.fmt_float (float_of_int serial /. float_of_int k);
      Table.fmt_ratio (float_of_int serial /. lb);
    ];
  Table.add_row t
    [ "lower bound (Lemma 4.3)"; Table.fmt_int report.Sas.Combined.lower_bound; "-"; "1.0000" ];
  Table.print t;
  Printf.printf "proven guarantee: (2 + 4/(m-3)) + o(1) = %.4f + o(1)\n"
    (Sas.Bounds.guarantee ~m:inst.Sas.Sas_instance.m);

  (* The merged schedule is a real schedule: validate it. *)
  match Sos.Schedule.Columns.validate ~preemption_ok:true report.Sas.Combined.schedule with
  | Ok () -> print_endline "merged schedule validated: resource and processor feasible"
  | Error v ->
      Printf.printf "validation FAILED at %d: %s\n" v.Sos.Schedule.at_step v.Sos.Schedule.reason
