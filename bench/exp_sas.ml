(* SAS experiments: T4 (Theorem 4.8 ratio and its o(1) decay) and T5
   (the per-task guarantees of Lemmas 4.1 and 4.2). *)

module Rng = Prelude.Rng
module Table = Prelude.Table
open Exp_common

let reps = 8

(* T4: sum of completion times vs the Lemma 4.3 lower bound. *)
let t4 () =
  section
    "T4 — Theorem 4.8: sum of task completion times of the combined T1/T2 \
     algorithm vs the Lemma 4.3 lower bound";
  note
    "guarantee (2+4/(m−3)) + o(1), the o(1) in the number of tasks k — the \
     measured ratio should approach/stay below the bound as k grows. %d \
     instances per cell, cloud-mix profile." reps;
  let t =
    Table.create
      [
        ("m", Table.Right); ("k tasks", Table.Right); ("mean ratio", Table.Right);
        ("max ratio", Table.Right); ("2+4/(m-3)", Table.Right);
        ("serial-SPT mean", Table.Right); ("|T1|/|T2| (avg)", Table.Left);
      ]
  in
  let ks = [ 10; 40; 160 ] in
  let rows =
    par_map
      (fun (m, k) ->
        let ratios = ref [] and serial_ratios = ref [] in
        let t1s = ref 0 and t2s = ref 0 in
        for rep = 0 to reps - 1 do
          let rng = Rng.create (base_seed + (4000 * rep) + (10 * k) + m) in
          let inst = Workload.Sas_gen.generate rng Workload.Sas_gen.cloud_mix ~k ~m () in
          let report = Sas.Combined.run inst in
          ratios := Sas.Combined.ratio report :: !ratios;
          let _, serial_sum = Sas.Serial.run report.Sas.Combined.instance in
          serial_ratios :=
            (float_of_int serial_sum /. float_of_int report.Sas.Combined.lower_bound)
            :: !serial_ratios;
          t1s := !t1s + report.Sas.Combined.t1_count;
          t2s := !t2s + report.Sas.Combined.t2_count
        done;
        let mean, mx = ratios_summary (Array.of_list !ratios) in
        let serial_mean, _ = ratios_summary (Array.of_list !serial_ratios) in
        let bound = Sas.Bounds.guarantee ~m in
        [
          Table.fmt_int m; Table.fmt_int k; Table.fmt_ratio mean; Table.fmt_ratio mx;
          Table.fmt_ratio bound; Table.fmt_ratio serial_mean;
          Printf.sprintf "%.1f/%.1f"
            (float_of_int !t1s /. float_of_int reps)
            (float_of_int !t2s /. float_of_int reps);
        ])
      (grid [ 8; 12; 16 ] ks)
  in
  Array.iteri
    (fun i row ->
      Table.add_row t row;
      if (i + 1) mod List.length ks = 0 then Table.add_sep t)
    rows;
  Table.print t

(* T5: the per-task completion bounds of Lemmas 4.1 and 4.2. *)
let t5 () =
  section
    "T5 — Lemmas 4.1/4.2: per-task completion times of Listings 3 and 4 against \
     their claimed prefix bounds (max over tasks of f_i / bound_i; must be ≤ 1)";
  let t =
    Table.create
      [
        ("lemma", Table.Left); ("m", Table.Right); ("k", Table.Right);
        ("worst f_i/bound_i", Table.Right); ("holds", Table.Left);
        ("Σf (alg)", Table.Right); ("Σbound", Table.Right);
      ]
  in
  let scale = Workload.Sos_gen.default_scale in
  List.iter
    (fun m ->
      List.iter
        (fun k ->
          (* Lemma 4.1 / Listing 3 on pure-T1 sets. *)
          let rng = Rng.create (base_seed + (7 * k) + m) in
          let m1 = m / 2 in
          let budget = (m1 - 1) * scale / (m - 1) in
          let tasks = Workload.Sas_gen.pure_t1 rng ~k ~m ~scale () in
          let sorted = Sas.Combined.sort_for_listing3 tasks in
          let r = Sas.Combined.run_listing3 ~m:m1 ~budget sorted in
          let bounds = Sas.Bounds.listing3_completion_bounds ~budget sorted in
          let worst = ref 0.0 and sum_b = ref 0 in
          Array.iteri
            (fun i f ->
              sum_b := !sum_b + bounds.(i);
              worst := max !worst (float_of_int f /. float_of_int bounds.(i)))
            r.Sas.Stream.completions;
          Table.add_row t
            [
              "4.1 (Listing 3)"; Table.fmt_int m; Table.fmt_int k; Table.fmt_ratio !worst;
              verdict (!worst <= 1.0 +. 1e-9);
              Table.fmt_int (Sas.Stream.sum_completions r); Table.fmt_int !sum_b;
            ];
          (* Lemma 4.2 / Listing 4 on pure-T2 sets. *)
          let rng = Rng.create (base_seed + (11 * k) + m) in
          let m2 = m - (m / 2) in
          let budget = scale / 2 in
          let tasks = Workload.Sas_gen.pure_t2 rng ~k ~m ~scale () in
          let sorted = Sas.Combined.sort_for_listing4 tasks in
          let r = Sas.Combined.run_listing4 ~m:m2 ~budget sorted in
          let bounds = Sas.Bounds.listing4_completion_bounds ~m:m2 sorted in
          let worst = ref 0.0 and sum_b = ref 0 in
          Array.iteri
            (fun i f ->
              sum_b := !sum_b + bounds.(i);
              worst := max !worst (float_of_int f /. float_of_int bounds.(i)))
            r.Sas.Stream.completions;
          Table.add_row t
            [
              "4.2 (Listing 4)"; Table.fmt_int m; Table.fmt_int k; Table.fmt_ratio !worst;
              verdict (!worst <= 1.0 +. 1e-9);
              Table.fmt_int (Sas.Stream.sum_completions r); Table.fmt_int !sum_b;
            ])
        [ 8; 32 ];
      Table.add_sep t)
    [ 6; 10; 16 ];
  Table.print t
