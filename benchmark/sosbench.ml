(* sosbench — end-to-end benchmark of sosctl batch and serve.

     sosbench run [--seed N] [--seconds S]
         every workload, end to end then traced; prints each metric by
         name with its unit, writes .sosbench/results/run-seed<N>.json and
         one Chrome trace per workload under .sosbench/traces/; exits 1
         if any correctness or reconciliation check fails.

     sosbench --workload W --seed N --seconds S --trace 0|1
         one workload, one run; the last stdout line is the result object
         {"correct", "attempted", "failed", "metrics"} with the end-to-end
         metrics (--trace 0) or the per-layer metrics (--trace 1).

   Run from the repository root after building sosctl (benchmark/run.sh
   does both). *)

open Benchlib

let sosctl = "_build/default/bin/sosctl/sosctl.exe"
let root = ".sosbench"
let default_seed = 1

(* `run` measures each workload end to end for this long by default: one
   or two passes, enough to print every number and check every output;
   the steady numbers come from the longer runs in BENCHMARK.json. *)
let default_seconds = 5.0
let digests_file = "benchmark/digests.txt"

let usage () =
  prerr_endline
    "usage: sosbench run [--seed N] [--seconds S]\n\
    \       sosbench --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

(* Expected output digests for the default seed at full scale, one
   "workload md5" per line. *)
let expected_digest name =
  match In_channel.with_open_text digests_file In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      List.find_map
        (fun l -> match String.split_on_char ' ' (String.trim l) with [ w; d ] when w = name -> Some d | _ -> None)
        (String.split_on_char '\n' text)

let check_digest (w : Workloads.t) ~seed (r : Report.result) =
  match (List.assoc_opt "digest" r.Report.details, expected_digest w.Workloads.name) with
  | Some (Report.Str got), Some want when seed = default_seed && got <> want ->
      { r with Report.problems = r.Report.problems @ [ Printf.sprintf "output digest %s, expected %s" got want ] }
  | _ -> r

let run_one (w : Workloads.t) ~seed ~seconds ~ladder ~trace =
  let ctx =
    {
      Workloads.sosctl;
      work = Filename.concat root "work";
      out_dir = Filename.concat root "traces";
      seed;
      scale = 1.0;
      seconds;
      ladder;
    }
  in
  let t0 = Mclock.now_ns () in
  let r = w.Workloads.run ctx ~trace |> check_digest w ~seed in
  (r, Mclock.s_of_ns (Mclock.now_ns () - t0))

let result_json (w : Workloads.t) ~trace (r : Report.result) ~wall =
  Report.Obj
    [
      ("workload", Report.Str w.Workloads.name);
      ("why", Report.Str w.Workloads.why);
      ("trace", Report.Bool trace);
      ("correct", Report.Bool (r.Report.problems = []));
      ("problems", Report.List (List.map (fun p -> Report.Str p) r.Report.problems));
      ("attempted", Report.Int r.Report.attempted);
      ("failed", Report.Int r.Report.failed);
      ("failed_frac", Report.Float (float_of_int r.Report.failed /. float_of_int (max 1 r.Report.attempted)));
      ("wall_s", Report.Float wall);
      ("metrics", Report.metrics_json r.Report.metrics);
      ("reported", Report.metrics_json r.Report.reported);
      ("details", Report.Obj r.Report.details);
    ]

let write_results name json =
  let dir = Filename.concat root "results" in
  Proc.mkdir_p dir;
  let path = Filename.concat dir name in
  Inputs.write_file path (Report.to_string json ^ "\n");
  path

let host () = Host.facts ~self:Sys.executable_name

let ensure_sosctl () =
  if not (Sys.file_exists sosctl) then begin
    Printf.eprintf "sosbench: %s not found; run from the repository root after building it\n" sosctl;
    exit 2
  end

let one_run ~workload ~seed ~seconds ~trace =
  ensure_sosctl ();
  match Workloads.find workload with
  | None ->
      Printf.eprintf "sosbench: unknown workload %s\n" workload;
      exit 2
  | Some w ->
      let r, wall = run_one w ~seed ~seconds ~ladder:false ~trace in
      let file = Printf.sprintf "%s-seed%d-trace%d.json" workload seed (if trace then 1 else 0) in
      let path =
        write_results file
          (Report.Obj
             [ ("host", host ()); ("seed", Report.Int seed); ("run", result_json w ~trace r ~wall) ])
      in
      List.iter (fun p -> Printf.eprintf "sosbench: check failed: %s\n" p) r.Report.problems;
      Printf.eprintf "sosbench: %s %s in %.1fs, results in %s\n" workload
        (if trace then "traced" else "end to end") wall path;
      print_endline (Report.result_line r)

let run_all ~seed ~seconds =
  ensure_sosctl ();
  let runs =
    List.concat_map
      (fun (w : Workloads.t) ->
        List.map
          (fun trace ->
            let r, wall = run_one w ~seed ~seconds ~ladder:true ~trace in
            Printf.printf "%s (%s, %.1fs)%s\n" w.Workloads.name
              (if trace then "traced" else "end to end")
              wall
              (if r.Report.problems = [] then "" else "  CHECKS FAILED");
            let print (m : Report.metric) =
              Printf.printf "  %-26s %14.6g %s\n" m.Report.name m.Report.value m.Report.unit
            in
            if not trace then begin
              List.iter print (r.Report.metrics @ r.Report.reported);
              Printf.printf "  %-26s %14.6g (failed %d of %d)\n" "failed_frac"
                (float_of_int r.Report.failed /. float_of_int (max 1 r.Report.attempted))
                r.Report.failed r.Report.attempted
            end
            else begin
              (* the per-call medians and counts of the layers that ran,
                 and the run-level ratios; every per-layer number is in
                 the results file *)
              List.iter (fun (m : Report.metric) -> if m.Report.value <> 0.0 then print m) r.Report.reported;
              List.iter
                (fun (m : Report.metric) ->
                  if List.mem m.Report.name [ "trace.overhead"; "tracer.share" ] then print m)
                r.Report.metrics;
              List.iter
                (fun (k, v) -> match v with Report.Str f when k = "trace_file" -> Printf.printf "  trace %s\n" f | _ -> ())
                r.Report.details
            end;
            List.iter (fun p -> Printf.printf "  check failed: %s\n" p) r.Report.problems;
            flush stdout;
            (w, trace, r, wall))
          [ false; true ])
      Workloads.all
  in
  let path =
    write_results
      (Printf.sprintf "run-seed%d.json" seed)
      (Report.Obj
         [
           ("host", host ());
           ("seed", Report.Int seed);
           ("seconds", Report.Float seconds);
           ("runs", Report.List (List.map (fun (w, trace, r, wall) -> result_json w ~trace r ~wall) runs));
         ])
  in
  Printf.printf "results: %s\n" path;
  if List.exists (fun (_, _, r, _) -> r.Report.problems <> []) runs then exit 1

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> opts ((k, v) :: acc) rest
    | _ -> usage ()
  in
  let get o k conv ~default =
    match List.assoc_opt k o with
    | None -> ( match default with Some d -> d | None -> usage ())
    | Some v -> ( match conv v with Some x -> x | None -> usage ())
  in
  match args with
  | [ "spin" ] -> ignore (Host.spin ())
  | "run" :: rest ->
      let o = opts [] rest in
      run_all
        ~seed:(get o "--seed" int_of_string_opt ~default:(Some default_seed))
        ~seconds:(get o "--seconds" float_of_string_opt ~default:(Some default_seconds))
  | _ ->
      let o = opts [] args in
      one_run
        ~workload:(get o "--workload" Option.some ~default:None)
        ~seed:(get o "--seed" int_of_string_opt ~default:None)
        ~seconds:(get o "--seconds" float_of_string_opt ~default:None)
        ~trace:(get o "--trace" (function "0" -> Some false | "1" -> Some true | _ -> None) ~default:None)
