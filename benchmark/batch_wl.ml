(* The batch workloads: sosctl batch driven as a child process for the
   end-to-end numbers, and an in-process replica of its call sequence for
   correctness (byte-identical output on the first quarter of the specs)
   and for the per-layer numbers (the same replica, traced). *)

module Specs = Workload.Specs
module Failure = Robust.Failure
module Sharded = Robust.Journal.Sharded

type kind = Mixed | Large | Stream

type prepared = {
  kind : kind;
  seed : int;
  dir : string;
  corpus : string;
  specs : int;
  prefix : string;  (** corpus of the first quarter of the specs *)
  prefix_specs : int;
}

let quarter n = max 1 (n / 4)

let prepare kind ~dir ~seed ~scale =
  Proc.mkdir_p dir;
  let text_corpus text =
    let lines = String.split_on_char '\n' text |> List.filter (( <> ) "") in
    let n = List.length lines in
    let q = quarter n in
    let corpus = Filename.concat dir "specs.txt" and prefix = Filename.concat dir "prefix.txt" in
    Inputs.write_file corpus text;
    Inputs.write_file prefix (String.concat "" (List.filteri (fun i _ -> i < q) lines |> List.map (fun l -> l ^ "\n")));
    { kind; seed; dir; corpus; specs = n; prefix; prefix_specs = q }
  in
  match kind with
  | Mixed -> text_corpus (Inputs.mixed_corpus ~seed ~scale)
  | Large ->
      let inst_dir = Filename.concat dir "inst" in
      Proc.mkdir_p inst_dir;
      text_corpus (Inputs.large_corpus ~seed ~scale ~dir:inst_dir)
  | Stream ->
      let n = Inputs.scaled scale Inputs.stream_records in
      let q = quarter n in
      let corpus = Filename.concat dir "specs.bin" and prefix = Filename.concat dir "prefix.bin" in
      Inputs.stream_corpus ~records:n ~path:corpus;
      Inputs.stream_corpus ~records:q ~path:prefix;
      { kind; seed; dir; corpus; specs = n; prefix; prefix_specs = q }

let shards = 4
let path p name = Filename.concat p.dir name

(* The sosctl command line: -j 1 always (the exact sequential path of
   Engine.Pool), --stream with a 4-shard checkpoint for batch-stream. *)
let args p ~corpus ~checkpoint ?(resume = false) ?metrics () =
  [ "batch"; "-j"; "1"; "--seed"; string_of_int p.seed ]
  @ (match p.kind with
    | Stream ->
        [ "--stream"; "--checkpoint"; checkpoint; "--shards"; string_of_int shards ]
        @ if resume then [ "--resume" ] else []
    | Mixed | Large -> [])
  @ (match metrics with Some m -> [ "--metrics=" ^ m ] | None -> [])
  @ [ corpus ]

(* ------------------------------------------------------------- replica *)

type outcome = Solved of string * Sos.Instance.t * Sos.Schedule.t | Replayed

type replica = {
  out : string;  (** replica stdout *)
  resume_out : string option;  (** stdout of the --resume replay (batch-stream) *)
  tasks : int;
  iters : int;
  blocks : int;
  steps : int;  (** summed makespans *)
  wall_ns : int;
}

let family_of_name name =
  List.find_opt
    (fun f -> f.Workload.Sos_gen.name = name)
    (Workload.Sos_gen.all_families @ List.map Workload.Sos_gen.unit_of Workload.Sos_gen.all_families)

(* Runs the corpus the way `sosctl batch -j 1 [--stream --checkpoint]`
   does, with a span around each call into a layer: Specs.read, then
   generate or decode, Instance.validate, Fast.run_count, Schedule
   re-timed on the solver's blocks, Schedule.validate, the bounds, the
   line write, and the journal, all inside Engine.Batch.stream_seq (the
   [engine] root span, whose self time is the engine's own overhead). *)
let replica ?(tracer = Tracer.disabled) p ~corpus =
  let span name ~id f = Tracer.span tracer name ~id f in
  let t0 = Mclock.now_ns () in
  let iters = ref 0 and blocks = ref 0 and steps = ref 0 in
  let solve idx (r : Specs.record) =
    let label, inst =
      match r.Specs.payload with
      | Specs.Bad msg -> raise (Failure.Invalid (Failure.Malformed msg))
      | Specs.File file ->
          span "instance.decode" ~id:idx (fun () ->
              let text =
                match In_channel.with_open_text file In_channel.input_all with
                | exception Sys_error msg -> raise (Failure.Invalid (Failure.Malformed msg))
                | text -> text
              in
              match Sos.Instance.of_string_checked ~window:true text with
              | Ok inst -> (file, inst)
              | Error reason -> raise (Failure.Invalid reason))
      | Specs.Gen { family; n; m; scale } ->
          if m < 3 then raise (Failure.Invalid (Failure.Too_few_processors { m; need = 3 }));
          let fam =
            match family_of_name family with
            | Some f -> f
            | None -> raise (Failure.Invalid (Failure.Malformed ("unknown family " ^ family)))
          in
          let scale = Option.value scale ~default:Workload.Sos_gen.default_scale in
          let inst =
            span "gen.generate" ~id:idx (fun () ->
                let rng = Prelude.Rng.create3 p.seed idx (Robust.Context.attempt ()) in
                Workload.Sos_gen.generate rng fam ~n ~m ~scale ())
          in
          span "instance.validate" ~id:idx (fun () ->
              match Sos.Instance.validate ~window:true inst with
              | Ok _ -> ()
              | Error reason -> raise (Failure.Invalid reason));
          (fam.Workload.Sos_gen.name, inst)
    in
    let sched, it = span "fast.run" ~id:idx (fun () -> Sos.Fast.run_count inst) in
    let arr = span "bench" ~id:idx (fun () -> Array.of_list sched.Sos.Schedule.steps) in
    ignore
      (span "schedule.of_blocks" ~id:idx (fun () ->
           Sos.Schedule.of_blocks inst arr ~len:(Array.length arr)));
    span "schedule.validate" ~id:idx (fun () ->
        match Sos.Schedule.validate ~preemption_ok:false sched with
        | Ok () -> ()
        | Error v ->
            Failure.internal_error "invalid schedule at step %d: %s" v.Sos.Schedule.at_step
              v.Sos.Schedule.reason);
    iters := !iters + it;
    blocks := !blocks + Array.length arr;
    steps := !steps + sched.Sos.Schedule.makespan;
    Solved (label, inst, sched)
  in
  let write oc line =
    Out_channel.output_string oc line;
    Out_channel.output_char oc '\n';
    Out_channel.flush oc
  in
  let emit oc ~journal ~recno_of idx (o : outcome Engine.Batch.outcome) =
    match o with
    | Ok (Solved (label, inst, sched)) ->
        let mk = sched.Sos.Schedule.makespan in
        let lb, ratio =
          span "bounds" ~id:idx (fun () ->
              (Sos.Bounds.lower_bound inst, Sos.Bounds.theorem_3_3_bound inst ~makespan:mk))
        in
        let line =
          span "emit" ~id:idx (fun () ->
              let line =
                Printf.sprintf "%d ok %s n=%d m=%d makespan=%d lb=%d ratio=%.4f blocks=%d" idx
                  label (Sos.Instance.n inst) inst.Sos.Instance.m mk lb ratio
                  (List.length sched.Sos.Schedule.steps)
              in
              write oc line;
              line)
        in
        Option.iter
          (fun j -> span "journal.append" ~id:idx (fun () -> Sharded.append j ~index:idx ~payload:line))
          journal
    | Ok Replayed -> (
        match Option.bind journal (fun j -> span "journal.replay" ~id:idx (fun () -> Sharded.replay j idx)) with
        | Some line -> span "emit" ~id:idx (fun () -> write oc line)
        | None -> write oc (Printf.sprintf "%d error task-exn line %d: checkpoint entry missing" idx (recno_of idx)))
    | Error (e : Engine.Batch.error) ->
        let msg = String.map (function '\n' | '\r' -> ' ' | c -> c) e.Engine.Batch.message in
        let line =
          Printf.sprintf "%d error %s line %d: %s" idx (Failure.class_name e.Engine.Batch.failure)
            (recno_of idx) msg
        in
        write oc line;
        Option.iter (fun j -> Sharded.append j ~index:idx ~payload:line) journal
  in
  let open_source () =
    match Specs.open_path corpus with Ok s -> s | Error msg -> failwith ("replica: " ^ msg)
  in
  (* One pass over the corpus. [journal] is the checkpoint (batch-stream);
     [replaying] marks a --resume pass over a completed journal. *)
  let pass ~out ~journal ~replaying =
    Out_channel.with_open_bin out (fun oc ->
        let src = open_source () in
        Fun.protect
          ~finally:(fun () -> Specs.close src)
          (fun () ->
            Engine.Pool.with_pool ~domains:1 (fun pool ->
                match p.kind with
                | Stream ->
                    let win = 4 in
                    let recnos = Array.make win 0 in
                    let producer i =
                      match span "specs.read" ~id:i (fun () -> Specs.read src) with
                      | None -> None
                      | Some r ->
                          recnos.(i mod win) <- r.Specs.recno;
                          let skip = replaying && Option.fold ~none:false ~some:(fun j -> Sharded.mem j i) journal in
                          Some (fun () -> if skip then Replayed else solve i r)
                    in
                    span "engine" ~id:(-1) (fun () ->
                        Engine.Batch.stream_seq pool ~chunk:1 ~window:win producer
                          ~f:(emit oc ~journal ~recno_of:(fun i -> recnos.(i mod win))))
                | Mixed | Large ->
                    (* sosctl digests the records as it materializes them
                       (the checkpoint header binding), so the replica does
                       too, inside the same read spans. *)
                    let st = Specs.digest_create () in
                    let rec read acc i =
                      match
                        span "specs.read" ~id:i (fun () ->
                            let r = Specs.read src in
                            Option.iter (fun r -> Specs.digest_line st (Specs.canonical r)) r;
                            r)
                      with
                      | None -> Array.of_list (List.rev acc)
                      | Some r -> read (r :: acc) (i + 1)
                    in
                    let records = read [] 0 in
                    ignore (Specs.digest_finish st);
                    let n = Array.length records in
                    span "engine" ~id:(-1) (fun () ->
                        Engine.Batch.stream_seq pool ~chunk:1 ~window:(max n 1)
                          (fun i -> if i >= n then None else Some (fun () -> solve i records.(i)))
                          ~f:(emit oc ~journal:None ~recno_of:(fun i -> records.(i).Specs.recno))))))
  in
  let out = path p "replica.out" in
  let tasks, resume_out =
    match p.kind with
    | Mixed | Large -> (pass ~out ~journal:None ~replaying:false, None)
    | Stream ->
        let ck = path p "replica-ck" in
        let header () =
          let d =
            span "specs.digest" ~id:(-1) (fun () ->
                match Specs.digest_of_path corpus with Ok d -> d | Error m -> failwith m)
          in
          Printf.sprintf "sosj1 seed=%d algo=window specs=%s" p.seed d
        in
        let h = header () in
        let j = span "journal.start" ~id:(-1) (fun () -> Sharded.start ~path:ck ~shards ~sync_every:1 ~header:h ()) in
        let tasks = pass ~out ~journal:(Some j) ~replaying:false in
        Sharded.close j;
        let h = header () in
        let j =
          span "journal.resume" ~id:(-1) (fun () ->
              match Sharded.resume ~path:ck ~shards ~sync_every:1 ~header:h () with
              | Ok j -> j
              | Error m -> failwith ("replica resume: " ^ m))
        in
        let rout = path p "replica-resume.out" in
        ignore (pass ~out:rout ~journal:(Some j) ~replaying:true);
        Sharded.close j;
        (tasks, Some rout)
  in
  {
    out;
    resume_out;
    tasks;
    iters = !iters;
    blocks = !blocks;
    steps = !steps;
    wall_ns = Mclock.now_ns () - t0;
  }
