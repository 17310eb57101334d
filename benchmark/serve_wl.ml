(* The serve workloads: sosctl serve driven as an open loop for the
   end-to-end numbers, and an in-process replica for correctness (the
   reply transcript of the first quarter of the requests) and for the
   per-layer numbers.

   Open loop: the tenants are independent users sharing one connection,
   so request i is due at a fixed time whatever the server does. The
   writer is non-blocking and keeps its own send queue, so a slow server
   never holds the generator back; each latency is timed from the
   request's due time, which charges a stall to every request queued
   behind it. *)

module Session = Sos.Online.Session
module Sharded = Robust.Journal.Sharded
module Protocol = Serve.Protocol

type kind = Dense | Sparse

type prepared = {
  kind : kind;
  seed : int;
  dir : string;
  lines : string array;
  warmup : int;  (** requests before the session sizes are stationary *)
  prefix_n : int;  (** first quarter: what the replica runs *)
}

let path p name = Filename.concat p.dir name

let gap = function Dense -> Inputs.dense_gap | Sparse -> Inputs.sparse_gap

(* [lines] is the first stretch of the workload's request stream; the
   end-to-end run goes on past it with [stream]. *)
let prepare kind ~dir ~seed ~scale =
  Proc.mkdir_p dir;
  let text, warmup = Inputs.serve_transcript ~seed ~scale ~gap:(gap kind) in
  let lines = String.split_on_char '\n' text |> List.filter (( <> ) "") |> Array.of_list in
  Inputs.write_file (Filename.concat dir "transcript.txt") text;
  { kind; seed; dir; lines; warmup; prefix_n = max 1 (Array.length lines / 4) }

(* The workload's request stream from its first line. *)
let stream p =
  let st = Inputs.serve_stream ~seed:p.seed ~gap:(gap p.kind) in
  fun () -> Inputs.next_request st

(* serve-dense journals every reply (the WAL); serve-sparse runs without. *)
let args p ~wal ?metrics () =
  [ "serve"; "-j"; "1"; "--seed"; string_of_int p.seed ]
  @ (match p.kind with Dense -> [ "--checkpoint"; wal ] | Sparse -> [])
  @ match metrics with Some m -> [ "--metrics=" ^ m ] | None -> []

(* ----------------------------------------------------------- open loop *)

(* Request 0 is sent at spawn; its reply marks the end of set-up. Request
   i >= 1 is then due at [start + (i-1)/rate]. *)
let due ~start ~rate i = start + int_of_float (Float.round (float_of_int (i - 1) *. 1e9 /. rate))

(* Milliseconds from request i's due time to [at]: its latency when [at]
   is the reply time, the generator's lateness when [at] is the time the
   request was queued for sending. *)
let since_due_ms ~start ~rate i ~at = float_of_int (at - due ~start ~rate i) /. 1e6

type rung = {
  rate : float;
  setup_s : float;
  latency_ms : float array;  (** requests 1..n-1, from due time to reply *)
  query_ms : float array;
  lateness_ms : float array;  (** enqueue time minus due time *)
  unanswered_at_end : int;  (** replies missing when the last request fell due *)
  replies : string;
  rss_kb : int;
  status : Unix.process_status;
}

let is_query = String.starts_with ~prefix:"query "

(* A rung gives up this long after its last request fell due. *)
let grace_s = 30.0

(* Drive one fresh server through [lines] at [rate] requests/s. *)
let run_rung p ~sosctl ~rate ~lines =
  let n = Array.length lines in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Proc.open_out (path p "serve-stderr.txt") in
  let wal = path p "wal" in
  let t_spawn = Mclock.now_ns () in
  let pid = Proc.spawn ~prog:sosctl ~args:(args p ~wal ()) ~stdin:in_r ~stdout:out_w ~stderr:err in
  List.iter Unix.close [ in_r; out_w; err ];
  Unix.set_nonblock in_w;
  let rss = Proc.rss_tracker pid in
  let sendq = ref (Bytes.create 65536) and head = ref 0 and tail = ref 0 in
  let reply_at = Array.make n (-1) and enq_at = Array.make n (-1) in
  let replies = Buffer.create (n * 48) and partial = Buffer.create 256 in
  let got = ref 0 and next = ref 0 in
  let start = ref (-1) and unanswered = ref (-1) in
  let enqueue i now =
    enq_at.(i) <- now;
    let line = lines.(i) ^ "\n" in
    let len = String.length line in
    if !tail + len > Bytes.length !sendq then begin
      let live = !tail - !head in
      let b = Bytes.create (max (Bytes.length !sendq) (2 * (live + len))) in
      Bytes.blit !sendq !head b 0 live;
      sendq := b;
      head := 0;
      tail := live
    end;
    Bytes.blit_string line 0 !sendq !tail len;
    tail := !tail + len;
    next := i + 1
  in
  let flush_sendq () =
    if !tail > !head then
      match Unix.write in_w !sendq !head (!tail - !head) with
      | k ->
          head := !head + k;
          if !head = !tail then begin
            head := 0;
            tail := 0
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error (Unix.EPIPE, _, _) ->
          (* The server is gone; what it answered is all there will be. *)
          head := 0;
          tail := 0
  in
  let chunk = Bytes.create 65536 in
  let eof = ref false in
  let read_replies () =
    match Unix.read out_r chunk 0 65536 with
    | 0 -> eof := true
    | k ->
        let now = Mclock.now_ns () in
        for j = 0 to k - 1 do
          let c = Bytes.get chunk j in
          if c = '\n' then begin
            Buffer.add_buffer replies partial;
            Buffer.add_char replies '\n';
            Buffer.clear partial;
            if !got < n then reply_at.(!got) <- now;
            incr got
          end
          else Buffer.add_char partial c
        done
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
  in
  enqueue 0 t_spawn;
  let last_due () = if n <= 1 then !start else due ~start:!start ~rate (n - 1) in
  let deadline = ref max_int in
  let rec loop () =
    let now = Mclock.now_ns () in
    if !start < 0 && !got >= 1 then begin
      start := reply_at.(0);
      deadline := last_due () + int_of_float (grace_s *. 1e9)
    end;
    if !start >= 0 then
      while !next < n && due ~start:!start ~rate !next <= now do
        enqueue !next now
      done;
    if !start >= 0 && !unanswered < 0 && !next >= n then
      unanswered := n - !got;
    flush_sendq ();
    Proc.poll_rss rss now;
    if !got >= n || !eof || now > !deadline || (!start < 0 && now - t_spawn > 60_000_000_000) then ()
    else begin
      let wait_ns =
        if !start >= 0 && !next < n then max 0 (due ~start:!start ~rate !next - now) else 10_000_000
      in
      let w = if !tail > !head then [ in_w ] else [] in
      let r, _, _ = Proc.select_retry [ out_r ] w (float_of_int (min wait_ns 10_000_000) *. 1e-9) in
      if r <> [] then read_replies ();
      loop ()
    end
  in
  loop ();
  Proc.poll_rss ~force:true rss (Mclock.now_ns ());
  Unix.close in_w;
  (* Drain to EOF so the server never blocks on a full pipe while exiting. *)
  Unix.clear_nonblock out_r;
  while not !eof do
    read_replies ()
  done;
  Unix.close out_r;
  let _, status = Proc.waitpid_retry [] pid in
  let answered = List.filter (fun i -> reply_at.(i) >= 0) (List.init (max 0 (n - 1)) (fun i -> i + 1)) in
  let lat i = since_due_ms ~start:!start ~rate i ~at:reply_at.(i) in
  {
    rate;
    setup_s = (if !got >= 1 then Mclock.s_of_ns (reply_at.(0) - t_spawn) else Float.nan);
    latency_ms = Array.of_list (List.map lat answered);
    query_ms = Array.of_list (List.map lat (List.filter (fun i -> is_query lines.(i)) answered));
    lateness_ms = Array.of_list (List.map (fun i -> since_due_ms ~start:!start ~rate i ~at:enq_at.(i)) answered);
    unanswered_at_end = (if !unanswered < 0 then n - !got else !unanswered);
    replies = Buffer.contents replies;
    rss_kb = rss.Proc.kb;
    status;
  }

(* ------------------------------------------------------------- replica *)

type replica = {
  out : string;
  wall_ns : int;
  full : int;
  extended : int;
  cached : int;
  queries : int;
  sim_steps : int;  (** time steps simulated over all queries *)
  server_self_ns : int array;  (** per request: server.request minus its replayed parts *)
}

type tenant = { session : Session.t; mutable makespan : int }

(* Hand [Serve.Server.serve] exactly one request on a fresh pipe pair and
   return its reply bytes (a reply is far below the pipe buffer size). *)
let serve_one srv pool line =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let req = line ^ "\n" in
  ignore (Unix.write_substring in_w req 0 (String.length req));
  Unix.close in_w;
  let input = Unix.in_channel_of_descr in_r and output = Unix.out_channel_of_descr out_w in
  Serve.Server.serve srv ~pool ~input ~output ();
  close_in input;
  close_out output;
  let ic = Unix.in_channel_of_descr out_r in
  let reply = In_channel.input_all ic in
  close_in ic;
  reply

(* The server is the real Serve.Server, fed one request per pipe pair:
   that call is the [server.request.<verb>] span. Its parts are timed on
   a benchmark-owned table fed the same parsed commands: protocol parse
   and binding, Session add/solve (named by the path the solve took),
   the lower bound a whole-schedule query reports, and a journal append
   of the same WAL entry. *)
let replica ?(tracer = Tracer.disabled) p ~n =
  let span name ~id f = Tracer.span tracer name ~id f in
  let t0 = Mclock.now_ns () in
  let wal = match p.kind with Dense -> Some (path p "replica-wal") | Sparse -> None in
  let cfg =
    {
      Serve.Server.default with
      checkpoint = wal;
      backoff = Some (Robust.Backoff.policy ~base:0.01 ~seed:p.seed ());
    }
  in
  let out = path p "replica.out" in
  let srv, journal, pool, oc =
    span "serve.setup" ~id:(-1) (fun () ->
        ( (match Serve.Server.create cfg with Ok s -> s | Error m -> failwith ("replica: " ^ m)),
          Option.map
            (fun _ -> Sharded.start ~path:(path p "replica-bench-wal") ~header:(Serve.Server.header cfg) ())
            wal,
          Engine.Pool.create ~domains:1 (),
          Out_channel.open_bin out ))
  in
  let tbl : (string, tenant) Hashtbl.t = Hashtbl.create 32 in
  let full = ref 0 and extended = ref 0 and cached = ref 0 and queries = ref 0 and sim = ref 0 in
  let self = Array.make n 0 in
  (* Adds the duration of the span [f] ran to [parts]. *)
  let part parts f =
    let v = f () in
    parts := !parts + Tracer.last_ns tracer;
    v
  in
  (* The command's own work, replayed on the benchmark's table. *)
  let replay i parts = function
    | Ok (Protocol.Open { tenant; m; scale }) ->
        let session =
          Session.create ~max_jobs:cfg.Serve.Server.max_jobs ~max_volume:cfg.Serve.Server.max_volume ~m ~scale ()
        in
        Hashtbl.replace tbl tenant { session; makespan = 0 }
    | Ok (Protocol.Submit { tenant; arrival }) ->
        Option.iter
          (fun t -> ignore (part parts (fun () -> span "online.add" ~id:i (fun () -> Session.add t.session arrival))))
          (Hashtbl.find_opt tbl tenant)
    | Ok (Protocol.Query { tenant; job; _ }) ->
        Option.iter
          (fun t ->
            let s = t.session in
            let before = Session.stats s in
            let r, path =
              part parts (fun () ->
                  Tracer.span_as tracer "online.solve" ~id:i (fun () ->
                      let r = Session.solve s in
                      let after = Session.stats s in
                      let path =
                        if after.Session.full_solves > before.Session.full_solves then `Full
                        else if after.Session.extended_solves > before.Session.extended_solves then `Extended
                        else `Cached
                      in
                      let name =
                        match path with `Full -> "full" | `Extended -> "extended" | `Cached -> "cached"
                      in
                      ("online.solve_" ^ name, (r, path))))
            in
            let mk = r.Sos.Online.makespan in
            incr queries;
            (match path with
            | `Full ->
                incr full;
                sim := !sim + mk
            | `Extended ->
                incr extended;
                sim := !sim + (mk - t.makespan)
            | `Cached -> incr cached);
            t.makespan <- mk;
            if job = None then
              ignore
                (part parts (fun () ->
                     span "online.lower_bound" ~id:i (fun () ->
                         Sos.Online.lower_bound ~m:(Session.m s) ~scale:(Session.scale s) (Session.arrivals s)))))
          (Hashtbl.find_opt tbl tenant)
    | Ok (Protocol.Close { tenant }) -> Hashtbl.remove tbl tenant
    | _ -> ()
  in
  for i = 0 to n - 1 do
    let line = p.lines.(i) in
    span "bench.request" ~id:i (fun () ->
        let parts = ref 0 in
        let parsed = part parts (fun () -> span "protocol.parse" ~id:i (fun () -> Protocol.parse line)) in
        let binding =
          part parts (fun () ->
              span "protocol.binding" ~id:i (fun () ->
                  Robust.Journal.digest
                    (match parsed with Ok c -> Protocol.canonical c | Error _ -> String.trim line)))
        in
        let verb =
          match parsed with
          | Ok (Protocol.Open _) -> "open"
          | Ok (Protocol.Submit _) -> "submit"
          | Ok (Protocol.Query _) -> "query"
          | Ok (Protocol.Close _) -> "close"
          | _ -> "other"
        in
        let reply = span ("server.request." ^ verb) ~id:i (fun () -> serve_one srv pool line) in
        let request_ns = Tracer.last_ns tracer in
        Out_channel.output_string oc reply;
        replay i parts parsed;
        Option.iter
          (fun j ->
            part parts (fun () ->
                span "journal.append" ~id:i (fun () ->
                    Sharded.append j ~index:i ~payload:(binding ^ " " ^ String.trim reply))))
          journal;
        self.(i) <- request_ns - !parts)
  done;
  span "serve.setup" ~id:(-1) (fun () ->
      ignore (Serve.Server.finish srv);
      Option.iter Sharded.close journal;
      Engine.Pool.shutdown pool;
      Out_channel.close oc);
  {
    out;
    wall_ns = Mclock.now_ns () - t0;
    full = !full;
    extended = !extended;
    cached = !cached;
    queries = !queries;
    sim_steps = !sim;
    server_self_ns = self;
  }
