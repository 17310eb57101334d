module Online = Sos.Online
module Session = Sos.Online.Session
module Journal = Robust.Journal

type config = {
  max_sessions : int;
  max_jobs : int;
  max_volume : int;
  deadline : float option;
  retries : int;
  backoff : Robust.Backoff.policy option;
  checkpoint : string option;
  resume : bool;
  shards : int;
  sync_every : int;
}

let default =
  {
    max_sessions = 64;
    max_jobs = 10_000;
    max_volume = 1_000_000;
    deadline = None;
    retries = 0;
    backoff = None;
    checkpoint = None;
    resume = false;
    shards = 1;
    sync_every = 1;
  }

(* The header binds the WAL to the knobs that shape reply bytes (the
   admission caps) and deliberately omits the ones that shape only timing
   (deadline, retries, backoff): a resumed run may change the latter
   and still replay byte-identically. *)
let header cfg =
  Printf.sprintf "sosv1 serve max-sessions=%d max-jobs=%d max-volume=%d"
    cfg.max_sessions cfg.max_jobs cfg.max_volume

(* serve.requests is input-driven; everything else depends on drain/abort
   timing or deadline expiry and is honestly runtime-class
   (doc/OBSERVABILITY.md). *)
let c_requests = Obs.Metrics.counter "serve.requests"
let c_accepted = Obs.Metrics.runtime_counter "serve.accepted"
let c_overload = Obs.Metrics.runtime_counter "serve.rejected.overload"
let c_draining = Obs.Metrics.runtime_counter "serve.rejected.draining"
let c_replayed = Obs.Metrics.runtime_counter "serve.replayed"
let c_stale = Obs.Metrics.runtime_counter "serve.replies.stale"
let c_errors = Obs.Metrics.runtime_counter "serve.errors"
let c_err_deadline = Obs.Metrics.runtime_counter "serve.errors.deadline"
let c_solve_full = Obs.Metrics.runtime_counter "serve.solve.full"
let c_solve_extended = Obs.Metrics.runtime_counter "serve.solve.extended"
let c_solve_cached = Obs.Metrics.runtime_counter "serve.solve.cached"
let c_solve_blocks = Obs.Metrics.runtime_counter "serve.solve.blocks"
let c_journal_entries = Obs.Metrics.runtime_counter "serve.journal.entries"
let c_reply_flushes = Obs.Metrics.runtime_counter "serve.reply_flushes"
let h_solve_seconds = Obs.Metrics.runtime_hist "serve.solve.seconds"

let h_query_ratio =
  Obs.Metrics.runtime_hist
    ~bounds:(Obs.Metrics.linear_bounds ~lo:1.0 ~hi:4.0 ~step:0.1)
    "serve.query.ratio"

type t = {
  cfg : config;
  sessions : (string, Session.t) Hashtbl.t;
  journal : Journal.Sharded.t option;
  mutable next_index : int;
  mutable draining : bool;
  mutable stop_code : int option;
  mutable n_replayed : int;
  mutable n_overload : int;
  mutable n_stale : int;
  mutable n_errors : int;
}

type summary = {
  requests : int;
  replayed : int;
  overloads : int;
  stale : int;
  errors : int;
  sessions : int;
  exit_code : int;
}

(* WAL problems are fail-stop (doc/SERVE.md): carrying on with a recovery
   log that lost or contradicts an entry would make --resume lie. *)
exception Wal_failure of string
exception Resume_mismatch of string

let create cfg =
  let fresh journal =
    {
      cfg;
      sessions = Hashtbl.create 16;
      journal;
      next_index = 0;
      draining = false;
      stop_code = None;
      n_replayed = 0;
      n_overload = 0;
      n_stale = 0;
      n_errors = 0;
    }
  in
  match cfg.checkpoint with
  (* rejected here, so no query ever meets Engine.Batch's own check *)
  | _ when cfg.retries < 0 -> Error "retries must be >= 0"
  | None -> Ok (fresh None)
  | Some path -> (
      let header = header cfg and shards = cfg.shards and sync_every = cfg.sync_every in
      match
        if cfg.resume then Journal.Sharded.resume ~path ~shards ~sync_every ~header ()
        else Ok (Journal.Sharded.start ~path ~shards ~sync_every ~header ())
      with
      | Ok j -> Ok (fresh (Some j))
      | Error _ as e -> e
      | exception Sys_error e -> Error e)

let stopped t = t.stop_code <> None

(* Run [f] inside an ambient scope carrying the request index, so chaos
   site rules like [serve.request@7:attempts=1] target protocol requests
   the way batch rules target task indices. *)
let in_request_scope ~index f =
  Robust.Context.with_ctx
    (Robust.Context.make ~index ~attempt:0 ~cancel:Robust.Cancel.none)
    f

let reply_class reply =
  match String.split_on_char ' ' reply with _ :: cls :: _ -> cls | _ -> ""

let reply_detail reply =
  match String.split_on_char ' ' reply with _ :: _ :: d :: _ -> d | _ -> ""

(* ------------------------------------------------------------- queries *)

let format_solved ~index ~tenant session (r : Online.result) job =
  let n = r.Online.jobs in
  match job with
  | None ->
      let lb = Session.lower_bound session in
      if lb > 0 then
        Obs.Metrics.hist_observe h_query_ratio
          (float_of_int r.Online.makespan /. float_of_int lb);
      Printf.sprintf "%d ok schedule tenant=%s jobs=%d makespan=%d lb=%d" index
        tenant n r.Online.makespan lb
  | Some k ->
      if k >= n then
        Printf.sprintf "%d error invalid job %d out of range (have %d)" index k n
      else
        Printf.sprintf "%d ok job tenant=%s job=%d start=%d" index tenant k
          r.Online.starts.(k)

let format_stale ~index ~tenant (r : Online.result) job =
  let n = r.Online.jobs in
  match job with
  | None ->
      Printf.sprintf "%d stale schedule tenant=%s jobs=%d makespan=%d" index
        tenant n r.Online.makespan
  | Some k ->
      if k >= n then
        Printf.sprintf "%d error deadline job %d not in last-good schedule (has %d)"
          index k n
      else
        Printf.sprintf "%d stale job tenant=%s job=%d start=%d" index tenant k
          r.Online.starts.(k)

let handle_query (t : t) cancel ~index ~tenant ~job ~deadline =
  match Hashtbl.find_opt t.sessions tenant with
  | None -> Printf.sprintf "%d error no-session tenant %s" index tenant
  | Some session ->
      let task_timeout =
        match deadline with Some d -> Some d | None -> t.cfg.deadline
      in
      (* The solve runs on the calling thread through the engine's attempt
         loop, keyed on the request index: it inherits the deadline token,
         bounded retry and deterministic backoff, and chaos rules and Rng
         derivation see protocol-level indices. *)
      let before = Session.stats session in
      let out =
        Obs.Metrics.time h_solve_seconds (fun () ->
            Engine.Batch.run ~index ~retries:t.cfg.retries ?task_timeout ?cancel
              ?backoff:t.cfg.backoff (fun () ->
                Robust.Chaos.point "serve.request";
                Session.solve session))
      in
      let after = Session.stats session in
      let d a b = max 0 (a - b) in
      Obs.Metrics.add c_solve_full
        (d after.Session.full_solves before.Session.full_solves);
      Obs.Metrics.add c_solve_extended
        (d after.Session.extended_solves before.Session.extended_solves);
      Obs.Metrics.add c_solve_cached
        (d after.Session.cached_hits before.Session.cached_hits);
      Obs.Metrics.add c_solve_blocks (d after.Session.blocks before.Session.blocks);
      (match out with
      | Ok r -> format_solved ~index ~tenant session r job
      | Error err -> begin
          match err.Engine.Batch.failure with
          | Robust.Failure.Deadline_exceeded _ -> begin
              (* Structured degradation: answer with the last committed
                 schedule, marked stale, rather than nothing. *)
              match Session.peek session with
              | Some r -> format_stale ~index ~tenant r job
              | None ->
                  Printf.sprintf "%d error deadline %s" index
                    err.Engine.Batch.message
            end
          | f ->
              Printf.sprintf "%d error %s %s" index
                (Robust.Failure.class_name f) err.Engine.Batch.message
        end)

(* ----------------------------------------------------------- mutations *)

let sorted_sessions (t : t) =
  Hashtbl.to_seq t.sessions |> List.of_seq
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let process (t : t) cancel ~index (cmd : Protocol.command) =
  match cmd with
  | Protocol.Query { tenant; job; deadline } ->
      handle_query t cancel ~index ~tenant ~job ~deadline
  | _ -> begin
      try
        in_request_scope ~index (fun () ->
            Robust.Chaos.point "serve.request";
            match cmd with
            | Protocol.Query _ -> assert false
            | Protocol.Open { tenant; m; scale } ->
                if t.draining then Printf.sprintf "%d reject draining" index
                else if Hashtbl.mem t.sessions tenant then
                  Printf.sprintf "%d error exists tenant %s already open" index
                    tenant
                else if Hashtbl.length t.sessions >= t.cfg.max_sessions then
                  Printf.sprintf "%d overload sessions cap=%d" index
                    t.cfg.max_sessions
                else begin
                  Hashtbl.replace t.sessions tenant
                    (Session.create ~max_jobs:t.cfg.max_jobs
                       ~max_volume:t.cfg.max_volume ~m ~scale ());
                  Printf.sprintf "%d ok open tenant=%s m=%d scale=%d" index
                    tenant m scale
                end
            | Protocol.Submit { tenant; arrival } -> begin
                if t.draining then Printf.sprintf "%d reject draining" index
                else
                  match Hashtbl.find_opt t.sessions tenant with
                  | None ->
                      Printf.sprintf "%d error no-session tenant %s" index
                        tenant
                  | Some session -> begin
                      match Session.add session arrival with
                      | Ok pos ->
                          Printf.sprintf "%d ok submit tenant=%s job=%d" index
                            tenant pos
                      | Error (Session.Jobs_budget { cap }) ->
                          Printf.sprintf "%d overload jobs tenant=%s cap=%d"
                            index tenant cap
                      | Error (Session.Volume_budget { cap; volume }) ->
                          Printf.sprintf
                            "%d overload volume tenant=%s cap=%d held=%d" index
                            tenant cap volume
                      | Error (Session.Bad_arrival _ as r) ->
                          Printf.sprintf "%d error invalid %s" index
                            (Session.reject_message r)
                    end
              end
            | Protocol.Close { tenant } -> begin
                match Hashtbl.find_opt t.sessions tenant with
                | None ->
                    Printf.sprintf "%d error no-session tenant %s" index tenant
                | Some session ->
                    Hashtbl.remove t.sessions tenant;
                    Printf.sprintf "%d ok close tenant=%s jobs=%d" index tenant
                      (Session.jobs session)
              end
            | Protocol.Stats ->
                let jobs, volume =
                  List.fold_left
                    (fun (j, v) (_, s) -> (j + Session.jobs s, v + Session.volume s))
                    (0, 0) (sorted_sessions t)
                in
                Printf.sprintf
                  "%d ok stats sessions=%d jobs=%d volume=%d draining=%d" index
                  (Hashtbl.length t.sessions) jobs volume
                  (if t.draining then 1 else 0)
            | Protocol.Drain ->
                t.draining <- true;
                Printf.sprintf "%d ok drain" index
            | Protocol.Shutdown ->
                t.stop_code <- Some 0;
                Printf.sprintf "%d ok shutdown" index)
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        let f = Robust.Failure.of_exn e bt in
        Printf.sprintf "%d error %s %s" index (Robust.Failure.class_name f)
          (Robust.Failure.message f)
    end

(* ----------------------------------------------------- WAL and replay *)

(* Replies wait in the output channel's buffer until [flush_replies],
   which [serve] calls before each read that may block, after the first
   request of each read, and on the way out (doc/SERVE.md). [held] counts
   the replies written since the last flush. *)
type replies = { output : out_channel; mutable held : int }

let emit out reply =
  Out_channel.output_string out.output reply;
  Out_channel.output_char out.output '\n';
  out.held <- out.held + 1

let flush_replies out =
  if out.held > 0 then begin
    out.held <- 0;
    Out_channel.flush out.output;
    Obs.Metrics.incr c_reply_flushes
  end

(* Journal-then-emit: the entry is the write-ahead record of the reply,
   so it must be durable (per the sync_every policy) before the client
   can observe the reply. *)
let deliver (t : t) out ~index ~binding reply =
  (match t.journal with
  | None -> ()
  | Some j -> begin
      try
        in_request_scope ~index (fun () -> Robust.Chaos.point "serve.journal");
        Journal.Sharded.append j ~index
          ~payload:(Journal.bind ~binding:(Lazy.force binding) reply);
        Obs.Metrics.incr c_journal_entries
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        raise (Wal_failure (Robust.Failure.to_string (Robust.Failure.of_exn e bt)))
    end);
  emit out reply

let try_replay (t : t) ~index ~binding =
  match t.journal with
  | Some j when Journal.Sharded.mem j index -> begin
      match Journal.Sharded.replay j index with
      | None ->
          raise (Wal_failure (Printf.sprintf "journal lost entry %d" index))
      | Some entry -> begin
          match Journal.unbind ~binding:(Lazy.force binding) entry with
          | Ok reply -> Some reply
          | Error `Unbound ->
              raise
                (Wal_failure (Printf.sprintf "journal entry %d malformed" index))
          | Error `Mismatch ->
              raise
                (Resume_mismatch
                   (Printf.sprintf
                      "request %d diverged from the journalled request" index))
        end
    end
  | _ -> None

(* Re-apply a journalled request's state transition without re-solving:
   the journalled reply says whether it was accepted, and accepted
   mutations must leave the session table exactly as the original run
   did so post-replay requests answer identically. *)
let apply_replayed (t : t) (cmd : Protocol.command) reply =
  if String.equal (reply_class reply) "ok" then
    match cmd with
    | Protocol.Open { tenant; m; scale } ->
        Hashtbl.replace t.sessions tenant
          (Session.create ~max_jobs:t.cfg.max_jobs ~max_volume:t.cfg.max_volume
             ~m ~scale ())
    | Protocol.Submit { tenant; arrival } -> begin
        match Hashtbl.find_opt t.sessions tenant with
        | Some session -> begin
            match Session.add session arrival with
            | Ok _ -> ()
            | Error r ->
                raise
                  (Wal_failure
                     (Printf.sprintf
                        "replayed submit %s rejected on re-application: %s"
                        tenant (Session.reject_message r)))
          end
        | None ->
            raise
              (Wal_failure
                 (Printf.sprintf "replayed submit for unopened tenant %s" tenant))
      end
    | Protocol.Close { tenant } -> Hashtbl.remove t.sessions tenant
    | Protocol.Drain -> t.draining <- true
    | Protocol.Shutdown -> t.stop_code <- Some 0
    | Protocol.Query _ | Protocol.Stats -> ()

(* ----------------------------------------------------------- main loop *)

let count_reply (t : t) reply =
  match reply_class reply with
  | "ok" -> Obs.Metrics.incr c_accepted
  | "stale" ->
      t.n_stale <- t.n_stale + 1;
      Obs.Metrics.incr c_stale
  | "overload" ->
      t.n_overload <- t.n_overload + 1;
      Obs.Metrics.incr c_overload
  | "reject" -> Obs.Metrics.incr c_draining
  | "error" ->
      t.n_errors <- t.n_errors + 1;
      Obs.Metrics.incr c_errors;
      if String.equal (reply_detail reply) "deadline" then
        Obs.Metrics.incr c_err_deadline
  | _ -> ()

let too_long = Printf.sprintf "request longer than %d bytes" Lines.max_line

(* The binding ties a WAL entry to its request: the canonical command, or
   the trimmed line when it does not parse. A line past the bound binds
   to its kept bytes and a newline, which no line holds. Only a journal
   reads the binding, so it is hashed on first use, once per request, and
   never without [--checkpoint]. *)
let handle_line (t : t) cancel out ~index line =
  let parsed =
    match line with Lines.Line s -> Protocol.parse s | Lines.Too_long _ -> Error too_long
  in
  let binding =
    lazy
      (Journal.digest
         (match (parsed, line) with
         | Ok cmd, _ -> Protocol.canonical cmd
         | Error _, Lines.Line s -> String.trim s
         | Error _, Lines.Too_long kept -> kept ^ "\n"))
  in
  match try_replay t ~index ~binding with
  | Some reply ->
      t.n_replayed <- t.n_replayed + 1;
      Obs.Metrics.incr c_replayed;
      (match parsed with Ok cmd -> apply_replayed t cmd reply | Error _ -> ());
      (* Already in the WAL — emit verbatim, never re-append. *)
      emit out reply
  | None ->
      let reply =
        match parsed with
        | Error msg -> Printf.sprintf "%d error parse %s" index msg
        | Ok cmd -> process t cancel ~index cmd
      in
      count_reply t reply;
      deliver t out ~index ~binding reply

let fail_stop (t : t) out reply =
  count_reply t reply;
  emit out reply;
  t.stop_code <- Some 4

let serve (t : t) ?pool:_ ~input ~output ?cancel ?(should_drain = fun () -> false)
    ?(should_abort = fun () -> false) () =
  let out = { output; held = 0 } in
  (* A refill may block, so whatever is held goes out first: a client
     waiting for a reply always gets it. *)
  let reader = Lines.create ~before_refill:(fun () -> flush_replies out) input in
  let rec loop () =
    if t.stop_code <> None then ()
    else if should_abort () then t.stop_code <- Some 130
    else begin
      if should_drain () then t.draining <- true;
      let refills = Lines.refills reader in
      match Lines.read reader with
      | None -> ()
      | Some _ when should_abort () ->
          (* The abort signal landed while we were blocked in the read
             (the runtime retries the interrupted read, so the line still
             arrives): stop at this request boundary without handling it. *)
          t.stop_code <- Some 130
      | Some line ->
          (* Likewise a drain signal that interrupted the read must take
             effect on the very line that unblocked it, not one later. *)
          if should_drain () then t.draining <- true;
          let index = t.next_index in
          t.next_index <- index + 1;
          Obs.Metrics.incr c_requests;
          (try handle_line t cancel out ~index line with
          | Wal_failure msg -> fail_stop t out (Printf.sprintf "%d error journal %s" index msg)
          | Resume_mismatch msg ->
              fail_stop t out (Printf.sprintf "%d error resume-mismatch %s" index msg));
          (* The first request of a refill is answered at once, so a
             burst's first reply is not held behind the rest of it. *)
          if Lines.refills reader <> refills then flush_replies out;
          loop ()
    end
  in
  loop ();
  flush_replies out

let finish (t : t) =
  (match t.journal with
  | Some j -> begin
      try Journal.Sharded.close j
      with _ -> if t.stop_code = None then t.stop_code <- Some 4
    end
  | None -> ());
  {
    requests = t.next_index;
    replayed = t.n_replayed;
    overloads = t.n_overload;
    stale = t.n_stale;
    errors = t.n_errors;
    sessions = Hashtbl.length t.sessions;
    exit_code = (match t.stop_code with Some c -> c | None -> 0);
  }
