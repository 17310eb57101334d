(* The scheduling service: protocol parse/canonical laws, per-tenant
   sessions with admission control driven end-to-end over real channel
   pairs, deadline degradation to last-good schedules, write-ahead-log
   resume byte-identity (including tamper detection), and graceful
   drain. Replies are checked byte-for-byte — the transcript IS the
   service's contract. Fuzzed: the protocol parser, random request
   sequences through the server, and the bounded line reader against
   [In_channel.input_line]. *)

module P = Serve.Protocol
module S = Serve.Server
module L = Serve.Lines

let check_lines name expected got =
  Alcotest.(check (list string)) name expected got

(* Drive one [S.serve] call over temp-file channel pairs and return the
   reply lines. The server object survives the call, so a test can
   inspect counters or drive it again (the socket transport does). *)
let run_lines ?should_drain ?should_abort srv lines =
  let inp = Filename.temp_file "serve" ".in" in
  let outp = Filename.temp_file "serve" ".out" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove inp with Sys_error _ -> ());
      try Sys.remove outp with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text inp (fun oc ->
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
      In_channel.with_open_text inp (fun input ->
          Out_channel.with_open_text outp (fun output ->
              S.serve srv ~input ~output ?should_drain ?should_abort ()));
      let text = In_channel.with_open_text outp In_channel.input_all in
      String.split_on_char '\n' text |> List.filter (fun l -> l <> ""))

let with_server ?(cfg = S.default) f =
  match S.create cfg with
  | Error msg -> Alcotest.failf "Server.create: %s" msg
  | Ok srv -> f srv

let drive ?cfg ?should_drain ?should_abort lines =
  with_server ?cfg (fun srv ->
      let replies = run_lines ?should_drain ?should_abort srv lines in
      (replies, S.finish srv))

(* --- protocol --- *)

let test_protocol_parse () =
  let ok line = match P.parse line with Ok c -> c | Error e -> Alcotest.failf "parse %S: %s" line e in
  let err line =
    match P.parse line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parse %S should have failed" line
  in
  (* defaults fill in, repeated blanks are tolerated, canonical is normalized *)
  Alcotest.(check string) "open defaults" "open a m=4 scale=100" (P.canonical (ok "  open   a "));
  Alcotest.(check string) "open kvs" "open a m=3 scale=7" (P.canonical (ok "open a scale=7 m=3"));
  Alcotest.(check string) "submit" "submit t-1 5 2 30" (P.canonical (ok "submit t-1 5 2 30"));
  (* deadline is excluded from the canonical form: it tunes solve time,
     never reply bytes, so a resumed run may change it freely *)
  Alcotest.(check string)
    "deadline dropped" "query a job=2"
    (P.canonical (ok "query a job=2 deadline=0.5"));
  Alcotest.(check string) "query bare" "query a" (P.canonical (ok "query a deadline=1"));
  List.iter err
    [
      ""; "open"; "open bad name!"; "open a m=1"; "open a m=x"; "open a m=2 m=3";
      "open a scle=5"; (String.concat "" [ "open "; String.make 65 'x' ]);
      "submit a 1 2"; "submit a 1 2 x"; "query a job=-1"; "query a deadline=0";
      "query a deadline=nope"; "close a extra"; "stats now"; "frobnicate a";
    ]

(* --- end-to-end session flow --- *)

let test_serve_session_flow () =
  let replies, s =
    drive
      [
        "open t m=2 scale=100";
        "submit t 0 2 50";
        "submit t 0 3 60";
        "query t";
        "query t job=1";
        "query t";
        "close t";
        "stats";
        "nonsense";
        "query ghost";
        "open t2";
        "open t2";
      ]
  in
  check_lines "session flow transcript"
    [
      "0 ok open tenant=t m=2 scale=100";
      "1 ok submit tenant=t job=0";
      "2 ok submit tenant=t job=1";
      "3 ok schedule tenant=t jobs=2 makespan=5 lb=3";
      "4 ok job tenant=t job=1 start=2";
      "5 ok schedule tenant=t jobs=2 makespan=5 lb=3";
      "6 ok close tenant=t jobs=2";
      "7 ok stats sessions=0 jobs=0 volume=0 draining=0";
      "8 error parse unknown command \"nonsense\"";
      "9 error no-session tenant ghost";
      "10 ok open tenant=t2 m=4 scale=100";
      "11 error exists tenant t2 already open";
    ]
    replies;
  Alcotest.(check int) "requests" 12 s.S.requests;
  Alcotest.(check int) "errors" 3 s.S.errors;
  Alcotest.(check int) "open sessions" 1 s.S.sessions;
  Alcotest.(check int) "exit code" 0 s.S.exit_code

let test_serve_invalid_submit () =
  let replies, s = drive [ "open t"; "submit t -1 2 50"; "submit t 0 2 50"; "query t" ] in
  (match replies with
  | [ _; bad; ok_sub; ok_q ] ->
      Alcotest.(check bool)
        "negative release is a structured invalid reply" true
        (String.length bad > 8 && String.sub bad 0 8 = "1 error " );
      Alcotest.(check bool) "invalid class named" true
        (Helpers.contains bad "invalid");
      Alcotest.(check string) "session unharmed" "2 ok submit tenant=t job=0" ok_sub;
      Alcotest.(check string) "query works" "3 ok schedule tenant=t jobs=1 makespan=2 lb=2" ok_q
  | _ -> Alcotest.failf "expected 4 replies, got %d" (List.length replies));
  Alcotest.(check int) "exit code" 0 s.S.exit_code

(* A submit whose makespan bound (last release + Σ p_j·r_j) would pass
   max_int is refused at admission, and the tenant keeps answering. A
   job of (b) has release + size <= max_int, so only the cumulative
   bound catches it; admitted, it would make every later query of the
   tenant fail with task-exn. *)
let test_serve_overflow_submit () =
  let overflow i =
    Printf.sprintf
      "%d error invalid lower-bound overflow: job 0: makespan bound (last release + Σ \
       p_j·r_j) exceeds max_int"
      i
  in
  let replies, s =
    drive
      [
        "open a m=4 scale=10";
        "submit a 4611686018427387902 3 5";
        "submit a 0 1 1";
        "query a";
        "open b m=4 scale=10";
        "submit b 4611686018427387900 3 10";
        "submit b 4611686018427387900 3 10";
        "submit b 0 1 1";
        "query b";
      ]
  in
  check_lines "overflow transcript"
    [
      "0 ok open tenant=a m=4 scale=10";
      overflow 1;
      "2 ok submit tenant=a job=0";
      "3 ok schedule tenant=a jobs=1 makespan=1 lb=1";
      "4 ok open tenant=b m=4 scale=10";
      overflow 5;
      overflow 6;
      "7 ok submit tenant=b job=0";
      "8 ok schedule tenant=b jobs=1 makespan=1 lb=1";
    ]
    replies;
  Alcotest.(check int) "exit code" 0 s.S.exit_code

let test_serve_huge_m () =
  (* An m far past the job count is accepted and answered: the
     simulation sizes its active set by the jobs, never by m. *)
  let replies, s =
    drive
      [
        "open t m=4611686018427387903";
        "submit t 0 1 1";
        "submit t 1 2 3";
        "query t";
        "query t job=1";
      ]
  in
  check_lines "huge-m transcript"
    [
      "0 ok open tenant=t m=4611686018427387903 scale=100";
      "1 ok submit tenant=t job=0";
      "2 ok submit tenant=t job=1";
      "3 ok schedule tenant=t jobs=2 makespan=3 lb=3";
      "4 ok job tenant=t job=1 start=1";
    ]
    replies;
  Alcotest.(check int) "exit code" 0 s.S.exit_code

(* --- admission control / overload shedding --- *)

let test_serve_overload () =
  let cfg = { S.default with S.max_sessions = 2; max_jobs = 3; max_volume = 10 } in
  let replies, s =
    drive ~cfg
      [
        "open a"; "open b"; "open c";
        "submit a 0 1 10"; "submit a 0 8 10";
        "submit a 0 5 10"; (* volume 1+8=9, +5 > 10 *)
        "submit a 0 1 10"; (* volume fits exactly: admitted *)
        "submit a 0 1 10"; (* job budget (3) is now full *)
        "query a";
      ]
  in
  check_lines "overload transcript"
    [
      "0 ok open tenant=a m=4 scale=100";
      "1 ok open tenant=b m=4 scale=100";
      "2 overload sessions cap=2";
      "3 ok submit tenant=a job=0";
      "4 ok submit tenant=a job=1";
      "5 overload volume tenant=a cap=10 held=9";
      "6 ok submit tenant=a job=2";
      "7 overload jobs tenant=a cap=3";
      "8 ok schedule tenant=a jobs=3 makespan=8 lb=8";
    ]
    replies;
  Alcotest.(check int) "overloads counted" 3 s.S.overloads;
  Alcotest.(check int) "shed requests are not errors" 0 s.S.errors;
  Alcotest.(check int) "exit code" 0 s.S.exit_code

(* --- deadline degradation --- *)

let test_serve_deadline_degrades () =
  (* The config deadline is hopeless (1ns); a per-request deadline=100
     override lets the first query land a good schedule, after which
     deadline-struck queries degrade to it, marked stale. A tenant with
     no last-good schedule gets a structured deadline error instead. *)
  let cfg = { S.default with S.deadline = Some 1e-9 } in
  let replies, s =
    drive ~cfg
      [
        "open t m=2";
        "submit t 0 2 50";
        "query t deadline=100";
        "submit t 0 3 60";
        "query t";
        "query t job=0";
        "open u";
        "submit u 0 2 50";
        "query u";
      ]
  in
  check_lines "deadline transcript"
    [
      "0 ok open tenant=t m=2 scale=100";
      "1 ok submit tenant=t job=0";
      "2 ok schedule tenant=t jobs=1 makespan=2 lb=2";
      "3 ok submit tenant=t job=1";
      "4 stale schedule tenant=t jobs=1 makespan=2";
      "5 stale job tenant=t job=0 start=0";
      "6 ok open tenant=u m=4 scale=100";
      "7 ok submit tenant=u job=0";
      "8 error deadline task exceeded its 1e-09s deadline";
    ]
    replies;
  Alcotest.(check int) "stale replies" 2 s.S.stale;
  Alcotest.(check int) "deadline error" 1 s.S.errors;
  Alcotest.(check int) "exit code" 0 s.S.exit_code

(* --- graceful drain --- *)

let test_serve_drain () =
  let replies, s =
    drive
      [
        "open t"; "submit t 0 2 50"; "drain";
        "open u"; "submit t 1 1 10"; (* mutations shed while draining *)
        "query t"; "stats"; "close t"; (* reads and closes still answered *)
      ]
  in
  check_lines "drain transcript"
    [
      "0 ok open tenant=t m=4 scale=100";
      "1 ok submit tenant=t job=0";
      "2 ok drain";
      "3 reject draining";
      "4 reject draining";
      "5 ok schedule tenant=t jobs=1 makespan=2 lb=2";
      "6 ok stats sessions=1 jobs=1 volume=2 draining=1";
      "7 ok close tenant=t jobs=1";
    ]
    replies;
  Alcotest.(check int) "drained exit is clean" 0 s.S.exit_code

let test_serve_drain_flag_and_abort () =
  (* The caller's should_drain (SIGTERM in sosctl) has the same effect as
     the drain request; should_abort stops at a request boundary with
     exit code 130, leaving later requests unanswered. *)
  let replies, s =
    drive
      ~should_drain:(fun () -> true)
      [ "open t"; "query missing"; "drain" ]
  in
  check_lines "drain flag"
    [ "0 reject draining"; "1 error no-session tenant missing"; "2 ok drain" ]
    replies;
  Alcotest.(check int) "drain exit" 0 s.S.exit_code;
  let handled = ref 0 in
  let replies, s =
    drive
      ~should_abort:(fun () ->
        incr handled;
        !handled > 2)
      [ "open t"; "open u"; "open v" ]
  in
  Alcotest.(check bool) "abort truncates the transcript" true (List.length replies < 3);
  Alcotest.(check int) "abort exit" 130 s.S.exit_code

(* --- WAL resume --- *)

let with_temp_wal shards f =
  let base = Filename.temp_file "servewal" ".j" in
  Fun.protect
    ~finally:(fun () ->
      let rm p = try Sys.remove p with Sys_error _ -> () in
      rm base;
      for k = 0 to shards - 1 do
        rm (Printf.sprintf "%s.%d" base k)
      done)
    (fun () -> f base)

let resume_requests =
  [
    "open t m=2 scale=100";
    "submit t 0 2 50";
    "query t";
    "submit t 5 3 60";
    "query t job=1";
    String.make (L.max_line + 904) 'z';
    "stats";
    "close t";
  ]

let test_serve_resume_byte_identity () =
  let shards = 2 in
  with_temp_wal shards @@ fun wal ->
  let cfg = { S.default with S.checkpoint = Some wal; shards } in
  let first, s1 = drive ~cfg resume_requests in
  Alcotest.(check int) "first run clean" 0 s1.S.exit_code;
  (* resume over the same re-driven input: every reply is answered
     verbatim from the log, nothing is re-solved, bytes are identical *)
  let cfg = { cfg with S.resume = true } in
  let second, s2 = drive ~cfg resume_requests in
  check_lines "byte-identical transcript" first second;
  Alcotest.(check int) "everything replayed" (List.length resume_requests) s2.S.replayed;
  Alcotest.(check int) "resume exit" 0 s2.S.exit_code;
  (* state transitions were re-applied, not just echoed: the session table
     reflects the close at the end of the journalled stream *)
  Alcotest.(check int) "sessions after resume" 0 s2.S.sessions

let test_serve_resume_tamper_detected () =
  let shards = 1 in
  with_temp_wal shards @@ fun wal ->
  let cfg = { S.default with S.checkpoint = Some wal; shards } in
  let _, s1 = drive ~cfg resume_requests in
  Alcotest.(check int) "first run clean" 0 s1.S.exit_code;
  (* re-drive with request 1 altered: the journalled digest no longer
     matches, and answering with the old reply would be a lie — fail stop *)
  let tampered =
    List.mapi (fun i l -> if i = 1 then "submit t 0 9 50" else l) resume_requests
  in
  let cfg = { cfg with S.resume = true } in
  let replies, s2 = drive ~cfg tampered in
  (match replies with
  | first :: second :: rest ->
      Alcotest.(check string) "index 0 replays" "0 ok open tenant=t m=2 scale=100" first;
      Alcotest.(check bool) "mismatch reported" true
        (Helpers.contains second "resume-mismatch");
      Alcotest.(check (list string)) "served nothing after the mismatch" [] rest
  | _ -> Alcotest.fail "expected exactly two replies");
  Alcotest.(check int) "fail-stop exit code" 4 s2.S.exit_code

let test_serve_resume_header_binding () =
  with_temp_wal 1 @@ fun wal ->
  let cfg = { S.default with S.checkpoint = Some wal } in
  let _, s1 = drive ~cfg [ "open t" ] in
  Alcotest.(check int) "first run clean" 0 s1.S.exit_code;
  (* the WAL header binds the admission caps: resuming under different
     caps would replay replies another admission policy produced *)
  let cfg = { cfg with S.resume = true; max_sessions = 7 } in
  match S.create cfg with
  | Error _ -> ()
  | Ok srv ->
      ignore (S.finish srv);
      Alcotest.fail "resume under different caps must be refused"

(* A negative retry count is refused when the server is made, before its
   WAL is started, so no query ever meets Engine.Batch's own check. *)
let test_serve_negative_retries () =
  with_temp_wal 1 @@ fun wal ->
  Sys.remove wal;
  List.iter
    (fun checkpoint ->
      match S.create { S.default with S.retries = -1; checkpoint } with
      | Error msg -> Alcotest.(check string) "reason" "retries must be >= 0" msg
      | Ok srv ->
          ignore (S.finish srv);
          Alcotest.fail "retries = -1 must be refused")
    [ None; Some wal ];
  Alcotest.(check bool) "no WAL shard written" false (Sys.file_exists (wal ^ ".0"))

(* --- bounded request lines --- *)

let too_long i = Printf.sprintf "%d error parse request longer than 4096 bytes" i

(* A line past the bound takes one index and one parse error, and the
   next line is answered as usual; a line of exactly the bound is read
   whole. *)
let test_serve_long_lines () =
  let pad verb n = verb ^ String.make (n - String.length verb) ' ' in
  let replies, s =
    drive
      [
        "open a";
        String.make 5000 'x';
        "open " ^ String.make 9000 'b';
        pad "stats" L.max_line;
        pad "stats" (L.max_line + 1);
        "query a";
      ]
  in
  check_lines "long-line transcript"
    [
      "0 ok open tenant=a m=4 scale=100";
      too_long 1;
      too_long 2;
      "3 ok stats sessions=1 jobs=0 volume=0 draining=0";
      too_long 4;
      "5 ok schedule tenant=a jobs=0 makespan=0 lb=0";
    ]
    replies;
  Alcotest.(check int) "requests" 6 s.S.requests;
  Alcotest.(check int) "errors" 3 s.S.errors

(* A burst read in one refill leaves in two writes: its first reply at
   once, the rest before the reader goes back to its channel. *)
let test_serve_reply_flushes () =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.enable ();
  Fun.protect ~finally:(fun () -> if not was then Obs.Metrics.disable ()) @@ fun () ->
  let before = Obs.Metrics.get "serve.reply_flushes" in
  let replies, _ = drive ("open t" :: List.init 99 (fun _ -> "query t")) in
  Alcotest.(check int) "one reply each" 100 (List.length replies);
  Alcotest.(check int) "two writes" 2 (Obs.Metrics.get "serve.reply_flushes" - before)

(* Every line [In_channel.input_line] returns from [ic]. *)
let input_lines ic =
  let rec go acc = match In_channel.input_line ic with None -> List.rev acc | Some l -> go (l :: acc) in
  go []

let read_all reader =
  let rec go acc = match L.read reader with None -> List.rev acc | Some l -> go (l :: acc) in
  go []

let bounded line =
  if String.length line <= L.max_line then L.Line line
  else L.Too_long (String.sub line 0 L.max_line)

(* Lines of random bytes without a newline, NUL and \r included: mostly
   short, some empty, some at the bound and some past the buffer. *)
let gen_text =
  let open QCheck.Gen in
  let byte = frequency [ (8, char_range ' ' '~'); (1, return '\r'); (1, return '\000'); (1, map Char.chr (int_range 128 255)) ] in
  let len =
    frequency
      [
        (6, int_range 0 80);
        (1, return 0);
        (2, int_range (L.max_line - 2) (L.max_line + 2));
        (1, int_range (L.max_line + 3) (3 * L.max_line));
      ]
  in
  let line = len >>= fun n -> string_size ~gen:byte (return n) in
  map2
    (fun lines final -> String.concat "\n" lines ^ if final && lines <> [] then "\n" else "")
    (list_size (int_range 0 24) line)
    bool

let prop_lines_match_input_line =
  Helpers.qcheck ~count:150 "reader = In_channel.input_line up to the bound"
    QCheck.(
      make
        ~print:(fun (text, sizes) ->
          Printf.sprintf "%d bytes %S in writes of %s" (String.length text) text
            (String.concat "," (List.map string_of_int sizes)))
        Gen.(pair gen_text (list_size (int_range 1 8) (int_range 1 6000))))
    (fun (text, sizes) ->
      let path = Filename.temp_file "lines" ".txt" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
      let expected = List.map bounded (In_channel.with_open_bin path input_lines) in
      let from_file = In_channel.with_open_bin path (fun ic -> read_all (L.create ic)) in
      from_file = expected
      && Helpers.read_through_pipe text sizes (fun ic -> read_all (L.create ic)) = expected)

(* [before_refill] runs before every read of the channel, and [refills]
   counts them, the one that meets end of input included. *)
let test_lines_refills () =
  let text = String.concat "\n" (List.init 3000 string_of_int) in
  let path = Filename.temp_file "lines" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
  let hooks = ref 0 in
  In_channel.with_open_bin path (fun ic ->
      let reader = L.create ~before_refill:(fun () -> incr hooks) ic in
      Alcotest.(check int) "every line" 3000 (List.length (read_all reader));
      let reads = (String.length text + L.max_line - 1) / L.max_line in
      Alcotest.(check int) "refills" (reads + 1) (L.refills reader);
      Alcotest.(check int) "one hook per refill" (L.refills reader) !hooks;
      Alcotest.(check bool) "end of input stays" true (L.read reader = None))

(* --- protocol and request-loop fuzzing --- *)

let boundary_ints =
  [
    "0"; "1"; "-1"; "2"; string_of_int max_int; string_of_int min_int;
    "4611686018427387904"; "-4611686018427387905";
  ]

let valid_tenants = [ "a"; "b-2"; "T.x_9"; String.make 64 'n' ]
let bad_tenants = [ String.make 65 'n'; "a!"; "caf\xc3\xa9"; "x\000y" ]

let gen_int =
  QCheck.Gen.(
    frequency
      [ (24, map string_of_int (int_range 0 12)); (4, oneofl boundary_ints); (1, oneofl [ "x"; "1.5"; "0x10"; "+3" ]) ])

let gen_kv keys =
  QCheck.Gen.(
    map2 (fun k v -> k ^ "=" ^ v) keys
      (frequency [ (6, gen_int); (1, oneofl [ "0.5"; "1e-9"; "100"; "nan"; "inf"; "-0.0"; "1e400"; "" ]) ]))

(* A request built from the verbs, the tenants of [tenants] (and now and
   then a bad or oversized name), [k=v] options and boundary integers:
   mostly well formed, so that sequences build sessions up, plus a share
   of junk. [drain] and [shutdown] are rare, so a sequence runs on. *)
let gen_request tenants =
  let open QCheck.Gen in
  let tenant = frequency [ (16, oneofl tenants); (1, oneofl bad_tenants) ] in
  let line verb t rest = String.concat " " ((verb ^ " " ^ t) :: List.concat rest) in
  let opt key = frequency [ (1, return []); (2, map (fun kv -> [ kv ]) (gen_kv (return key))) ] in
  let junk =
    list_size (int_range 0 4)
      (frequency [ (3, gen_int); (2, gen_kv (oneofl [ "m"; "scale"; "job"; "deadline"; "x" ])); (1, tenant) ])
  in
  frequency
    [
      (20, map3 (fun t m s -> line "open" t [ m; s ]) tenant (opt "m") (opt "scale"));
      (120, map2 (fun t ns -> line "submit" t [ ns ]) tenant (list_repeat 3 gen_int));
      (60, map3 (fun t j d -> line "query" t [ j; d ]) tenant (opt "job") (opt "deadline"));
      (6, map (fun t -> "close " ^ t) tenant);
      (6, return "stats");
      (1, return "drain");
      (1, return "shutdown");
      ( 12,
        map3
          (fun verb t rest -> String.concat "  " ((verb ^ " " ^ t) :: rest))
          (oneofl [ "open"; "submit"; "query"; "close"; "stats"; "drain"; "shutdown"; "frob"; "" ])
          tenant junk );
    ]

(* Byte strings of 0-300 bytes, none of them a newline. *)
let gen_bytes =
  QCheck.Gen.(
    string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 300)
    |> map (String.map (fun c -> if c = '\n' then ' ' else c)))

let prop_parse_bytes =
  Helpers.qcheck ~count:500 "parse never raises on bytes"
    QCheck.(make ~print:Print.string gen_bytes)
    (fun line -> match P.parse line with Ok _ | Error _ -> true)

(* [canonical] drops [deadline=]; everything else parses back. *)
let prop_parse_tokens =
  Helpers.qcheck ~count:1000 "parse total on token lists; canonical parses back"
    QCheck.(make ~print:Print.string (gen_request (valid_tenants @ bad_tenants)))
    (fun line ->
      match P.parse line with
      | Error _ -> true
      | Ok cmd -> (
          let expected =
            match cmd with P.Query q -> P.Query { q with deadline = None } | c -> c
          in
          match P.parse (P.canonical cmd) with
          | Ok back -> back = expected
          | Error e -> QCheck.Test.fail_reportf "canonical %S: %s" (P.canonical cmd) e))

(* Up to 4 tenants, most of them opened first, then up to 200 requests. *)
let gen_sequence =
  QCheck.Gen.(
    int_range 1 4 >>= fun k ->
    let tenants = List.filteri (fun i _ -> i < k) valid_tenants in
    let opens =
      flatten_l
        (List.map
           (fun t ->
             frequency
               [ (1, return []); (4, map (fun m -> [ Printf.sprintf "open %s m=%d" t m ]) (int_range 2 6)) ])
           tenants)
    in
    triple bool opens (list_size (int_range 0 196) (gen_request tenants))
    |> map (fun (tight, opens, rest) -> (tight, List.concat opens @ rest)))

(* One reply per request, in order, up to the first shutdown; half the
   sequences run under tight admission caps. *)
let prop_serve_sequences =
  Helpers.qcheck ~count:300 "every request one reply, never task-exn"
    QCheck.(make ~print:Print.(pair bool (list string)) gen_sequence)
    (fun (tight, requests) ->
      let cfg =
        if tight then { S.default with S.max_sessions = 2; max_jobs = 6; max_volume = 40 }
        else S.default
      in
      let replies, _ = drive ~cfg requests in
      let rec answered i = function
        | [] -> i
        | r :: rest -> if P.parse r = Ok P.Shutdown then i + 1 else answered (i + 1) rest
      in
      let expected = answered 0 requests in
      if List.length replies <> expected then
        QCheck.Test.fail_reportf "%d replies for %d requests" (List.length replies) expected;
      List.iteri
        (fun i reply ->
          if not (String.starts_with ~prefix:(string_of_int i ^ " ") reply) then
            QCheck.Test.fail_reportf "reply %d is %S" i reply;
          match String.split_on_char ' ' reply with
          | _ :: ("ok" | "stale" | "overload" | "reject") :: _ -> ()
          | _ :: "error" :: "task-exn" :: _ -> QCheck.Test.fail_reportf "reply %d is %S" i reply
          | _ :: "error" :: _ -> ()
          | _ -> QCheck.Test.fail_reportf "reply %d has no class: %S" i reply)
        replies;
      true)

let suite =
  ( "serve",
    [
      Alcotest.test_case "protocol parse + canonical" `Quick test_protocol_parse;
      Alcotest.test_case "session flow transcript" `Quick test_serve_session_flow;
      Alcotest.test_case "invalid submit is structured + survivable" `Quick
        test_serve_invalid_submit;
      Alcotest.test_case "overflowing submit is refused" `Quick test_serve_overflow_submit;
      Alcotest.test_case "m far past the job count" `Quick test_serve_huge_m;
      Alcotest.test_case "overload shedding" `Quick test_serve_overload;
      Alcotest.test_case "deadline degrades to last-good" `Quick
        test_serve_deadline_degrades;
      Alcotest.test_case "graceful drain" `Quick test_serve_drain;
      Alcotest.test_case "drain flag + abort boundary" `Quick
        test_serve_drain_flag_and_abort;
      Alcotest.test_case "WAL resume byte-identity" `Quick test_serve_resume_byte_identity;
      Alcotest.test_case "WAL tamper fail-stop" `Quick test_serve_resume_tamper_detected;
      Alcotest.test_case "WAL header binds admission caps" `Quick
        test_serve_resume_header_binding;
      Alcotest.test_case "negative retries refused at create" `Quick test_serve_negative_retries;
      Alcotest.test_case "lines past the bound" `Quick test_serve_long_lines;
      Alcotest.test_case "a burst leaves in two writes" `Quick test_serve_reply_flushes;
      Alcotest.test_case "reader refills" `Quick test_lines_refills;
      prop_lines_match_input_line;
      prop_parse_bytes;
      prop_parse_tokens;
      prop_serve_sequences;
    ] )
