(* Layer 12 — the sosctl binary, end to end.

   Contracts only the real binary can show: every subcommand answers an
   out-of-range argument with exit 2 and one `sosctl: invalid input:`
   line (never cmdliner's uncaught-exception exit 125, never the batch
   exit 1); `sosctl batch --resume` and `sosctl serve --resume`
   reproduce the uninterrupted run's stdout and exit code from every
   crash point of their journal — each shard truncated at every entry
   boundary and at seeded interior offsets — or fail-stop with exit 4
   when an entry answers another spec or request; `sosctl serve
   --socket` answers sequential connections as it answers stdin, and
   leaves on SIGTERM; a client that waits for each reply before it sends
   the next request gets every reply, over pipes and over the socket; and
   a SIGTERM drains the server. *)

let sosctl = "../bin/sosctl/sosctl.exe"

type run = { code : int; out : string; err : string }

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)

let with_temp_dir f =
  let d = Filename.temp_file "sosctl" ".d" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun name -> Sys.remove (Filename.concat d name)) (Sys.readdir d);
      Sys.rmdir d)
    (fun () -> f d)

(* Run sosctl with [args], stdin from [stdin]; capture both streams. *)
let run ?(stdin = "/dev/null") args =
  let out = Filename.temp_file "sosctl" ".out" and err = Filename.temp_file "sosctl" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s < %s > %s 2> %s"
         (String.concat " " (List.map Filename.quote (sosctl :: args)))
         (Filename.quote stdin) (Filename.quote out) (Filename.quote err))
  in
  let r = { code; out = read_file out; err = read_file err } in
  Sys.remove out;
  Sys.remove err;
  r

(* ------------------------------------------------------ argument ranges *)

let test_invalid_arguments () =
  List.iter
    (fun args ->
      let what = String.concat " " args in
      let r = run args in
      Alcotest.(check int) (what ^ ": exit code") 2 r.code;
      Alcotest.(check bool)
        (what ^ ": one invalid-input line, no backtrace")
        true
        (String.starts_with ~prefix:"sosctl: invalid input: " r.err
        && String.index r.err '\n' = String.length r.err - 1))
    [
      [ "ratio"; "-m"; "1" ];
      [ "ratio"; "--reps"; "0" ];
      [ "sas"; "-m"; "3" ];
      [ "binpack"; "-k"; "0"; "1,2" ];
      [ "binpack"; "-c"; "0"; "1,2" ];
      [ "binpack"; "--"; "-1,2" ];
      [ "hardness"; "1,2" ];
      [ "hardness"; "1,2,3" ];
      [ "gen"; "-f"; "nosuch" ];
      [ "ratio"; "-f"; "nosuch" ];
      [ "sas"; "-p"; "nosuch" ];
      [ "corpus"; "nosuch" ];
    ]

(* ------------------------------------------------------ batch resume *)

(* Ok specs, three kinds of invalid spec, and index 3 crashed by chaos on
   every attempt; the comment line makes input line numbers differ from
   record indices. *)
let corpus =
  "# crash-point corpus\n\
   uniform-small 12 6\n\
   bimodal 0 8\n\
   heavy-tail 20 6\n\
   uniform-small 12 6\n\
   uniform-wide 10 2\n\
   tiny 15 4 5\n\
   nosuchfamily 10 8\n\
   near-one 16 5\n\
   bimodal 14 7\n\
   uniform-wide 18 3\n"

let batch_args ~ck ~shards ?(resume = false) ?(seed = 7) ?(j = 2) specs =
  [
    "batch"; "-j"; string_of_int j; "--seed"; string_of_int seed; "--chaos"; "sos.fast.run@3";
    "--checkpoint"; ck; "--shards"; string_of_int shards;
  ]
  @ (if resume then [ "--resume" ] else [])
  @ [ specs ]

let shard_paths ck shards =
  if shards = 1 then [ ck ] else List.init shards (Printf.sprintf "%s.%d" ck)

let copy_journal ~src ~dst shards =
  List.iter2
    (fun s d -> write_file d (read_file s))
    (shard_paths src shards) (shard_paths dst shards)

(* Offsets just past each newline (and 0): a kill between two appends. *)
let boundaries text =
  0
  :: List.filter_map Fun.id
       (List.init (String.length text) (fun i -> if text.[i] = '\n' then Some (i + 1) else None))

let unlines ls = String.concat "" (List.map (fun l -> l ^ "\n") ls)

let check_same what (ref_ : run) (r : run) =
  Alcotest.(check int) (what ^ ": exit code") ref_.code r.code;
  Alcotest.(check string) (what ^ ": stdout") ref_.out r.out

let test_resume_crash_points () =
  with_temp_dir @@ fun dir ->
  let specs = Filename.concat dir "specs.txt" in
  write_file specs corpus;
  let plain = run [ "batch"; "-j"; "1"; "--seed"; "7"; "--chaos"; "sos.fast.run@3"; specs ] in
  Alcotest.(check int) "failures exit 1" 1 plain.code;
  Alcotest.(check int) "one line per spec" 10
    (List.length (String.split_on_char '\n' (String.trim plain.out)));
  let rng = Prelude.Rng.create 0x5eed in
  List.iter
    (fun shards ->
      let full = Filename.concat dir (Printf.sprintf "full-%d" shards) in
      let ref_ = run (batch_args ~ck:full ~shards ~j:1 specs) in
      check_same (Printf.sprintf "shards=%d checkpointed run" shards) plain ref_;
      let ck = Filename.concat dir (Printf.sprintf "ck-%d" shards) in
      List.iteri
        (fun k shard ->
          let text = read_file shard in
          let header_end = String.index text '\n' + 1 in
          let interior =
            List.init 4 (fun _ ->
                header_end + Prelude.Rng.int rng (String.length text - header_end))
          in
          List.iter
            (fun cut ->
              copy_journal ~src:full ~dst:ck shards;
              write_file (List.nth (shard_paths ck shards) k) (String.sub text 0 cut);
              check_same
                (Printf.sprintf "shards=%d shard %d cut at %d" shards k cut)
                ref_
                (run (batch_args ~ck ~shards ~resume:true specs)))
            (List.sort_uniq compare (boundaries text @ interior));
          (* A kill inside the header write: refused up front. *)
          copy_journal ~src:full ~dst:ck shards;
          write_file (List.nth (shard_paths ck shards) k) (String.sub text 0 (header_end / 2));
          let r = run (batch_args ~ck ~shards ~resume:true specs) in
          Alcotest.(check (pair int string)) "torn header refused" (2, "") (r.code, r.out))
        (shard_paths full shards);
      (* A mid-journal cut resumed from stdin at -j 4, and one resumed at
         -j 1: the cuts above resume at -j 2. *)
      let cut_half shard =
        copy_journal ~src:full ~dst:ck shards;
        let text = read_file shard in
        write_file shard (String.sub text 0 (String.length text / 2))
      in
      cut_half (List.hd (shard_paths ck shards));
      check_same
        (Printf.sprintf "shards=%d resume from stdin at -j 4" shards)
        ref_
        (run ~stdin:specs (batch_args ~ck ~shards ~resume:true ~j:4 "-"));
      cut_half (List.nth (shard_paths ck shards) (shards - 1));
      check_same
        (Printf.sprintf "shards=%d resume at -j 1" shards)
        ref_
        (run (batch_args ~ck ~shards ~resume:true ~j:1 specs));
      (* Entry 4 deleted, the gap a signal leaves; and entry 4 appended
         after higher indices, the layout an earlier resume could leave.
         Each journal resumes twice to the uninterrupted run's bytes. *)
      List.iter
        (fun (what, relocate) ->
          copy_journal ~src:full ~dst:ck shards;
          let shard = List.nth (shard_paths ck shards) (4 mod shards) in
          let entries = String.split_on_char '\n' (read_file shard) |> List.filter (( <> ) "") in
          let gap, rest = List.partition (String.starts_with ~prefix:"4 ") entries in
          write_file shard (unlines (rest @ if relocate then gap else []));
          List.iter
            (fun pass ->
              check_same
                (Printf.sprintf "shards=%d %s, resume %d" shards what pass)
                ref_
                (run (batch_args ~ck ~shards ~resume:true specs)))
            [ 1; 2 ])
        [ ("entry 4 deleted", false); ("entry 4 after higher indices", true) ])
    [ 1; 4 ]

(* A journal is bound per entry to its spec's canonical text, which is
   the same for a text corpus and its binary conversion. *)
let test_resume_across_encodings () =
  with_temp_dir @@ fun dir ->
  let text = Filename.concat dir "specs.txt" and bin = Filename.concat dir "specs.bin" in
  write_file text
    "uniform-small 12 6\nuniform-wide 10 2\nheavy-tail 20 6\ntiny  15   4\nnear-one 16 5\n";
  Alcotest.(check int) "conversion" 0 (run [ "export"; text; "--specs-bin"; bin ]).code;
  let ck = Filename.concat dir "ck" in
  let ref_ = run (batch_args ~ck ~shards:1 text) in
  let fresh_bin = run [ "batch"; "--seed"; "7"; "--chaos"; "sos.fast.run@3"; bin ] in
  check_same "binary run equals text run" ref_ fresh_bin;
  let journal = read_file ck in
  write_file ck (String.sub journal 0 (List.nth (boundaries journal) 3));
  check_same "text journal resumed on the binary corpus" ref_
    (run (batch_args ~ck ~shards:1 ~resume:true bin))

let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")
let take k l = List.filteri (fun i _ -> i < k) l

(* Resuming against a changed corpus either replays an entry its spec
   still answers or stops at the first one it does not: lines before it
   unchanged, then one resume-mismatch line, exit 4. *)
let test_resume_mismatch () =
  with_temp_dir @@ fun dir ->
  let specs = Filename.concat dir "specs.txt" in
  write_file specs corpus;
  let ck = Filename.concat dir "ck" in
  let ref_ = run (batch_args ~ck ~shards:4 specs) in
  let full = Filename.concat dir "full" in
  copy_journal ~src:ck ~dst:full 4;
  let resume_on what text ~stop_at =
    write_file specs text;
    copy_journal ~src:full ~dst:ck 4;
    let r = run (batch_args ~ck ~shards:4 ~resume:true specs) in
    Alcotest.(check int) (what ^ ": exit code") 4 r.code;
    let got = lines r.out in
    Alcotest.(check (list string))
      (what ^ ": lines before the stop")
      (take stop_at (lines ref_.out))
      (take stop_at got);
    Alcotest.(check int) (what ^ ": one line past them") (stop_at + 1) (List.length got);
    Alcotest.(check bool) (what ^ ": resume-mismatch line") true
      (String.starts_with
         ~prefix:(Printf.sprintf "%d error resume-mismatch line " stop_at)
         (List.nth got stop_at))
  in
  (* Spec 5 changed. Its new text followed by a space begins its old
     entry ("tiny 15 4 5 5 ok ..."), so a bare prefix check would replay
     "5 5 ok ..." here. *)
  resume_on "spec 5 changed"
    (String.concat "\n"
       (List.map
          (fun l -> if l = "tiny 15 4 5" then "tiny 15 4" else l)
          (String.split_on_char '\n' corpus)))
    ~stop_at:5;
  (* One more comment line: specs keep their text, but the first error
     line names an input line that moved. *)
  resume_on "line numbers moved" ("#\n" ^ corpus) ~stop_at:1;
  (* Another seed or an old-format journal: refused before any line. *)
  write_file specs corpus;
  copy_journal ~src:full ~dst:ck 4;
  let r = run (batch_args ~ck ~shards:4 ~resume:true ~seed:8 specs) in
  Alcotest.(check (pair int string)) "another seed" (2, "") (r.code, r.out);
  let old = Filename.concat dir "old" in
  write_file old
    "sosj1 seed=7 algo=window specs=0123456789abcdef0123456789abcdef\n\
     0 d41d8cd98f00b204e9800998ecf8427e \n";
  let r = run (batch_args ~ck:old ~shards:1 ~resume:true specs) in
  Alcotest.(check (pair int string)) "sosj1 journal" (2, "") (r.code, r.out)

(* ------------------------------------------------------ serve resume *)

(* 120 requests with every verb. Tenant d releases each round at or
   after its last release, and s 100 steps apart, so each tenant's first
   query re-solves in full and its later ones resume from the committed
   checkpoint; a query by position right after a whole-schedule query
   is a cached answer. Also a no-session query, a parse error, an
   out-of-range job, a close, a drain that rejects a later submit, and a
   shutdown. *)
let serve_lines =
  [ "open d m=3 scale=100"; "open s m=4 scale=50"; "stats"; "query nosuch" ]
  @ List.concat_map
      (fun r ->
        List.init 4 (fun i ->
            Printf.sprintf "submit d %d %d %d" ((2 * r) + (i / 2)) (1 + ((i + r) mod 4))
              (10 + (((i * 29) + (r * 7)) mod 80)))
        @ [
            Printf.sprintf "submit s %d %d %d" (100 * r) (1 + (r mod 3)) (20 + (r * 13 mod 50));
            "query d";
            "query s";
            Printf.sprintf "query d job=%d" (4 * r);
          ])
      (List.init 13 Fun.id)
  @ [
      "frobnicate d"; "query s job=99"; "open x m=2"; "submit x 0 1 1"; "query x job=0";
      "close x"; "drain"; "submit d 0 1 1"; "query d"; "close s"; "stats"; "shutdown";
    ]

let serve_args ~ck ~shards ?(resume = false) () =
  [ "serve"; "--checkpoint"; ck; "--shards"; string_of_int shards ]
  @ if resume then [ "--resume" ] else []

let test_serve_resume_crash_points () =
  with_temp_dir @@ fun dir ->
  let stdin = Filename.concat dir "requests.txt" in
  write_file stdin (unlines serve_lines);
  let plain = run ~stdin [ "serve" ] in
  Alcotest.(check int) "plain run exit" 0 plain.code;
  Alcotest.(check int) "one reply per request" 120 (List.length (lines plain.out));
  let rng = Prelude.Rng.create 0x5e7e in
  List.iter
    (fun shards ->
      let full = Filename.concat dir (Printf.sprintf "full-%d" shards) in
      let ref_ = run ~stdin (serve_args ~ck:full ~shards ()) in
      check_same (Printf.sprintf "shards=%d checkpointed run" shards) plain ref_;
      let ck = Filename.concat dir (Printf.sprintf "ck-%d" shards) in
      let resume () = run ~stdin (serve_args ~ck ~shards ~resume:true ()) in
      let wal path = List.map read_file (shard_paths path shards) in
      List.iteri
        (fun k shard ->
          let text = read_file shard in
          let header_end = String.index text '\n' + 1 in
          let interior =
            List.init 4 (fun _ ->
                header_end + Prelude.Rng.int rng (String.length text - header_end))
          in
          List.iter
            (fun cut ->
              copy_journal ~src:full ~dst:ck shards;
              write_file (List.nth (shard_paths ck shards) k) (String.sub text 0 cut);
              let what = Printf.sprintf "serve shards=%d shard %d cut at %d" shards k cut in
              check_same what ref_ (resume ());
              (* The resume completes the WAL to the uninterrupted run's
                 bytes, so the second resume below covers this cut too. *)
              Alcotest.(check (list string)) (what ^ ": completed WAL") (wal full) (wal ck))
            (List.sort_uniq compare (boundaries text @ interior));
          (* A kill inside the header write: refused before any reply. *)
          copy_journal ~src:full ~dst:ck shards;
          write_file (List.nth (shard_paths ck shards) k) (String.sub text 0 (header_end / 2));
          let r = resume () in
          Alcotest.(check (pair int string)) "torn header refused" (2, "") (r.code, r.out))
        (shard_paths full shards);
      (* A second resume of a completed WAL replays every reply. *)
      copy_journal ~src:full ~dst:ck shards;
      check_same (Printf.sprintf "serve shards=%d completed WAL resumed" shards) ref_ (resume ()))
    [ 1; 2 ]

(* A changed request line stops the resume at its index: the replies
   before it unchanged, then one resume-mismatch reply, exit 4. *)
let test_serve_resume_mismatch () =
  with_temp_dir @@ fun dir ->
  let stdin = Filename.concat dir "requests.txt" in
  List.iter
    (fun shards ->
      write_file stdin (unlines serve_lines);
      let ck = Filename.concat dir (Printf.sprintf "ck-%d" shards) in
      let ref_ = run ~stdin (serve_args ~ck ~shards ()) in
      let at = 40 in
      write_file stdin
        (unlines
           (List.mapi (fun i l -> if i = at then "submit s 7 1 20" else l) serve_lines));
      let r = run ~stdin (serve_args ~ck ~shards ~resume:true ()) in
      let what = Printf.sprintf "shards=%d" shards in
      Alcotest.(check int) (what ^ ": exit code") 4 r.code;
      let got = lines r.out in
      Alcotest.(check (list string))
        (what ^ ": replies before the change")
        (take at (lines ref_.out))
        (take at got);
      Alcotest.(check int) (what ^ ": one reply past them") (at + 1) (List.length got);
      Alcotest.(check bool) (what ^ ": resume-mismatch reply") true
        (String.starts_with
           ~prefix:(Printf.sprintf "%d error resume-mismatch " at)
           (List.nth got at)))
    [ 1; 2 ]

(* ------------------------------------------------------ serve socket *)

(* The stream without its shutdown, over two sequential connections that
   share one request-index stream: their replies, joined, are the stdin
   run's. Then a client that sends 5,060 requests and closes without
   reading a reply: the failed reply write ends that connection only, and
   a later connection is answered. Then SIGTERM, with the server back in
   accept, exits 0 and removes the socket file. Every wait is bounded. *)
let test_serve_socket () =
  with_temp_dir @@ fun dir ->
  let requests = List.filter (fun l -> l <> "shutdown") serve_lines in
  let stdin = Filename.concat dir "requests.txt" in
  write_file stdin (unlines requests);
  let ref_ = run ~stdin [ "serve" ] in
  Alcotest.(check int) "stdin run exit" 0 ref_.code;
  let path = Filename.concat dir "serve.sock" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () -> Unix.create_process sosctl [| sosctl; "serve"; "--socket"; path |] null null null)
  in
  let status = ref None in
  let reap ~tries =
    let rec go k =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when k > 0 ->
          Unix.sleepf 0.01;
          go (k - 1)
      | 0, _ -> ()
      | _, st -> status := Some st
    in
    go tries
  in
  Fun.protect
    ~finally:(fun () ->
      if !status = None then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end)
    (fun () ->
      let rec connect k =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> fd
        | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when k > 0 ->
            Unix.close fd;
            Unix.sleepf 0.01;
            connect (k - 1)
      in
      let send fd lines =
        let text = unlines lines in
        ignore (Unix.write_substring fd text 0 (String.length text))
      in
      let converse lines =
        let fd = connect 500 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
            send fd lines;
            Unix.shutdown fd Unix.SHUTDOWN_SEND;
            In_channel.input_all (Unix.in_channel_of_descr fd))
      in
      let first = converse (take 60 requests) in
      let second = converse (List.filteri (fun i _ -> i >= 60) requests) in
      Alcotest.(check string) "two connections answer as stdin does" ref_.out (first ^ second);
      let unread = connect 500 in
      send unread
        (List.init 60 (Printf.sprintf "open u%d m=3 scale=10") @ List.init 5000 (fun _ -> "stats"));
      Unix.close unread;
      let later = converse [ "stats" ] in
      Alcotest.(check bool)
        (Printf.sprintf "a connection after an unread close is answered (%S)" later)
        true
        (Helpers.contains later " ok stats ");
      (* Bounded wait for the server to sleep in accept again, where the
         system reports process states; a signal that lands just before
         the call takes the same exit. *)
      let stat = Printf.sprintf "/proc/%d/stat" pid in
      let rec in_accept k =
        k = 0
        || (match read_file stat with
           | exception Sys_error _ -> true
           | s -> s.[String.rindex s ')' + 2] = 'S')
        || (Unix.sleepf 0.01;
            in_accept (k - 1))
      in
      ignore (in_accept 500);
      Unix.kill pid Sys.sigterm;
      reap ~tries:1000;
      Alcotest.(check bool) "SIGTERM in accept exits 0" true (!status = Some (Unix.WEXITED 0));
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists path))

(* ------------------------------------------------- serve, closed loop *)

(* One end of a conversation with a server: requests go to [wr], replies
   come from [rd]. *)
type conn = { wr : Unix.file_descr; rd : Unix.file_descr; pending : Buffer.t }

let send c lines =
  let text = unlines lines in
  let rec go pos =
    if pos < String.length text then
      go (pos + Unix.write_substring c.wr text pos (String.length text - pos))
  in
  go 0

(* Every wait for output is bounded, so a server that holds a reply
   fails the test instead of hanging it. *)
let reply_wait_s = 10.0

(* The next line from the server, or [None] at the end of its output. *)
let next_line c =
  let rec go () =
    let held = Buffer.contents c.pending in
    match String.index_opt held '\n' with
    | Some i ->
        Buffer.clear c.pending;
        Buffer.add_string c.pending (String.sub held (i + 1) (String.length held - i - 1));
        Some (String.sub held 0 i)
    | None -> (
        match Unix.select [ c.rd ] [] [] reply_wait_s with
        | [], _, _ -> Alcotest.failf "no reply within %.0f s (received %S)" reply_wait_s held
        | _ -> (
            let b = Bytes.create 4096 in
            match Unix.read c.rd b 0 (Bytes.length b) with
            | 0 ->
                if held <> "" then Alcotest.failf "output ended inside a line (%S)" held;
                None
            | n ->
                Buffer.add_subbytes c.pending b 0 n;
                go ()))
  in
  go ()

let next_reply c =
  match next_line c with Some l -> l | None -> Alcotest.fail "output ended before a reply"

let rec rest_lines c = match next_line c with None -> [] | Some l -> l :: rest_lines c

(* Wait (bounded) for [pid] to exit. *)
let wait_exit pid =
  let rec go k =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when k > 0 ->
        Unix.sleepf 0.01;
        go (k - 1)
    | 0, _ -> Alcotest.failf "sosctl did not exit within %.0f s" reply_wait_s
    | _, st -> st
  in
  go (int_of_float (reply_wait_s *. 100.0))

(* [sosctl ARGS] with its stdin and stdout on pipes and stderr dropped:
   [f pid conn close_stdin], then the exit status, waited for. *)
let with_serve_pipes args f =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ in_r; out_w; null ])
      (fun () -> Unix.create_process sosctl (Array.of_list (sosctl :: args)) in_r out_w null)
  in
  let reaped = ref false and stdin_open = ref true in
  let close_stdin () =
    if !stdin_open then begin
      stdin_open := false;
      Unix.close in_w
    end
  in
  Fun.protect
    ~finally:(fun () ->
      close_stdin ();
      Unix.close out_r;
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end)
    (fun () ->
      let r = f pid { wr = in_w; rd = out_r; pending = Buffer.create 256 } close_stdin in
      let st = wait_exit pid in
      reaped := true;
      (r, st))

(* Send [requests] one at a time, each after the previous reply has been
   read, except [burst], a run of requests sent in one write whose
   replies are read after it; return the replies. *)
let converse c requests ~burst:(first, len) =
  let rec go i = function
    | [] -> []
    | reqs when i = first ->
        let now = take len reqs in
        send c now;
        let replies = List.map (fun _ -> next_reply c) now in
        replies @ go (i + len) (List.filteri (fun k _ -> k >= len) reqs)
    | r :: rest ->
        send c [ r ];
        let reply = next_reply c in
        reply :: go (i + 1) rest
  in
  go 0 requests

(* The 120-request stream, closed loop with one 12-request burst, over
   pipes and over the socket: each reply arrives while the client waits
   for it, and the replies are the stdin run's. The stream ends with
   [shutdown], so both servers exit 0. *)
let test_serve_closed_loop () =
  Helpers.with_sigpipe_ignored @@ fun () ->
  with_temp_dir @@ fun dir ->
  let stdin = Filename.concat dir "requests.txt" in
  write_file stdin (unlines serve_lines);
  let ref_ = run ~stdin [ "serve" ] in
  Alcotest.(check int) "stdin run exit" 0 ref_.code;
  let burst = (40, 12) in
  let replies, st = with_serve_pipes [ "serve" ] (fun _ c _ -> converse c serve_lines ~burst) in
  Alcotest.(check (list string)) "pipes: replies" (lines ref_.out) replies;
  Alcotest.(check bool) "pipes: exit 0" true (st = Unix.WEXITED 0);
  let path = Filename.concat dir "serve.sock" in
  let replies, st =
    with_serve_pipes [ "serve"; "--socket"; path ] (fun _ _ _ ->
        let rec connect k =
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match Unix.connect fd (Unix.ADDR_UNIX path) with
          | () -> fd
          | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when k > 0 ->
              Unix.close fd;
              Unix.sleepf 0.01;
              connect (k - 1)
        in
        let fd = connect 500 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> converse { wr = fd; rd = fd; pending = Buffer.create 256 } serve_lines ~burst))
  in
  Alcotest.(check (list string)) "socket: replies" (lines ref_.out) replies;
  Alcotest.(check bool) "socket: exit 0" true (st = Unix.WEXITED 0);
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* SIGTERM drains: a mutation sent after it is rejected, a query is still
   answered, and the end of input exits 0. The signal is sent once both
   replies before it are read, while the server waits for input. *)
let test_serve_drain_signal () =
  Helpers.with_sigpipe_ignored @@ fun () ->
  let replies, st =
    with_serve_pipes [ "serve" ] (fun pid c close_stdin ->
        send c [ "open a"; "submit a 0 2 50" ];
        let before = List.map (fun _ -> next_reply c) [ 0; 1 ] in
        Unix.kill pid Sys.sigterm;
        send c [ "open b"; "query a" ];
        close_stdin ();
        before @ rest_lines c)
  in
  Alcotest.(check (list string))
    "replies"
    [
      "0 ok open tenant=a m=4 scale=100";
      "1 ok submit tenant=a job=0";
      "2 reject draining";
      "3 ok schedule tenant=a jobs=1 makespan=2 lb=2";
    ]
    replies;
  Alcotest.(check bool) "exit 0" true (st = Unix.WEXITED 0)

(* ------------------------------------------------ unopenable outputs *)

(* An output path in a directory that does not exist exits 2 with one
   `sosctl CMD:` line before any work: no stdout, no uncaught
   exception. *)
let test_unopenable_paths () =
  with_temp_dir @@ fun dir ->
  let specs = Filename.concat dir "specs.txt" in
  write_file specs "uniform-small 6 4\n";
  let missing name = Filename.concat (Filename.concat dir "missing") name in
  List.iter
    (fun args ->
      let what = String.concat " " args in
      let r = run ~stdin:specs args in
      Alcotest.(check int) (what ^ ": exit code") 2 r.code;
      Alcotest.(check string) (what ^ ": stdout") "" r.out;
      Alcotest.(check bool)
        (Printf.sprintf "%s: one sosctl %s line (%S)" what (List.hd args) r.err)
        true
        (String.starts_with ~prefix:(Printf.sprintf "sosctl %s: " (List.hd args)) r.err
        && String.index r.err '\n' = String.length r.err - 1))
    [
      [ "batch"; "--checkpoint"; missing "ck"; specs ];
      [ "batch"; "--checkpoint"; missing "ck"; "--resume"; specs ];
      [ "batch"; "--out-dir"; Filename.concat (missing "x") "y"; specs ];
      [ "batch"; "--metrics=" ^ missing "m.json"; specs ];
      [ "batch"; "--trace=" ^ missing "t.json"; specs ];
      [ "export"; specs; "--specs-bin"; missing "x.bin" ];
      [ "serve"; "--checkpoint"; missing "wal" ];
      [ "serve"; "--checkpoint"; missing "wal"; "--resume" ];
      [ "serve"; "--socket"; missing "sock" ];
    ]

(* ------------------------------------------------------ batch SIGTERM *)

(* SIGTERM stops a batch as SIGINT does (cancel, drain the tasks in
   flight, close the journal) but exits 143. The signal is sent once 20
   lines are read. At -j 2 with seeded 0.3 s stalls it tends to cancel a
   stalled task while later ones finish, so the journal and the lines
   printed have a gap. The first resume keeps the journal up to its gap,
   runs the rest again and leaves it in index order; both resumes print
   the uninterrupted run's bytes. The stalls only slow the run down, so
   the reference and the resumes run without them. *)
let test_batch_sigterm () =
  with_temp_dir @@ fun dir ->
  let specs = Filename.concat dir "specs.txt" and ck = Filename.concat dir "ck" in
  write_file specs (unlines (List.init 200 (fun _ -> "uniform-small 6 4")));
  let args extra = [ "batch"; "-j"; "2"; "--seed"; "3" ] @ extra @ [ specs ] in
  let ref_ = run (args []) in
  Alcotest.(check int) "uninterrupted run exit" 0 ref_.code;
  let expected = Array.of_list (lines ref_.out) in
  let printed, st =
    with_serve_pipes
      (args [ "--chaos"; "sos.fast.run+0.3~0.05"; "--checkpoint"; ck ])
      (fun pid c close_stdin ->
        close_stdin ();
        let first = List.init 20 (fun _ -> next_reply c) in
        Unix.kill pid Sys.sigterm;
        first @ rest_lines c)
  in
  Alcotest.(check bool) "SIGTERM exits 143" true (st = Unix.WEXITED 143);
  let index l = int_of_string (List.hd (String.split_on_char ' ' l)) in
  Alcotest.(check bool) "stopped before the end" true (List.length printed < 200);
  List.iteri
    (fun k l ->
      Alcotest.(check string) "a printed line is the uninterrupted run's" expected.(index l) l;
      if k > 0 then
        Alcotest.(check bool) "printed in index order" true
          (index (List.nth printed (k - 1)) < index l))
    printed;
  List.iter
    (fun pass ->
      check_same (pass ^ " resume") ref_ (run (args [ "--checkpoint"; ck; "--resume" ]));
      Alcotest.(check (list int))
        (pass ^ " resume: journal in index order")
        (List.init 200 Fun.id)
        (List.map index (List.tl (lines (read_file ck)))))
    [ "first"; "second" ]

(* ------------------------------------- sharded streaming kill/resume *)

(* A 100,000-spec binary corpus with a 4-shard journal flushed every 32
   appends, cut as a kill -9 leaves it: every shard at once, each at its
   own seeded entry boundary, some with a torn line after it. Resumed at
   -j 1, 2 and 4, each prints the uninterrupted run's bytes, whose md5 is
   the plain -j 1 run's. *)
let test_sharded_kill_resume () =
  with_temp_dir @@ fun dir ->
  let text = Filename.concat dir "specs.txt" and bin = Filename.concat dir "specs.bin" in
  let families =
    [| "bimodal"; "heavy-tail"; "uniform-wide"; "uniform-small"; "near-one"; "tiny" |]
  in
  write_file text
    (String.concat ""
       (List.init 100_000 (fun i ->
            Printf.sprintf "%s %d %d\n" families.(i mod 6) (10 + (i mod 40)) (4 + (i mod 6)))));
  Alcotest.(check int) "conversion" 0 (run [ "export"; text; "--specs-bin"; bin ]).code;
  let args ?(resume = false) ~j ck =
    [
      "batch"; "-j"; string_of_int j; "--seed"; "5"; "--checkpoint"; ck; "--shards"; "4";
      "--sync-every"; "32";
    ]
    @ (if resume then [ "--resume" ] else [])
    @ [ bin ]
  in
  let full = Filename.concat dir "full" and ck = Filename.concat dir "ck" in
  let ref_ = run (args ~j:2 full) in
  Alcotest.(check int) "uninterrupted run exit" 0 ref_.code;
  Alcotest.(check string) "the plain -j 1 run's md5" "e4f33365b7c4fd63925368ea51afaf65"
    (Digest.to_hex (Digest.string ref_.out));
  let rng = Prelude.Rng.create 0x6b11 in
  List.iter
    (fun j ->
      List.iter2
        (fun src dst ->
          let t = read_file src in
          let header_end = String.index t '\n' + 1 in
          let p = header_end - 1 + Prelude.Rng.int rng (String.length t - header_end + 1) in
          let cut =
            match String.index_from_opt t p '\n' with Some e -> e + 1 | None -> String.length t
          in
          let torn = if Prelude.Rng.bool rng then Prelude.Rng.int rng 40 else 0 in
          write_file dst (String.sub t 0 (min (String.length t) (cut + torn))))
        (shard_paths full 4) (shard_paths ck 4);
      check_same (Printf.sprintf "resume at -j %d" j) ref_ (run (args ~resume:true ~j ck)))
    [ 1; 2; 4 ]

let suite =
  ( "cli",
    [
      Alcotest.test_case "out-of-range arguments exit 2" `Quick test_invalid_arguments;
      Alcotest.test_case "batch resume at every crash point" `Quick test_resume_crash_points;
      Alcotest.test_case "batch resume across encodings" `Quick test_resume_across_encodings;
      Alcotest.test_case "batch resume fail-stop" `Quick test_resume_mismatch;
      Alcotest.test_case "serve resume at every crash point" `Quick
        test_serve_resume_crash_points;
      Alcotest.test_case "serve resume fail-stop" `Quick test_serve_resume_mismatch;
      Alcotest.test_case "serve over a unix socket" `Quick test_serve_socket;
      Alcotest.test_case "serve closed loop, pipes and socket" `Quick test_serve_closed_loop;
      Alcotest.test_case "serve drains on SIGTERM" `Quick test_serve_drain_signal;
      Alcotest.test_case "unopenable output paths exit 2" `Quick test_unopenable_paths;
      Alcotest.test_case "batch SIGTERM resumes byte-identically" `Quick test_batch_sigterm;
      Alcotest.test_case "sharded streaming kill/resume" `Quick test_sharded_kill_resume;
    ] )
