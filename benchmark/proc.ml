(* Child processes: spawn, peak-RSS polling, and a polled run of a
   batch-style child whose stdout goes to a file.

   Batch stdout goes to a file rather than a pipe on purpose: sosctl
   flushes every result line, and a reader process woken once per line
   would steal the one effective core the child runs on. Polling the
   file size every few milliseconds costs almost nothing and still dates
   the first and last output lines to within one poll interval. *)

let devnull_in () = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0

let open_out path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644

let spawn ~prog ~args ~stdin ~stdout ~stderr =
  Unix.create_process prog (Array.of_list (prog :: args)) stdin stdout stderr

(* Peak resident set (VmHWM) of a live process, in kB. *)
let vmhwm_kb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> int_of_string_opt kb
              | [] -> None)
          | _ -> None)
        (String.split_on_char '\n' text)

type rss = { pid : int; mutable kb : int; mutable polled : int }

let rss_tracker pid = { pid; kb = 0; polled = 0 }

(* Poll at most every 20 ms; VmHWM only grows, so the last read before
   the child exits is its peak to within one interval. A child that exits
   within a few milliseconds (the 1/100-scale tests) may never be read. *)
let poll_rss ?(force = false) r now =
  if force || now - r.polled >= 20_000_000 then begin
    r.polled <- now;
    match vmhwm_kb r.pid with Some kb -> r.kb <- max r.kb kb | None -> ()
  end

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

let open_stdin = function
  | Some path -> Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
  | None -> devnull_in ()

let rec select_retry r w timeout =
  try Unix.select r w [] timeout with Unix.Unix_error (Unix.EINTR, _, _) -> select_retry r w timeout

(* Set-up time of [prog args]: from spawn to its first output byte, read
   from a pipe the caller blocks on, so the time is not rounded to a poll
   interval. The child is killed there. [Error status] if it ended (or
   gave nothing for 60 s) without output. *)
let first_output ?stdin ~prog ~args ~err () =
  let inp = open_stdin stdin in
  let r, w = Unix.pipe ~cloexec:true () in
  let efd = open_out err in
  let t_spawn = Mclock.now_ns () in
  let pid = spawn ~prog ~args ~stdin:inp ~stdout:w ~stderr:efd in
  List.iter Unix.close [ inp; w; efd ];
  let first =
    match select_retry [ r ] [] 60.0 with
    | [], _, _ -> None
    | _ -> (
        let now = Mclock.now_ns () in
        match Unix.read r (Bytes.create 1) 0 1 with 0 -> None | _ -> Some (now - t_spawn))
  in
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  let _, status = waitpid_retry [] pid in
  Unix.close r;
  match first with Some ns -> Ok ns | None -> Error status

type run = {
  t_spawn : int;  (** ns *)
  growth : (int * int) array;  (** (ns, output size) at each poll that saw the output grow *)
  rss_kb : int;
  status : Unix.process_status;
}

(* Bytes taken from a feed at a time: small, so that a feed that ends on
   a deadline leaves little queued behind it. *)
let feed_chunk = 4096

(* Writes [next]'s lines to the non-blocking [fd] as far as it takes
   them, and closes it once [next] gives [None] or the reader is gone. *)
let feeder fd next =
  let data = ref "" and off = ref 0 and closed = ref false in
  let buf = Buffer.create (2 * feed_chunk) in
  let close () =
    closed := true;
    Unix.close fd
  in
  let rec refill () =
    if Buffer.length buf < feed_chunk then
      match next () with
      | Some line ->
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          refill ()
      | None -> ()
  in
  let rec push () =
    if not !closed then begin
      if !off = String.length !data then begin
        Buffer.clear buf;
        refill ();
        data := Buffer.contents buf;
        off := 0
      end;
      if !data = "" then close ()
      else
        match Unix.write_substring fd !data !off (String.length !data - !off) with
        | k ->
            off := !off + k;
            push ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | exception Unix.Unix_error (Unix.EPIPE, _, _) -> close ()
    end
  in
  (push, fun () -> if not !closed then close ())

(* Run [prog args] with stdout to [out] and stderr to [err], polling the
   output size and the child's peak RSS every millisecond until it exits.
   stdin is [feed]'s lines through a pipe, read as the child takes them,
   or else the file [stdin] (default /dev/null). *)
let run_polled ?stdin ?feed ~prog ~args ~out ~err () =
  let inp, push, close_feed =
    match feed with
    | None -> (open_stdin stdin, ignore, ignore)
    | Some next ->
        let r, w = Unix.pipe ~cloexec:true () in
        Unix.set_nonblock w;
        let push, close = feeder w next in
        (r, push, close)
  in
  let ofd = open_out out in
  let efd = open_out err in
  let t_spawn = Mclock.now_ns () in
  let pid = spawn ~prog ~args ~stdin:inp ~stdout:ofd ~stderr:efd in
  Unix.close inp;
  Unix.close efd;
  let rss = rss_tracker pid in
  let size = ref 0 and growth = ref [] in
  let observe now =
    let s = (Unix.fstat ofd).Unix.st_size in
    if s > !size then begin
      size := s;
      growth := (now, s) :: !growth
    end
  in
  let rec loop () =
    let now = Mclock.now_ns () in
    push ();
    observe now;
    poll_rss rss now;
    match waitpid_retry [ Unix.WNOHANG ] pid with
    | 0, _ ->
        Unix.sleepf 0.001;
        loop ()
    | _, st ->
        observe (Mclock.now_ns ());
        st
  in
  let status =
    Fun.protect
      ~finally:(fun () ->
        close_feed ();
        Unix.close ofd)
      loop
  in
  { t_spawn; growth = Array.of_list (List.rev !growth); rss_kb = rss.kb; status }

let exited_ok = function Unix.WEXITED 0 -> true | _ -> false

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Byte offset just past each line of a file. *)
let line_ends path =
  In_channel.with_open_bin path (fun ic ->
      let buf = Bytes.create 65536 in
      let ends = ref (Array.make 1024 0) and n = ref 0 in
      let rec go base =
        match In_channel.input ic buf 0 65536 with
        | 0 -> ()
        | k ->
            for i = 0 to k - 1 do
              if Bytes.get buf i = '\n' then begin
                if !n = Array.length !ends then begin
                  let a = Array.make (2 * !n) 0 in
                  Array.blit !ends 0 a 0 !n;
                  ends := a
                end;
                !ends.(!n) <- base + i + 1;
                incr n
              end
            done;
            go (base + k)
      in
      go 0;
      Array.sub !ends 0 !n)

(* Length of one stretch of output for [segment_rates], and how many
   stretches one pass is cut into at most. *)
let segment_s = 0.25
let max_segments = 40

(* Output rate, in lines per second, over equal runs of lines from line
   [skip] to the last, each about [segment_s] long and at most
   [max_segments] of them. Each boundary line is dated by the first poll
   that saw the output reach its end. When the polls cannot date every
   boundary apart, the whole stretch counts as one run; [None] when not
   even that can be dated. *)
let segment_rates (r : run) ~path ~skip =
  let ends = line_ends path in
  let lines = Array.length ends in
  let g = r.growth in
  let time_of_line i =
    (* first growth sample whose size covers line i *)
    let lo = ref 0 and hi = ref (Array.length g - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if snd g.(mid) >= ends.(i) then hi := mid else lo := mid + 1
    done;
    fst g.(!lo)
  in
  let first = skip and last = lines - 1 in
  if last - first < 1 || Array.length g = 0 then None
  else begin
    let rates segments =
      let bound k = first + (k * (last - first) / segments) in
      let rs =
        List.init segments (fun k ->
            let a = bound k and b = bound (k + 1) in
            let dt = time_of_line b - time_of_line a in
            if dt <= 0 then None else Some (float_of_int (b - a) /. Mclock.s_of_ns dt))
      in
      if List.mem None rs then None else Some (List.filter_map Fun.id rs)
    in
    let span = Mclock.s_of_ns (time_of_line last - time_of_line first) in
    let segments = max 1 (min (last - first) (min max_segments (int_of_float (span /. segment_s)))) in
    match rates segments with Some _ as rs -> rs | None -> rates 1
  end

(* Lines per second from spawn to the last output: for a pass so short
   that [segment_rates] cannot date two lines apart. *)
let whole_rate (r : run) ~path =
  let g = r.growth in
  if Array.length g = 0 then None
  else
    Some (float_of_int (Array.length (line_ends path)) /. Mclock.s_of_ns (fst g.(Array.length g - 1) - r.t_spawn))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* stdout of a short helper command, or [None] if it cannot run or fails. *)
let capture prog args =
  match Unix.pipe ~cloexec:true () with
  | exception Unix.Unix_error _ -> None
  | r, w -> (
      let null = devnull_in () in
      let errfd = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
      match spawn ~prog ~args ~stdin:null ~stdout:w ~stderr:errfd with
      | exception Unix.Unix_error _ ->
          List.iter Unix.close [ r; w; null; errfd ];
          None
      | pid ->
          List.iter Unix.close [ w; null; errfd ];
          let ic = Unix.in_channel_of_descr r in
          let text = In_channel.input_all ic in
          close_in ic;
          match waitpid_retry [] pid with
          | _, Unix.WEXITED 0 -> Some (String.trim text)
          | _ -> None)
