(* Heartbeat reporter for long runs. Everything is driven from whatever
   thread calls [tick] — for [sosctl batch] that is the caller-thread
   pull loop, so heartbeats never touch worker domains and stdout stays
   byte-identical.
   Output goes through the [out] sink, which defaults to stderr (the one
   stream the repo's purity rule leaves open for diagnostics). *)

type t = {
  interval : float;
  window_cap : int;
  out : string -> unit;
  started : float;
  mutable last_t : float;
  mutable last_done : int;
  mutable beats : int;
}

let to_stderr s =
  output_string stderr s;
  flush stderr

let status_kb field =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception _ -> None
  | body ->
      let prefix = field ^ ":" in
      String.split_on_char '\n' body
      |> List.find_map (fun line ->
             if String.length line > String.length prefix
                && String.sub line 0 (String.length prefix) = prefix
             then
               String.sub line (String.length prefix)
                 (String.length line - String.length prefix)
               |> String.trim
               |> fun rest ->
               (match String.index_opt rest ' ' with
               | Some i -> int_of_string_opt (String.sub rest 0 i)
               | None -> int_of_string_opt rest)
             else None)

let peak_rss_kb = Metrics.runtime_counter "process.peak_rss_kb"

let create ?(interval = 2.0) ~window_cap ?(out = to_stderr) () =
  let now =
    (Prelude.Clock.now () [@sos.allow "A1: progress heartbeats are runtime-class stderr visibility; never part of solver output or det-class telemetry"])
  in
  {
    interval = (if interval < 0.0 then 0.0 else interval);
    window_cap;
    out;
    started = now;
    last_t = now;
    last_done = 0;
    beats = 0;
  }

let format_line ~done_ ~rate ~errors ~window:(occ, cap) ~rss_kb =
  let b = Buffer.create 96 in
  Buffer.add_string b
    (Printf.sprintf "progress %d %.0f/s err=%d window=%d/%d" done_ rate errors occ cap);
  (match rss_kb with
  | Some kb -> Buffer.add_string b (Printf.sprintf " vmhwm=%dkB" kb)
  | None -> ());
  Buffer.contents b

let format_final ~done_ ~errors ~elapsed_s =
  let rate = if elapsed_s > 0.0 then float_of_int done_ /. elapsed_s else 0.0 in
  Printf.sprintf "progress done %d err=%d elapsed=%.1fs avg=%.0f/s" done_ errors elapsed_s rate

let tick t ~done_ ~errors ~occupancy =
  let now =
    (Prelude.Clock.now () [@sos.allow "A1: progress heartbeats are runtime-class stderr visibility; never part of solver output or det-class telemetry"])
  in
  let dt = now -. t.last_t in
  if dt >= t.interval then begin
    let rate = if dt > 0.0 then float_of_int (done_ - t.last_done) /. dt else 0.0 in
    t.out
      (format_line ~done_ ~rate ~errors ~window:(occupancy, t.window_cap)
         ~rss_kb:(status_kb "VmHWM")
      ^ "\n");
    t.last_t <- now;
    t.last_done <- done_;
    t.beats <- t.beats + 1
  end

let finish t ~done_ ~errors =
  let elapsed_s =
    (Prelude.Clock.now () [@sos.allow "A1: progress heartbeats are runtime-class stderr visibility; never part of solver output or det-class telemetry"])
    -. t.started
  in
  t.out (format_final ~done_ ~errors ~elapsed_s ^ "\n");
  t.beats <- t.beats + 1

let beats t = t.beats
