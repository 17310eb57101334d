(* Event buffer under the same Atomic spinlock discipline as Metrics:
   multiple domains append concurrently (the pool's workers), export runs
   on the main thread after the work is done.

   The buffer is either unbounded (the default, for short diagnostic
   runs) or a fixed-capacity ring that keeps the newest events and counts
   the overwritten ones — [sosctl batch --trace] arms the ring
   so a million-spec run traces in O(ring) memory, preserving the
   constant-memory contract. *)

type arg = S of string | I of int | F of float

type event = {
  name : string;
  cat : string;
  ph : char; (* 'X' complete, 'M' metadata, 's'/'t'/'f' flow start/step/end *)
  ts : float; (* µs since start *)
  dur : float; (* µs; only for 'X' *)
  tid : int;
  id : int; (* flow id; -1 = none *)
  args : (string * arg) list;
}

let on = Atomic.make false
let active () = Atomic.get on

[@@@sos.allow
"A3: the trace ring (epoch/buf/head/len/cap/dropped_n) is module-global by design and every \
 mutation runs under the [lock] spinlock acquired below"]

let lock = Atomic.make false

let acquire () =
  (while not (Atomic.compare_and_set lock false true) do
     ()
   done)
  [@sos.allow "A2: bounded spinlock; holders run O(1) critical sections with no poll points"]

let release () = Atomic.set lock false

let epoch = ref 0.0

(* Ring state, all guarded by [lock]. Invariant: while the buffer has not
   wrapped, [head = 0] and events occupy [0 .. len-1]; once capped and
   full, [head] is the oldest slot and the array length equals the cap. *)
let buf : event array ref = ref [||]
let head = ref 0
let len = ref 0
let cap : int option ref = ref None
let dropped_n = ref 0

let reset () =
  acquire ();
  buf := [||];
  head := 0;
  len := 0;
  dropped_n := 0;
  release ()

let nth_oldest i = !buf.((!head + i) mod max 1 (Array.length !buf))

let set_ring c =
  acquire ();
  (match c with
  | Some k when k > 0 ->
      let keep = min !len k in
      let kept = Array.init keep (fun i -> nth_oldest (!len - keep + i)) in
      dropped_n := !dropped_n + (!len - keep);
      buf := kept;
      head := 0;
      len := keep;
      cap := Some k
  | _ ->
      (* Unbounded: linearize so the head-0 growth invariant holds. *)
      if !head <> 0 then begin
        let lin = Array.init !len nth_oldest in
        buf := lin;
        head := 0
      end;
      cap := None);
  release ()

let dropped () =
  acquire ();
  let d = !dropped_n in
  release ();
  d

let start ?ring () =
  reset ();
  set_ring ring;
  epoch :=
    (Prelude.Clock.now () [@sos.allow "A1: trace timestamps are wall-clock by definition; the Chrome trace is a runtime artefact, never digested"]);
  Atomic.set on true

let stop () = Atomic.set on false

let now_us () =
  ((Prelude.Clock.now () [@sos.allow "A1: trace timestamps are wall-clock by definition; the Chrome trace is a runtime artefact, never digested"])
  -. !epoch)
  *. 1e6

let push e =
  acquire ();
  let room = Array.length !buf in
  (match !cap with
  | Some c when room = c && !len = c ->
      (* Full ring: overwrite the oldest. *)
      !buf.(!head) <- e;
      head := (!head + 1) mod c;
      incr dropped_n
  | capv ->
      if !len = room then begin
        let target = match capv with Some c -> min c (max 64 (2 * max 1 room)) | None -> max 64 (2 * max 1 room) in
        let bigger = Array.make target e in
        Array.blit !buf 0 bigger 0 !len;
        buf := bigger
      end;
      !buf.(!len) <- e;
      incr len);
  release ()

let with_span ?(tid = 0) ?(cat = "app") ?(args = []) name f =
  if not (Atomic.get on) then f ()
  else begin
    let t0 = now_us () in
    Fun.protect
      ~finally:(fun () ->
        push { name; cat; ph = 'X'; ts = t0; dur = now_us () -. t0; tid; id = -1; args })
      f
  end

let set_thread_name ~tid name =
  if Atomic.get on then
    push
      {
        name = "thread_name";
        cat = "__metadata";
        ph = 'M';
        ts = 0.0;
        dur = 0.0;
        tid;
        id = -1;
        args = [ ("name", S name) ];
      }

let flow ph ?(tid = 0) ?(cat = "flow") ~id name =
  if Atomic.get on then
    push { name; cat; ph; ts = now_us (); dur = 0.0; tid; id; args = [] }

let flow_start = flow 's'
let flow_step = flow 't'
let flow_end = flow 'f'

(* ------------------------------------------------------------- export *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let arg_json = function
  | S s -> Printf.sprintf "\"%s\"" (escape s)
  | I i -> string_of_int i
  | F f -> Printf.sprintf "%.6f" f

let event_json e =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"pid\":1,\"tid\":%d,\"ts\":%.3f"
       (escape e.name) (escape e.cat) e.ph e.tid e.ts);
  if e.ph = 'X' then Buffer.add_string buf (Printf.sprintf ",\"dur\":%.3f" e.dur);
  if e.id >= 0 then begin
    Buffer.add_string buf (Printf.sprintf ",\"id\":%d" e.id);
    (* Bind flow end to the enclosing slice, per the trace format spec. *)
    if e.ph = 'f' then Buffer.add_string buf ",\"bp\":\"e\""
  end;
  if e.args <> [] then begin
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "\"%s\":%s" (escape k) (arg_json v)))
      e.args;
    Buffer.add_char buf '}'
  end;
  Buffer.add_char buf '}';
  Buffer.contents buf

let export () =
  acquire ();
  let evs = Array.init !len nth_oldest in
  let drops = !dropped_n in
  release ();
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  Array.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (event_json e))
    evs;
  Buffer.add_string buf
    (Printf.sprintf "\n],\"droppedEvents\":%d,\"displayTimeUnit\":\"ms\"}\n" drops);
  Buffer.contents buf

