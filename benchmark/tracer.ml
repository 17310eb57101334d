(* Outside-in span recorder for the traced replica runs.

   Spans are recorded by the benchmark around its own calls into each
   layer's public functions, strictly nested on one thread (every replica
   runs at -j 1), so the time a span's children cover is the sum of their
   durations and self time = duration - that sum. The recorder's own
   bookkeeping (pushing a frame, storing a self time, formatting a trace
   event) runs outside every span's interval and is counted as covered
   for the enclosing span, so it lands in no layer's self time; its total
   is reported on its own ([bookkeeping_ns]). Per layer (span name) the
   recorder keeps every self time, so the report can take exact medians;
   the Chrome trace keeps every span whose id is below [trace_ids] plus
   the id-less root spans. A disabled recorder runs the thunk and nothing
   else, so the untraced replica executes the same calls. *)

type frame = {
  mutable name : string;
  id : int;
  seq : int;
  parent : int; (* seq of the enclosing span, -1 at the root *)
  mutable start : int;
  mutable covered : int; (* ns covered by direct children and bookkeeping *)
}

type layer = { mutable selfs : int array; mutable n : int; mutable total : int }

(* The Chrome trace keeps every span of the ids below this. *)
let trace_ids = 2000

type t = {
  enabled : bool;
  clock : unit -> int;
  epoch : int;
  layers : (string, layer) Hashtbl.t;
  mutable order : string list; (* layer names, first-seen order reversed *)
  mutable stack : frame list;
  mutable seq : int;
  mutable last : int; (* duration of the most recently closed span *)
  mutable bookkeeping : int;
  events : Buffer.t;
  mutable n_events : int;
}

let create ?(clock = Mclock.now_ns) ~enabled () =
  {
    enabled;
    clock;
    epoch = clock ();
    layers = Hashtbl.create 32;
    order = [];
    stack = [];
    seq = 0;
    last = 0;
    bookkeeping = 0;
    events = Buffer.create 4096;
    n_events = 0;
  }

let disabled = create ~enabled:false ()

let layer t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> l
  | None ->
      let l = { selfs = Array.make 64 0; n = 0; total = 0 } in
      Hashtbl.add t.layers name l;
      t.order <- name :: t.order;
      l

let record l self =
  if l.n = Array.length l.selfs then begin
    let a = Array.make (2 * l.n) 0 in
    Array.blit l.selfs 0 a 0 l.n;
    l.selfs <- a
  end;
  l.selfs.(l.n) <- self;
  l.n <- l.n + 1;
  l.total <- l.total + self

let add_event t fr ~stop =
  if t.n_events > 0 then Buffer.add_string t.events ",\n";
  t.n_events <- t.n_events + 1;
  Printf.bprintf t.events
    "{\"name\":%S,\"cat\":\"sosbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"span\":%d,\"parent\":%d}}"
    fr.name
    (float_of_int (fr.start - t.epoch) /. 1e3)
    (float_of_int (stop - fr.start) /. 1e3)
    fr.id fr.seq fr.parent

(* Bookkeeping from [since] to [until]: covered for the span on top of the
   stack, and counted on its own. *)
let booked t ~since ~until =
  let cost = until - since in
  t.bookkeeping <- t.bookkeeping + cost;
  match t.stack with p :: _ -> p.covered <- p.covered + cost | [] -> ()

let finish t fr =
  let stop = t.clock () in
  let dur = stop - fr.start in
  t.last <- dur;
  (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
  (match t.stack with p :: _ -> p.covered <- p.covered + dur | [] -> ());
  record (layer t fr.name) (dur - fr.covered);
  if fr.id < trace_ids then add_event t fr ~stop;
  booked t ~since:stop ~until:(t.clock ())

(* [id] is the spec index or request index the span belongs to; spans
   that belong to no single item (roots) pass a negative id. *)
let span t name ~id f =
  if not t.enabled then f ()
  else begin
    let enter = t.clock () in
    let parent = match t.stack with p :: _ -> p.seq | [] -> -1 in
    let fr = { name; id; seq = t.seq; parent; start = enter; covered = 0 } in
    t.seq <- t.seq + 1;
    fr.start <- t.clock ();
    booked t ~since:enter ~until:fr.start;
    t.stack <- fr :: t.stack;
    match f () with
    | v ->
        finish t fr;
        v
    | exception e ->
        finish t fr;
        raise e
  end

(* As [span], for a call whose layer is only known from its result: [f]
   returns the span name with the value; [name] stands if [f] raises. *)
let span_as t name ~id f =
  if not t.enabled then snd (f ())
  else
    span t name ~id (fun () ->
        let name, v = f () in
        (match t.stack with fr :: _ -> fr.name <- name | [] -> ());
        v)

let last_ns t = t.last

(* ------------------------------------------------------------- results *)

let names t = List.rev t.order
let count t name = match Hashtbl.find_opt t.layers name with Some l -> l.n | None -> 0
let total_ns t name = match Hashtbl.find_opt t.layers name with Some l -> l.total | None -> 0
let bookkeeping_ns t = t.bookkeeping

let selfs t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> Array.sub l.selfs 0 l.n
  | None -> [||]

(* Median self time per call, in microseconds (0 for an absent layer). *)
let median_self_us t name =
  match selfs t name with
  | [||] -> 0.0
  | a -> Stats.median_int a /. 1e3

let write_chrome t path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc "{\"traceEvents\":[\n";
      Out_channel.output_string oc (Buffer.contents t.events);
      Out_channel.output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n")
