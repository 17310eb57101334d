(* The registry is guarded by a tiny spinlock built on Atomic, per the
   Atomic-only rule for libraries (soslint R3, doc/LINT.md). Registration
   happens at module init or pool construction — contention is nil — and
   the hot-path operations (incr/add/hist_observe) touch only their own
   metric's atomics. *)

type kind = Det | Runtime

type counter = { c_name : string; c_kind : kind; cell : int Atomic.t }

(* Histograms: fixed strictly-increasing upper bounds plus one overflow
   bucket, each count its own atomic. Recording is a binary search and one
   fetch_and_add — lock-free and commutative, so a deterministic-class
   histogram over a fixed workload is byte-identical at any [-j]. The max
   is folded in with a CAS loop (commutative); the sum is a float CAS
   accumulator whose low bits are ordering-dependent, so it is exposed
   only through runtime-facing renderings (OpenMetrics), never through the
   deterministic snapshot. *)
type hist = {
  h_name : string;
  h_kind : kind;
  bounds : float array;
  buckets : int Atomic.t array; (* length bounds + 1; last = overflow *)
  h_max : float Atomic.t;
  h_sum : float Atomic.t;
}

type entry = Counter of counter | Hist of hist

let on = Atomic.make false
let enable () = Atomic.set on true
let disable () = Atomic.set on false
let enabled () = Atomic.get on

let acquire l = while not (Atomic.compare_and_set l false true) do () done
let release l = Atomic.set l false

let reg_lock = Atomic.make false

let registry : (string, entry) Hashtbl.t = Hashtbl.create 64
[@@sos.allow
  "A3: the metric registry is the process-wide name table; every access is serialised by the \
   [reg_lock] spinlock"]

let register name mk =
  acquire reg_lock;
  let e =
    match Hashtbl.find_opt registry name with
    | Some e -> e
    | None ->
        let e = mk () in
        Hashtbl.replace registry name e;
        e
  in
  release reg_lock;
  e

let counter_of_kind kind name =
  match register name (fun () -> Counter { c_name = name; c_kind = kind; cell = Atomic.make 0 }) with
  | Counter c when c.c_kind = kind -> c
  | Counter _ ->
      invalid_arg
        (Printf.sprintf "Obs.Metrics: %S already registered with another class" name)
  | Hist _ ->
      invalid_arg (Printf.sprintf "Obs.Metrics: %S already registered as a histogram" name)

let counter name = counter_of_kind Det name
let runtime_counter name = counter_of_kind Runtime name

let incr c = if Atomic.get on then Atomic.incr c.cell
let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c.cell n)

let record_max c v =
  if Atomic.get on then begin
    (let rec go () =
       let cur = Atomic.get c.cell in
       if v > cur && not (Atomic.compare_and_set c.cell cur v) then go ()
     in
     go ())
    [@sos.allow
      "A2: CAS retry; ends once the cell holds at least [v]. A failed CAS means another writer \
       raised the monotone cell, so every retry follows progress"]
  end

let value c = Atomic.get c.cell

let get name =
  acquire reg_lock;
  let e = Hashtbl.find_opt registry name in
  release reg_lock;
  match e with
  | Some (Counter c) -> Atomic.get c.cell
  | Some (Hist _) ->
      invalid_arg (Printf.sprintf "Obs.Metrics.get: %S is a histogram" name)
  | None -> invalid_arg (Printf.sprintf "Obs.Metrics.get: unknown counter %S" name)

(* ----------------------------------------------------------- histograms *)

let log_bounds ~lo ~hi ~per_decade =
  if not (lo > 0.0 && hi > lo && per_decade > 0) then
    invalid_arg "Obs.Metrics.log_bounds: need 0 < lo < hi and per_decade > 0";
  let n = int_of_float (ceil (float_of_int per_decade *. (log10 hi -. log10 lo))) in
  Array.init (n + 1) (fun i -> lo *. (10.0 ** (float_of_int i /. float_of_int per_decade)))

let linear_bounds ~lo ~hi ~step =
  if not (step > 0.0 && hi > lo) then
    invalid_arg "Obs.Metrics.linear_bounds: need step > 0 and hi > lo";
  let n = int_of_float (ceil ((hi -. lo) /. step)) in
  Array.init (n + 1) (fun i -> lo +. (float_of_int i *. step))

(* Default: 5 buckets per decade across 1e-6 .. 1e6 — wide enough for
   latencies in seconds and for iteration/block counts alike, 61 bounds. *)
let default_bounds = log_bounds ~lo:1e-6 ~hi:1e6 ~per_decade:5

let hist_of_kind kind ?(bounds = default_bounds) name =
  if Array.length bounds = 0 then invalid_arg "Obs.Metrics: histogram needs bounds";
  match
    register name (fun () ->
        Hist
          {
            h_name = name;
            h_kind = kind;
            bounds = Array.copy bounds;
            buckets = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
            h_max = Atomic.make neg_infinity;
            h_sum = Atomic.make 0.0;
          })
  with
  | Hist h when h.h_kind = kind && Array.length h.bounds = Array.length bounds -> h
  | Hist _ ->
      invalid_arg
        (Printf.sprintf "Obs.Metrics: %S already registered with another class or bucket layout"
           name)
  | Counter _ ->
      invalid_arg (Printf.sprintf "Obs.Metrics: %S already registered as a counter" name)

let hist ?bounds name = hist_of_kind Det ?bounds name
let runtime_hist ?bounds name = hist_of_kind Runtime ?bounds name

let rec cas_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then cas_max cell v

let rec cas_add cell v =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. v)) then cas_add cell v

(* First bucket whose upper bound covers [v]; NaN and anything above the
   last bound land in the overflow bucket. *)
let bucket_index bounds v =
  let n = Array.length bounds in
  if not (v <= bounds.(n - 1)) then n
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo
  end

let hist_observe h v =
  if Atomic.get on then begin
    ignore (Atomic.fetch_and_add h.buckets.(bucket_index h.bounds v) 1);
    cas_max h.h_max v;
    cas_add h.h_sum v
  end

let hist_observe_int h v = hist_observe h (float_of_int v)

let hist_counts h = Array.map Atomic.get h.buckets
let hist_count h = Array.fold_left (fun acc b -> acc + Atomic.get b) 0 h.buckets
let hist_sum h = Atomic.get h.h_sum

let hist_max h =
  let m = Atomic.get h.h_max in
  if m = neg_infinity then 0.0 else m

(* Quantile over bucket counts: the representative value is the matched
   bucket's upper bound, clamped to the exact observed max — a pure
   function of (counts, max), both of which are commutative, so
   deterministic-class quantiles are reproducible at any [-j]. *)
let quantile_of_counts bounds counts mx q =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 0.0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let b = ref 0 and acc = ref 0 in
    let n = Array.length counts in
    (try
       for i = 0 to n - 1 do
         acc := !acc + counts.(i);
         if !acc >= rank then begin
           b := i;
           raise Exit
         end
       done;
       b := n - 1
     with Exit -> ());
    if !b >= Array.length bounds then mx
    else begin
      let ub = bounds.(!b) in
      if mx < ub then mx else ub
    end
  end

let hist_quantile h q = quantile_of_counts h.bounds (hist_counts h) (hist_max h) q

(* ------------------------------------------------------------- latency *)

(* The one wall-clock read behind every telemetry latency. [time] and
   [stamp] refuse deterministic histograms, so a duration can only land
   in the runtime class. *)
let now () =
  (Prelude.Clock.now () [@sos.allow "A1: runtime-class latency read; [time]/[stamp] record durations only into runtime histograms, never into det-class metrics"])

let check_runtime h =
  if h.h_kind <> Runtime then
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %S is a deterministic histogram; latencies need runtime_hist"
         h.h_name)

let stamp h =
  check_runtime h;
  if Atomic.get on then begin
    let t0 = now () in
    fun () -> hist_observe h (now () -. t0)
  end
  else ignore

let time h f =
  check_runtime h;
  if Atomic.get on then Fun.protect ~finally:(stamp h) f else f ()

let[@sos.allow
     "R5: zeroing every registered cell is order-insensitive — no output or digest is derived \
      from the iteration"] reset () =
  acquire reg_lock;
  Hashtbl.iter
    (fun _ e ->
      match e with
      | Counter c -> Atomic.set c.cell 0
      | Hist h ->
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.h_max neg_infinity;
          Atomic.set h.h_sum 0.0)
    registry;
  release reg_lock

(* ------------------------------------------------------------ snapshots *)

type snapshot_class = [ `Deterministic | `Runtime | `All ]

let class_name = function Det -> "det" | Runtime -> "runtime"

(* A view of the registry: entries sorted by name. *)
let[@sos.allow
     "R5: the fold only gathers entries; every snapshot sorts them by name (List.sort below) \
      before anything is emitted"] collect cls =
  acquire reg_lock;
  let entries = Hashtbl.fold (fun _ e acc -> e :: acc) registry [] in
  release reg_lock;
  let det_kind = function Det -> cls = `Deterministic || cls = `All
    | Runtime -> cls = `Runtime || cls = `All
  in
  let wanted = function Counter c -> det_kind c.c_kind | Hist h -> det_kind h.h_kind in
  let name = function Counter c -> c.c_name | Hist h -> h.h_name in
  entries
  |> List.filter wanted
  |> List.sort (fun a b -> compare (name a) (name b))
  |> List.map (function
       | Counter c -> `C (c.c_name, c.c_kind, Atomic.get c.cell)
       | Hist h -> `H (h.h_name, h.h_kind, h.bounds, hist_counts h, hist_max h, hist_sum h))

(* (count, p50, p90, p99, max) from a collected histogram view. *)
let hist_stats bounds counts mx =
  let total = Array.fold_left ( + ) 0 counts in
  let q p = quantile_of_counts bounds counts mx p in
  (total, q 0.5, q 0.9, q 0.99, if total = 0 then 0.0 else mx)

let snapshot ?(cls = `All) () =
  let buf = Buffer.create 512 in
  List.iter
    (function
      | `C (name, _, v) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" name v)
      | `H (name, _, bounds, counts, mx, _) ->
          let total, p50, p90, p99, mx = hist_stats bounds counts mx in
          Buffer.add_string buf
            (Printf.sprintf "%s count=%d p50=%.6g p90=%.6g p99=%.6g max=%.6g\n" name total p50
               p90 p99 mx))
    (collect cls);
  Buffer.contents buf

let snapshot_json ?(cls = `All) () =
  let counters = ref [] and hists = ref [] in
  List.iter
    (function
      | `C (n, k, v) ->
          counters :=
            Printf.sprintf "    {\"name\": %S, \"class\": %S, \"value\": %d}" n (class_name k) v
            :: !counters
      | `H (name, k, bounds, counts, mx, _) ->
          let total, p50, p90, p99, mx = hist_stats bounds counts mx in
          let bucket_json i c =
            if c = 0 then None
            else if i >= Array.length bounds then
              Some (Printf.sprintf "{\"le\": \"+Inf\", \"n\": %d}" c)
            else Some (Printf.sprintf "{\"le\": %.9g, \"n\": %d}" bounds.(i) c)
          in
          let bs =
            Array.to_list (Array.mapi bucket_json counts) |> List.filter_map Fun.id
          in
          hists :=
            Printf.sprintf
              "    {\"name\": %S, \"class\": %S, \"count\": %d, \"p50\": %.6g, \"p90\": %.6g, \
               \"p99\": %.6g, \"max\": %.6g, \"buckets\": [%s]}"
              name (class_name k) total p50 p90 p99 mx (String.concat ", " bs)
            :: !hists)
    (collect cls);
  let section xs = String.concat ",\n" (List.rev xs) in
  Printf.sprintf "{\n  \"counters\": [\n%s\n  ],\n  \"hists\": [\n%s\n  ]\n}\n"
    (section !counters) (section !hists)

(* ---------------------------------------------------------- OpenMetrics *)

(* OpenMetrics text exposition (the Prometheus scrape format): counters
   as [name_total], histograms as cumulative [name_bucket{le=...}]
   families. Every sample carries a [class] label naming its determinism
   class. The output ends with [# EOF] as the spec requires. *)

let sanitize_metric_name name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    name

let to_openmetrics ?(cls = `All) () =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (function
      | `C (name, k, v) ->
          let m = sanitize_metric_name name in
          add "# TYPE %s counter\n" m;
          add "%s_total{class=%S} %d\n" m (class_name k) v
      | `H (name, k, bounds, counts, _, sum) ->
          let m = sanitize_metric_name name in
          let c = class_name k in
          add "# TYPE %s histogram\n" m;
          let cum = ref 0 in
          Array.iteri
            (fun i n ->
              cum := !cum + n;
              if i < Array.length bounds then
                add "%s_bucket{class=%S,le=\"%.9g\"} %d\n" m c bounds.(i) !cum
              else add "%s_bucket{class=%S,le=\"+Inf\"} %d\n" m c !cum)
            counts;
          add "%s_count{class=%S} %d\n" m c !cum;
          add "%s_sum{class=%S} %.9g\n" m c sum)
    (collect cls);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf
