(* Seeded input generators for the five workloads. Every function is a
   pure function of (seed, scale): the same pair gives byte-identical
   files, and sosctl receives only these files and --seed. [scale] shrinks
   a workload for the test suite (1.0 = the benchmarked size). *)

module Rng = Prelude.Rng

let scaled scale n = max 1 (int_of_float (Float.round (float_of_int n *. scale)))

let write_file path body = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc body)

(* ---------------------------------------------------------- batch-mixed *)

let mixed_specs = 24_000
let mixed_m = 16

(* Text specs cycling through the six generator families with n drawn
   from 100..300: the common batch use, where the Fast core and instance
   and schedule validation do the work. *)
let mixed_corpus ~seed ~scale =
  let rng = Rng.create2 seed 1 in
  let families = Array.of_list Workload.Sos_gen.all_families in
  let buf = Buffer.create (1 lsl 20) in
  for i = 0 to scaled scale mixed_specs - 1 do
    let f = families.(i mod Array.length families) in
    Printf.bprintf buf "%s %d %d\n" f.Workload.Sos_gen.name (Rng.int_in rng 100 300) mixed_m
  done;
  Buffer.contents buf

(* ---------------------------------------------------------- batch-large *)

let large_specs = 2_000
let large_files = 300
let large_m = 8
let large_shapes = [| (800, 100_000); (800, 10_000_000); (1600, 100_000);
                      (1600, 10_000_000); (3200, 100_000); (3200, 10_000_000) |]

(* The T7b volume-scaling shapes: sizes uniform in 1..p_max, requirements
   uniform over the whole resource. Specs cycle through the files and the
   files through the shapes, so every run of six consecutive specs holds
   each shape once: any stretch of the output carries the same mix, and
   two seeds differ only in the random jobs. *)
let large_instance rng ~n ~pmax =
  let scale = Workload.Sos_gen.default_scale in
  Sos.Instance.create ~m:large_m ~scale
    (List.init n (fun _ -> (Rng.int_in rng 1 pmax, Rng.int_in rng 1 scale)))

(* Writes the instance files into [dir] (named relative to the working
   directory sosctl runs in, so the labels in its output are stable) and
   returns the @PATH corpus. *)
let large_corpus ~seed ~scale ~dir =
  let rng = Rng.create2 seed 2 in
  let files = max (Array.length large_shapes) (scaled scale large_files) in
  let paths =
    Array.init files (fun k ->
        let n, pmax = large_shapes.(k mod Array.length large_shapes) in
        let path = Printf.sprintf "%s/inst-%03d.txt" dir k in
        write_file path (Sos.Instance.to_string (large_instance rng ~n ~pmax));
        path)
  in
  String.concat "" (List.init (scaled scale large_specs) (fun i -> "@" ^ paths.(i mod files) ^ "\n"))

(* --------------------------------------------------------- batch-stream *)

let stream_records = 1_000_000

(* A sosbin1 corpus of tiny identical specs: each solve takes a few
   microseconds, so decode, ordered emission, stdout and journal appends
   dominate. The records are the same for every seed; sosctl's --seed
   draws the instances. *)
let stream_corpus ~records ~path =
  Out_channel.with_open_bin path (fun oc ->
      let w = Workload.Specs.Writer.create oc in
      for _ = 1 to records do
        match Workload.Specs.Writer.add w ~family:"uniform-small" ~n:4 ~m:4 () with
        | Ok () -> ()
        | Error msg -> failwith msg
      done)

(* ------------------------------------------------------------- serve-* *)

let serve_requests = 20_000
let serve_tenants = 16
let serve_m = 8
let serve_scale = 1000

(* A tenant is closed and replaced by a fresh one after this many jobs,
   so session sizes stay bounded. *)
let serve_churn = 400

type slot = {
  mutable name : string;
  mutable gen : int;
  mutable jobs : int;
  mutable limit : int;  (** jobs before this generation is closed *)
  mutable last : int;
  mutable turns : int;  (** position in the submit/query cycle *)
}

(* A tenant's turns follow a fixed 20-turn cycle of 16 submits and 4
   queries, one query right after another (so a quarter of the queries
   find the schedule cached). A fixed cycle rather than a coin per turn
   keeps the number of queries in any stretch of a few hundred requests
   constant; with a coin it varies by about 6%, and the rate of such a
   stretch with it. *)
let query_turn t = match t mod 20 with 4 | 9 | 14 | 15 -> true | _ -> false

(* An endless stream of protocol lines. The tenants take turns, so every
   seed sees the same spread of session sizes; each tenant starts at a
   random point of its cycle, 80% submits and 20% queries (30% of the
   queries name a job). Tenant k's first generation is closed after
   (k+1)/16 of [serve_churn] jobs, so once every first generation is
   closed (the warm-up) the live sessions are spread evenly over
   0..serve_churn jobs and the cost per request no longer drifts; before
   that every session is young. A submit's release is [gap rng] steps
   after the tenant's previous release. [gap] decides which Session path
   the queries take: at or just after the previous release re-simulates
   in full, 200 steps later extends the committed frontier. *)
type stream = {
  rng : Rng.t;
  gap : Rng.t -> int;
  slots : slot array;
  pending : string Queue.t;  (** lines made but not yet taken *)
  mutable made : int;
  mutable turn : int;
  mutable first_gens : int;  (** first generations still open *)
  mutable warmup : int;  (** lines up to the last first-generation close; 0 until then *)
}

let serve_stream ~seed ~gap =
  let rng = Rng.create2 seed 3 in
  let slots =
    Array.init serve_tenants (fun k ->
        {
          name = Printf.sprintf "t%02dg0" k;
          gen = 0;
          jobs = 0;
          limit = serve_churn * (k + 1) / serve_tenants;
          last = 0;
          turns = Rng.int rng 20;
        })
  in
  let st = { rng; gap; slots; pending = Queue.create (); made = 0; turn = 0; first_gens = serve_tenants; warmup = 0 } in
  Array.iter (fun s -> Queue.push (Printf.sprintf "open %s m=%d scale=%d" s.name serve_m serve_scale) st.pending) slots;
  st.made <- serve_tenants;
  st

(* The next line of the stream, without its newline. *)
let rec next_request st =
  match Queue.take_opt st.pending with
  | Some line -> line
  | None ->
      let emit line =
        st.made <- st.made + 1;
        Queue.push line st.pending
      in
      let rng = st.rng in
      let s = st.slots.(st.turn mod serve_tenants) in
      st.turn <- st.turn + 1;
      if s.jobs >= s.limit then begin
        emit ("close " ^ s.name);
        if s.gen = 0 then begin
          st.first_gens <- st.first_gens - 1;
          if st.first_gens = 0 then st.warmup <- st.made
        end;
        s.gen <- s.gen + 1;
        s.name <- Printf.sprintf "%sg%d" (String.sub s.name 0 3) s.gen;
        s.jobs <- 0;
        s.limit <- serve_churn;
        s.last <- 0;
        emit (Printf.sprintf "open %s m=%d scale=%d" s.name serve_m serve_scale)
      end
      else begin
        s.turns <- s.turns + 1;
        if s.jobs = 0 || not (query_turn s.turns) then begin
          let release = if s.jobs = 0 then 0 else s.last + st.gap rng in
          s.last <- release;
          s.jobs <- s.jobs + 1;
          emit
            (Printf.sprintf "submit %s %d %d %d" s.name release (Rng.int_in rng 1 20)
               (Rng.int_in rng 1 (serve_scale / 2)))
        end
        else if Rng.int rng 100 < 30 then emit (Printf.sprintf "query %s job=%d" s.name (Rng.int rng s.jobs))
        else emit ("query " ^ s.name)
      end;
      next_request st

(* The stream's first lines as one transcript, and its warm-up: the
   number of lines before the session sizes are stationary, or 0 for a
   transcript too short to finish it. *)
let serve_transcript ~seed ~scale ~gap =
  let st = serve_stream ~seed ~gap in
  let total = max (2 * serve_tenants) (scaled scale serve_requests) in
  let out = Buffer.create (total * 32) in
  for _ = 1 to total do
    Buffer.add_string out (next_request st);
    Buffer.add_char out '\n'
  done;
  (Buffer.contents out, if st.warmup <= total then st.warmup else 0)

let dense_gap rng = Rng.int rng 2
let sparse_gap _ = 200
