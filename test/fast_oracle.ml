(* The list-building solver loop: [Fast.run_count] and [Assign.compute]
   as they ran before the solver wrote its blocks into flat int columns.
   Each step's allocations are [Schedule.alloc] records (a per-job cache
   shares a record between blocks that hand a job the same amounts), each
   block is a [Schedule.step], and the blocks go into a growable array
   that [Schedule.of_blocks] turns into the schedule. Kept as it was, minus
   its telemetry, cancellation poll and chaos sites, so the suite can check
   that the column solve emits the same blocks in the same number of
   iterations. It shares no code with the library's [Assign] or its column
   store: it reads the state through [State.view] and consumes through
   [State.consume]. *)

open Sos

type outcome = {
  allocs : Schedule.alloc list;
  window : Window.t;
  case : Assign.case;
  extra : int option;
  repeats : int;
}

let req = State.req

(* Reusable allocation buffer: [compute] builds each step's allocations
   into it in window order and materializes the final list in one backward
   pass — no List.rev, no O(n) [@] append for the extra job. The
   event-driven solver allocates one scratch per run and passes it to
   every iteration. *)
type scratch = {
  mutable buf : Schedule.alloc array;
  mutable len : int;
  mutable iota_idx : int; (* scratch index of the fractured member, −1 if none *)
  mutable iota_job : int; (* the fractured member itself, −1 if none *)
  mutable iota_q : int; (* its q = s mod r; valid while iota_idx ≥ 0 *)
  mutable cache : Schedule.alloc array; (* per-job last allocation record *)
}

let dummy_alloc = { Schedule.job = -1; assigned = 0; consumed = 0 }

let make_scratch () =
  {
    buf = Array.make 16 dummy_alloc;
    len = 0;
    iota_idx = -1;
    iota_job = -1;
    iota_q = 0;
    cache = Array.make 16 dummy_alloc;
  }

(* Allocation records are immutable, and a plain member receives the same
   (r_j, r_j) allocation in block after block: reuse the record built last
   time instead of allocating a fresh one per block. Schedules retain
   every block's allocation list, so sharing identical records across
   blocks cuts what the GC must promote per iteration — the dominant cost
   of the solver hot loop once the stepping itself is event-driven.
   Consumers only ever read the records, so sharing is unobservable. *)
let cached sc j assigned consumed =
  if j >= Array.length sc.cache then begin
    let len = Array.length sc.cache in
    let cap = if j + 1 > 2 * len then j + 1 else 2 * len in
    let cache = Array.make cap dummy_alloc in
    Array.blit sc.cache 0 cache 0 len;
    sc.cache <- cache
  end;
  let a = sc.cache.(j) in
  if a.Schedule.assigned = assigned && a.Schedule.consumed = consumed then a
  else begin
    let a = { Schedule.job = j; assigned; consumed } in
    sc.cache.(j) <- a;
    a
  end

let push sc a =
  let cap = Array.length sc.buf in
  if sc.len = cap then begin
    let buf = Array.make (2 * cap) dummy_alloc in
    Array.blit sc.buf 0 buf 0 cap;
    sc.buf <- buf
  end;
  sc.buf.(sc.len) <- a;
  sc.len <- sc.len + 1

let list_of sc =
  let rec go i acc = if i < 0 then acc else go (i - 1) (sc.buf.(i) :: acc) in
  go (sc.len - 1) []

(* The single fused walk of the window's linked-list range (closure-free,
   top-level recursion over the raw state arrays): push every member's
   tentative full-requirement allocation, record the unique fractured
   member (index and remainder q) in the scratch, and fold the finish
   horizons of the plain members — the min over j ∉ {ι, max W} of
   [s_j/r_j − 1], the number of FURTHER steps this allocation can repeat
   before the earliest of them finishes. Every job starts at
   s_j = p_j·r_j, so a plain member's s is always a positive multiple of
   its r: it consumes exactly r per step and finishes exactly, on the
   span's own allocation (the horizon is finish-inclusive). One division
   per member computes both s/r and s mod r; ι's and max W's horizons are
   case-dependent and folded in by [compute] after the patches. *)
let rec walk_fused sc (v : State.view) mx j k_min =
  let m = v.State.v_q.(j) in
  if m <> 0 then begin
    (* The fractured member's entry is patched by the case split, and
       max W's final entry depends on the case: push a placeholder for ι,
       push nothing yet for max W — [compute] appends its entry last. *)
    if sc.iota_idx >= 0 then
      invalid_arg "Assign.compute: more than one fractured job in window";
    sc.iota_idx <- sc.len;
    sc.iota_job <- j;
    sc.iota_q <- m;
    push sc dummy_alloc
  end
  else if j <> mx then begin
    (* Plain member: s is a positive multiple of r (s_j = p_j·r_j at the
       start, and m = 0 here), so it receives and consumes exactly r. *)
    let r = v.State.v_r.(j) in
    push sc (cached sc j r r)
  end;
  let k_min =
    if m = 0 && j <> mx && v.State.v_d.(j) - 1 < k_min then v.State.v_d.(j) - 1
    else k_min
  in
  if j = mx then k_min
  else begin
    let nx = v.State.v_next.(j) in
    if nx < 0 then invalid_arg "Assign.compute: broken window range"
    else walk_fused sc v mx nx k_min
  end

(* Predictive stability: [repeats] is the largest k such that — PROVIDED
   the window is at a fixed point of Window.compute — the next k steps
   provably reproduce this exact allocation. Plain members cap k at their
   finish horizon (folded during the walk); the at-most-one receiver of a
   non-multiple amount additionally caps it at its q-event, the minimal
   i ≥ 1 with i·c ≡ q (mod r) — a linear congruence — because the case
   split changes when its remainder hits 0:

   - Case 1 with ι: repeats 0. ι receives q_ι and un-fractures; the next
     step hands it r_ι ≠ q_ι.
   - Case 1 without ι: max W receives budget − r(W∖{max W}) capped at r.
     Its q may walk, but fractured or not it is handed the same amount
     (Case 2 with ι = max W computes the identical value, and the flip
     back needs r(W) ≥ budget — automatic here). Only its finish horizon
     caps k.
   - Case 2, ι ≠ max W (or none): max W is a plain member; its horizon
     joins the min. ι's amount min(budget − r(W∖F), s_ι, r_ι) is constant
     while it stays fractured and s_ι ≥ c, so k is capped by its finish
     horizon and, when c is not a multiple of r_ι, its q-event.
   - Case 2, ι = max W: same as the previous case with max W's plain-
     member horizon replaced by ι's capped one.
   - A step that finishes a job (horizon 0), starts the Case-2 extra job
     (the window provably changes), or whose ι un-fractures repeats 0. *)
let compute ?scratch st w ~budget ~extra =
  if Window.is_empty w then invalid_arg "Assign.compute: empty window";
  let sc =
    match scratch with
    | Some sc ->
        sc.len <- 0;
        sc.iota_idx <- -1;
        sc.iota_job <- -1;
        sc
    | None -> make_scratch ()
  in
  let v = State.view st in
  let first = Window.first_idx w in
  let mx = Window.last_idx w in
  let k_walk = walk_fused sc v mx first max_int in
  let iota_idx = sc.iota_idx in
  let iota = sc.iota_job in
  let wrsum = Window.rsum w in
  let r_rest = wrsum - (if iota >= 0 then v.State.v_r.(iota) else 0) in
  if r_rest >= budget then begin
    (* Case 1. The fractured job cannot be max W here: that would give
       r(W∖F) = r(W∖{max W}) < budget by window property (b). *)
    if iota = mx then invalid_arg "Assign.compute: fractured max W in case 1";
    let iota_q = sc.iota_q in
    if iota >= 0 then sc.buf.(iota_idx) <- cached sc iota iota_q iota_q;
    (* Resource handed out before max W (pushed last, below): every other
       member's full requirement, with ι's replaced by q_ι. *)
    let r_mx = v.State.v_r.(mx) in
    let spent =
      wrsum - r_mx - (if iota >= 0 then v.State.v_r.(iota) - iota_q else 0)
    in
    (* WLOG R_i(t) ≤ r_j: cap the handed-out share. Property (b) gives
       spent < budget, so max W always receives and consumes ≥ 1. *)
    let a_mx = if budget - spent < r_mx then budget - spent else r_mx in
    let s_mx = v.State.v_s.(mx) in
    let c_mx = if a_mx < s_mx then a_mx else s_mx in
    push sc (cached sc mx a_mx c_mx);
    let repeats =
      if iota >= 0 then 0
      else begin
        let s_post = s_mx - c_mx in
        if s_post = 0 then 0
        else begin
          let k = s_post / c_mx in
          if k < k_walk then k else k_walk
        end
      end
    in
    { allocs = list_of sc; window = w; case = Assign.Case_full; extra = None; repeats }
  end
  else begin
    (* Case 2: r(W∖F) < budget. *)
    let iota_amount =
      if iota < 0 then 0
      else begin
        let lim = budget - r_rest in
        let s_i = v.State.v_s.(iota) in
        let r_i = v.State.v_r.(iota) in
        let sr = if s_i < r_i then s_i else r_i in
        if lim < sr then lim else sr
      end
    in
    if iota >= 0 then sc.buf.(iota_idx) <- cached sc iota iota_amount iota_amount;
    (* max W: patched above if it is ι, a plain full-requirement receiver
       otherwise (its s is a positive multiple of its r here). *)
    if iota <> mx then begin
      let r_mx = v.State.v_r.(mx) in
      push sc (cached sc mx r_mx r_mx)
    end;
    let leftover = budget - r_rest - iota_amount in
    let extra_job = if extra && leftover > 0 then Window.right_neighbor st w else None in
    match extra_job with
    | Some x ->
        let a_x = min leftover (req st x) in
        push sc (cached sc x a_x (min a_x (State.s st x)));
        {
          allocs = list_of sc;
          window = Window.add_right st w;
          case = Assign.Case_partial;
          extra = Some x;
          repeats = 0;
        }
    | None ->
        let repeats =
          let k1 =
            if iota = mx then k_walk
            else begin
              let k = v.State.v_d.(mx) - 1 in
              if k < k_walk then k else k_walk
            end
          in
          if iota < 0 then k1
          else begin
            let c = iota_amount in
            let s_post = v.State.v_s.(iota) - c in
            if s_post = 0 then 0
            else begin
              let r_i = v.State.v_r.(iota) in
              let k = s_post / c in
              let k1 = if k < k1 then k else k1 in
              if c = r_i then k1 (* a multiple: ι's remainder never moves *)
              else begin
                (* q_post = (q − c) mod r without a division: 0 < c < r_i *)
                let q_post =
                  let x = sc.iota_q - c in
                  if x < 0 then x + r_i else x
                in
                if q_post = 0 then 0 (* un-fractures next step: case split flips *)
                else begin
                  match Prelude.Numth.min_congruence_solution ~c ~q:q_post ~r:r_i with
                  | None -> k1
                  | Some e -> if e < k1 then e else k1
                end
              end
            end
          end
        in
        { allocs = list_of sc; window = w; case = Assign.Case_partial; extra = None; repeats }
  end

(* What [State.consume_allocs] did, one [State.consume] per allocation
   (the same state; the quotient and remainder by division, not the
   division-free update): finished jobs in allocation order. *)
let consume_allocs st allocs ~reps =
  List.filter_map
    (fun (a : Schedule.alloc) ->
      State.consume st a.job (reps * a.consumed);
      if State.finished st a.job then Some a.job else None)
    allocs

let dummy_step = { Schedule.allocs = []; repeat = 1 }

type blocks = { mutable buf : Schedule.step array; mutable len : int }

let push_block bl allocs repeat =
  let cap = Array.length bl.buf in
  if bl.len = cap then begin
    let buf = Array.make (2 * cap) dummy_step in
    Array.blit bl.buf 0 buf 0 cap;
    bl.buf <- buf
  end;
  bl.buf.(bl.len) <- { Schedule.allocs; repeat };
  bl.len <- bl.len + 1

let run_count ?(variant = `Fixed) inst =
  let st = State.create inst in
  let size = inst.Instance.m - 1 in
  let budget = inst.Instance.scale in
  let blocks = { buf = Array.make 64 dummy_step; len = 0 } in
  let carried = ref Window.empty in
  let pre = ref Window.empty in
  let have_pre = ref false in
  let iters = ref 0 in
  let scratch = make_scratch () in
  while not (State.all_finished st) do
    incr iters;
    if !iters > (16 * Instance.n inst) + 64 then failwith "Fast_oracle: iteration budget exceeded";
    let w =
      if !have_pre then begin
        have_pre := false;
        !pre
      end
      else Window.compute ~variant st !carried ~size ~budget
    in
    let outcome = compute ~scratch st w ~budget ~extra:true in
    let k = outcome.repeats in
    let reps =
      if k > 0 && Window.stable ~variant st w ~size ~budget then 1 + k else 1
    in
    let finished_jobs = consume_allocs st outcome.allocs ~reps in
    State.advance st reps;
    push_block blocks outcome.allocs reps;
    match finished_jobs with
    | [] ->
        if reps > 1 then begin
          carried := w;
          pre := w;
          have_pre := true
        end
        else carried := outcome.window
    | fs ->
        let survivors = Window.repair st outcome.window ~finished:fs in
        List.iter (State.unlink st) fs;
        carried := survivors
  done;
  (Schedule.of_blocks inst blocks.buf ~len:blocks.len, !iters)
