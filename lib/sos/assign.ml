type case = Case_full | Case_partial

(* Per-step case mix and extra-job count (doc/OBSERVABILITY.md). *)
let c_case_full = Obs.Metrics.counter "sos.assign.case_full"
let c_case_partial = Obs.Metrics.counter "sos.assign.case_partial"
let c_extra = Obs.Metrics.counter "sos.assign.extra_allocs"

(* Reusable column buffer: [compute] writes each step's allocations into
   three flat int columns in window order — no record, no cons cell. The
   event-driven solver allocates one scratch per run and passes it to
   every iteration; an outcome's allocations live there until the next
   [compute] on the same scratch. *)
type scratch = {
  mutable job : int array;
  mutable assigned : int array;
  mutable consumed : int array;
  mutable len : int;
  mutable iota_idx : int; (* scratch index of the fractured member, −1 if none *)
  mutable iota_job : int; (* the fractured member itself, −1 if none *)
  mutable iota_q : int; (* its q = s mod r; valid while iota_idx ≥ 0 *)
}

type outcome = {
  block : scratch;
  window : Window.t;
  case : case;
  extra : int option;
  repeats : int;
}

let req = State.req

let make_scratch () =
  {
    job = Array.make 8 0;
    assigned = Array.make 8 0;
    consumed = Array.make 8 0;
    len = 0;
    iota_idx = -1;
    iota_job = -1;
    iota_q = 0;
  }

let scratch_words sc = 3 * Array.length sc.job

let grow a =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let push sc j assigned consumed =
  if sc.len = Array.length sc.job then begin
    sc.job <- grow sc.job;
    sc.assigned <- grow sc.assigned;
    sc.consumed <- grow sc.consumed
  end;
  let i = sc.len in
  sc.job.(i) <- j;
  sc.assigned.(i) <- assigned;
  sc.consumed.(i) <- consumed;
  sc.len <- i + 1

let set sc i assigned consumed =
  sc.assigned.(i) <- assigned;
  sc.consumed.(i) <- consumed

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
    push sc j 0 0
  end
  else if j <> mx then begin
    (* Plain member: s is a positive multiple of r (s_j = p_j·r_j at the
       start, and m = 0 here), so it receives and consumes exactly r. *)
    let r = v.State.v_r.(j) in
    push sc j r r
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
    if iota >= 0 then set sc iota_idx iota_q iota_q;
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
    push sc mx a_mx c_mx;
    Obs.Metrics.incr c_case_full;
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
    { block = sc; window = w; case = Case_full; extra = None; repeats }
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
    if iota >= 0 then set sc iota_idx iota_amount iota_amount;
    (* max W: patched above if it is ι, a plain full-requirement receiver
       otherwise (its s is a positive multiple of its r here). *)
    if iota <> mx then begin
      let r_mx = v.State.v_r.(mx) in
      push sc mx r_mx r_mx
    end;
    let leftover = budget - r_rest - iota_amount in
    let extra_job = if extra && leftover > 0 then Window.right_neighbor st w else None in
    Obs.Metrics.incr c_case_partial;
    match extra_job with
    | Some x ->
        let a_x = min leftover (req st x) in
        push sc x a_x (min a_x (State.s st x));
        Obs.Metrics.incr c_extra;
        {
          block = sc;
          window = Window.add_right st w;
          case = Case_partial;
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
        { block = sc; window = w; case = Case_partial; extra = None; repeats }
  end

let allocs o =
  let sc = o.block in
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        ({ Schedule.job = sc.job.(i); assigned = sc.assigned.(i); consumed = sc.consumed.(i) }
        :: acc)
  in
  go (sc.len - 1) []

let append o cols ~repeat =
  let sc = o.block in
  Schedule.Columns.append cols ~job:sc.job ~assigned:sc.assigned ~consumed:sc.consumed
    ~len:sc.len ~repeat

let apply_n st o ~reps =
  if reps < 1 then invalid_arg "Assign.apply_n: reps must be >= 1";
  let sc = o.block in
  State.consume_block st ~job:sc.job ~consumed:sc.consumed ~len:sc.len ~reps

let apply st o = apply_n st o ~reps:1
