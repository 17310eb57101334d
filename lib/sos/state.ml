type view = {
  v_s : int array;
  v_r : int array;
  v_d : int array;
  v_q : int array;
  v_next : int array;
}

(* The arrays hold at least n entries; only the first n are meaningful.
   [reset] refills them for another instance and replaces them only when
   they are too short, so one state can serve a sequence of solves. *)
type t = {
  mutable inst : Instance.t;
  mutable s : int array;
  mutable r : int array; (* per-job requirement, denormalized for the hot loops *)
  mutable d : int array; (* s.(i) / r.(i), maintained by every consume *)
  mutable q : int array; (* s.(i) mod r.(i), maintained by every consume *)
  mutable next : int array;
  mutable prev : int array;
  mutable linked : bool array;
  mutable vw : view; (* aliases s/r/d/q/next; rebuilt when they are replaced *)
  mutable head : int; (* -1 when empty *)
  mutable remaining : int;
  mutable now : int;
}

let reset t inst =
  let n = Instance.n inst in
  if Array.length t.s < n then begin
    t.s <- Array.make n 0;
    t.r <- Array.make n 0;
    t.d <- Array.make n 0;
    t.q <- Array.make n 0;
    t.next <- Array.make n 0;
    t.prev <- Array.make n 0;
    t.linked <- Array.make n true;
    t.vw <- { v_s = t.s; v_r = t.r; v_d = t.d; v_q = t.q; v_next = t.next }
  end;
  let { Instance.size; req; _ } = inst in
  for i = 0 to n - 1 do
    let size = size.(i) and req = req.(i) in
    t.s.(i) <- size * req;
    t.r.(i) <- req;
    (* s_j = p_j·r_j, so initially d = p_j and q = 0 *)
    t.d.(i) <- size;
    t.q.(i) <- 0;
    t.next.(i) <- (if i = n - 1 then -1 else i + 1);
    t.prev.(i) <- i - 1;
    t.linked.(i) <- true
  done;
  t.inst <- inst;
  t.head <- (if n = 0 then -1 else 0);
  t.remaining <- n;
  t.now <- 0

let create inst =
  let t =
    {
      inst;
      s = [||];
      r = [||];
      d = [||];
      q = [||];
      next = [||];
      prev = [||];
      linked = [||];
      vw = { v_s = [||]; v_r = [||]; v_d = [||]; v_q = [||]; v_next = [||] };
      head = -1;
      remaining = 0;
      now = 0;
    }
  in
  reset t inst;
  t

let words t = 7 * Array.length t.s

(* [r] is copied too: [reset] refills it in place. *)
let copy t =
  let s = Array.copy t.s in
  let r = Array.copy t.r in
  let d = Array.copy t.d in
  let q = Array.copy t.q in
  let next = Array.copy t.next in
  {
    t with
    s;
    r;
    d;
    q;
    next;
    prev = Array.copy t.prev;
    linked = Array.copy t.linked;
    vw = { v_s = s; v_r = r; v_d = d; v_q = q; v_next = next };
  }

let view t = t.vw

let instance t = t.inst
let now t = t.now
let tick t = t.now <- t.now + 1

let advance t k =
  if k < 0 then invalid_arg "State.advance: negative step count";
  t.now <- t.now + k

let remaining_count t = t.remaining
let all_finished t = t.remaining = 0
let s t i = t.s.(i)
let started t i = t.s.(i) < Instance.s t.inst i
let finished t i = t.s.(i) = 0
let req t i = t.r.(i)
let q t i = t.q.(i)
let fractured t i = t.s.(i) > 0 && t.q.(i) <> 0
let head t = if t.head < 0 then None else Some t.head
let head_idx t = t.head

let next_remaining t i =
  if not t.linked.(i) then invalid_arg "State.next_remaining: job not linked";
  let j = t.next.(i) in
  if j < 0 then None else Some j

let prev_remaining t i =
  if not t.linked.(i) then invalid_arg "State.prev_remaining: job not linked";
  let j = t.prev.(i) in
  if j < 0 then None else Some j

let next_idx t i =
  if not t.linked.(i) then invalid_arg "State.next_idx: job not linked";
  t.next.(i)

let prev_idx t i =
  if not t.linked.(i) then invalid_arg "State.prev_idx: job not linked";
  t.prev.(i)

let consume t i amount =
  if amount < 0 then invalid_arg "State.consume: negative amount";
  if amount > t.s.(i) then invalid_arg "State.consume: amount exceeds remaining";
  let s = t.s.(i) - amount in
  t.s.(i) <- s;
  let r = t.r.(i) in
  let d = s / r in
  t.d.(i) <- d;
  t.q.(i) <- s - (d * r)

(* Fused bulk consume over one block's allocation columns, repeated
   [reps] times: one walk, one division-free cache update for
   full-requirement receivers (the common case — d drops by [reps], q is
   untouched because the amount is a multiple of r), one division for the
   at-most-two others. The walk runs backwards so the finished jobs come
   out in allocation (window) order without a reversal. *)
let consume_block t ~job ~consumed ~len ~reps =
  if reps < 1 then invalid_arg "State.consume_block: reps must be >= 1";
  let finished = ref [] in
  for k = len - 1 downto 0 do
    let i = job.(k) in
    let c = consumed.(k) in
    let amount = reps * c in
    if amount < 0 then invalid_arg "State.consume_block: negative amount";
    if amount > t.s.(i) then invalid_arg "State.consume_block: amount exceeds remaining";
    let s = t.s.(i) - amount in
    t.s.(i) <- s;
    let r = t.r.(i) in
    if c = r then t.d.(i) <- t.d.(i) - reps
    else begin
      let d = s / r in
      t.d.(i) <- d;
      t.q.(i) <- s - (d * r)
    end;
    if s = 0 then finished := i :: !finished
  done;
  !finished

let unlink t i =
  if not t.linked.(i) then invalid_arg "State.unlink: already unlinked";
  if t.s.(i) <> 0 then invalid_arg "State.unlink: job not finished";
  let p = t.prev.(i) and n = t.next.(i) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p;
  t.linked.(i) <- false;
  t.remaining <- t.remaining - 1

let remaining_jobs t =
  let rec walk acc i = if i < 0 then List.rev acc else walk (i :: acc) t.next.(i) in
  walk [] t.head
