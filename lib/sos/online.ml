type arrival = { release : int; size : int; req : int }

type result = { jobs : int; makespan : int; starts : int array }

type offline = { instance : Instance.t; schedule : Schedule.Columns.t; start_times : int array }

let validate_arrival i a =
  let open Robust.Failure in
  if a.release < 0 then
    Error (Malformed (Printf.sprintf "job %d: negative release (got %d)" i a.release))
  else if a.size <= 0 then Error (Nonpositive_size { job = i; size = a.size })
  else if a.req <= 0 then Error (Nonpositive_req { job = i; req = a.req })
  else Ok ()

(* Eq. (1) over the sums, raised to the release horizon max_j (r_j + p_j):
   the one formula behind [lower_bound] and [Session.lower_bound]. Raises
   as [Bounds.lower_bound] would: on m and scale first, then on a sum
   that overflowed ([None]). *)
let clairvoyant_bound ~m ~scale ~requirement ~volume ~longest ~horizon =
  Instance.check_shape ~m ~scale;
  match Bounds.eq1_checked ~m ~scale ~requirement ~volume ~longest with
  | Ok eq1 -> max eq1 horizon
  | Error reason -> raise (Robust.Failure.Invalid reason)

(* One pass over the arrivals, failing exactly as [Bounds.lower_bound]
   on their offline instance would: at the first malformed arrival, then
   on m and scale, then on an overflowing sum. Eq. (1)'s sums do not
   depend on job order, so the instance and its sort are not needed. A
   sum that overflowed is held as -1. *)
let lower_bound ~m ~scale arrivals =
  let add_checked acc v = if acc < 0 || v < 0 || acc > max_int - v then -1 else acc + v in
  let requirement = ref 0 and volume = ref 0 in
  let longest = ref 0 and horizon = ref 0 in
  List.iteri
    (fun i a ->
      (match validate_arrival i a with
      | Ok () -> ()
      | Error inv -> raise (Robust.Failure.Invalid inv));
      requirement :=
        add_checked !requirement (if a.size > max_int / a.req then -1 else a.size * a.req);
      volume := add_checked !volume a.size;
      longest := max !longest a.size;
      horizon := max !horizon (a.release + a.size))
    arrivals;
  let sum s = if s < 0 then None else Some s in
  clairvoyant_bound ~m ~scale ~requirement:(sum !requirement) ~volume:(sum !volume)
    ~longest:!longest ~horizon:!horizon

(* ------------------------------------------------------ incremental core

   The simulation is keyed on submission POSITIONS, not instance ids.
   [Instance.create] sorts by requirement, ties broken by the position,
   so every comparison an id-keyed simulation makes — the admission
   order, the "everyone but the largest" split — is the same comparison
   on (req, position). A session therefore never renumbers
   anything: a result's starts stay keyed by position, and only
   [materialize] maps positions onto the sorted instance's ids. *)

let grown a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let by_req reqs p q =
  let c = Int.compare reqs.(p) reqs.(q) in
  if c <> 0 then c else Int.compare p q

(* The released positions waiting for admission: a binary min-heap over
   the first [size] cells of [heap], ordered by [gen.(p)] (see
   [simulate]), then by (req, position). *)
type queue = { heap : int array; mutable size : int; gen : int array; reqs : int array }

let before q p r =
  let c = Int.compare q.gen.(p) q.gen.(r) in
  if c <> 0 then c < 0 else by_req q.reqs p r < 0

let enqueue q p =
  let i = ref q.size in
  q.size <- q.size + 1;
  while !i > 0 && before q p q.heap.((!i - 1) / 2) do
    q.heap.(!i) <- q.heap.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  q.heap.(!i) <- p

(* Remove the head, [q.heap.(0)]. *)
let dequeue q =
  q.size <- q.size - 1;
  let last = q.heap.(q.size) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < q.size && before q q.heap.(l + 1) q.heap.(l) then l + 1 else l in
    if c < q.size && before q q.heap.(c) last then begin
      q.heap.(!i) <- q.heap.(c);
      i := c
    end
    else sifting := false
  done;
  q.heap.(!i) <- last

(* Run positions [from .. n-1] to completion from time [clock], where
   every position below [from] has finished; write each one's first step
   into [starts] (-1 until then) and return the makespan. Only the first
   [n] positions of the columns are read. [block active amounts k repeat]
   sees each block: the first [k] running positions and what each gets
   per step, for [repeat] steps ([k = 0] is an idle gap).

   Admission order. The per-step policy keeps the waiting jobs in a list,
   sorted by (req, position) at the start. Each admission takes the first
   released job in that list and moves every other released job ahead of
   every unreleased one, each group keeping its order. So a job passed
   over at one admission stays ahead of every job released after it,
   whatever their requirements. The queue reproduces that order with a
   key: [gen.(p)] is the number of admissions made before [p] was
   released. Two waiting jobs with the same [gen] were released between
   the same two admissions, and no admission changed their order, so
   they keep (req, position). A smaller [gen] means an admission found
   one job released and the other not, and moved the released one ahead.
   Positions wait in [arriving], sorted by release, until the frontier
   reaches them; [next] is the first one not yet released, and its
   release is the next release time. A client that submits in time order
   sends them sorted already, so an O(n) scan comes first and the sort
   runs only when it finds one out of order. Each position is pushed and
   popped once, at O(log n) each.

   Active set. [active] holds the running positions in (req, position)
   order, so the largest is the last slot, and [sum] is their Σ req. An
   admission shifts its job into place and a block compacts finished
   jobs out, in O(m) and without allocating. [active] has min(m − 1,
   n − from) cells, whatever m is.

   Events. Stepping one time unit at a time, the state changes only at
   three kinds of event: a release while a slot is free ([admit] may grow
   the active set), a job finishing (the active set shrinks), and a job's
   partial last step (its allocation drops below the one it had, and with
   it the leftover the largest job receives). In between, every step
   repeats the previous allocation, so the loop computes one step,
   repeats it up to the next event, and calls [admit] only at those
   boundaries. The expansion, the makespan and the start times are those
   of the per-step loop (test/online_oracle.ml keeps it as the suite's
   reference).

   Event bound: every block ends at a job's release (one block at most
   per distinct release time), at a job's finish, or one step before a
   finish — an interval cut short by a job's partial last step, which the
   next, one-step block then finishes. A completed simulation over n
   positions therefore has at most 3n blocks, whatever its makespan, and
   so does any one call below, since every call runs one stretch of that
   simulation. One cooperative cancellation poll per block keeps
   mid-solve deadlines responsive; the chaos site lets the fault suite
   kill whole solves. *)
let simulate ~m ~scale ~n ~releases ~sizes ~reqs ~from ~clock ~starts ~block =
  Robust.Chaos.point "sos.online.run";
  let fuel = ref (3 * n) in
  let arriving = Array.init (n - from) (fun i -> from + i) in
  let rec in_order p = p >= n || (releases.(p - 1) <= releases.(p) && in_order (p + 1)) in
  if not (in_order (from + 1)) then
    Array.stable_sort (fun p q -> Int.compare releases.(p) releases.(q)) arriving;
  let next = ref 0 in
  let queue = { heap = Array.make (n - from) 0; size = 0; gen = Array.make n 0; reqs } in
  let admissions = ref 0 in
  let rem = Array.make n 0 in
  for p = from to n - 1 do
    rem.(p) <- sizes.(p) * reqs.(p)
  done;
  let slots = Int.min (m - 1) (n - from) in
  let active = Array.make slots 0 and amounts = Array.make slots 0 in
  let k = ref 0 and sum = ref 0 and t = ref clock in
  (* Admit queued jobs in order while the active set keeps property (b):
     everything except the largest member must fit below the full
     resource. *)
  let rec admit () =
    if queue.size > 0 && !k < m - 1 then begin
      let c = queue.heap.(0) in
      let largest = if !k > 0 then reqs.(active.(!k - 1)) else 0 in
      if !sum + reqs.(c) - Int.max largest reqs.(c) < scale then begin
        dequeue queue;
        incr admissions;
        let i = ref !k in
        while !i > 0 && by_req reqs active.(!i - 1) c > 0 do
          active.(!i) <- active.(!i - 1);
          decr i
        done;
        active.(!i) <- c;
        incr k;
        sum := !sum + reqs.(c);
        admit ()
      end
    end
  in
  while !next < Array.length arriving || queue.size > 0 || !k > 0 do
    Robust.Context.poll ();
    decr fuel;
    if !fuel < 0 then Robust.Failure.internal_error "Online.run: no progress";
    while !next < Array.length arriving && releases.(arriving.(!next)) <= !t do
      let p = arriving.(!next) in
      queue.gen.(p) <- !admissions;
      enqueue queue p;
      incr next
    done;
    admit ();
    let next_release =
      if !next < Array.length arriving then releases.(arriving.(!next)) else max_int
    in
    if !k = 0 then begin
      (* Idle until the next release: with m >= 2 and scale >= 1 an empty
         active set admits any released job, so the queue is empty and
         every job still to run lies ahead. With no release ahead,
         nothing can ever be admitted. *)
      if next_release = max_int then Robust.Failure.internal_error "Online.run: no progress";
      block active amounts 0 (next_release - !t);
      t := next_release
    end
    else begin
      (* Everyone but the largest gets its requirement, the largest the
         leftover. The step repeats while every job can pay its amount in
         full again. Every amount is positive: admission keeps the
         others' requirements below [scale]. A free slot also stops the
         block at the next release. *)
      let last = !k - 1 in
      let spent = ref 0 in
      for i = 0 to last - 1 do
        let p = active.(i) in
        let a = Int.min reqs.(p) rem.(p) in
        amounts.(i) <- a;
        spent := !spent + a
      done;
      let big = active.(last) in
      amounts.(last) <- Int.min (Int.min (scale - !spent) reqs.(big)) rem.(big);
      let repeat = ref (if !k < m - 1 then next_release - !t else max_int) in
      for i = 0 to last do
        repeat := Int.min !repeat (rem.(active.(i)) / amounts.(i))
      done;
      let repeat = !repeat in
      block active amounts !k repeat;
      let kept = ref 0 in
      for i = 0 to last do
        let p = active.(i) in
        if starts.(p) < 0 then starts.(p) <- !t;
        rem.(p) <- rem.(p) - (repeat * amounts.(i));
        if rem.(p) > 0 then begin
          active.(!kept) <- p;
          incr kept
        end
        else sum := !sum - reqs.(p)
      done;
      k := !kept;
      t := !t + repeat
    end
  done;
  !t

module Session = struct
  type reject =
    | Bad_arrival of Robust.Failure.invalid
    | Jobs_budget of { cap : int }
    | Volume_budget of { cap : int; volume : int }

  let reject_message = function
    | Bad_arrival inv -> Robust.Failure.message (Robust.Failure.Invalid_instance inv)
    | Jobs_budget { cap } -> Printf.sprintf "job budget exhausted (cap %d)" cap
    | Volume_budget { cap; volume } ->
        Printf.sprintf "volume budget exhausted (cap %d, held %d)" cap volume

  type stats = { full_solves : int; extended_solves : int; cached_hits : int }

  type t = {
    m : int;
    scale : int;
    max_jobs : int option;
    max_volume : int option;
    (* The admitted jobs as columns: position p < count is at index p.
       [reserve] doubles all three when full, and no entry below [count]
       is ever written again. *)
    mutable releases : int array;
    mutable sizes : int array;
    mutable reqs : int array;
    mutable count : int;
    mutable volume : int;
    mutable last_release : int;
    mutable units : int;  (** Σ p_j·r_j *)
    mutable longest : int;  (** max_j p_j *)
    mutable horizon : int;  (** max_j (r_j + p_j) *)
    (* The result of the last completed simulation, over the first
       [jobs] positions: the frontier a solve extends, since at its
       makespan every job has finished. Solving never mutates it — a solve
       simulates on fresh arrays and swaps the new result in only on
       completion — so a deadline that unwinds mid-solve leaves it, and
       [peek]'s answer, intact. *)
    mutable last_good : result option;
    mutable full_solves : int;
    mutable extended_solves : int;
    mutable cached_hits : int;
  }

  let create ?max_jobs ?max_volume ~m ~scale () =
    {
      m;
      scale;
      max_jobs;
      max_volume;
      releases = [||];
      sizes = [||];
      reqs = [||];
      count = 0;
      volume = 0;
      last_release = 0;
      units = 0;
      longest = 0;
      horizon = 0;
      last_good = None;
      full_solves = 0;
      extended_solves = 0;
      cached_hits = 0;
    }

  let m t = t.m
  let scale t = t.scale
  let jobs t = t.count
  let volume t = t.volume
  let peek t = t.last_good

  let dirty t =
    match t.last_good with Some r -> t.count > r.jobs | None -> true

  let arrivals t =
    List.init t.count (fun p ->
        { release = t.releases.(p); size = t.sizes.(p); req = t.reqs.(p) })

  let lower_bound t =
    clairvoyant_bound ~m:t.m ~scale:t.scale ~requirement:(Some t.units)
      ~volume:(Some t.volume) ~longest:t.longest ~horizon:t.horizon

  let stats t =
    {
      full_solves = t.full_solves;
      extended_solves = t.extended_solves;
      cached_hits = t.cached_hits;
    }

  let reserve t =
    if t.count = Array.length t.releases then begin
      let cap = max 8 (2 * t.count) in
      t.releases <- grown t.releases cap 0;
      t.sizes <- grown t.sizes cap 0;
      t.reqs <- grown t.reqs cap 0
    end

  (* The session's makespan is at most its last release plus Σ p_j·r_j:
     every busy step consumes at least one resource unit (admission
     leaves the largest active job a positive leftover), and the policy
     idles only before a release. Refusing an arrival that would push
     this bound past max_int keeps every simulated time representable,
     and every release below [simulate]'s "no release ahead" sentinel,
     max_int. A per-job check cannot do this: each of two jobs can fit
     while their sum does not. [run] goes through [add] too. The bound
     also keeps [lower_bound]'s sums from overflowing: Σ p_j and every
     r_j + p_j are at most last release + Σ p_j·r_j. *)
  let add t a =
    let last_release = max t.last_release a.release in
    match validate_arrival t.count a with
    | Error inv -> Error (Bad_arrival inv)
    | Ok () when a.size > max_int / a.req || a.size * a.req > max_int - last_release - t.units ->
        Error
          (Bad_arrival
             (Robust.Failure.Overflow
                (Printf.sprintf "job %d: makespan bound (last release + Σ p_j·r_j) exceeds max_int"
                   t.count)))
    | Ok () -> begin
        match t.max_jobs with
        | Some cap when t.count >= cap -> Error (Jobs_budget { cap })
        | _ ->
            let cap_v =
              match t.max_volume with Some cap -> cap | None -> max_int
            in
            if a.size > cap_v - t.volume then
              Error (Volume_budget { cap = cap_v; volume = t.volume })
            else begin
              let pos = t.count in
              reserve t;
              t.releases.(pos) <- a.release;
              t.sizes.(pos) <- a.size;
              t.reqs.(pos) <- a.req;
              t.count <- t.count + 1;
              t.volume <- t.volume + a.size;
              t.last_release <- last_release;
              t.units <- t.units + (a.size * a.req);
              t.longest <- max t.longest a.size;
              t.horizon <- max t.horizon (a.release + a.size);
              Ok pos
            end
      end

  let unsolved = { jobs = 0; makespan = 0; starts = [||] }

  (* New positions can extend the committed simulation iff none of them
     is released before the committed frontier. The committed frontier is
     the completion time of the old job set, so at every earlier step the
     new jobs are unreleased and change nothing; from the frontier on the
     old simulation had drained, and resuming its loop with only the new
     positions to schedule replays exactly what a from-scratch run would
     do (idle until the first new release, then admit). Otherwise a new
     job could have joined a past admission decision and we must re-solve
     from 0. *)
  let extends t r =
    let rec from p = p >= t.count || (t.releases.(p) >= r.makespan && from (p + 1)) in
    r.jobs > 0 && from r.jobs

  (* Simulate the positions past [base.jobs] from [base]'s frontier, on
     a fresh copy of its starts. *)
  let resume t base ~block =
    let n = t.count in
    let starts = grown base.starts n (-1) in
    let makespan =
      simulate ~m:t.m ~scale:t.scale ~n ~releases:t.releases ~sizes:t.sizes ~reqs:t.reqs
        ~from:base.jobs ~clock:base.makespan ~starts ~block
    in
    { jobs = n; makespan; starts }

  let solve t =
    match t.last_good with
    | Some r when r.jobs = t.count ->
        t.cached_hits <- t.cached_hits + 1;
        r
    | last_good ->
        Instance.check_shape ~m:t.m ~scale:t.scale;
        let base = match last_good with Some r when extends t r -> r | _ -> unsolved in
        let r = resume t base ~block:(fun _ _ _ _ -> ()) in
        (* Commit only now: everything above may unwind on a deadline. *)
        if base.jobs > 0 then t.extended_solves <- t.extended_solves + 1
        else t.full_solves <- t.full_solves + 1;
        t.last_good <- Some r;
        r
end

(* A session holding [arrivals], which refuses what [Session.add] does. *)
let session_of ~m ~scale arrivals =
  let session = Session.create ~m ~scale () in
  List.iter
    (fun a ->
      match Session.add session a with
      | Ok _ -> ()
      | Error (Session.Bad_arrival inv) -> raise (Robust.Failure.Invalid inv)
      | Error r ->
          (* Unreachable: the session has no budgets; kept total for R6. *)
          raise
            (Robust.Failure.Invalid
               (Robust.Failure.Malformed (Session.reject_message r))))
    arrivals;
  session

let run ~m ~scale arrivals = Session.solve (session_of ~m ~scale arrivals)

(* The offline schedule comes from a second run of the same simulation,
   from scratch over [arrivals], whose blocks are recorded keyed by
   instance id. Its makespan and starts must be [r]'s, so every call also
   checks [r] (an extended result, say) against a from-scratch run. The
   schedule needs no trim: [simulate] reports an idle block only ahead of
   a release, whose job then runs, so the last block has work. *)
let materialize ~m ~scale arrivals r =
  let session = session_of ~m ~scale arrivals in
  let inst =
    Instance.create ~m ~scale (List.map (fun (a : arrival) -> (a.size, a.req)) arrivals)
  in
  let n = Instance.n inst in
  let id_of_pos = Array.make n 0 in
  Array.iteri (fun id pos -> id_of_pos.(pos) <- id) inst.Instance.original;
  let schedule = Schedule.Columns.create inst in
  let jobs = Array.make n 0 in
  let block active amounts k repeat =
    for i = 0 to k - 1 do
      jobs.(i) <- id_of_pos.(active.(i))
    done;
    Schedule.Columns.append schedule ~job:jobs ~assigned:amounts ~consumed:amounts ~len:k
      ~repeat
  in
  let fresh = Session.resume session Session.unsolved ~block in
  if r.jobs <> n || r.makespan <> fresh.makespan || r.starts <> fresh.starts then
    raise
      (Robust.Failure.Invalid
         (Robust.Failure.Malformed
            (Printf.sprintf
               "Online.materialize: a result over %d jobs (makespan %d) is not the run of \
                %d arrivals (makespan %d)"
               r.jobs r.makespan n fresh.makespan)));
  let start_times = Array.map (fun pos -> fresh.starts.(pos)) inst.Instance.original in
  { instance = inst; schedule; start_times }

let respects_releases r arrivals =
  List.length arrivals = r.jobs
  && List.for_all2 (fun a start -> start >= a.release) arrivals (Array.to_list r.starts)
