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
   the first [size] cells of [heap], ordered by generation (see
   [simulate]), then by (req, position). [gens.(i)] is the generation of
   the position in [heap.(i)], so the queue needs no column sized by n. *)
type queue = { heap : int array; gens : int array; mutable size : int; reqs : int array }

let before q g p g' p' = g < g' || (g = g' && by_req q.reqs p p' < 0)

let enqueue q g p =
  let i = ref q.size in
  q.size <- q.size + 1;
  while !i > 0 && before q g p q.gens.((!i - 1) / 2) q.heap.((!i - 1) / 2) do
    q.heap.(!i) <- q.heap.((!i - 1) / 2);
    q.gens.(!i) <- q.gens.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  q.heap.(!i) <- p;
  q.gens.(!i) <- g

(* Remove the head, [q.heap.(0)]. *)
let dequeue q =
  q.size <- q.size - 1;
  let last = q.heap.(q.size) and g = q.gens.(q.size) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let c =
      if l + 1 < q.size && before q q.gens.(l + 1) q.heap.(l + 1) q.gens.(l) q.heap.(l) then l + 1
      else l
    in
    if c < q.size && before q q.gens.(c) q.heap.(c) g last then begin
      q.heap.(!i) <- q.heap.(c);
      q.gens.(!i) <- q.gens.(c);
      i := c
    end
    else sifting := false
  done;
  q.heap.(!i) <- last;
  q.gens.(!i) <- g

(* The loop state of a completed run at one admission attempt, from
   which [simulate] resumes the run with more jobs (the rule is in its
   comment). It holds O(m + queued) words and no column sized by n. *)
type checkpoint = {
  last : int;  (** R: the latest release among the run's jobs *)
  clock : int;  (** the time of the attempt *)
  admitted : int;  (** admissions made before it *)
  running : int array;  (** the active positions, in (req, position) order *)
  left : int array;  (** [left.(i)]: work [running.(i)] still has to do *)
  load : int;  (** Σ req over [running] *)
  waiting : int array;  (** the queue's positions, in heap order *)
  generations : int array;  (** [generations.(i)]: the generation of [waiting.(i)] *)
}

(* How many of [r]'s jobs started before time [time]. *)
let started_before r time =
  let c = ref 0 in
  for p = 0 to r.jobs - 1 do
    if r.starts.(p) < time then incr c
  done;
  !c

(* Run the first [n] positions of the columns to completion and return
   the result, the run's checkpoint ([None] when [n = 0]) and the number
   of blocks simulated. [last] is the latest release among the [n]
   positions. [base], when given, is a completed run over the first
   [r.jobs] positions and its checkpoint; every later position must be
   released at or after the checkpoint's [last], and the run resumes
   from the checkpoint instead of from time 0. [block active amounts k
   repeat] sees each block: the first [k] running positions and what
   each gets per step, for [repeat] steps ([k = 0] is an idle gap).

   Admission order. The per-step policy keeps the waiting jobs in a list,
   sorted by (req, position) at the start. Each admission takes the first
   released job in that list and moves every other released job ahead of
   every unreleased one, each group keeping its order. So a job passed
   over at one admission stays ahead of every job released after it,
   whatever their requirements. The queue reproduces that order with a
   key: a job's generation is the number of admissions made before it
   was released. Two waiting jobs of the same generation were released
   between the same two admissions, and no admission changed their
   order, so they keep (req, position). A smaller generation means an
   admission found one job released and the other not, and moved the
   released one ahead. Positions wait in [arriving], sorted by release,
   until the clock reaches them; [next] is the first one not yet
   released, and its release is the next release time. A client that
   submits in time order sends them sorted already, so an O(n) scan
   comes first and the sort runs only when it finds one out of order.
   Each position is pushed and popped once, at O(log n) each.

   Active set. [active] holds the running positions in (req, position)
   order, so the largest is the last slot, [rems] the work each has
   left, and [sum] their Σ req. An admission shifts its job into place
   and a block compacts finished jobs out, in O(m) and without
   allocating. [active] has min(m − 1, jobs to run) cells, whatever m
   is.

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

   Checkpoint. Let R be the run's latest release and g* the number of
   jobs started before R (the admissions made before the first
   iteration at t >= R). The checkpoint is the state at the first
   admission attempt — an entry to [admit], recursive ones included —
   in an iteration at t >= R where the queue is empty or its head's
   generation is at least g*. It holds for any later job released at or
   after R: such a job's generation is at least g*, while before the
   checkpoint every head's is below g*, so the new job never reaches the
   head, and its release can only split a block without changing an
   allocation. A resume therefore copies the committed starts, clears
   those of the checkpoint's queued jobs and of its active members
   started at its time, queues every new job released by the
   checkpoint's time with generation = the number of committed jobs
   started before its release, leaves the later ones in [arriving], and
   continues the loop from the checkpoint. The run captures its own
   checkpoint on the way, for the next resume: none comes earlier, since
   before the old one every head's generation is below the old g*.

   Event bound: every block ends at a job's release (one block at most
   per distinct release time), at a job's finish, or one step before a
   finish — an interval cut short by a job's partial last step, which the
   next, one-step block then finishes. A completed simulation over n
   positions therefore has at most 3n blocks, whatever its makespan, and
   so does any one call below, since every call runs one stretch of that
   simulation. One cooperative cancellation poll per block keeps
   mid-solve deadlines responsive; the chaos site lets the fault suite
   kill whole solves. *)
let simulate ~m ~scale ~n ~releases ~sizes ~reqs ~last ~base ~block =
  Robust.Chaos.point "sos.online.run";
  let fuel = ref (3 * n) in
  let from, queued, running =
    match base with
    | Some (r, c) -> (r.jobs, Array.length c.waiting, Array.length c.running)
    | None -> (0, 0, 0)
  in
  let arriving = Array.init (n - from) (fun i -> from + i) in
  let rec in_order p = p >= n || (releases.(p - 1) <= releases.(p) && in_order (p + 1)) in
  if not (in_order (from + 1)) then
    Array.stable_sort (fun p q -> Int.compare releases.(p) releases.(q)) arriving;
  let next = ref 0 in
  let capacity = queued + n - from in
  let queue = { heap = Array.make capacity 0; gens = Array.make capacity 0; size = 0; reqs } in
  let slots = Int.min (m - 1) (capacity + running) in
  let active = Array.make slots 0 and rems = Array.make slots 0 in
  let amounts = Array.make slots 0 in
  let k = ref 0 and sum = ref 0 and t = ref 0 and admissions = ref 0 and gstar = ref (-1) in
  let starts =
    match base with
    | None -> Array.make n (-1)
    | Some (r, c) ->
        let starts = grown r.starts n (-1) in
        t := c.clock;
        admissions := c.admitted;
        k := running;
        sum := c.load;
        Array.blit c.running 0 active 0 !k;
        Array.blit c.left 0 rems 0 !k;
        Array.iter (fun p -> if starts.(p) = c.clock then starts.(p) <- -1) c.running;
        Array.blit c.waiting 0 queue.heap 0 queued;
        Array.blit c.generations 0 queue.gens 0 queued;
        queue.size <- queued;
        Array.iter (fun p -> starts.(p) <- -1) c.waiting;
        (* New jobs released by the checkpoint's time queue now; equal
           releases are adjacent in [arriving] and share one count. *)
        let counted = ref (-1) and gen = ref 0 in
        while !next < Array.length arriving && releases.(arriving.(!next)) <= c.clock do
          let p = arriving.(!next) in
          if releases.(p) <> !counted then begin
            counted := releases.(p);
            gen := started_before r !counted
          end;
          enqueue queue !gen p;
          incr next
        done;
        (* With every new job queued, the latest release is the last
           one's, and so is g*. *)
        if !next = Array.length arriving then gstar := !gen;
        starts
  in
  let checkpoint = ref None in
  let capture () =
    checkpoint :=
      Some
        {
          last;
          clock = !t;
          admitted = !admissions;
          running = Array.sub active 0 !k;
          left = Array.sub rems 0 !k;
          load = !sum;
          waiting = Array.sub queue.heap 0 queue.size;
          generations = Array.sub queue.gens 0 queue.size;
        }
  in
  (* Admit queued jobs in order while the active set keeps property (b):
     everything except the largest member must fit below the full
     resource. *)
  let rec admit () =
    if !gstar >= 0 && Option.is_none !checkpoint && (queue.size = 0 || queue.gens.(0) >= !gstar)
    then capture ();
    if queue.size > 0 && !k < m - 1 then begin
      let c = queue.heap.(0) in
      let largest = if !k > 0 then reqs.(active.(!k - 1)) else 0 in
      if !sum + reqs.(c) - Int.max largest reqs.(c) < scale then begin
        dequeue queue;
        incr admissions;
        let i = ref !k in
        while !i > 0 && by_req reqs active.(!i - 1) c > 0 do
          active.(!i) <- active.(!i - 1);
          rems.(!i) <- rems.(!i - 1);
          decr i
        done;
        active.(!i) <- c;
        rems.(!i) <- sizes.(c) * reqs.(c);
        incr k;
        sum := !sum + reqs.(c);
        admit ()
      end
    end
  in
  let blocks = ref 0 in
  while !next < Array.length arriving || queue.size > 0 || !k > 0 do
    Robust.Context.poll ();
    decr fuel;
    if !fuel < 0 then Robust.Failure.internal_error "Online.run: no progress";
    if !gstar < 0 && !t >= last then gstar := !admissions;
    while !next < Array.length arriving && releases.(arriving.(!next)) <= !t do
      enqueue queue !admissions arriving.(!next);
      incr next
    done;
    admit ();
    let next_release =
      if !next < Array.length arriving then releases.(arriving.(!next)) else max_int
    in
    incr blocks;
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
      let top = !k - 1 in
      let spent = ref 0 in
      for i = 0 to top - 1 do
        let a = Int.min reqs.(active.(i)) rems.(i) in
        amounts.(i) <- a;
        spent := !spent + a
      done;
      amounts.(top) <- Int.min (Int.min (scale - !spent) reqs.(active.(top))) rems.(top);
      let repeat = ref (if !k < m - 1 then next_release - !t else max_int) in
      for i = 0 to top do
        repeat := Int.min !repeat (rems.(i) / amounts.(i))
      done;
      let repeat = !repeat in
      block active amounts !k repeat;
      let kept = ref 0 in
      for i = 0 to top do
        let p = active.(i) in
        if starts.(p) < 0 then starts.(p) <- !t;
        let left = rems.(i) - (repeat * amounts.(i)) in
        if left > 0 then begin
          active.(!kept) <- p;
          rems.(!kept) <- left;
          incr kept
        end
        else sum := !sum - reqs.(p)
      done;
      k := !kept;
      t := !t + repeat
    end
  done;
  ({ jobs = n; makespan = !t; starts }, !checkpoint, !blocks)

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

  type stats = { full_solves : int; extended_solves : int; cached_hits : int; blocks : int }

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
       [jobs] positions, and that run's checkpoint, which the next solve
       resumes from. Solving never mutates either — a solve simulates on
       fresh arrays and swaps both in only on completion — so a deadline
       that unwinds mid-solve leaves them, and [peek]'s answer, intact. *)
    mutable last_good : result option;
    mutable checkpoint : checkpoint option;
    mutable full_solves : int;
    mutable extended_solves : int;
    mutable cached_hits : int;
    mutable blocks : int;
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
      checkpoint = None;
      full_solves = 0;
      extended_solves = 0;
      cached_hits = 0;
      blocks = 0;
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
      blocks = t.blocks;
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

  (* The run over every admitted job, resumed from [base] when given. *)
  let run t ~base ~block =
    simulate ~m:t.m ~scale:t.scale ~n:t.count ~releases:t.releases ~sizes:t.sizes ~reqs:t.reqs
      ~last:t.last_release ~base ~block

  (* The committed run resumes from its checkpoint iff no new position
     is released before that run's latest release (see [simulate]);
     otherwise a new job could have joined a past admission decision,
     and the run starts again from 0. *)
  let resumable t r c =
    let rec from p = p >= t.count || (t.releases.(p) >= c.last && from (p + 1)) in
    from r.jobs

  let solve t =
    match t.last_good with
    | Some r when r.jobs = t.count ->
        t.cached_hits <- t.cached_hits + 1;
        r
    | last_good ->
        Instance.check_shape ~m:t.m ~scale:t.scale;
        let base =
          match (last_good, t.checkpoint) with
          | Some r, Some c when resumable t r c -> Some (r, c)
          | _ -> None
        in
        let r, checkpoint, blocks = run t ~base ~block:(fun _ _ _ _ -> ()) in
        (* Commit only now: everything above may unwind on a deadline. *)
        if Option.is_some base then t.extended_solves <- t.extended_solves + 1
        else t.full_solves <- t.full_solves + 1;
        t.blocks <- t.blocks + blocks;
        t.last_good <- Some r;
        t.checkpoint <- checkpoint;
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
   checks [r] (a resumed result, say) against a from-scratch run. The
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
  let fresh, _, _ = Session.run session ~base:None ~block in
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
