type arrival = { release : int; size : int; req : int }

type result = {
  instance : Instance.t;
  schedule : Schedule.t;
  start_times : int array;
  makespan : int;
}

let validate_arrival i a =
  let open Robust.Failure in
  if a.release < 0 then
    Error (Malformed (Printf.sprintf "job %d: negative release (got %d)" i a.release))
  else if a.size <= 0 then Error (Nonpositive_size { job = i; size = a.size })
  else if a.req <= 0 then Error (Nonpositive_req { job = i; req = a.req })
  else Ok ()

let to_instance ~m ~scale arrivals =
  List.iteri
    (fun i a ->
      match validate_arrival i a with
      | Ok () -> ()
      | Error inv -> raise (Robust.Failure.Invalid inv))
    arrivals;
  Instance.create ~m ~scale (List.map (fun a -> (a.size, a.req)) arrivals)

let release_table inst arrivals =
  let by_pos = Array.of_list (List.map (fun a -> a.release) arrivals) in
  Array.map (fun pos -> by_pos.(pos)) inst.Instance.original

(* One pass over the arrivals, failing exactly as [Bounds.lower_bound]
   on [to_instance]'s result would: at the first malformed arrival, then
   on m and scale (checked by [Instance.create] itself), then on an
   overflowing sum. Eq. (1)'s sums do not depend on job order, so the
   instance and its sort are not needed. *)
let lower_bound ~m ~scale arrivals =
  let add_checked acc v =
    match acc with Some a when v >= 0 && a <= max_int - v -> Some (a + v) | _ -> None
  in
  let requirement = ref (Some 0) and volume = ref (Some 0) in
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
  ignore (Instance.create ~m ~scale [] : Instance.t);
  match
    Bounds.eq1_checked ~m ~scale ~requirement:!requirement ~volume:!volume
      ~longest:!longest
  with
  | Ok eq1 -> max eq1 !horizon
  | Error reason -> raise (Robust.Failure.Invalid reason)

(* ------------------------------------------------------ incremental core

   The simulation state below is keyed on arrival POSITIONS (the order
   jobs were submitted), not on instance ids. [Instance.create] sorts by
   [Job.compare_req], which tie-breaks on the original position, so
   instance-id order and (req, position) lexicographic order coincide:
   every comparison the id-based simulation used to make — the admission
   order among jobs released together, the "everyone but the largest"
   split — is reproduced exactly by comparing (req, position). That is
   what lets a session keep simulating as jobs arrive, without
   renumbering history each time the sorted instance would shuffle ids,
   and still materialize a result that is byte-identical to a
   from-scratch [run] on the final job set. *)

type sim = {
  mutable t : int;  (** steps simulated so far; the frontier *)
  mutable steps_rev : Schedule.step list;
      (** this solve's blocks, latest first; allocs carry positions *)
  mutable active : int list;  (** positions *)
  rem : int array;  (** remaining requirement units per position *)
  start : int array;  (** first allocated step per position, -1 *)
}

let sim_empty () = { t = 0; steps_rev = []; active = []; rem = [||]; start = [||] }

let grown a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* A scratch copy whose arrays are grown to [n] positions and which holds
   no blocks yet: the history before its frontier lives in the result it
   extends. The copy can be simulated — and abandoned on a mid-solve
   deadline — without disturbing the committed original. *)
let sim_scratch sim n =
  {
    t = sim.t;
    steps_rev = [];
    active = sim.active;
    rem = grown sim.rem n 0;
    start = grown sim.start n (-1);
  }

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

(* Run the simulation of positions [from .. n-1] to completion, one block
   per stretch of identical steps, from [sim]'s frontier, where every
   position below [from] has already finished.

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
   release is the next release time. Each position is pushed and popped
   once, at O(log n) each.

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
   positions therefore holds at most 3n blocks, whatever its makespan,
   and so does any one call below, since every call runs one stretch of
   that history. One cooperative cancellation poll per block keeps
   mid-solve deadlines responsive; the chaos site lets the fault suite
   kill whole solves. *)
let simulate ~m ~scale ~releases ~reqs ~from sim =
  Robust.Chaos.point "sos.online.run";
  let n = Array.length releases in
  let fuel = ref (3 * n) in
  let arriving = Array.init (n - from) (fun i -> from + i) in
  Array.stable_sort (fun p q -> Int.compare releases.(p) releases.(q)) arriving;
  let next = ref 0 in
  let queue = { heap = Array.make (n - from) 0; size = 0; gen = Array.make n 0; reqs } in
  let admissions = ref 0 in
  let push allocs repeat =
    sim.steps_rev <- { Schedule.allocs; repeat } :: sim.steps_rev;
    sim.t <- sim.t + repeat
  in
  while !next < Array.length arriving || queue.size > 0 || sim.active <> [] do
    Robust.Context.poll ();
    decr fuel;
    if !fuel < 0 then Robust.Failure.internal_error "Online.run: no progress";
    while !next < Array.length arriving && releases.(arriving.(!next)) <= sim.t do
      let p = arriving.(!next) in
      queue.gen.(p) <- !admissions;
      enqueue queue p;
      incr next
    done;
    (* Admit queued jobs in order while the active set keeps property
       (b): everything except the largest member must fit below the full
       resource. *)
    let rec admit () =
      if queue.size > 0 && List.length sim.active < m - 1 then begin
        let members = queue.heap.(0) :: sim.active in
        let sum = List.fold_left (fun acc p -> acc + reqs.(p)) 0 members in
        let mx = List.fold_left (fun acc p -> max acc reqs.(p)) 0 members in
        if sum - mx < scale then begin
          dequeue queue;
          incr admissions;
          sim.active <- members;
          admit ()
        end
      end
    in
    admit ();
    let next_release =
      if !next < Array.length arriving then releases.(arriving.(!next)) else max_int
    in
    (if sim.active = [] then begin
       (* Idle until the next release: with m >= 2 and scale >= 1 an empty
          active set admits any released job, so the queue is empty and
          every job still to run lies ahead. With no release ahead,
          nothing can ever be admitted. *)
       if next_release = max_int then
         Robust.Failure.internal_error "Online.run: no progress";
       push [] (next_release - sim.t)
     end
     else begin
       let ordered = List.sort (by_req reqs) sim.active in
       let rec split_last acc = function
         | [ last ] -> (List.rev acc, last)
         | x :: rest -> split_last (x :: acc) rest
         | [] -> assert false
       in
       let others, biggest = split_last [] ordered in
       let spent = ref 0 in
       let allocs_others =
         List.map
           (fun p ->
             let assigned = min reqs.(p) sim.rem.(p) in
             spent := !spent + assigned;
             { Schedule.job = p; assigned; consumed = assigned })
           others
       in
       let leftover = scale - !spent in
       let big_assigned = min (min leftover reqs.(biggest)) sim.rem.(biggest) in
       let allocs =
         allocs_others
         @ [ { Schedule.job = biggest; assigned = big_assigned; consumed = big_assigned } ]
       in
       (* The step repeats while every job can pay its allocation in full
          again. Every allocation is positive: admission keeps the others'
          requirements below [scale], so the largest job's leftover is at
          least 1. A free slot also stops the block at the next release. *)
       let repeat =
         List.fold_left
           (fun k (a : Schedule.alloc) -> min k (sim.rem.(a.job) / a.consumed))
           max_int allocs
       in
       let repeat =
         if List.length sim.active < m - 1 then min repeat (next_release - sim.t)
         else repeat
       in
       List.iter
         (fun (a : Schedule.alloc) ->
           if sim.start.(a.job) < 0 then sim.start.(a.job) <- sim.t;
           sim.rem.(a.job) <- sim.rem.(a.job) - (repeat * a.consumed))
         allocs;
       push allocs repeat;
       sim.active <- List.filter (fun p -> sim.rem.(p) > 0) sim.active
     end)
  done

let rekey table (step : Schedule.step) =
  {
    step with
    Schedule.allocs =
      List.map
        (fun (a : Schedule.alloc) -> { a with Schedule.job = table.(a.job) })
        step.Schedule.allocs;
  }

(* Map a completed position-keyed simulation onto the offline instance:
   positions become instance ids, trailing idle steps are trimmed (none
   expected; keeps the invariant that makespan = last step with work).
   [prior], when given, is the result the simulation extends: its steps
   are the history before this solve's blocks, and are re-keyed from its
   instance's ids to the new instance's in the same pass. *)
let materialize ~m ~scale ?prior arrivals sim =
  let inst = to_instance ~m ~scale arrivals in
  let n = Instance.n inst in
  let id_of_pos = Array.make n 0 in
  Array.iteri (fun id pos -> id_of_pos.(pos) <- id) inst.Instance.original;
  let rec trim = function
    | { Schedule.allocs = []; _ } :: rest -> trim rest
    | steps -> steps
  in
  let steps = List.rev_map (rekey id_of_pos) (trim sim.steps_rev) in
  let steps =
    match prior with
    | None -> steps
    | Some r ->
        let new_id = Array.map (fun pos -> id_of_pos.(pos)) r.instance.Instance.original in
        let[@tail_mod_cons] rec onto = function
          | [] -> steps
          | step :: rest -> rekey new_id step :: onto rest
        in
        onto r.schedule.Schedule.steps
  in
  let start_times =
    Array.init n (fun id -> sim.start.(inst.Instance.original.(id)))
  in
  let schedule = Schedule.make inst steps in
  { instance = inst; schedule; start_times; makespan = schedule.Schedule.makespan }

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
    mutable arrivals_rev : arrival list;
    mutable count : int;
    mutable volume : int;
    mutable last_release : int;
    mutable units : int;  (** Σ p_j·r_j *)
    (* committed: the state at the frontier of a completed simulation
       over the first [committed_n] positions, and [last_good], its
       materialized result. The committed state keeps no blocks: the
       result's schedule is the session's one copy of the history, and an
       extension re-keys it onto the new instance. Solving never mutates
       either in place — a scratch copy is simulated and swapped in only
       on completion, so a deadline that unwinds mid-solve leaves the
       last good state (and [peek]'s answer) intact. *)
    mutable committed : sim;
    mutable committed_n : int;
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
      arrivals_rev = [];
      count = 0;
      volume = 0;
      last_release = 0;
      units = 0;
      committed = sim_empty ();
      committed_n = 0;
      last_good = None;
      full_solves = 0;
      extended_solves = 0;
      cached_hits = 0;
    }

  let m t = t.m
  let scale t = t.scale
  let jobs t = t.count
  let volume t = t.volume
  let dirty t = t.count > t.committed_n || t.last_good = None
  let arrivals t = List.rev t.arrivals_rev
  let peek t = t.last_good

  let stats t =
    {
      full_solves = t.full_solves;
      extended_solves = t.extended_solves;
      cached_hits = t.cached_hits;
    }

  (* The session's makespan is at most its last release plus Σ p_j·r_j:
     every busy step consumes at least one resource unit (admission
     leaves the largest active job a positive leftover), and the policy
     idles only before a release. Refusing an arrival that would push
     this bound past max_int keeps every simulated time representable,
     and every release below [simulate]'s "no release ahead" sentinel,
     max_int. A per-job check cannot do this: each of two jobs can fit
     while their sum does not. [run] goes through [add] too. *)
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
              t.arrivals_rev <- a :: t.arrivals_rev;
              t.count <- t.count + 1;
              t.volume <- t.volume + a.size;
              t.last_release <- last_release;
              t.units <- t.units + (a.size * a.req);
              Ok pos
            end
      end

  (* New positions can extend the committed simulation iff none of them
     is released before the committed frontier. The committed frontier is
     the completion time of the old job set, so at every earlier step the
     new jobs are unreleased and change nothing; from the frontier on the
     old simulation had drained, and resuming its loop with only the new
     positions to schedule replays exactly what a from-scratch run would
     do (idle until the first new release, then admit). Otherwise a new
     job could have joined a past admission decision and we must re-solve
     from 0. *)
  let solve t =
    match t.last_good with
    | Some r when t.committed_n = t.count ->
        t.cached_hits <- t.cached_hits + 1;
        r
    | last_good ->
        let arrivals = List.rev t.arrivals_rev in
        let n = t.count in
        let releases = Array.make n 0 in
        let reqs = Array.make n 0 in
        let sizes = Array.make n 0 in
        List.iteri
          (fun p a ->
            releases.(p) <- a.release;
            reqs.(p) <- a.req;
            sizes.(p) <- a.size)
          arrivals;
        let prior =
          if
            t.committed_n > 0
            && Array.for_all
                 (fun r -> r >= t.committed.t)
                 (Array.sub releases t.committed_n (n - t.committed_n))
          then last_good
          else None
        in
        let from, sim =
          match prior with
          | Some _ -> (t.committed_n, sim_scratch t.committed n)
          | None -> (0, sim_scratch (sim_empty ()) n)
        in
        for p = from to n - 1 do
          sim.rem.(p) <- sizes.(p) * reqs.(p)
        done;
        simulate ~m:t.m ~scale:t.scale ~releases ~reqs ~from sim;
        let r = materialize ~m:t.m ~scale:t.scale ?prior arrivals sim in
        (* Commit only now: everything above may unwind on a deadline. *)
        if from > 0 then t.extended_solves <- t.extended_solves + 1
        else t.full_solves <- t.full_solves + 1;
        sim.steps_rev <- [];
        t.committed <- sim;
        t.committed_n <- n;
        t.last_good <- Some r;
        r
end

let run ~m ~scale arrivals =
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
  Session.solve session

let respects_releases result arrivals =
  let releases = release_table result.instance arrivals in
  let ok = ref true in
  Array.iteri
    (fun j start -> if start >= 0 && start < releases.(j) then ok := false)
    result.start_times;
  Array.iteri (fun j start -> if start < 0 && Job.s (Instance.job result.instance j) > 0 then ok := false)
    result.start_times;
  !ok
