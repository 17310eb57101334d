(* Tests for the online-arrivals extension and the SVG renderer. *)

open Sos
module Rng = Prelude.Rng

let random_arrivals rng =
  let n = Rng.int_in rng 1 25 in
  List.init n (fun _ ->
      {
        Online.release = Rng.int_in rng 0 30;
        size = Rng.int_in rng 1 6;
        req = Rng.int_in rng 1 120;
      })

let schedule_of ~m ~scale arrivals r = (Online.materialize ~m ~scale arrivals r).Online.schedule

let test_online_all_at_zero_matches_offline_spirit () =
  (* With all releases 0 the online scheduler is a plain greedy; it must be
     a valid non-preemptive schedule within the general guarantee window. *)
  for seed = 1 to 100 do
    let rng = Rng.create (seed * 101) in
    let arrivals =
      List.init (Rng.int_in rng 1 30) (fun _ ->
          { Online.release = 0; size = Rng.int_in rng 1 6; req = Rng.int_in rng 1 120 })
    in
    let m = Rng.int_in rng 2 8 in
    let r = Online.run ~m ~scale:100 arrivals in
    (match Schedule.Columns.validate (schedule_of ~m ~scale:100 arrivals r) with
    | Ok () -> ()
    | Error v ->
        Alcotest.failf "seed %d: invalid online schedule at %d: %s" seed
          v.Schedule.at_step v.Schedule.reason);
    let lb = Online.lower_bound ~m ~scale:100 arrivals in
    if r.Online.makespan < lb then
      Alcotest.failf "seed %d: online makespan %d < clairvoyant LB %d" seed
        r.Online.makespan lb
  done

let test_online_respects_releases () =
  for seed = 1 to 150 do
    let rng = Rng.create (seed * 103) in
    let arrivals = random_arrivals rng in
    let m = Rng.int_in rng 2 8 in
    let r = Online.run ~m ~scale:100 arrivals in
    if not (Online.respects_releases r arrivals) then
      Alcotest.failf "seed %d: a job started before its release" seed;
    match Schedule.Columns.validate (schedule_of ~m ~scale:100 arrivals r) with
    | Ok () -> ()
    | Error v ->
        Alcotest.failf "seed %d: invalid at %d: %s" seed v.Schedule.at_step
          v.Schedule.reason
  done

let test_online_idle_then_burst () =
  (* One job released at t = 10: the schedule must wait. *)
  let r =
    Online.run ~m:3 ~scale:10 [ { Online.release = 10; size = 2; req = 5 } ]
  in
  Alcotest.(check int) "starts at release" 10 r.Online.starts.(0);
  Alcotest.(check int) "makespan = 12" 12 r.Online.makespan

let test_online_ratio_reasonable () =
  (* Against the clairvoyant LB the greedy should stay within a small
     constant on Poisson-ish arrivals. *)
  let worst = ref 0.0 in
  for seed = 1 to 60 do
    let rng = Rng.create (seed * 107) in
    let arrivals = random_arrivals rng in
    let r = Online.run ~m:6 ~scale:100 arrivals in
    let lb = Online.lower_bound ~m:6 ~scale:100 arrivals in
    worst := max !worst (float_of_int r.Online.makespan /. float_of_int lb)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "worst online ratio %.3f <= 3.0" !worst)
    true (!worst <= 3.0)

let test_online_empty () =
  let r = Online.run ~m:4 ~scale:10 [] in
  Alcotest.(check int) "empty makespan" 0 r.Online.makespan

let test_online_degenerate_shape () =
  (* [run] and [Session.solve] refuse m < 2 and scale < 1 before they
     simulate, with or without jobs. *)
  let job = { Online.release = 0; size = 2; req = 5 } in
  List.iter
    (fun (m, scale, msg) ->
      List.iter
        (fun arrivals ->
          Alcotest.check_raises
            (Printf.sprintf "m=%d scale=%d, %d jobs" m scale (List.length arrivals))
            (Invalid_argument msg)
            (fun () -> ignore (Online.run ~m ~scale arrivals : Online.result)))
        [ []; [ job ]; [ job; job ] ])
    [ (1, 10, "Instance.create: need m >= 2"); (4, 0, "Instance.create: need scale >= 1") ]

(* --- incremental sessions --- *)

(* A session's answer against a from-scratch [Online.run] over the same
   [arrivals]: the part a serve reply reads (job count, makespan, start
   times by position), then the materialized view (instance, start times
   by id, blocks). *)
let check_same_result ~ctx ~m ~scale arrivals (incr : Online.result) =
  let scratch = Online.run ~m ~scale arrivals in
  Alcotest.(check int) (ctx ^ ": jobs") scratch.Online.jobs incr.Online.jobs;
  Alcotest.(check int) (ctx ^ ": makespan") scratch.Online.makespan incr.Online.makespan;
  Alcotest.(check (array int)) (ctx ^ ": starts") scratch.Online.starts incr.Online.starts;
  let a = Online.materialize ~m ~scale arrivals incr in
  let b = Online.materialize ~m ~scale arrivals scratch in
  Alcotest.(check string)
    (ctx ^ ": instance")
    (Instance.to_string b.Online.instance)
    (Instance.to_string a.Online.instance);
  Alcotest.(check int)
    (ctx ^ ": materialized makespan")
    incr.Online.makespan a.Online.schedule.makespan;
  Alcotest.(check (array int))
    (ctx ^ ": start times")
    b.Online.start_times a.Online.start_times;
  if Helpers.steps a.Online.schedule <> Helpers.steps b.Online.schedule then
    Alcotest.failf "%s: step lists differ" ctx

let test_session_matches_scratch () =
  (* The qcheck-style core property: drive a session arrival by arrival,
     solving at random prefixes, and every answer must be byte-identical
     to a from-scratch [Online.run] on the same prefix — whichever of the
     cached / extended / full paths the session picked. *)
  for seed = 1 to 120 do
    let rng = Rng.create (seed * 271) in
    let m = Rng.int_in rng 2 8 in
    let arrivals =
      (* Mix of history-rewriting early releases and frontier-extending
         late ones, so all three solve paths occur across the loop. *)
      List.init (Rng.int_in rng 1 20) (fun i ->
          let release =
            if Rng.int_in rng 0 3 = 0 then Rng.int_in rng 0 5
            else Rng.int_in rng 0 (8 * (i + 1))
          in
          { Online.release; size = Rng.int_in rng 1 5; req = Rng.int_in rng 1 120 })
    in
    let session = Online.Session.create ~m ~scale:100 () in
    List.iteri
      (fun i a ->
        (match Online.Session.add session a with
        | Ok pos -> Alcotest.(check int) "position" i pos
        | Error r ->
            Alcotest.failf "seed %d: unexpected reject: %s" seed
              (Online.Session.reject_message r));
        if Rng.int_in rng 0 2 = 0 then begin
          let prefix = Online.Session.arrivals session in
          check_same_result
            ~ctx:(Printf.sprintf "seed %d prefix %d" seed (i + 1))
            ~m ~scale:100 prefix (Online.Session.solve session)
        end)
      arrivals;
    check_same_result
      ~ctx:(Printf.sprintf "seed %d final" seed)
      ~m ~scale:100 arrivals (Online.Session.solve session)
  done

let test_session_solve_paths () =
  (* Strictly increasing releases beyond each frontier: after the first
     solve, later solves must resume from the committed checkpoint;
     repeated solves with no new jobs must answer from cache; a job
     released at 0 forces a full re-solve. *)
  let session = Online.Session.create ~m:4 ~scale:100 () in
  let add release =
    match
      Online.Session.add session { Online.release; size = 2; req = 50 }
    with
    | Ok _ -> ()
    | Error r -> Alcotest.failf "reject: %s" (Online.Session.reject_message r)
  in
  add 0;
  ignore (Online.Session.solve session);
  let frontier = (Online.Session.solve session).Online.makespan in
  add (frontier + 5);
  ignore (Online.Session.solve session);
  ignore (Online.Session.solve session);
  add 0;
  (* rewrites history: must fall back to a full re-solve *)
  ignore (Online.Session.solve session);
  let stats = Online.Session.stats session in
  Alcotest.(check int) "full solves" 2 stats.Online.Session.full_solves;
  Alcotest.(check int) "extended solves" 1 stats.Online.Session.extended_solves;
  Alcotest.(check int) "cached hits" 2 stats.Online.Session.cached_hits;
  check_same_result ~ctx:"paths final" ~m:4 ~scale:100 (Online.Session.arrivals session)
    (Online.Session.solve session)

let test_session_budgets () =
  let session =
    Online.Session.create ~max_jobs:2 ~max_volume:5 ~m:4 ~scale:100 ()
  in
  let arrival size = { Online.release = 0; size; req = 10 } in
  (match Online.Session.add session (arrival 3) with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "first add should land at position 0");
  (match Online.Session.add session (arrival 3) with
  | Error (Online.Session.Volume_budget { cap = 5; volume = 3 }) -> ()
  | Ok _ -> Alcotest.fail "volume budget not enforced"
  | Error r -> Alcotest.failf "wrong reject: %s" (Online.Session.reject_message r));
  (match Online.Session.add session (arrival 2) with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "fitting job rejected");
  (match Online.Session.add session (arrival 1) with
  | Error (Online.Session.Jobs_budget { cap = 2 }) -> ()
  | Ok _ -> Alcotest.fail "job budget not enforced"
  | Error r -> Alcotest.failf "wrong reject: %s" (Online.Session.reject_message r));
  (match Online.Session.add session { Online.release = -1; size = 1; req = 1 } with
  | Error (Online.Session.Bad_arrival _) -> ()
  | _ -> Alcotest.fail "negative release admitted");
  (* Rejections left the session untouched: still solvable, two jobs. *)
  Alcotest.(check int) "jobs" 2 (Online.Session.jobs session);
  Alcotest.(check int) "volume" 5 (Online.Session.volume session);
  check_same_result ~ctx:"budget final" ~m:4 ~scale:100 (Online.Session.arrivals session)
    (Online.Session.solve session)

(* The admission bound is cumulative: each job fits on its own, the
   second pushes last release + Σ p_j·r_j past max_int. [run] shares it. *)
let test_session_makespan_overflow () =
  let session = Online.Session.create ~m:4 ~scale:10 () in
  let late = { Online.release = max_int - 40; size = 3; req = 10 } in
  (match Online.Session.add session late with
  | Ok 0 -> ()
  | _ -> Alcotest.fail "a job inside the bound must be admitted");
  let refused = "job 1: makespan bound (last release + Σ p_j·r_j) exceeds max_int" in
  (match Online.Session.add session late with
  | Error (Online.Session.Bad_arrival (Robust.Failure.Overflow msg)) ->
      Alcotest.(check string) "overflow reason" refused msg
  | Ok _ -> Alcotest.fail "makespan bound past max_int admitted"
  | Error r -> Alcotest.failf "wrong reject: %s" (Online.Session.reject_message r));
  (match Online.Session.add session { Online.release = 0; size = 1; req = 1 } with
  | Ok 1 -> ()
  | _ -> Alcotest.fail "the session must still admit after a refusal");
  Alcotest.(check int) "makespan" (max_int - 37) (Online.Session.solve session).Online.makespan;
  Alcotest.check_raises "run refuses the same arrivals"
    (Robust.Failure.Invalid (Robust.Failure.Overflow refused))
    (fun () -> ignore (Online.run ~m:4 ~scale:10 [ late; late ]))

let test_session_peek_and_dirty () =
  let session = Online.Session.create ~m:4 ~scale:100 () in
  Alcotest.(check bool) "fresh session is dirty" true (Online.Session.dirty session);
  Alcotest.(check bool) "no peek yet" true (Online.Session.peek session = None);
  (match Online.Session.add session { Online.release = 0; size = 2; req = 50 } with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "reject: %s" (Online.Session.reject_message r));
  let r = Online.Session.solve session in
  Alcotest.(check bool) "clean after solve" false (Online.Session.dirty session);
  (match Online.Session.peek session with
  | Some p -> Alcotest.(check int) "peek = last solve" r.Online.makespan p.Online.makespan
  | None -> Alcotest.fail "peek empty after solve");
  (match Online.Session.add session { Online.release = 0; size = 2; req = 50 } with
  | Ok _ -> ()
  | Error r -> Alcotest.failf "reject: %s" (Online.Session.reject_message r));
  Alcotest.(check bool) "dirty after add" true (Online.Session.dirty session);
  (* peek still answers with the stale committed schedule *)
  (match Online.Session.peek session with
  | Some p -> Alcotest.(check int) "stale peek" r.Online.makespan p.Online.makespan
  | None -> Alcotest.fail "peek lost on add")

(* --- event-driven simulation --- *)

(* [Online.run] against the per-step oracle, compared on the materialized
   view: same makespan, same start times, same expanded steps; and a valid
   schedule that respects every release. *)
let check_matches_oracle ~ctx ~m ~scale arrivals =
  let r = Online.run ~m ~scale arrivals in
  let v = Online.materialize ~m ~scale arrivals r in
  let o = Online_oracle.run ~m ~scale arrivals in
  Alcotest.(check int)
    (ctx ^ ": makespan") o.Online.schedule.makespan r.Online.makespan;
  Alcotest.(check int)
    (ctx ^ ": materialized makespan") r.Online.makespan v.Online.schedule.makespan;
  Alcotest.(check (array int))
    (ctx ^ ": start times") o.Online.start_times v.Online.start_times;
  if
    Helpers.steps (Helpers.expand v.Online.schedule)
    <> Helpers.steps (Helpers.expand o.Online.schedule)
  then Alcotest.failf "%s: expanded steps differ" ctx;
  (match Schedule.Columns.validate v.Online.schedule with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "%s: invalid at %d: %s" ctx v.Schedule.at_step v.Schedule.reason);
  if not (Online.respects_releases r arrivals) then
    Alcotest.failf "%s: a job started before its release" ctx

let test_online_matches_dense_oracle () =
  (* Release horizons up to 5000 leave idle gaps of thousands of steps
     between bursts; the event-driven blocks must expand to exactly the
     per-step oracle's schedule. *)
  for seed = 1 to 1000 do
    let rng = Rng.create (seed * 331) in
    let m = Rng.int_in rng 2 10 in
    let scale = Rng.choose rng [| 10; 100; 1000 |] in
    let horizon = Rng.int_in rng 0 5000 in
    let arrivals =
      List.init (Rng.int_in rng 0 60) (fun _ ->
          let req_cap = if Rng.int_in rng 0 1 = 0 then scale else max 1 (scale / 10) in
          {
            Online.release = Rng.int_in rng 0 horizon;
            size = Rng.int_in rng 1 20;
            req = Rng.int_in rng 1 req_cap;
          })
    in
    check_matches_oracle ~ctx:(Printf.sprintf "seed %d" seed) ~m ~scale arrivals
  done

(* The shape of a serve-dense tenant: each release 0 or 1 step after the
   previous one, sizes 1-20, requirements 1-500 of a scale of 1000. Jobs
   arrive faster than m = 8 processors finish them, so hundreds wait at
   once and the admission order decides most start times. *)
let dense_arrivals rng ~first n =
  let release = ref first in
  List.init n (fun i ->
      if i > 0 then release := !release + Rng.int_in rng 0 1;
      { Online.release = !release; size = Rng.int_in rng 1 20; req = Rng.int_in rng 1 500 })

let test_online_dense_scale_oracle () =
  for seed = 1 to 50 do
    let rng = Rng.create (seed * 347) in
    let n = if seed <= 10 then 400 else Rng.int_in rng 1 400 in
    check_matches_oracle
      ~ctx:(Printf.sprintf "seed %d (n %d)" seed n)
      ~m:8 ~scale:1000
      (dense_arrivals rng ~first:0 n)
  done

let test_online_admission_order () =
  (* m = 3 runs at most two jobs at once. At t = 2, job 3 (req 5) is
     admitted and job 2 (req 6), released with it, is passed over. At
     t = 3, job 0 frees a slot and job 1 (req 2) is released, yet job 2
     starts first: the admission at t = 2 moved it ahead of every job not
     yet released. A queue by smallest released requirement would start
     job 1 at 3 and job 2 at 4. *)
  let arrivals =
    List.map
      (fun (release, size, req) -> { Online.release; size; req })
      [ (1, 3, 5); (3, 1, 2); (2, 1, 6); (2, 1, 5) ]
  in
  let by_position (o : Online.offline) =
    let starts = Array.make (Array.length o.Online.start_times) (-1) in
    Array.iteri
      (fun id pos -> starts.(pos) <- o.Online.start_times.(id))
      o.Online.instance.Instance.original;
    starts
  in
  Alcotest.(check (array int))
    "oracle starts by position" [| 1; 4; 3; 2 |]
    (by_position (Online_oracle.run ~m:3 ~scale:10 arrivals));
  Alcotest.(check (array int))
    "starts by position" [| 1; 4; 3; 2 |]
    (Online.run ~m:3 ~scale:10 arrivals).Online.starts

let test_online_history_bounded () =
  (* 400 jobs released 200 steps apart, each finished long before the
     next arrives: the shape of a sparse serve tenant. The schedule must
     stay within [simulate]'s event bound of three blocks per job, for a
     one-shot run and for a session that resumes on every solve. *)
  let m = 4 and scale = 100 in
  let rng = Rng.create 4242 in
  let arrivals =
    List.init 400 (fun i ->
        { Online.release = 200 * i; size = Rng.int_in rng 1 7; req = Rng.int_in rng 1 scale })
  in
  let bound = 3 * List.length arrivals in
  let check_blocks ctx arrivals (r : Online.result) =
    let blocks = (schedule_of ~m ~scale arrivals r).blocks in
    if blocks > bound then
      Alcotest.failf "%s: %d blocks for makespan %d, bound %d" ctx blocks
        r.Online.makespan bound
  in
  let r = Online.run ~m ~scale arrivals in
  Alcotest.(check bool) "spans the release horizon" true (r.Online.makespan > 200 * 399);
  check_blocks "run" arrivals r;
  let session = Online.Session.create ~m ~scale () in
  List.iter
    (fun a ->
      (match Online.Session.add session a with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "reject: %s" (Online.Session.reject_message e));
      check_blocks "session" (Online.Session.arrivals session) (Online.Session.solve session))
    arrivals;
  let stats = Online.Session.stats session in
  Alcotest.(check int) "full solves" 1 stats.Online.Session.full_solves;
  Alcotest.(check int) "extended solves" 399 stats.Online.Session.extended_solves;
  check_same_result ~ctx:"extended history" ~m ~scale arrivals (Online.Session.solve session)

let add_all session arrivals =
  List.iter
    (fun a ->
      match Online.Session.add session a with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "reject: %s" (Online.Session.reject_message e))
    arrivals

(* The latest release among a session's jobs: R, below which a new
   release forces a full re-solve. *)
let last_release session =
  List.fold_left (fun acc (a : Online.arrival) -> max acc a.release) 0
    (Online.Session.arrivals session)

let test_session_full_extend_cycle () =
  (* Dense bursts of up to 100 jobs, solved after each, in four phases:
     the first solve is full; a burst released between the last release
     R and the frontier resumes from the committed checkpoint; a burst
     with one release below R re-solves in full; a burst past the
     frontier resumes again, on top of the re-solved history. *)
  for seed = 1 to 10 do
    let rng = Rng.create (seed * 353) in
    let session = Online.Session.create ~m:8 ~scale:1000 () in
    let frontier = ref 0 in
    List.iteri
      (fun phase (burst, full, extended) ->
        add_all session (burst (last_release session) !frontier);
        let ctx = Printf.sprintf "seed %d phase %d" seed phase in
        let r = Online.Session.solve session in
        let stats = Online.Session.stats session in
        Alcotest.(check (pair int int))
          (ctx ^ ": full and extended solves") (full, extended)
          (stats.Online.Session.full_solves, stats.Online.Session.extended_solves);
        check_same_result ~ctx ~m:8 ~scale:1000 (Online.Session.arrivals session) r;
        frontier := r.Online.makespan)
      [
        ((fun _ _ -> dense_arrivals rng ~first:0 (Rng.int_in rng 1 100)), 1, 0);
        ( (fun last f ->
            (* The frontier is past R: the job released at R runs a step. *)
            dense_arrivals rng ~first:(Rng.int_in rng (last + 1) f) (Rng.int_in rng 1 100)),
          1,
          1 );
        ( (fun last f ->
            let burst = dense_arrivals rng ~first:(Rng.int_in rng last f) (Rng.int_in rng 1 100) in
            let early = Rng.int_in rng 0 (List.length burst - 1) in
            List.mapi
              (fun i (a : Online.arrival) ->
                if i = early then { a with Online.release = Rng.int_in rng 0 (last - 1) } else a)
              burst),
          2,
          1 );
        ( (fun _ f -> dense_arrivals rng ~first:(f + Rng.int_in rng 0 50) (Rng.int_in rng 1 100)),
          2,
          2 );
      ]
  done

(* Start times by submission position from the per-step oracle. *)
let oracle_starts ~m ~scale arrivals =
  let o = Online_oracle.run ~m ~scale arrivals in
  let starts = Array.make (Array.length o.Online.start_times) (-1) in
  Array.iteri
    (fun id pos -> starts.(pos) <- o.Online.start_times.(id))
    o.Online.instance.Instance.original;
  (o.Online.schedule.makespan, starts)

(* One [Session.solve] under an abandoning hazard: the [sos.online.run]
   chaos site, a deadline that has already passed (the first poll in the
   simulation loop raises), or a 0.2 ms deadline, which lands wherever the
   solve has got to on this host or not at all. [None] when the solve
   unwound. *)
let solve_under session hazard =
  let with_deadline timeout =
    Robust.Context.with_ctx
      (Robust.Context.make ~index:0 ~attempt:0 ~cancel:(Robust.Cancel.create ~timeout ()))
  in
  match
    match hazard with
    | `Chaos ->
        Robust.Chaos.arm_rules ~seed:1 [ ("sos.online.run", Robust.Chaos.Fail_prob 1.0) ];
        Fun.protect ~finally:Robust.Chaos.disarm (fun () -> Online.Session.solve session)
    | `Expired -> with_deadline 1e-9 (fun () -> Online.Session.solve session)
    | `Short -> with_deadline 2e-4 (fun () -> Online.Session.solve session)
  with
  | r -> Some r
  | exception (Robust.Chaos.Injected _ | Robust.Failure.Deadline _) -> None

let test_session_abandoned_solves () =
  (* Dense bursts that either resume the committed simulation or rewrite
     its history, each followed by up to two solves under a hazard and
     then a plain solve. An abandoned solve must leave [peek] answering
     the very result it answered before, with the same starts and the
     same materialized schedule, and the session dirty and its stats
     unmoved; every completed solve must equal [run]'s. *)
  let abandoned = ref 0 in
  for seed = 1 to 20 do
    let rng = Rng.create (seed * 367) in
    let m = 8 and scale = 1000 in
    let session = Online.Session.create ~m ~scale () in
    let check_completed ctx r =
      check_same_result ~ctx ~m ~scale (Online.Session.arrivals session) r
    in
    for round = 0 to 9 do
      let frontier =
        match Online.Session.peek session with Some r -> r.Online.makespan | None -> 0
      in
      let first =
        if frontier > 0 && Rng.int_in rng 0 2 = 0 then Rng.int_in rng 0 (frontier - 1)
        else frontier + Rng.int_in rng 0 50
      in
      add_all session (dense_arrivals rng ~first (Rng.int_in rng 1 150));
      let ctx = Printf.sprintf "seed %d round %d" seed round in
      for _ = 1 to Rng.int_in rng 0 2 do
        let before = Online.Session.peek session in
        let view (r : Online.result) =
          let prefix = List.filteri (fun i _ -> i < r.Online.jobs) (Online.Session.arrivals session) in
          ( r.Online.makespan,
            Array.copy r.Online.starts,
            Helpers.steps (schedule_of ~m ~scale prefix r) )
        in
        let snapshot = Option.map view before in
        let stats = Online.Session.stats session in
        match solve_under session (Rng.choose rng [| `Chaos; `Expired; `Short |]) with
        | Some r -> check_completed (ctx ^ " hazard survived") r
        | None ->
            incr abandoned;
            let after = Online.Session.peek session in
            (match (before, after) with
            | Some a, Some b when a == b -> ()
            | None, None -> ()
            | _ -> Alcotest.failf "%s: an abandoned solve replaced the committed result" ctx);
            if Option.map view after <> snapshot then
              Alcotest.failf "%s: an abandoned solve changed the committed result" ctx;
            Alcotest.(check bool) (ctx ^ ": dirty") true (Online.Session.dirty session);
            if Online.Session.stats session <> stats then
              Alcotest.failf "%s: an abandoned solve was counted" ctx
      done;
      check_completed ctx (Online.Session.solve session)
    done
  done;
  if !abandoned = 0 then Alcotest.fail "no solve was abandoned"

let test_session_resume_property () =
  (* Random sessions, m 2-10 and scale 1-60, grow by bursts whose
     releases step +0/1 from the last one, tie one another, tie a
     committed start at or after R (where a checkpoint sits), fall
     between R and the frontier, fall below R, or land past the
     frontier. Every completed solve must equal a from-scratch
     [Online.run] and the per-step oracle, in the makespan and in every
     start: a checkpoint taken one admission attempt off can leave
     every makespan right and starts wrong. A third of the solves first
     meet a [sos.online.run] fault or a deadline, which must leave the
     committed result and the counts as they were. *)
  let resumed = ref 0 and full = ref 0 and abandoned = ref 0 in
  for seed = 1 to 1000 do
    let rng = Rng.create (seed * 379) in
    let m = Rng.int_in rng 2 10 and scale = Rng.int_in rng 1 60 in
    let session = Online.Session.create ~m ~scale () in
    for round = 1 to Rng.int_in rng 1 10 do
      let ctx = Printf.sprintf "seed %d (m %d scale %d) round %d" seed m scale round in
      let committed = Online.Session.peek session in
      let frontier = match committed with Some r -> r.Online.makespan | None -> 0 in
      let ties =
        match committed with
        | Some r -> List.filter (fun s -> s >= last_release session) (Array.to_list r.Online.starts)
        | None -> []
      in
      let previous = ref (last_release session) in
      let burst = if Rng.bool rng then 1 else Rng.int_in rng 2 8 in
      for _ = 1 to burst do
        let last = last_release session in
        let release =
          match Rng.int_in rng 0 9 with
          | 0 | 1 | 2 -> last + Rng.int_in rng 0 1
          | 3 -> !previous
          | 4 when ties <> [] -> List.nth ties (Rng.int_in rng 0 (List.length ties - 1))
          | 5 -> Rng.int_in rng last (max last frontier)
          | 6 -> Rng.int_in rng 0 (max 0 (last - 1))
          | 7 -> frontier + Rng.int_in rng 1 200
          | _ -> last + Rng.int_in rng 0 3
        in
        previous := release;
        add_all session
          [ { Online.release; size = Rng.int_in rng 1 6; req = Rng.int_in rng 1 (2 * scale) } ]
      done;
      let arrivals = Online.Session.arrivals session in
      if Rng.int_in rng 0 2 = 0 then begin
        let stats = Online.Session.stats session in
        match solve_under session (Rng.choose rng [| `Chaos; `Expired; `Short |]) with
        | Some _ -> ()
        | None ->
            incr abandoned;
            if Online.Session.peek session != committed then
              Alcotest.failf "%s: an abandoned solve replaced the committed result" ctx;
            if Online.Session.stats session <> stats then
              Alcotest.failf "%s: an abandoned solve was counted" ctx
      end;
      let before = Online.Session.stats session in
      let r = Online.Session.solve session in
      let after = Online.Session.stats session in
      if after.Online.Session.extended_solves > before.Online.Session.extended_solves then
        incr resumed
      else if after.Online.Session.full_solves > before.Online.Session.full_solves then incr full;
      let scratch = Online.run ~m ~scale arrivals in
      Alcotest.(check int) (ctx ^ ": makespan") scratch.Online.makespan r.Online.makespan;
      Alcotest.(check (array int)) (ctx ^ ": starts") scratch.Online.starts r.Online.starts;
      let makespan, starts = oracle_starts ~m ~scale arrivals in
      Alcotest.(check int) (ctx ^ ": oracle makespan") makespan r.Online.makespan;
      Alcotest.(check (array int)) (ctx ^ ": oracle starts") starts r.Online.starts
    done
  done;
  if !resumed < 3000 || !full < 1000 || !abandoned < 1000 then
    Alcotest.failf "too few resumed (%d), full (%d) or abandoned (%d) solves" !resumed !full
      !abandoned

let test_session_no_history () =
  (* A session keeps no schedule blocks, only its three job columns, the
     starts of its last result and that run's checkpoint. A 400-job
     session solved after every add, dense or sparse, must hold at most 8
     words per job; one that kept its blocks would hold 24 (sparse) to 55
     (dense). *)
  List.iter
    (fun (shape, release) ->
      let rng = Rng.create 4243 in
      let session = Online.Session.create ~m:8 ~scale:1000 () in
      let last = ref 0 in
      for i = 0 to 399 do
        last := release rng i !last;
        add_all session
          [ { Online.release = !last; size = Rng.int_in rng 1 20; req = Rng.int_in rng 1 500 } ];
        ignore (Online.Session.solve session : Online.result)
      done;
      let held = Obj.reachable_words (Obj.repr session) in
      if held > 8 * 400 then
        Alcotest.failf "%s: the session holds %d words for 400 jobs (%.1f per job > 8)" shape
          held
          (float_of_int held /. 400.))
    [
      ("dense", fun rng _ last -> last + Rng.int_in rng 0 1);
      ("sparse", fun _ i _ -> 200 * i);
    ]

let test_materialize_refuses_other_runs () =
  (* [materialize] re-runs the simulation from scratch over its arrivals
     and must refuse any result that is not that run: one start moved,
     the makespan moved, or the run of another job set of the same size
     (the same jobs released 5 steps later). *)
  let m = 4 and scale = 100 in
  let rng = Rng.create 4244 in
  let arrivals =
    List.init 30 (fun _ ->
        { Online.release = Rng.int_in rng 0 30; size = Rng.int_in rng 1 6; req = Rng.int_in rng 1 120 })
  in
  let r = Online.run ~m ~scale arrivals in
  ignore (Online.materialize ~m ~scale arrivals r : Online.offline);
  let refused ctx r =
    match Online.materialize ~m ~scale arrivals r with
    | _ -> Alcotest.failf "%s: materialize accepted it" ctx
    | exception Robust.Failure.Invalid (Robust.Failure.Malformed _) -> ()
  in
  let starts = Array.copy r.Online.starts in
  starts.(7) <- starts.(7) + 1;
  refused "one start changed" { r with Online.starts };
  refused "makespan changed" { r with Online.makespan = r.Online.makespan + 1 };
  refused "another job set"
    (Online.run ~m ~scale
       (List.map (fun (a : Online.arrival) -> { a with Online.release = a.release + 5 }) arrivals))

let test_online_huge_m () =
  (* Nothing is sized by m: with m = max_int a run must be the run at
     m = n + 1, where the slot limit never binds either; so must a session
     with m = max_int, after a full solve and after a resume. *)
  let same ctx (expected : Online.result) (got : Online.result) =
    Alcotest.(check int) (ctx ^ ": jobs") expected.Online.jobs got.Online.jobs;
    Alcotest.(check int) (ctx ^ ": makespan") expected.Online.makespan got.Online.makespan;
    Alcotest.(check (array int)) (ctx ^ ": starts") expected.Online.starts got.Online.starts
  in
  for seed = 1 to 50 do
    let rng = Rng.create (seed * 373) in
    let ctx = Printf.sprintf "seed %d" seed in
    let arrivals = random_arrivals rng in
    let n = List.length arrivals in
    same (ctx ^ " run")
      (Online.run ~m:(n + 1) ~scale:100 arrivals)
      (Online.run ~m:max_int ~scale:100 arrivals);
    let session = Online.Session.create ~m:max_int ~scale:100 () in
    add_all session arrivals;
    let r = Online.Session.solve session in
    same (ctx ^ " session") (Online.run ~m:(n + 1) ~scale:100 arrivals) r;
    let more =
      List.init (Rng.int_in rng 1 10) (fun _ ->
          {
            Online.release = r.Online.makespan + Rng.int_in rng 0 20;
            size = Rng.int_in rng 1 6;
            req = Rng.int_in rng 1 120;
          })
    in
    add_all session more;
    let all = arrivals @ more in
    same (ctx ^ " extended session")
      (Online.run ~m:(List.length all + 1) ~scale:100 all)
      (Online.Session.solve session);
    Alcotest.(check int) (ctx ^ ": extended solves") 1
      (Online.Session.stats session).Online.Session.extended_solves
  done

(* --- lower bound --- *)

(* The definition the one-pass [Online.lower_bound] must agree with:
   validate every arrival, build the sorted offline instance, take
   Eq. (1), and raise it to the release horizon. *)
let reference_lower_bound ~m ~scale arrivals =
  List.iteri
    (fun i (a : Online.arrival) ->
      let open Robust.Failure in
      if a.release < 0 then
        raise
          (Invalid (Malformed (Printf.sprintf "job %d: negative release (got %d)" i a.release)))
      else if a.size <= 0 then raise (Invalid (Nonpositive_size { job = i; size = a.size }))
      else if a.req <= 0 then raise (Invalid (Nonpositive_req { job = i; req = a.req })))
    arrivals;
  let inst =
    Instance.create ~m ~scale
      (List.map (fun (a : Online.arrival) -> (a.size, a.req)) arrivals)
  in
  List.fold_left
    (fun acc (a : Online.arrival) -> max acc (a.release + a.size))
    (Bounds.lower_bound inst) arrivals

let lower_bound_outcome f =
  match f () with
  | lb -> Ok lb
  | exception Robust.Failure.Invalid inv ->
      Error ("invalid: " ^ Robust.Failure.message (Robust.Failure.Invalid_instance inv))
  | exception Invalid_argument msg -> Error ("invalid_argument: " ^ msg)

let test_online_lower_bound_one_pass () =
  (* Clean inputs, one malformed arrival, a degenerate m or scale, and
     overflowing p_j·r_j or Σ p_j·r_j, in seeded combinations: the value
     or the exception must match the reference's. [seen] counts the
     outcomes by kind (value, bad arrival, bad m or scale, overflow) so
     that each is known to occur. *)
  let seen = Array.make 4 0 in
  for seed = 1 to 600 do
    let rng = Rng.create (seed * 337) in
    let m = if Rng.int_in rng 0 9 = 0 then Rng.int_in rng (-1) 1 else Rng.int_in rng 2 10 in
    let scale =
      if Rng.int_in rng 0 9 = 0 then Rng.int_in rng (-1) 0
      else Rng.choose rng [| 10; 100; 1000 |]
    in
    let n = Rng.int_in rng 0 60 in
    let bad = if n > 0 && Rng.int_in rng 0 2 = 0 then Rng.int_in rng 0 (n - 1) else -1 in
    let arrivals =
      List.init n (fun i ->
          let a =
            {
              Online.release = Rng.int_in rng 0 5000;
              size = Rng.int_in rng 1 20;
              req = Rng.int_in rng 1 1000;
            }
          in
          if i <> bad then a
          else
            match Rng.int_in rng 0 4 with
            | 0 -> { a with Online.release = -Rng.int_in rng 1 5 }
            | 1 -> { a with Online.size = Rng.int_in rng (-2) 0 }
            | 2 -> { a with Online.req = Rng.int_in rng (-2) 0 }
            | 3 -> { a with Online.size = max_int / 2; req = Rng.int_in rng 3 9 }
            | _ -> { a with Online.size = (max_int / 4) + 1; req = 2 })
    in
    let arrivals = if bad >= 0 && Rng.int_in rng 0 1 = 0 then arrivals @ arrivals else arrivals in
    let expected = lower_bound_outcome (fun () -> reference_lower_bound ~m ~scale arrivals) in
    let got = lower_bound_outcome (fun () -> Online.lower_bound ~m ~scale arrivals) in
    Alcotest.(check (result int string)) (Printf.sprintf "seed %d" seed) expected got;
    let kind =
      match expected with
      | Ok _ -> 0
      | Error e when String.starts_with ~prefix:"invalid_argument" e -> 2
      | Error e when String.ends_with ~suffix:"exceeds max_int" e -> 3
      | Error _ -> 1
    in
    seen.(kind) <- seen.(kind) + 1
  done;
  Array.iteri
    (fun kind count ->
      if count = 0 then Alcotest.failf "outcome kind %d never occurred" kind)
    seen

let test_session_lower_bound () =
  (* The session's O(1) bound against [Online.lower_bound] over its
     arrivals, after every add, accepted or refused (a malformed job, an
     overflowing one, one past the volume budget), and on the empty
     session: the value, or the exception on a degenerate m or scale,
     must match. *)
  for seed = 1 to 200 do
    let rng = Rng.create (seed * 359) in
    let m = if Rng.int_in rng 0 9 = 0 then Rng.int_in rng (-1) 1 else Rng.int_in rng 2 10 in
    let scale =
      if Rng.int_in rng 0 9 = 0 then Rng.int_in rng (-1) 0
      else Rng.choose rng [| 10; 100; 1000 |]
    in
    let session = Online.Session.create ~max_volume:(Rng.int_in rng 100 600) ~m ~scale () in
    let check ctx =
      Alcotest.(check (result int string))
        (Printf.sprintf "seed %d %s" seed ctx)
        (lower_bound_outcome (fun () ->
             Online.lower_bound ~m ~scale (Online.Session.arrivals session)))
        (lower_bound_outcome (fun () -> Online.Session.lower_bound session))
    in
    check "empty";
    for i = 1 to Rng.int_in rng 1 60 do
      let a =
        {
          Online.release = Rng.int_in rng 0 5000;
          size = Rng.int_in rng 1 20;
          req = Rng.int_in rng 1 1000;
        }
      in
      let a =
        match Rng.int_in rng 0 9 with
        | 0 -> { a with Online.release = -1 }
        | 1 -> { a with Online.size = max_int / 2; req = 3 }
        | _ -> a
      in
      ignore (Online.Session.add session a : (int, Online.Session.reject) result);
      check (Printf.sprintf "after add %d" i)
    done
  done

(* --- SVG --- *)

let test_svg_well_formed () =
  let inst = Instance.create ~m:3 ~scale:10 [ (2, 3); (2, 4); (1, 8); (3, 2) ] in
  let sched = Listing1.run inst in
  let svg = Svg.render ~title:"test" sched in
  let count_sub sub =
    let n = String.length sub and m = String.length svg in
    let rec go i acc =
      if i + n > m then acc
      else go (i + 1) (if String.sub svg i n = sub then acc + 1 else acc)
    in
    go 0 0
  in
  Alcotest.(check int) "one svg root open" 1 (count_sub "<svg ");
  Alcotest.(check int) "one svg root close" 1 (count_sub "</svg>");
  (* one bar per job + m background rows + utilization bars *)
  Alcotest.(check bool) "has job bars" true (count_sub "<title>job" = 4);
  Alcotest.(check bool) "has rects" true (count_sub "<rect" >= 4 + 3);
  Alcotest.(check bool) "mentions title" true (count_sub ">test</text>" = 1);
  (* Untitled, two one-step jobs: still a whole document. *)
  let small = Listing1.run (Instance.create ~m:2 ~scale:10 [ (1, 5); (1, 5) ]) in
  Alcotest.(check bool) "untitled document" true (String.length (Svg.render small) > 200)

let suite =
  ( "online",
    [
      Alcotest.test_case "all-at-zero validity & LB" `Quick
        test_online_all_at_zero_matches_offline_spirit;
      Alcotest.test_case "releases respected" `Quick test_online_respects_releases;
      Alcotest.test_case "idle then burst" `Quick test_online_idle_then_burst;
      Alcotest.test_case "ratio reasonable" `Quick test_online_ratio_reasonable;
      Alcotest.test_case "empty" `Quick test_online_empty;
      Alcotest.test_case "m < 2 or scale < 1 refused" `Quick test_online_degenerate_shape;
      Alcotest.test_case "session matches from-scratch" `Quick
        test_session_matches_scratch;
      Alcotest.test_case "session solve paths" `Quick test_session_solve_paths;
      Alcotest.test_case "session budgets" `Quick test_session_budgets;
      Alcotest.test_case "session makespan bound overflow" `Quick test_session_makespan_overflow;
      Alcotest.test_case "session peek & dirty" `Quick test_session_peek_and_dirty;
      Alcotest.test_case "matches per-step oracle" `Quick
        test_online_matches_dense_oracle;
      Alcotest.test_case "matches per-step oracle at serve-dense scale" `Quick
        test_online_dense_scale_oracle;
      Alcotest.test_case "admission order: passed-over jobs stay ahead" `Quick
        test_online_admission_order;
      Alcotest.test_case "history bounded by events" `Quick
        test_online_history_bounded;
      Alcotest.test_case "session full/extend/full/extend" `Quick
        test_session_full_extend_cycle;
      Alcotest.test_case "session abandoned solves keep committed state" `Quick
        test_session_abandoned_solves;
      Alcotest.test_case "session resumes equal from-scratch and oracle" `Quick
        test_session_resume_property;
      Alcotest.test_case "session keeps no history" `Quick test_session_no_history;
      Alcotest.test_case "materialize refuses other runs" `Quick
        test_materialize_refuses_other_runs;
      Alcotest.test_case "m = max_int sizes nothing by m" `Quick test_online_huge_m;
      Alcotest.test_case "lower bound in one pass" `Quick
        test_online_lower_bound_one_pass;
      Alcotest.test_case "session lower bound after every add" `Quick
        test_session_lower_bound;
      Alcotest.test_case "svg well-formed" `Quick test_svg_well_formed;
    ] )
