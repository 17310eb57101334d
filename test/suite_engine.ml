(* Engine: the domain pool and deterministic batch maps. The central
   property is the determinism contract — Batch.map returns byte-identical
   results at every domain count — plus per-task error capture leaving the
   pool usable. *)

module Rng = Prelude.Rng
module Pool = Engine.Pool
module Batch = Engine.Batch

(* Solve a batch of SoS instances: makespan + exported RLE CSV per
   instance, i.e. both the solver output and the downstream artifact the
   batch CLI writes. *)
let solve_batch ~domains insts =
  let tasks =
    Array.map
      (fun inst () ->
        let s, _ = Sos.Fast.run_columns inst in
        (s.makespan, Sos.Export.columns_to_csv_rle s))
      insts
  in
  Batch.map ~domains tasks

let outcome_to_string = function
  | Ok (mk, csv) -> Printf.sprintf "Ok(%d,%d bytes,%d hash)" mk (String.length csv) (Hashtbl.hash csv)
  | Error (e : Batch.error) -> Printf.sprintf "Error(%d,%s)" e.index e.message

(* qcheck: random instance batches solve byte-identically at d ∈ {1,2,4}. *)
let test_batch_deterministic =
  Helpers.qcheck ~count:25 "Batch.map byte-identical for domains 1/2/4"
    QCheck.(pair (int_bound 10_000) (int_range 1 8))
    (fun (seed, batch_size) ->
      let insts =
        Array.init batch_size (fun i ->
            let rng = Rng.create2 seed i in
            Workload.Sos_gen.random_instance rng ~max_n:40 ~max_m:8 ())
      in
      let reference = solve_batch ~domains:1 insts in
      List.for_all
        (fun d ->
          let got = solve_batch ~domains:d insts in
          if got <> reference then
            QCheck.Test.fail_reportf "domains=%d diverged: %s vs %s" d
              (String.concat ";" (Array.to_list (Array.map outcome_to_string got)))
              (String.concat ";" (Array.to_list (Array.map outcome_to_string reference)))
          else true)
        [ 2; 4 ])

let test_error_capture_and_reuse () =
  Pool.with_pool ~domains:2 (fun pool ->
      let tasks =
        [|
          (fun () -> 10);
          (fun () -> failwith "boom");
          (fun () -> 30);
        |]
      in
      (match Helpers.stream_all pool tasks with
      | [| Ok 10; Error e; Ok 30 |] ->
          Alcotest.(check int) "error index" 1 e.Batch.index;
          Alcotest.(check bool) "error message" true
            (String.length e.Batch.message > 0)
      | outcomes ->
          Alcotest.failf "unexpected outcomes: %s"
            (String.concat ";"
               (Array.to_list
                  (Array.map
                     (function
                       | Ok v -> string_of_int v
                       | Error (e : Batch.error) -> "error@" ^ string_of_int e.index)
                     outcomes))));
      (* The failed task must leave the pool fully usable. *)
      let again = Helpers.stream_all pool (Array.init 20 (fun i () -> i * i)) in
      Array.iteri
        (fun i r -> Alcotest.(check bool) "reused pool result" true (r = Ok (i * i)))
        again)

(* An ordered fold over [stream_seq]'s emission: submission order is the
   fold order, and the first failing task's error wins. *)
let fold_seq ~domains ~reduce ~init tasks =
  let n = Array.length tasks in
  Pool.with_pool ~domains (fun pool ->
      let acc = ref (Ok init) in
      ignore
        (Batch.stream_seq pool
           (fun i -> if i < n then Some tasks.(i) else None)
           ~f:(fun _ r ->
             match (!acc, r) with
             | Error _, _ -> ()
             | Ok _, Error e -> acc := Error e
             | Ok a, Ok v -> acc := Ok (reduce a v)));
      !acc)

let test_ordered_fold () =
  let tasks = Array.init 100 (fun i () -> i) in
  (match fold_seq ~domains:3 ~reduce:( + ) ~init:0 tasks with
  | Ok sum -> Alcotest.(check int) "sum 0..99" 4950 sum
  | Error _ -> Alcotest.fail "unexpected error");
  (* Non-commutative reduce: submission order is the fold order. *)
  (match
     fold_seq ~domains:4 ~reduce:(fun acc v -> acc ^ v) ~init:""
       (Array.init 26 (fun i () -> String.make 1 (Char.chr (Char.code 'a' + i))))
   with
  | Ok s -> Alcotest.(check string) "ordered concat" "abcdefghijklmnopqrstuvwxyz" s
  | Error _ -> Alcotest.fail "unexpected error");
  match
    fold_seq ~domains:2 ~reduce:( + ) ~init:0
      [| (fun () -> 1); (fun () -> failwith "nope"); (fun () -> 2) |]
  with
  | Ok _ -> Alcotest.fail "expected the raising task's error"
  | Error e -> Alcotest.(check int) "first error index" 1 e.Batch.index

let test_stream_ordered () =
  (* A batch of known size streamed with window = n: workers are never
     throttled, and results still arrive in submission order. *)
  let n = 50 in
  Pool.with_pool ~domains:4 (fun pool ->
      let emitted = ref [] in
      let count =
        Batch.stream_seq pool ~window:n
          (fun i -> if i < n then Some (fun () -> 2 * i) else None)
          ~f:(fun i r ->
            (match r with
            | Ok v -> Alcotest.(check int) "stream value" (2 * i) v
            | Error _ -> Alcotest.fail "unexpected error");
            emitted := i :: !emitted)
      in
      Alcotest.(check int) "count returned" n count;
      Alcotest.(check (list int)) "emitted in submission order"
        (List.init n (fun i -> i))
        (List.rev !emitted))

(* qcheck: the pull-based streaming path emits byte-identical outcomes to
   the materialized map, at d ∈ {1,2,4} — the tentpole determinism
   contract of `sosctl batch`. *)
let test_stream_seq_matches_map =
  Helpers.qcheck ~count:25 "stream_seq byte-identical to map for domains 1/2/4"
    QCheck.(pair (int_bound 10_000) (int_range 1 12))
    (fun (seed, batch_size) ->
      let insts =
        Array.init batch_size (fun i ->
            let rng = Rng.create2 seed i in
            Workload.Sos_gen.random_instance rng ~max_n:40 ~max_m:8 ())
      in
      let reference = Array.to_list (solve_batch ~domains:1 insts) in
      List.for_all
        (fun d ->
          Pool.with_pool ~domains:d (fun pool ->
              let got = ref [] in
              let n =
                Batch.stream_seq pool ~chunk:2 ~window:3
                  (fun i ->
                    if i < batch_size then
                      Some
                        (fun () ->
                          let s, _ = Sos.Fast.run_columns insts.(i) in
                          (s.makespan, Sos.Export.columns_to_csv_rle s))
                    else None)
                  ~f:(fun _ r -> got := r :: !got)
              in
              if n <> batch_size then
                QCheck.Test.fail_reportf "domains=%d produced %d of %d" d n batch_size
              else if List.rev !got <> reference then
                QCheck.Test.fail_reportf "domains=%d streamed outcomes diverged" d
              else true))
        [ 1; 2; 4 ])

let test_stream_seq_window_bound () =
  (* The producer is called on the calling thread, in order, exactly once
     per index, and never while [window] tasks are already in flight. *)
  let n = 200 and window = 8 in
  Pool.with_pool ~domains:4 (fun pool ->
      let produced = ref 0 and emitted = ref 0 and max_inflight = ref 0 in
      let count =
        Batch.stream_seq pool ~window
          (fun i ->
            Alcotest.(check int) "producer called in order" !produced i;
            if i >= n then None
            else begin
              incr produced;
              max_inflight := max !max_inflight (!produced - !emitted);
              Some (fun () -> i * 3)
            end)
          ~f:(fun i r ->
            Alcotest.(check int) "emitted in order" !emitted i;
            incr emitted;
            match r with
            | Ok v -> Alcotest.(check int) "value" (i * 3) v
            | Error _ -> Alcotest.fail "unexpected error")
      in
      Alcotest.(check int) "count returned" n count;
      Alcotest.(check int) "all emitted" n !emitted;
      Alcotest.(check bool)
        (Printf.sprintf "in-flight bound %d <= window %d" !max_inflight window)
        true (!max_inflight <= window));
  (* An empty stream: producer refused index 0, nothing runs. *)
  Pool.with_pool ~domains:2 (fun pool ->
      let count = Batch.stream_seq pool (fun _ -> None) ~f:(fun _ _ -> Alcotest.fail "emit on empty stream") in
      Alcotest.(check int) "empty stream" 0 count)

(* The pool's own contract, below Batch: [emit] gets each thunk's value in
   index order, and [None] where the thunk raised (its chunk-mates still
   deliver). The window is the whole batch, far above 4 x domains x chunk,
   so every chunk can sit in the task queue at once: no submit may wait
   for room, or the run would not complete. *)
let test_run_ordered_seq_values () =
  let n = 600 and chunk = 3 in
  let value i = if i mod 7 = 3 then None else Some (i * i) in
  List.iter
    (fun d ->
      Pool.with_pool ~domains:d (fun pool ->
          let got = ref [] in
          let supplied =
            Pool.run_ordered_seq pool ~chunk ~window:n
              (fun i ->
                if i >= n then None
                else
                  Some
                    (fun () ->
                      match value i with Some v -> v | None -> failwith "thunk raised"))
              ~emit:(fun i v -> got := (i, v) :: !got)
          in
          Alcotest.(check int) (Printf.sprintf "d=%d supplied" d) n supplied;
          Alcotest.(check (list (pair int (option int))))
            (Printf.sprintf "d=%d values in index order, None where raised" d)
            (List.init n (fun i -> (i, value i)))
            (List.rev !got)))
    [ 1; 2; 4 ]

let test_stream_seq_full_chunks () =
  (* Steady-state chunking contract: the caller-side producer is pulled in
     full-[chunk] batches. Emitting one result frees one window slot — it
     must not degrade the next pull to min(chunk, 1) = 1, or every queued
     task past the first window carries a single thunk (chunk-fold more
     submit/lock/signal round trips). Supply and emit both run on the
     calling thread, so their interleaving is an exact observable: every
     maximal run of supply calls must be a whole number of [chunk]s,
     except the run containing the exhaustion probe. *)
  let n = 97 and chunk = 8 in
  Pool.with_pool ~domains:4 (fun pool ->
      let trace = ref [] in
      let count =
        Batch.stream_seq pool ~chunk ~window:(2 * chunk)
          (fun i ->
            trace := `S i :: !trace;
            if i < n then Some (fun () -> i) else None)
          ~f:(fun i r ->
            trace := `E i :: !trace;
            match r with
            | Ok v -> Alcotest.(check int) "streamed value" i v
            | Error _ -> Alcotest.fail "unexpected error")
      in
      Alcotest.(check int) "count" n count;
      let rec scan run_len last_s = function
        | [] -> ()
        | `S i :: rest -> scan (run_len + 1) i rest
        | `E i :: rest ->
            if run_len > 0 then begin
              let ok =
                run_len mod chunk = 0 (* one or more back-to-back full-chunk pulls *)
                || last_s >= n (* the run that hit exhaustion *)
              in
              if not ok then
                Alcotest.failf "supply run of %d thunks (chunk %d) before emit %d" run_len
                  chunk i
            end;
            scan 0 (-1) rest
      in
      scan 0 (-1) (List.rev !trace))

let test_stream_seq_bounded_memory () =
  (* The constant-memory smoke: 100k tasks each returning a ~1 KB payload
     through a 64-task window must not grow the peak heap by anything
     near the ~100 MB a materialized outcome array would need. The bound
     is on the *delta* of the GC's top-of-heap watermark, so earlier
     tests' allocations don't interfere. *)
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.top_heap_words in
  let n = 100_000 in
  let seen = ref 0 in
  Pool.with_pool ~domains:2 (fun pool ->
      let count =
        Batch.stream_seq pool ~chunk:64 ~window:64
          (fun i -> if i < n then Some (fun () -> String.make 1024 (Char.chr (65 + (i mod 26)))) else None)
          ~f:(fun i r ->
            match r with
            | Ok s ->
                if String.length s = 1024 && s.[0] = Char.chr (65 + (i mod 26)) then incr seen
            | Error _ -> Alcotest.fail "unexpected error")
      in
      Alcotest.(check int) "all streamed" n count);
  Alcotest.(check int) "all payloads verified" n !seen;
  let after = (Gc.quick_stat ()).Gc.top_heap_words in
  let delta_words = after - before in
  Alcotest.(check bool)
    (Printf.sprintf "peak heap grew %d words (cap 2M)" delta_words)
    true
    (delta_words < 2_000_000)

let test_pool_basics () =
  Alcotest.(check bool) "recommended >= 1" true (Pool.recommended_domain_count () >= 1);
  Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.(check int) "domains" 3 (Pool.domains pool));
  Alcotest.check_raises "domains = 0 rejected"
    (Invalid_argument "Engine.Pool.create: domains = 0") (fun () ->
      ignore (Pool.create ~domains:0 ()));
  (* Empty batches and chunked submission both work. *)
  Alcotest.(check int) "empty batch" 0 (Array.length (Batch.map ~domains:2 [||]));
  let chunked = Batch.map ~domains:2 ~chunk:7 (Array.init 100 (fun i () -> i + 1)) in
  Array.iteri
    (fun i r -> Alcotest.(check bool) "chunked result" true (r = Ok (i + 1)))
    chunked

let test_clock () =
  let r, t = Prelude.Clock.time_it (fun () -> 42) in
  Alcotest.(check int) "time_it result" 42 r;
  Alcotest.(check bool) "time_it non-negative" true (t >= 0.0);
  let calls = ref 0 in
  let r, t =
    Prelude.Clock.best_of ~k:5 (fun () ->
        incr calls;
        !calls * 0 + 7)
  in
  Alcotest.(check int) "best_of result (first run)" 7 r;
  Alcotest.(check int) "best_of runs k times" 5 !calls;
  Alcotest.(check bool) "best_of non-negative" true (t >= 0.0);
  Alcotest.check_raises "best_of k=0 rejected" (Invalid_argument "Clock.best_of: k < 1")
    (fun () -> ignore (Prelude.Clock.best_of ~k:0 (fun () -> ())))

let test_rng_create2 () =
  (* create2 is pure in its pair: same pair, same stream; nearby pairs differ. *)
  let a = Rng.create2 1 2 and b = Rng.create2 1 2 in
  Alcotest.(check bool) "same pair, same stream" true (Rng.bits64 a = Rng.bits64 b);
  let seen = Hashtbl.create 64 in
  for base = 0 to 7 do
    for idx = 0 to 7 do
      let v = Rng.bits64 (Rng.create2 base idx) in
      Alcotest.(check bool)
        (Printf.sprintf "pair (%d,%d) collides" base idx)
        false (Hashtbl.mem seen v);
      Hashtbl.replace seen v ()
    done
  done

(* Backoff delays retries but never changes bytes: a flaky batch run with
   backoff enabled returns exactly the clean results at every domain
   count (the delay is a pure function of (seed, index, attempt), and
   ordered emission does not depend on when a retry lands). *)
let test_backoff_byte_identity () =
  let n = 16 in
  let tasks =
    Array.init n (fun i () ->
        if i mod 4 = 2 && Robust.Context.attempt () = 0 then failwith "flaky";
        i + 100)
  in
  let clean = Array.init n (fun i -> Ok (i + 100)) in
  let backoff = Robust.Backoff.policy ~base:1e-5 ~seed:9 () in
  List.iter
    (fun domains ->
      let got = Batch.map ~domains ~retries:1 ~backoff tasks in
      Alcotest.(check bool)
        (Printf.sprintf "backoff run equals clean run at %d domains" domains)
        true (got = clean))
    [ 1; 2; 4 ]

(* A negative retry count is the caller's error: every entry point raises
   it before it makes a pool or pulls the producer, so no task runs at any
   domain count. Raised inside a task, the pool used to swallow it and
   report the task as never run. *)
let test_negative_retries_rejected () =
  let ran = Atomic.make 0 and pulled = ref 0 in
  let task () =
    Atomic.incr ran;
    1
  in
  let rejects what f =
    Alcotest.check_raises what (Invalid_argument "Engine.Batch: retries < 0") (fun () ->
        ignore (f ()))
  in
  List.iter
    (fun domains ->
      let at what = Printf.sprintf "%s at %d domains" what domains in
      rejects (at "map") (fun () -> Batch.map ~domains ~retries:(-1) [| task |]);
      rejects (at "run") (fun () -> Batch.run ~retries:(-1) ~index:0 task);
      Pool.with_pool ~domains (fun pool ->
          rejects (at "stream_seq") (fun () ->
              Batch.stream_seq pool ~retries:(-1)
                (fun i ->
                  incr pulled;
                  if i = 0 then Some task else None)
                ~f:(fun _ _ -> ()))))
    [ 1; 2 ];
  Alcotest.(check int) "producer never pulled" 0 !pulled;
  Alcotest.(check int) "no task ran" 0 (Atomic.get ran)

let suite =
  ( "engine",
    [
      test_batch_deterministic;
      Alcotest.test_case "error capture leaves pool usable" `Quick test_error_capture_and_reuse;
      Alcotest.test_case "stream_seq ordered fold" `Quick test_ordered_fold;
      Alcotest.test_case "stream emits in order" `Quick test_stream_ordered;
      test_stream_seq_matches_map;
      Alcotest.test_case "stream_seq window bound + ordering" `Quick test_stream_seq_window_bound;
      Alcotest.test_case "run_ordered_seq values, None on raise, wide window" `Quick
        test_run_ordered_seq_values;
      Alcotest.test_case "stream_seq full-chunk pulls in steady state" `Quick
        test_stream_seq_full_chunks;
      Alcotest.test_case "stream_seq bounded memory (100k specs)" `Quick test_stream_seq_bounded_memory;
      Alcotest.test_case "backoff retries stay byte-identical" `Quick
        test_backoff_byte_identity;
      Alcotest.test_case "negative retries rejected before any task" `Quick
        test_negative_retries_rejected;
      Alcotest.test_case "pool basics" `Quick test_pool_basics;
      Alcotest.test_case "clock time_it/best_of" `Quick test_clock;
      Alcotest.test_case "rng create2" `Quick test_rng_create2;
    ] )
