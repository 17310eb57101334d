(* Domain.spawn worker pool. See pool.mli. *)

[@@@sos.allow
  "R3: idle workers block on not_empty and the caller on its window ring's head; Condition has \
   no Atomic replacement short of burning a core spinning. This file is the one sanctioned \
   Mutex user — determinism is preserved because results are emitted by submission index, \
   never completion order (doc/LINT.md)."]

type task = unit -> unit

type t = {
  domains : int;
  queue : task Queue.t;
  lock : Mutex.t;
  not_empty : Condition.t;
  mutable stop : bool;
  mutable alive : int;  (* workers still in their loop; bounds chaos deaths *)
  mutable workers : unit Domain.t list;
}

(* Telemetry (doc/OBSERVABILITY.md). [engine.pool.tasks] counts run-indices
   executed — the same total at any domain count, so it is deterministic;
   queue depth, queue latency, and per-domain task counts depend on
   scheduling and are runtime-class. *)
let c_tasks = Obs.Metrics.counter "engine.pool.tasks"
let g_queue_hwm = Obs.Metrics.runtime_counter "engine.pool.queue_hwm"
let h_queue_wait = Obs.Metrics.runtime_hist "engine.pool.queue_wait_s"

(* Streaming-window distribution telemetry (runtime class): how long each
   producer pull takes on the caller thread, and how full the in-flight
   window is at the moment of each pull — a window that samples near its
   capacity means the producer keeps the workers fed. *)
let h_pull = Obs.Metrics.runtime_hist "engine.pool.pull_s"

let h_occupancy =
  Obs.Metrics.runtime_hist
    ~bounds:(Obs.Metrics.log_bounds ~lo:1.0 ~hi:65536.0 ~per_decade:5)
    "engine.pool.window_occupancy"

let domain_counter w = Obs.Metrics.runtime_counter (Printf.sprintf "engine.pool.d%d.tasks" w)
let g_deaths = Obs.Metrics.runtime_counter "engine.pool.worker_deaths"

let recommended_domain_count () = Domain.recommended_domain_count ()

(* Chaos site "engine.pool.worker": fires between dequeues (the worker
   holds no task), simulating an asynchronous worker death. The pool
   survives any number of injected deaths because the last live worker
   refuses to die — the queue always keeps at least one consumer, so
   run_ordered_seq still completes and results stay ordered (tested in
   suite_robust). *)
let chaos_death t =
  match Robust.Chaos.point "engine.pool.worker" with
  | () -> false
  | exception Robust.Chaos.Injected _ ->
      Mutex.lock t.lock;
      let die = t.alive > 1 in
      if die then t.alive <- t.alive - 1;
      Mutex.unlock t.lock;
      if die then Obs.Metrics.incr g_deaths;
      die

(* [w] is the worker's index, used as the Chrome trace track id (tid w+1;
   the caller thread is track 0) and for the per-domain runtime counter. *)
let rec worker_loop t w dc =
  if Robust.Chaos.armed () && chaos_death t then ()
  else worker_iteration t w dc

and worker_iteration t w dc =
  Mutex.lock t.lock;
  (while Queue.is_empty t.queue && not t.stop do
     Condition.wait t.not_empty t.lock
   done)
  [@sos.allow
    "A2: idle wait, not work; shutdown sets [stop] under the lock and broadcasts [not_empty], \
     so the wait always wakes"];
  if Queue.is_empty t.queue then Mutex.unlock t.lock (* stopping, drained *)
  else begin
    let task = Queue.pop t.queue in
    Mutex.unlock t.lock;
    Obs.Metrics.incr dc;
    (try
       if Obs.Trace.active () then
         Obs.Trace.with_span ~tid:(w + 1) ~cat:"pool" "pool.task" task
       else task ()
     with _ -> ());
    worker_loop t w dc
  end

let create ?domains () =
  let domains =
    match domains with
    | None -> recommended_domain_count ()
    | Some d when d >= 1 -> d
    | Some d ->
        (invalid_arg (Printf.sprintf "Engine.Pool.create: domains = %d" d)
        [@sos.allow
          "R6: construction-time argument contract, outside any solve loop; suite_engine pins \
           the Invalid_argument behaviour"])
  in
  let t =
    {
      domains;
      queue = Queue.create ();
      lock = Mutex.create ();
      not_empty = Condition.create ();
      stop = false;
      alive = 0;
      workers = [];
    }
  in
  if domains > 1 then begin
    t.alive <- domains;
    t.workers <-
      List.init domains (fun w ->
          Domain.spawn (fun () ->
              if Obs.Trace.active () then
                Obs.Trace.set_thread_name ~tid:(w + 1) (Printf.sprintf "domain-%d" w);
              worker_loop t w (domain_counter w)))
  end;
  t

let domains t = t.domains

(* No capacity check: [run_ordered_seq] is the only submitter, and its
   window bounds what it queues. *)
let submit t task =
  (* Stamp the enqueue time only when someone is listening: the histogram
     records how long the task sat in the queue before a worker picked it
     up. *)
  let task =
    if Obs.Metrics.enabled () then begin
      let waited = Obs.Metrics.stamp h_queue_wait in
      fun () ->
        waited ();
        task ()
    end
    else task
  in
  Mutex.lock t.lock;
  if t.stop then begin
    Mutex.unlock t.lock;
    raise (Robust.Failure.Pool_down "Engine.Pool: submit after shutdown")
  end;
  Queue.push task t.queue;
  Obs.Metrics.record_max g_queue_hwm (Queue.length t.queue);
  Condition.signal t.not_empty;
  Mutex.unlock t.lock

(* A window slot: [Empty] until its task has run, then the task's value,
   or [None] where its thunk raised. *)
type 'a slot = Empty | Ran of 'a option

(* The windowed streaming driver. Values travel from the workers to the
   caller through a ring of [window] slots: task [i] fills slot
   [i mod window] and [emit i] empties it. The slot is reused by task
   [i + window], which cannot be supplied before task [i] was emitted
   (the in-flight bound), so a value is never overwritten unread. *)
let run_ordered_seq t ?(chunk = 1) ~window supply ~emit =
  if t.stop then
    raise (Robust.Failure.Pool_down "Engine.Pool: run_ordered_seq after shutdown");
  let chunk = max 1 chunk in
  let run f =
    Obs.Metrics.incr c_tasks;
    try Some (f ()) with _ -> None
  in
  if t.workers = [] then begin
    (* The exact sequential path: pull, run, emit, one index at a time. *)
    (let rec go i =
       match supply i with
       | None -> i
       | Some f ->
           emit i (run f);
           go (i + 1)
     in
     go 0)
    [@sos.allow
      "A2: one call per supplied task; ends when [supply] returns [None], which a cancelled \
       batch's producer does. Each task polls its own cancel token in its attempt scope"]
  end
  else begin
    (* Below [chunk], the emit branch would have nothing to wait on. *)
    let window = max chunk window in
    let ring = Array.make window Empty in
    let lock = Mutex.create () in
    let ready = Condition.create () in
    let fill lo values =
      Mutex.lock lock;
      Array.iteri (fun j v -> ring.((lo + j) mod window) <- Ran v) values;
      Condition.broadcast ready;
      Mutex.unlock lock
    in
    (* Empty task [i]'s slot, first waiting for its value if [wait]. *)
    let take i ~wait =
      let k = i mod window in
      Mutex.lock lock;
      (while wait && (match ring.(k) with Empty -> true | Ran _ -> false) do
         Condition.wait ready lock
       done)
      [@sos.allow
        "A2: head wait; ends when the chunk holding the head fills its slot and broadcasts \
         [ready]. A chunk fills its slots even where a thunk raises, and the last live worker \
         never dies, so every submitted chunk runs"];
      let slot = ring.(k) in
      ring.(k) <- Empty;
      Mutex.unlock lock;
      slot
    in
    let next_submit = ref 0 in
    let next_emit = ref 0 in
    let exhausted = ref false in
    (* Pull up to [k] thunks from the producer, caller-side. *)
    let pull k =
      let acc = ref [] in
      let cnt = ref 0 in
      (while !cnt < k && not !exhausted do
         match supply (!next_submit + !cnt) with
         | None -> exhausted := true
         | Some f ->
             acc := f :: !acc;
             incr cnt
       done)
      [@sos.allow "A2: at most [k] pulls; each one adds a thunk or ends the stream"];
      Array.of_list (List.rev !acc)
    in
    (* Submit only when a full chunk of window space is free, and drain
       every ready value before submitting again. Emitting one task per
       iteration would free a single slot at a time, degrading every
       steady-state pull to min(chunk, 1) = 1 thunk — chunk-fold more
       submit/lock/signal round trips than the chunking contract promises.
       [window >= chunk] (clamped above) guarantees the emit branch always
       has at least one in-flight task to wait on. *)
    (while (not !exhausted) || !next_emit < !next_submit do
       let inflight = !next_submit - !next_emit in
       if (not !exhausted) && window - inflight >= chunk then begin
         Obs.Metrics.hist_observe_int h_occupancy inflight;
         let thunks = Obs.Metrics.time h_pull (fun () -> pull chunk) in
         let k = Array.length thunks in
         if k > 0 then begin
           let lo = !next_submit in
           next_submit := lo + k;
           submit t (fun () -> fill lo (Array.map run thunks))
         end
       end
       else
         (* Emit the head once it has run, then every value ready behind it. *)
         (let rec drain ~wait =
            if !next_emit < !next_submit then
              match take !next_emit ~wait with
              | Empty -> ()
              | Ran v ->
                  emit !next_emit v;
                  incr next_emit;
                  drain ~wait:false
          in
          drain ~wait:true)
         [@sos.allow
           "A2: at most [window] emits; ends at the first slot not yet filled or once every \
            submitted task is emitted"]
     done)
    [@sos.allow
      "A2: each pass submits a chunk, ends the stream, or emits the head; ends once [supply] has \
       returned [None] and every submitted task is emitted. A cancelled batch's producer stops \
       supplying, and each task polls its own cancel token in its attempt scope"];
    !next_emit
  end

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.not_empty;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
