type error = {
  index : int;
  message : string;
  failure : Robust.Failure.t;
  backtrace : string;
  attempts : int;
}

type 'a outcome = ('a, error) result

(* engine.batch.tasks counts attempts and engine.batch.errors final
   failures; both are deterministic: which attempts run and which fail
   depends only on the batch (and the armed chaos configuration, itself
   keyed by task index/attempt), never on the domain count. The per-class
   failure and retry counters are runtime-class (doc/OBSERVABILITY.md). *)
let c_tasks = Obs.Metrics.counter "engine.batch.tasks"
let c_errors = Obs.Metrics.counter "engine.batch.errors"
let c_retries = Obs.Metrics.runtime_counter "engine.batch.retries"
let c_invalid = Obs.Metrics.runtime_counter "engine.batch.fail.invalid_instance"
let c_task_exn = Obs.Metrics.runtime_counter "engine.batch.fail.task_exn"
let c_deadline = Obs.Metrics.runtime_counter "engine.batch.fail.deadline"
let c_cancelled = Obs.Metrics.runtime_counter "engine.batch.fail.cancelled"

let record_failure = function
  | Robust.Failure.Invalid_instance _ -> Obs.Metrics.incr c_invalid
  | Robust.Failure.Task_exn _ -> Obs.Metrics.incr c_task_exn
  | Robust.Failure.Deadline_exceeded _ -> Obs.Metrics.incr c_deadline
  | Robust.Failure.Cancelled -> Obs.Metrics.incr c_cancelled
  | Robust.Failure.Pool_crashed _ -> ()

let error_of ~index ~attempts failure bt =
  Obs.Metrics.incr c_errors;
  {
    index;
    message = Robust.Failure.message failure;
    failure;
    backtrace = (match bt with Some b -> Printexc.raw_backtrace_to_string b | None -> "");
    attempts;
  }

let never_ran index =
  {
    index;
    message = "task never ran";
    failure = Robust.Failure.Pool_crashed "task never ran";
    backtrace = "";
    attempts = 0;
  }

(* A negative retry count is the caller's error. Every entry point checks
   it before it creates a pool, pulls the producer or runs an attempt, so
   no task runs: raised inside a task thunk, the pool would swallow it. *)
let check_retries = function
  | Some retries when retries < 0 ->
      invalid_arg "Engine.Batch: retries < 0"
      [@sos.allow "R6: caller-side argument contract, rejected before the first attempt"]
  | _ -> ()

(* One task: run up to [1 + retries] attempts, each inside its own ambient
   scope carrying (index, attempt, cancel token). The per-attempt token
   owns the --task-timeout deadline and chains to the batch-wide [cancel]
   parent, so cooperative pollers (Robust.Context.poll in the solvers) see
   both. Retry is bounded and deterministic: the decision depends only on
   the failure class, and a task that re-derives randomness from
   (base seed, index, Robust.Context.attempt ()) — e.g. Rng.create3 —
   reproduces the same attempt sequence at any domain count. *)
let run ?retries ?task_timeout ?cancel ?backoff ~index task =
  check_retries retries;
  let retries = Option.value retries ~default:0 in
  let rec go attempt =
    if match cancel with Some c -> Robust.Cancel.cancelled c | None -> false then begin
      record_failure Robust.Failure.Cancelled;
      Error (error_of ~index ~attempts:attempt Robust.Failure.Cancelled None)
    end
    else begin
      Obs.Metrics.incr c_tasks;
      let token = Robust.Cancel.create ?timeout:task_timeout ?parent:cancel () in
      let ctx = Robust.Context.make ~index ~attempt ~cancel:token in
      match
        Robust.Context.with_ctx ctx (fun () ->
            Robust.Chaos.point "engine.batch.task";
            task ())
      with
      | v -> Ok v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          let failure = Robust.Failure.of_exn e bt in
          record_failure failure;
          if attempt < retries && Robust.Failure.transient failure then begin
            Obs.Metrics.incr c_retries;
            (* Deterministic jittered backoff before the retry: the delay
               is a pure function of (policy seed, index, attempt), so it
               never perturbs output bytes — only wall time — at any -j. *)
            (match backoff with
            | Some policy ->
                Robust.Backoff.sleep
                  (Robust.Backoff.delay policy ~index ~attempt:(attempt + 1))
            | None -> ());
            go (attempt + 1)
          end
          else Error (error_of ~index ~attempts:(attempt + 1) failure (Some bt))
    end
  in
  go 0

let window_size ~domains ~chunk = function
  | None -> 4 * domains * max 1 chunk
  | Some w -> max (max 1 chunk) w

(* Outcomes travel from worker to caller in the pool's window ring; [run]
   never raises, so a [None] from the pool is only a backstop for a task
   the pool machinery lost entirely. *)
let stream_seq pool ?(chunk = 1) ?window ?retries ?task_timeout ?cancel ?backoff producer ~f =
  check_retries retries;
  let chunk = max 1 chunk in
  let window = window_size ~domains:(Pool.domains pool) ~chunk window in
  Pool.run_ordered_seq pool ~chunk ~window
    (fun i ->
      Option.map
        (fun task () -> run ?retries ?task_timeout ?cancel ?backoff ~index:i task)
        (producer i))
    ~emit:(fun i -> function Some r -> f i r | None -> f i (Error (never_ran i)))

(* window = n: workers are never throttled by the consumer, which only
   stores each outcome. *)
let map ?domains ?chunk ?retries ?task_timeout ?cancel ?backoff tasks =
  check_retries retries;
  let n = Array.length tasks in
  let out = Array.init n (fun i -> Error (never_ran i)) in
  Pool.with_pool ?domains (fun pool ->
      ignore
        (stream_seq pool ?chunk ~window:n ?retries ?task_timeout ?cancel ?backoff
           (fun i -> if i < n then Some tasks.(i) else None)
           ~f:(fun i r -> out.(i) <- r)));
  out
