(* Shared helpers for the test suites. *)

module Rng = Prelude.Rng

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:
      (Random.State.make [| 0x5eed |]
      [@sos.allow "R1: fixed-seed qcheck driver state, reproducible by construction"]
      [@sos.allow
        "A1: the literal seed makes the qcheck stream identical run to run; no wall-clock or \
         ambient entropy is involved"])
    (QCheck.Test.make ~count ~name gen prop)

(* Run [f] on [count] seeded random instances; the seed is reported on
   failure so a counterexample can be replayed. *)
let for_random_instances ?(count = 300) ?max_n ?max_m ?max_size ?scale name f =
  Alcotest.test_case name `Quick (fun () ->
      for seed = 1 to count do
        let rng = Rng.create (seed * 7919) in
        let inst = Workload.Sos_gen.random_instance rng ?max_n ?max_m ?max_size ?scale () in
        try f inst
        with e ->
          Alcotest.failf "%s: seed %d: %s\ninstance:\n%s" name seed
            (Printexc.to_string e) (Sos.Instance.to_string inst)
      done)

(* Substring check for asserting on diagnostic messages. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_valid ?preemption_ok sched =
  match Sos.Schedule.Columns.validate ?preemption_ok sched with
  | Ok () -> ()
  | Error v -> Alcotest.failf "invalid schedule at step %d: %s" v.at_step v.reason

(* The Fast solver's schedule, in a fresh store. *)
let solve ?variant inst = fst (Sos.Fast.run_columns ?variant inst)

(* The allocations of block [b], in order, as records. *)
let block_allocs (c : Sos.Schedule.Columns.t) b =
  List.init
    (c.first.(b + 1) - c.first.(b))
    (fun k ->
      let i = c.first.(b) + k in
      { Sos.Schedule.job = c.job.(i); assigned = c.assigned.(i); consumed = c.consumed.(i) })

(* The blocks as the list form, for structural comparisons. *)
let steps c = (Sos.Schedule.Columns.to_schedule c).steps

(* The dense reference the run-length-native analytics are checked
   against: every block replaced by [repeat] one-step copies. Θ(makespan),
   so only for moderate makespans. *)
let expand (c : Sos.Schedule.Columns.t) =
  let d = Sos.Schedule.Columns.create c.inst in
  for b = 0 to c.blocks - 1 do
    let allocs = block_allocs c b in
    for _ = 1 to c.repeat.(b) do
      Sos.Schedule.Columns.add_block d ~repeat:1 allocs
    done
  done;
  d

let instance_of_reqs ~m ~scale reqs =
  Sos.Instance.create ~m ~scale (List.map (fun r -> (1, r)) reqs)

(* The outcomes of [tasks], run as one stream on an existing [pool], in
   index order. The pool outlives the stream, so a test can drive it
   again or shut it down in between. *)
let stream_all pool tasks =
  let n = Array.length tasks in
  let out = Array.make n None in
  ignore
    (Engine.Batch.stream_seq pool
       (fun i -> if i < n then Some tasks.(i) else None)
       ~f:(fun i r -> out.(i) <- Some r));
  Array.map Option.get out

(* Run [f] with SIGPIPE ignored, so a write to a reader that is gone
   fails with EPIPE instead of killing the test process. *)
let with_sigpipe_ignored f =
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev) f

(* Run [read] on the read end of a pipe that another domain fills with
   [text] in writes of the given sizes, cycled, so the reader meets the
   bytes split at arbitrary points. *)
let read_through_pipe text sizes read =
  with_sigpipe_ignored @@ fun () ->
  let r, w = Unix.pipe ~cloexec:true () in
  let sizes = Array.of_list sizes in
  let writer =
    Domain.spawn (fun () ->
        let rec go pos i =
          if pos < String.length text then begin
            let k = min sizes.(i mod Array.length sizes) (String.length text - pos) in
            go (pos + Unix.write_substring w text pos k) (i + 1)
          end
        in
        Fun.protect
          ~finally:(fun () -> Unix.close w)
          (fun () -> try go 0 0 with Unix.Unix_error _ -> ()))
  in
  let ic = Unix.in_channel_of_descr r in
  Fun.protect
    ~finally:(fun () ->
      close_in_noerr ic;
      Domain.join writer)
    (fun () -> read ic)

(* 0-300 random bytes for parser fuzzing, biased toward printable text,
   digits and the [specials] the parser splits on. *)
let fuzz_bytes specials =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [ (3, char); (3, char_range ' ' '~'); (2, char_range '0' '9'); (2, oneofl specials) ])
      (int_range 0 300))

(* [prop] holds on each fuzz input [prefix ^ body], where [body] is
   {!fuzz_bytes} and [prefix] is one of [prefixes]; an exception fails
   it. *)
let fuzz ?(count = 500) name ~prefixes ~specials prop =
  qcheck ~count name
    QCheck.(
      make
        ~print:(fun (p, b) -> Printf.sprintf "%S" (p ^ b))
        Gen.(pair (oneofl prefixes) (fuzz_bytes specials)))
    (fun (prefix, body) ->
      match prop (prefix ^ body) with
      | ok -> ok
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

