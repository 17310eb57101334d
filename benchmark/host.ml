(* Host facts recorded with every result: a number measured on a host
   with one effective core says nothing about a multicore one. *)

(* CPU-bound loop for the effective-core probe (run as `sosbench spin`). *)
let spin () =
  let x = ref 0 in
  for i = 1 to 300_000_000 do
    x := (!x * 31) + i
  done;
  Sys.opaque_identity !x

(* The two-process probe: the wall time of one spinning child against
   two at once. One effective core makes two take twice as long. *)
let effective_cores ~self =
  let run k =
    let t0 = Mclock.now_ns () in
    let null = Proc.devnull_in () in
    let pids =
      List.init k (fun _ -> Proc.spawn ~prog:self ~args:[ "spin" ] ~stdin:null ~stdout:Unix.stdout ~stderr:Unix.stderr)
    in
    Unix.close null;
    List.iter (fun pid -> ignore (Proc.waitpid_retry [] pid)) pids;
    Mclock.s_of_ns (Mclock.now_ns () - t0)
  in
  let one = run 1 in
  let two = run 2 in
  2.0 *. one /. two

(* The checkout's commit, read from .git/ directly: `git rev-parse` would
   search the parent directories of a checkout that has no .git. *)
let commit () =
  let read path =
    match In_channel.with_open_text path In_channel.input_all with
    | text -> Some (String.trim text)
    | exception Sys_error _ -> None
  in
  let packed name =
    Option.bind (read ".git/packed-refs") (fun text ->
        List.find_map
          (fun line -> match String.split_on_char ' ' line with [ hash; n ] when n = name -> Some hash | _ -> None)
          (String.split_on_char '\n' text))
  in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head ->
      let name = String.sub head 5 (String.length head - 5) in
      Option.value ~default:"unknown" (match read (".git/" ^ name) with Some h -> Some h | None -> packed name)
  | Some hash -> hash
  | None -> "unknown"

(* Probed afresh for every results file (about a second), after the
   measurement it describes, so a busy host shows in the file it slowed. *)
let facts ~self =
  let eff = effective_cores ~self in
  let nproc =
    match Option.bind (Proc.capture "nproc" []) int_of_string_opt with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  Report.Obj
    [
      ("nproc", Report.Int nproc);
      ("effective_cores", Report.Float eff);
      ("ocaml", Report.Str Sys.ocaml_version);
      ("commit", Report.Str (commit ()));
    ]
