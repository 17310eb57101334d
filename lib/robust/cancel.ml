type t = {
  flag : bool Atomic.t;
  timeout : float option;  (* the armed duration, for the error payload *)
  deadline : float option;  (* absolute wall-clock expiry *)
  parent : t option;
}

let none = { flag = Atomic.make false; timeout = None; deadline = None; parent = None }

let create ?timeout ?parent () =
  (match timeout with
  | Some s when s <= 0.0 ->
      (invalid_arg "Robust.Cancel.create: timeout <= 0"
      [@sos.allow
        "R6: token-construction argument contract; the Failure taxonomy describes task \
         outcomes, not misuse of the resilience API itself"])
  | _ -> ());
  let deadline =
    Option.map
      (fun s ->
        (Prelude.Clock.now () [@sos.allow "A1: deadline arming reads the wall clock by design; cancellation timing never reaches solver output"])
        +. s)
      timeout
  in
  { flag = Atomic.make false; timeout; deadline; parent }

let cancel t = Atomic.set t.flag true

let rec cancelled t =
  Atomic.get t.flag || match t.parent with Some p -> cancelled p | None -> false

let rec check t =
  if Atomic.get t.flag then raise Failure.Cancel_requested;
  (match t.deadline with
  | Some d
    when (Prelude.Clock.now () [@sos.allow "A1: deadline check reads the wall clock by design; cancellation timing never reaches solver output"])
         >= d ->
      raise (Failure.Deadline (Option.value t.timeout ~default:0.0))
  | _ -> ());
  match t.parent with Some p -> check p | None -> ()
