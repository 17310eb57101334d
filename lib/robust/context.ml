type t = {
  index : int;
  attempt : int;
  cancel : Cancel.t;
  hits : (string, int) Hashtbl.t;
}

(* The scope slot is domain-local: each pool worker domain sees only the
   task it is running. *)
let key =
  (Domain.DLS.new_key (fun () -> None)
  [@sos.allow
    "A1: Robust.Context is the sanctioned DLS chokepoint; the slot holds the running task's \
     scope, re-derived deterministically per task, never from domain identity"])

let get () =
  (Domain.DLS.get key
  [@sos.allow
    "A1: Robust.Context is the sanctioned DLS chokepoint; the slot holds the running task's \
     scope, re-derived deterministically per task, never from domain identity"])

let set v =
  (Domain.DLS.set key v
  [@sos.allow
    "A1: Robust.Context is the sanctioned DLS chokepoint; the slot holds the running task's \
     scope, re-derived deterministically per task, never from domain identity"])

(* Process-wide count of live scopes: lets [poll]/[current] short-circuit
   to a single atomic load when no batch is running anywhere. *)
let active = Atomic.make 0

let make ~index ~attempt ~cancel = { index; attempt; cancel; hits = Hashtbl.create 4 }

let with_ctx ctx f =
  let prev = get () in
  set (Some ctx);
  Atomic.incr active;
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr active;
      set prev)
    f

let current () = if Atomic.get active = 0 then None else get ()

let index () = match current () with Some c -> c.index | None -> -1
let attempt () = match current () with Some c -> c.attempt | None -> 0

let poll () =
  if Atomic.get active > 0 then
    match get () with None -> () | Some c -> Cancel.check c.cancel
