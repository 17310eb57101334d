open Sos

type order = By_requirement | By_volume_desc | By_total_req_desc

type running = {
  job : int;
  hold : int;  (* resource held every step: min(r_j, scale) *)
  mutable steps_left : int;
  mutable remaining : int;  (* s_j still to consume *)
}

let guarantee ~m =
  if m < 1 then invalid_arg "List_scheduling.guarantee: need m >= 1";
  3.0 -. (3.0 /. float_of_int m)

let run ?(order = By_requirement) inst =
  let n = Instance.n inst in
  let scale = inst.Instance.scale and m = inst.Instance.m in
  let ids = Array.init n Fun.id in
  (match order with
  | By_requirement -> ()
  | By_volume_desc ->
      Array.sort (fun a b -> compare (inst.Instance.size.(b), a) (inst.Instance.size.(a), b)) ids
  | By_total_req_desc ->
      Array.sort (fun a b -> compare (Instance.s inst b, a) (Instance.s inst a, b)) ids);
  let next = ref 0 in
  let running : running list ref = ref [] in
  let free_procs = ref m in
  let free_res = ref scale in
  let cols = Schedule.Columns.create inst in
  let try_start () =
    (* Scan the list head: start every not-yet-started job that fits. The
       list is a queue here (strict list scheduling starts jobs in order but
       may skip over jobs that do not fit). *)
    let rec scan i skipped =
      if i >= n then List.rev skipped
      else begin
        let j = ids.(i) in
        let hold = min inst.Instance.req.(j) scale in
        if !free_procs >= 1 && hold <= !free_res then begin
          free_procs := !free_procs - 1;
          free_res := !free_res - hold;
          let s = Instance.s inst j in
          let d = ((s - 1) / hold) + 1 in
          running := { job = j; hold; steps_left = d; remaining = s } :: !running;
          scan (i + 1) skipped
        end
        else scan (i + 1) (j :: skipped)
      end
    in
    (* Compact the not-yet-started jobs (in list order) at the tail. *)
    let pending = scan !next [] in
    let arr = Array.of_list pending in
    next := n - Array.length arr;
    Array.blit arr 0 ids !next (Array.length arr)
  in
  let emit_block reps =
    let allocs =
      List.rev_map
        (fun r ->
          { Schedule.job = r.job; assigned = r.hold; consumed = min r.hold r.remaining })
        !running
    in
    Schedule.Columns.add_block cols ~repeat:reps allocs;
    List.iter
      (fun r ->
        r.remaining <- r.remaining - (reps * min r.hold r.remaining);
        r.steps_left <- r.steps_left - reps)
      !running
  in
  try_start ();
  while !running <> [] do
    let k = List.fold_left (fun acc r -> min acc r.steps_left) max_int !running in
    (* Jump to just before the next completion, then take the finishing
       step on its own so under-consumption only happens there. *)
    if k > 1 then emit_block (k - 1);
    emit_block 1;
    let finished, alive = List.partition (fun r -> r.steps_left = 0) !running in
    List.iter
      (fun r ->
        assert (r.remaining = 0);
        free_procs := !free_procs + 1;
        free_res := !free_res + r.hold)
      finished;
    running := alive;
    try_start ()
  done;
  cols
