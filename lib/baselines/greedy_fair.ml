open Sos

type running = { job : int; req : int; mutable remaining : int }

(* Integer water-filling: jobs ascending by requirement; each gets
   min(req, fair share of what is left). *)
let water_fill budget jobs =
  let jobs = List.sort (fun a b -> compare (a.req, a.job) (b.req, b.job)) jobs in
  let rec go budget count acc = function
    | [] -> List.rev acc
    | r :: rest ->
        let fair = budget / count in
        let give = min r.req fair in
        go (budget - give) (count - 1) ((r, give) :: acc) rest
  in
  go budget (List.length jobs) [] jobs

let run inst =
  let n = Instance.n inst in
  let scale = inst.Instance.scale and m = inst.Instance.m in
  let next = ref 0 in
  let running = ref [] in
  let cols = Schedule.Columns.create inst in
  (* Admit at most min(m, scale) jobs so water-filling can always hand every
     running job at least one unit (keeps runs contiguous). *)
  let slots = min m scale in
  let admit () =
    while !next < n && List.length !running < slots do
      let j = !next in
      let r = { job = j; req = min inst.Instance.req.(j) scale; remaining = Instance.s inst j } in
      running := r :: !running;
      incr next
    done
  in
  admit ();
  while !running <> [] do
    let shares = water_fill scale !running in
    (* The allocation is constant until the next completion: jump there. *)
    let k =
      List.fold_left
        (fun acc (r, give) ->
          if give <= 0 then acc else min acc (((r.remaining - 1) / give) + 1))
        max_int shares
    in
    let k = if k = max_int then 1 else k in
    if k > 1 then begin
      let allocs =
        List.filter_map
          (fun (r, give) ->
            if give <= 0 then None
            else Some { Schedule.job = r.job; assigned = give; consumed = give })
          shares
      in
      Schedule.Columns.add_block cols ~repeat:(k - 1) allocs;
      List.iter (fun (r, give) -> r.remaining <- r.remaining - ((k - 1) * give)) shares
    end;
    let allocs =
      List.filter_map
        (fun (r, give) ->
          if give <= 0 then None
          else begin
            let consumed = min give r.remaining in
            r.remaining <- r.remaining - consumed;
            Some { Schedule.job = r.job; assigned = give; consumed }
          end)
        shares
    in
    Schedule.Columns.add_block cols ~repeat:1 allocs;
    running := List.filter (fun r -> r.remaining > 0) !running;
    admit ()
  done;
  cols
