(* Entry-point telemetry for the Corollary 3.9 window packer
   (doc/OBSERVABILITY.md). *)
let c_runs = Obs.Metrics.counter "binpack.window.runs"
let c_items = Obs.Metrics.counter "binpack.window.items"
let c_bins = Obs.Metrics.counter "binpack.window.bins"
let h_pack = Obs.Metrics.runtime_hist "binpack.window.pack_s"

let next_fit_order order inst =
  let items = Array.mapi (fun i s -> (i, s)) inst.Packing.sizes in
  let items = Array.to_list items in
  let items =
    match order with
    | `Input -> items
    | `Decreasing -> List.sort (fun (_, a) (_, b) -> compare b a) items
    | `Increasing -> List.sort (fun (_, a) (_, b) -> compare a b) items
  in
  let capacity = inst.Packing.capacity and k = inst.Packing.k in
  (* bins built in reverse; the open bin is carried as (parts, used). *)
  let close bins bin = if bin = [] then bins else List.rev bin :: bins in
  let rec pour bins bin used parts item remaining =
    if remaining = 0 then (bins, bin, used, parts)
    else begin
      let room = capacity - used in
      if room = 0 || parts = k then
        pour (close bins bin) [] 0 0 item remaining
      else begin
        let amount = min room remaining in
        pour bins ((item, amount) :: bin) (used + amount) (parts + 1) item
          (remaining - amount)
      end
    end
  in
  let bins, bin, _, _ =
    List.fold_left
      (fun (bins, bin, used, parts) (item, size) ->
        let bins, bin, used, parts = pour bins bin used parts item size in
        (bins, bin, used, parts))
      ([], [], 0, 0) items
  in
  List.rev (close bins bin)

let next_fit inst = next_fit_order `Input inst
let next_fit_decreasing inst = next_fit_order `Decreasing inst
let next_fit_increasing inst = next_fit_order `Increasing inst

let first_fit_order order inst =
  let items = Array.to_list (Array.mapi (fun i s -> (i, s)) inst.Packing.sizes) in
  let items =
    match order with
    | `Input -> items
    | `Decreasing -> List.sort (fun (_, a) (_, b) -> compare b a) items
  in
  let capacity = inst.Packing.capacity and k = inst.Packing.k in
  (* bins as a growable array of (rev parts, used, count). *)
  let bins = ref [||] in
  let grow () =
    bins := Array.append !bins [| ([], 0, 0) |];
    Array.length !bins - 1
  in
  let place item remaining =
    let rec go b remaining =
      if remaining = 0 then ()
      else if b >= Array.length !bins then go (grow ()) remaining
      else begin
        let parts, used, count = !bins.(b) in
        let room = capacity - used in
        if room = 0 || count = k then go (b + 1) remaining
        else begin
          let amount = min room remaining in
          !bins.(b) <- ((item, amount) :: parts, used + amount, count + 1);
          go (b + 1) (remaining - amount)
        end
      end
    in
    go 0 remaining
  in
  List.iter (fun (item, size) -> place item size) items;
  Array.to_list (Array.map (fun (parts, _, _) -> List.rev parts) !bins)

let first_fit inst = first_fit_order `Input inst
let first_fit_decreasing inst = first_fit_order `Decreasing inst

let window inst =
  Obs.Metrics.time h_pack @@ fun () ->
  Obs.Metrics.incr c_runs;
  Obs.Metrics.add c_items (Array.length inst.Packing.sizes);
  let items =
    Array.to_list
      (Array.mapi (fun i s -> { Sos.Splittable.id = i; size = s }) inst.Packing.sizes)
  in
  let packing = Sos.Splittable.pack items ~size:inst.Packing.k ~budget:inst.Packing.capacity in
  Obs.Metrics.add c_bins (List.length packing);
  packing

let of_unit_schedule (c : Sos.Schedule.Columns.t) =
  (* Schedules address jobs by their sorted position; packings address the
     caller's original item order — translate via the instance's
     permutation. *)
  let original = c.inst.Sos.Instance.original in
  List.concat_map
    (fun b ->
      let bin = ref [] in
      for i = c.first.(b + 1) - 1 downto c.first.(b) do
        if c.consumed.(i) > 0 then bin := (original.(c.job.(i)), c.consumed.(i)) :: !bin
      done;
      List.init c.repeat.(b) (fun _ -> !bin))
    (List.init c.blocks Fun.id)

let guarantee_window ~k =
  if k < 2 then invalid_arg "Algorithms.guarantee_window: need k >= 2";
  1.0 +. (1.0 /. float_of_int (k - 1))

let guarantee_next_fit ~k =
  if k < 1 then invalid_arg "Algorithms.guarantee_next_fit: need k >= 1";
  2.0 -. (1.0 /. float_of_int k)
