type instance = { k : int; capacity : int; sizes : int array }

let instance_checked ~k ~capacity sizes =
  if k < 1 then Error (Printf.sprintf "need k >= 1 (got %d)" k)
  else if capacity < 1 then Error (Printf.sprintf "need capacity >= 1 (got %d)" capacity)
  else
    match List.find_opt (fun s -> s <= 0) sizes with
    | Some s -> Error (Printf.sprintf "non-positive item size %d" s)
    | None -> Ok { k; capacity; sizes = Array.of_list sizes }

let instance ~k ~capacity sizes =
  match instance_checked ~k ~capacity sizes with
  | Ok inst -> inst
  | Error msg -> invalid_arg ("Packing.instance: " ^ msg)

type packing = (int * int) list list

let validate inst packing =
  let n = Array.length inst.sizes in
  let packed = Array.make n 0 in
  let rec check_bins idx = function
    | [] -> Ok ()
    | bin :: rest ->
        let total = List.fold_left (fun acc (_, a) -> acc + a) 0 bin in
        let items = List.map fst bin in
        let distinct = List.sort_uniq compare items in
        if List.exists (fun (_, a) -> a <= 0) bin then
          Error (Printf.sprintf "bin %d: non-positive part" idx)
        else if List.length distinct <> List.length items then
          Error (Printf.sprintf "bin %d: item split within one bin" idx)
        else if total > inst.capacity then
          Error (Printf.sprintf "bin %d: overfull (%d > %d)" idx total inst.capacity)
        else if List.length bin > inst.k then
          Error
            (Printf.sprintf "bin %d: cardinality violated (%d > k=%d)" idx
               (List.length bin) inst.k)
        else if List.exists (fun (i, _) -> i < 0 || i >= n) bin then
          Error (Printf.sprintf "bin %d: unknown item" idx)
        else begin
          List.iter (fun (i, a) -> packed.(i) <- packed.(i) + a) bin;
          check_bins (idx + 1) rest
        end
  in
  match check_bins 0 packing with
  | Error _ as e -> e
  | Ok () ->
      let rec check_items i =
        if i >= n then Ok ()
        else if packed.(i) <> inst.sizes.(i) then
          Error
            (Printf.sprintf "item %d: packed %d of %d units" i packed.(i) inst.sizes.(i))
        else check_items (i + 1)
      in
      check_items 0

let assert_valid inst packing =
  match validate inst packing with
  | Ok () -> ()
  | Error msg -> Robust.Failure.internal_error "%s" msg

let bins_used = List.length

let ceil_div a b = if a <= 0 then 0 else ((a - 1) / b) + 1

let lower_bound inst =
  let total = Array.fold_left ( + ) 0 inst.sizes in
  max (ceil_div total inst.capacity) (ceil_div (Array.length inst.sizes) inst.k)

let fragments packing =
  let parts = List.fold_left (fun acc bin -> acc + List.length bin) 0 packing in
  let items =
    List.sort_uniq compare (List.concat_map (List.map fst) packing) |> List.length
  in
  parts - items

let pp ppf packing =
  List.iteri
    (fun i bin ->
      Format.fprintf ppf "bin %d:" i;
      List.iter (fun (item, a) -> Format.fprintf ppf " %d:%d" item a) bin;
      Format.fprintf ppf "@.")
    packing
