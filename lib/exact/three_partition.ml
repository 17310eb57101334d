module Rng = Prelude.Rng

type t = { numbers : int array; target : int; q : int }

let in_range target a = 4 * a > target && 2 * a < target

let create_checked numbers_list =
  let numbers = Array.of_list numbers_list in
  let n = Array.length numbers in
  if n = 0 || n mod 3 <> 0 then Error "need 3q elements"
  else begin
    let q = n / 3 in
    let sum = Array.fold_left ( + ) 0 numbers in
    if sum mod q <> 0 then Error "sum not divisible by q"
    else begin
      let target = sum / q in
      if Array.exists (fun a -> not (in_range target a)) numbers then
        Error "element outside (target/4, target/2)"
      else Ok { numbers; target; q }
    end
  end

let create numbers_list =
  match create_checked numbers_list with
  | Ok t -> t
  | Error msg -> invalid_arg ("Three_partition.create: " ^ msg)

let solvable t =
  (* Take the largest unused number, try all pairs completing its triple. *)
  let numbers = Array.copy t.numbers in
  Array.sort (fun a b -> compare b a) numbers;
  let n = Array.length numbers in
  let used = Array.make n false in
  let rec solve remaining =
    if remaining = 0 then true
    else begin
      let first =
        let rec find i = if used.(i) then find (i + 1) else i in
        find 0
      in
      used.(first) <- true;
      let need = t.target - numbers.(first) in
      let rec pairs i =
        if i >= n then false
        else if used.(i) then pairs (i + 1)
        else begin
          let rec partner j =
            if j >= n then false
            else if used.(j) || numbers.(i) + numbers.(j) <> need then partner (j + 1)
            else begin
              used.(i) <- true;
              used.(j) <- true;
              let ok = solve (remaining - 3) in
              used.(i) <- false;
              used.(j) <- false;
              ok
            end
          in
          if numbers.(i) < need && partner (i + 1) then true else pairs (i + 1)
        end
      in
      let ok = pairs (first + 1) in
      used.(first) <- false;
      ok
    end
  in
  solve n

let to_binpack t =
  Binpack.Packing.instance ~k:3 ~capacity:(4 * t.target)
    (Array.to_list (Array.map (fun a -> t.target + a) t.numbers))

let to_binpack_k2 t =
  Binpack.Packing.instance ~k:2 ~capacity:(9 * t.target)
    (Array.to_list (Array.map (fun a -> (4 * t.target) + (6 * a)) t.numbers))

let k2_gap t = 2 * t.q

let to_sos t =
  Sos.Instance.create ~m:3 ~scale:(4 * t.target)
    (Array.to_list (Array.map (fun a -> (1, t.target + a)) t.numbers))

let yes_gap t = t.q

let random_yes rng ~q ~target =
  if target < 8 then invalid_arg "Three_partition.random_yes: target too small";
  let lo = (target / 4) + 1 in
  let hi = ((target + 1) / 2) - 1 in
  if lo > hi then invalid_arg "Three_partition.random_yes: empty range";
  let rec triple attempts =
    if attempts > 10_000 then
      invalid_arg "Three_partition.random_yes: no legal triple found"
    else begin
      let a = Rng.int_in rng lo hi and b = Rng.int_in rng lo hi in
      let c = target - a - b in
      if c >= lo && c <= hi then [ a; b; c ] else triple (attempts + 1)
    end
  in
  let numbers = List.concat (List.init q (fun _ -> triple 0)) in
  create numbers
