type t = {
  m : int;
  scale : int;
  jobs : Job.t array;
  original : int array;
}

let create ~m ~scale specs =
  if m < 2 then invalid_arg "Instance.create: need m >= 2";
  if scale < 1 then invalid_arg "Instance.create: need scale >= 1";
  let tagged =
    List.mapi (fun pos (size, req) -> (pos, Job.v ~id:pos ~size ~req)) specs
  in
  let arr = Array.of_list tagged in
  Array.sort (fun (_, a) (_, b) -> Job.compare_req a b) arr;
  let jobs =
    Array.mapi (fun i (_, j) -> Job.v ~id:i ~size:j.Job.size ~req:j.Job.req) arr
  in
  let original = Array.map fst arr in
  { m; scale; jobs; original }

let of_floats ~m ~scale specs =
  let quantize f =
    if not (Float.is_finite f) || f <= 0.0 then
      invalid_arg "Instance.of_floats: requirement must be positive and finite";
    let units = int_of_float (Float.round (f *. float_of_int scale)) in
    max 1 units
  in
  create ~m ~scale (List.map (fun (size, f) -> (size, quantize f)) specs)

let n t = Array.length t.jobs

let job t i =
  if i < 0 || i >= Array.length t.jobs then invalid_arg "Instance.job: index";
  t.jobs.(i)

let total_volume t = Array.fold_left (fun acc j -> acc + j.Job.size) 0 t.jobs
let total_requirement t = Array.fold_left (fun acc j -> acc + Job.s j) 0 t.jobs
let sum_req t = Array.fold_left (fun acc j -> acc + j.Job.req) 0 t.jobs
let max_size t = Array.fold_left (fun acc j -> max acc j.Job.size) 0 t.jobs
let unit_size t = Array.for_all (fun j -> j.Job.size = 1) t.jobs

let rescale t c =
  if c < 1 then invalid_arg "Instance.rescale: factor must be >= 1";
  {
    t with
    scale = t.scale * c;
    jobs = Array.map (fun j -> { j with Job.req = j.Job.req * c }) t.jobs;
  }

let restrict_m t m =
  if m < 2 then invalid_arg "Instance.restrict_m: need m >= 2";
  { t with m }

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "sos %d %d %d\n" t.m t.scale (n t));
  Array.iteri
    (fun i j ->
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d\n" t.original.(i) j.Job.size j.Job.req))
    t.jobs;
  Buffer.contents buf

(* Shared parser behind of_string (raising) and of_string_checked
   (Result): text -> (m, scale, caller-ordered specs). The position
   column must be a permutation of 0..n-1: each job is written into its
   position's slot, and a position out of range or seen before is
   rejected, so with n lines every slot is filled exactly once. *)
let parse_text str =
  let lines =
    String.split_on_char '\n' str
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  match lines with
  | [] -> Error "Instance.of_string: empty input"
  | header :: rest -> begin
      match String.split_on_char ' ' header with
      | [ "sos"; m; scale; count ] -> begin
          match (int_of_string_opt m, int_of_string_opt scale, int_of_string_opt count) with
          | Some m, Some scale, Some count ->
              if List.length rest <> count then
                Error "Instance.of_string: job count mismatch"
              else begin
                let slots = Array.make count (0, 0) in
                let seen = Array.make count false in
                let bad pos why =
                  Error
                    (Printf.sprintf
                       "Instance.of_string: position %d %s; positions must be a permutation \
                        of 0..%d"
                       pos why (count - 1))
                in
                let rec go = function
                  | [] -> Ok (m, scale, Array.to_list slots)
                  | line :: rest -> begin
                      match String.split_on_char ' ' line with
                      | [ pos; size; req ] -> begin
                          match
                            (int_of_string_opt pos, int_of_string_opt size, int_of_string_opt req)
                          with
                          | Some pos, Some size, Some req ->
                              if pos < 0 || pos >= count then bad pos "out of range"
                              else if seen.(pos) then bad pos "repeated"
                              else begin
                                seen.(pos) <- true;
                                slots.(pos) <- (size, req);
                                go rest
                              end
                          | _ -> Error "Instance.of_string: malformed job line"
                        end
                      | _ -> Error "Instance.of_string: malformed job line"
                    end
                in
                go rest
              end
          | _ -> Error "Instance.of_string: malformed header"
        end
      | _ -> Error "Instance.of_string: malformed header"
    end

let of_string str =
  match parse_text str with
  | Ok (m, scale, specs) -> create ~m ~scale specs
  | Error msg -> failwith msg

(* ------------------------------------------------- strict validation
   (doc/ROBUSTNESS.md). The checked constructors return structured
   Robust.Failure.invalid reasons instead of raising, and additionally
   guard the Equation (1) quantities against int overflow — an instance
   whose Σ p_j or Σ p_j·r_j exceeds max_int would make the lower bound
   silently negative. *)

let sum_checked f jobs =
  Array.fold_left
    (fun acc j ->
      match acc with
      | None -> None
      | Some a ->
          let v = f j in
          if v < 0 || a > max_int - v then None else Some (a + v))
    (Some 0) jobs

let validate ?(window = false) t =
  let open Robust.Failure in
  if window && t.m < 3 then Error (Too_few_processors { m = t.m; need = 3 })
  else begin
    let s_of (j : Job.t) = if j.size > max_int / j.req then -1 else j.size * j.req in
    match
      ( sum_checked (fun (j : Job.t) -> j.size) t.jobs,
        sum_checked s_of t.jobs,
        sum_checked (fun (j : Job.t) -> j.req) t.jobs )
    with
    | Some _, Some _, Some _ -> Ok t
    | None, _, _ -> Error (Overflow "total volume Σ p_j exceeds max_int")
    | _, None, _ -> Error (Overflow "total requirement Σ p_j·r_j exceeds max_int")
    | _, _, None -> Error (Overflow "Σ r_j exceeds max_int")
  end

let create_checked ?window ~m ~scale specs =
  let open Robust.Failure in
  if m < 2 then Error (Too_few_processors { m; need = 2 })
  else if scale < 1 then Error (Bad_scale scale)
  else begin
    let rec check i = function
      | [] -> Ok ()
      | (size, req) :: rest ->
          if size < 1 then Error (Nonpositive_size { job = i; size })
          else if req < 1 then Error (Nonpositive_req { job = i; req })
          else if size > max_int / req then
            Error (Overflow (Printf.sprintf "job %d: p_j·r_j = %d·%d exceeds max_int" i size req))
          else check (i + 1) rest
    in
    match check 0 specs with
    | Error _ as e -> e
    | Ok () -> validate ?window (create ~m ~scale specs)
  end

let of_floats_checked ?window ~m ~scale specs =
  let open Robust.Failure in
  let rec quantize i acc = function
    | [] -> Ok (List.rev acc)
    | (size, f) :: rest ->
        if not (Float.is_finite f) then Error (Not_finite { job = i; value = f })
        else if f <= 0.0 then
          (* the reason carries quantized units; a non-positive share is
             reported as 0 units (or min_int-safe floor would be noise) *)
          Error (Nonpositive_req { job = i; req = 0 })
        else
          let units = max 1 (int_of_float (Float.round (f *. float_of_int scale))) in
          quantize (i + 1) ((size, units) :: acc) rest
  in
  if scale < 1 then Error (Bad_scale scale)
  else
    match quantize 0 [] specs with
    | Error _ as e -> e
    | Ok q -> create_checked ?window ~m ~scale q

let of_string_checked ?window str =
  match parse_text str with
  | Ok (m, scale, specs) -> create_checked ?window ~m ~scale specs
  | Error msg -> Error (Robust.Failure.Malformed msg)

let pp ppf t =
  Format.fprintf ppf "@[<v>instance m=%d scale=%d n=%d@," t.m t.scale (n t);
  Array.iter (fun j -> Format.fprintf ppf "  %a@," Job.pp j) t.jobs;
  Format.fprintf ppf "@]"
