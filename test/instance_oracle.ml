(* The list-based reference for [Sos.Instance]'s constructors and text
   decoder: the parser splits the text into trimmed, non-blank lines and
   each line into tokens, writes every job into its position's slot, and
   [create] sorts (position, job) pairs by (req, position). This is the
   code the library ran before it decoded in one pass into columns, kept
   as it was so the suite can check that the library accepts, rejects and
   reports exactly as it did. It shares no code with the library's
   instance: it has its own job record, checks and sort. An instance is
   returned as the text [Instance.to_string] would write for it. *)

type job = { size : int; req : int }
type built = { m : int; scale : int; sorted : (int * job) array }

let job ~size ~req =
  if size <= 0 then invalid_arg "Instance.create: size must be positive";
  if req <= 0 then invalid_arg "Instance.create: req must be positive";
  { size; req }

let build ~m ~scale specs =
  if m < 2 then invalid_arg "Instance.create: need m >= 2";
  if scale < 1 then invalid_arg "Instance.create: need scale >= 1";
  let arr = Array.of_list (List.mapi (fun pos (size, req) -> (pos, job ~size ~req)) specs) in
  Array.sort (fun (p, a) (q, b) -> compare (a.req, p) (b.req, q)) arr;
  { m; scale; sorted = arr }

let render b =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "sos %d %d %d\n" b.m b.scale (Array.length b.sorted));
  Array.iter
    (fun (pos, j) -> Buffer.add_string buf (Printf.sprintf "%d %d %d\n" pos j.size j.req))
    b.sorted;
  Buffer.contents buf

let create ~m ~scale specs = render (build ~m ~scale specs)

let sum_checked f jobs =
  Array.fold_left
    (fun acc (_, j) ->
      match acc with
      | None -> None
      | Some a ->
          let v = f j in
          if v < 0 || a > max_int - v then None else Some (a + v))
    (Some 0) jobs

let validate ?(window = false) b =
  let open Robust.Failure in
  if window && b.m < 3 then Error (Too_few_processors { m = b.m; need = 3 })
  else begin
    let s_of j = if j.size > max_int / j.req then -1 else j.size * j.req in
    match
      ( sum_checked (fun j -> j.size) b.sorted,
        sum_checked s_of b.sorted,
        sum_checked (fun j -> j.req) b.sorted )
    with
    | Some _, Some _, Some _ -> Ok (render b)
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
    | Ok () -> validate ?window (build ~m ~scale specs)
  end

(* text -> (m, scale, specs in position order) *)
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

let of_string_checked ?window str =
  match parse_text str with
  | Ok (m, scale, specs) -> create_checked ?window ~m ~scale specs
  | Error msg -> Error (Robust.Failure.Malformed msg)
