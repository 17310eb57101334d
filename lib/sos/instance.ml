type t = {
  m : int;
  scale : int;
  size : int array;
  req : int array;
  original : int array;
}

(* Caller position [a] comes before [b] in the instance: by requirement,
   ties by position. Positions differ, so the order is strict and total,
   and every correct sort gives the same result. [req] is typed so that
   these are integer comparisons, not calls to the generic compare. *)
let before (req : int array) a b = req.(a) < req.(b) || (req.(a) = req.(b) && a < b)

(* Merges the sorted runs [src.(lo..mid-1)] and [src.(mid..hi-1)] into
   [dst.(lo..hi-1)]. *)
let merge req src dst lo mid hi =
  let i = ref lo and j = ref mid in
  for k = lo to hi - 1 do
    if !j >= hi || (!i < mid && before req src.(!i) src.(!j)) then begin
      dst.(k) <- src.(!i);
      incr i
    end
    else begin
      dst.(k) <- src.(!j);
      incr j
    end
  done

(* A bottom-up merge sort of [order] by {!before}, through one scratch
   array and with no closure: [Array.stable_sort] builds one per merge,
   a few words a job. Pass k merges runs of width 2^k; a pass runs while
   the width is below n, so at most 62 of them on 63-bit ints. *)
let sort req order =
  let n = Array.length order in
  let src = ref order and dst = ref (Array.make n 0) in
  for k = 0 to 61 do
    let width = 1 lsl k in
    if width < n then begin
      for run = 0 to (n - 1) / (2 * width) do
        let lo = 2 * width * run in
        let mid = Int.min n (lo + width) in
        merge req !src !dst lo mid (Int.min n (mid + width))
      done;
      let sorted = !dst in
      dst := !src;
      src := sorted
    end
  done;
  if !src != order then Array.blit !src 0 order 0 n

(* The one constructor. [size.(p)] and [req.(p)] are the job at caller
   position p, for p < n = Array.length order, and callers have checked
   that they are positive. [order] holds the positions 0..n-1 in the
   order the jobs came. It is sorted in place by {!before}, unless an
   O(n) scan finds it in that order already: the order [to_string]
   writes, so decoding a generated file sorts nothing. Sorted, it is the
   instance's [original], and the columns are read through it. *)
let assemble ~m ~scale ~order ~size ~req =
  let n = Array.length order in
  let in_order = ref true in
  for k = 1 to n - 1 do
    if before req order.(k) order.(k - 1) then in_order := false
  done;
  if not !in_order then sort req order;
  let sorted_size = Array.make n 0 and sorted_req = Array.make n 0 in
  for i = 0 to n - 1 do
    let p = order.(i) in
    sorted_size.(i) <- size.(p);
    sorted_req.(i) <- req.(p)
  done;
  { m; scale; size = sorted_size; req = sorted_req; original = order }

let check_shape ~m ~scale =
  if m < 2 then invalid_arg "Instance.create: need m >= 2";
  if scale < 1 then invalid_arg "Instance.create: need scale >= 1"

(* The per-job checks, by caller position, the first failure winning. *)
let check_jobs ~size ~req n =
  for p = 0 to n - 1 do
    if size.(p) <= 0 then invalid_arg "Instance.create: size must be positive";
    if req.(p) <= 0 then invalid_arg "Instance.create: req must be positive"
  done

let of_columns ~m ~scale ~size ~req =
  let n = Array.length size in
  if Array.length req <> n then invalid_arg "Instance.of_columns: columns differ in length";
  check_shape ~m ~scale;
  check_jobs ~size ~req n;
  assemble ~m ~scale ~order:(Array.init n Fun.id) ~size ~req

let create ~m ~scale specs =
  let n = List.length specs in
  let size = Array.make n 0 and req = Array.make n 0 in
  List.iteri
    (fun p (sz, r) ->
      size.(p) <- sz;
      req.(p) <- r)
    specs;
  of_columns ~m ~scale ~size ~req

let of_floats ~m ~scale specs =
  let quantize f =
    if not (Float.is_finite f) || f <= 0.0 then
      invalid_arg "Instance.of_floats: requirement must be positive and finite";
    let units = int_of_float (Float.round (f *. float_of_int scale)) in
    max 1 units
  in
  create ~m ~scale (List.map (fun (size, f) -> (size, quantize f)) specs)

let n t = Array.length t.size
let s t i = t.size.(i) * t.req.(i)
let total_volume t = Array.fold_left ( + ) 0 t.size

let total_requirement t =
  let acc = ref 0 in
  for i = 0 to n t - 1 do
    acc := !acc + s t i
  done;
  !acc

let sum_req t = Array.fold_left ( + ) 0 t.req
let max_size t = Array.fold_left Int.max 0 t.size
let unit_size t = Array.for_all (fun p -> p = 1) t.size

let rescale t c =
  if c < 1 then invalid_arg "Instance.rescale: factor must be >= 1";
  { t with scale = t.scale * c; req = Array.map (fun r -> r * c) t.req }

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "sos %d %d %d\n" t.m t.scale (n t));
  for i = 0 to n t - 1 do
    Buffer.add_string buf (Printf.sprintf "%d %d %d\n" t.original.(i) t.size.(i) t.req.(i))
  done;
  Buffer.contents buf

(* ------------------------------------------------- overflow-checked sums

   The Equation (1) quantities of an instance whose Σ p_j or Σ p_j·r_j
   exceeds max_int would make the lower bound silently negative. The
   running sums below hold -1 once they pass max_int. *)

(* p·r > max_int, for p, r >= 1. Factors below 2^31 cannot overflow a
   63-bit product, so the division runs only for large ones. *)
let mul_overflows p r = (p lor r) lsr 31 <> 0 && p > max_int / r

(* [v < 0] is a term that itself overflowed. *)
let add_checked acc v = if acc < 0 || v < 0 || acc > max_int - v then -1 else acc + v
let sum_opt v = if v < 0 then None else Some v

let eq1_sums t =
  let volume = ref 0 and requirement = ref 0 and req_sum = ref 0 in
  for i = 0 to n t - 1 do
    let size = t.size.(i) and req = t.req.(i) in
    volume := add_checked !volume size;
    requirement := add_checked !requirement (if mul_overflows size req then -1 else size * req);
    req_sum := add_checked !req_sum req
  done;
  (sum_opt !volume, sum_opt !requirement, sum_opt !req_sum)

(* ------------------------------------------------- strict validation
   (doc/ROBUSTNESS.md). The checked constructors return structured
   Robust.Failure.invalid reasons instead of raising, and additionally
   guard the Equation (1) quantities against int overflow. *)

(* [validate]'s checks, on sums already taken. *)
let checked ?(window = false) t sums =
  let open Robust.Failure in
  if window && t.m < 3 then Error (Too_few_processors { m = t.m; need = 3 })
  else
    match sums with
    | Some _, Some _, Some _ -> Ok t
    | None, _, _ -> Error (Overflow "total volume Σ p_j exceeds max_int")
    | _, None, _ -> Error (Overflow "total requirement Σ p_j·r_j exceeds max_int")
    | _, _, None -> Error (Overflow "Σ r_j exceeds max_int")

let validate ?window t = checked ?window t (eq1_sums t)

let shape_error ~m ~scale =
  let open Robust.Failure in
  if m < 2 then Some (Too_few_processors { m; need = 2 })
  else if scale < 1 then Some (Bad_scale scale)
  else None

let spec_error ~job ~size ~req =
  let open Robust.Failure in
  if size < 1 then Some (Nonpositive_size { job; size })
  else if req < 1 then Some (Nonpositive_req { job; req })
  else if mul_overflows size req then
    Some (Overflow (Printf.sprintf "job %d: p_j·r_j = %d·%d exceeds max_int" job size req))
  else None

let create_checked ?window ~m ~scale specs =
  match shape_error ~m ~scale with
  | Some e -> Error e
  | None -> begin
      let rec check job = function
        | [] -> None
        | (size, req) :: rest -> (
            match spec_error ~job ~size ~req with None -> check (job + 1) rest | e -> e)
      in
      match check 0 specs with
      | Some e -> Error e
      | None -> validate ?window (create ~m ~scale specs)
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

(* ------------------------------------------------------- text decoding

   The decoder makes one pass over the string into columns, with no split,
   trim, filter or token lists, and keeps the syntax the list-based parser
   had: a line is a piece of String.split_on_char '\n' stripped of
   String.trim's whitespace, and blank lines are skipped; its tokens are
   the pieces of String.split_on_char ' ' (a doubled space makes an empty,
   malformed token); and a token reads as int_of_string reads it. The same
   pass runs the permutation, per-job and Eq. (1) sum checks. Errors keep
   the parser's precedence: the header, then the job count, then the
   first bad job line. *)

exception Bad_text of string
exception Bad_token

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad_text ("Instance.of_string: " ^ msg))) fmt

let bad_position p why count =
  bad "position %d %s; positions must be a permutation of 0..%d" p why (count - 1)

(* [lo, hi) is the current line, trimmed; [next] is where the line after
   it starts; [at] is where the last token read ended, and [v0..v2] are
   the integers {!three} read. *)
type cursor = {
  text : string;
  mutable next : int;
  mutable lo : int;
  mutable hi : int;
  mutable at : int;
  mutable v0 : int;
  mutable v1 : int;
  mutable v2 : int;
}

let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

(* Moves to the next non-blank line; false at the end of the text. *)
let rec advance c =
  let s = c.text in
  let len = String.length s in
  c.next <= len
  && begin
       let e = match String.index_from s c.next '\n' with e -> e | exception Not_found -> len in
       let lo = ref c.next and hi = ref e in
       while !lo < !hi && is_space s.[!lo] do
         incr lo
       done;
       while !hi > !lo && is_space s.[!hi - 1] do
         decr hi
       done;
       c.next <- e + 1;
       if !lo = !hi then advance c
       else begin
         c.lo <- !lo;
         c.hi <- !hi;
         true
       end
     end

(* End of the token that starts at [k] on the current line. *)
let token_end c k =
  let e = ref k in
  while !e < c.hi && c.text.[!e] <> ' ' do
    incr e
  done;
  !e

(* The token at [i] read as int_of_string reads it, raising Bad_token
   where that fails; [c.at] is left at the token's end. Up to 18
   decimal digits cannot pass max_int, so such a token is accumulated in
   place, with no division; any other token (a sign, a 0x/0o/0b/0u
   prefix, an underscore, a longer run of digits, garbage) goes to
   int_of_string_opt itself. *)
let rec decimal c s hi i k acc =
  let ch = if k = hi then ' ' else s.[k] in
  if ch = ' ' then begin
    c.at <- k;
    acc
  end
  else if ch < '0' || ch > '9' || k - i >= 18 then general c i
  else decimal c s hi i (k + 1) ((acc * 10) + Char.code ch - Char.code '0')

and general c i =
  c.at <- token_end c i;
  match int_of_string_opt (String.sub c.text i (c.at - i)) with
  | Some v -> v
  | None -> raise_notrace Bad_token

let int_token c i =
  if i = c.hi || c.text.[i] = ' ' then raise_notrace Bad_token else decimal c c.text c.hi i i 0

(* Reads the current line from [lo] to its end as exactly three
   ' '-separated integers. *)
let three c lo =
  c.v0 <- int_token c lo;
  if c.at = c.hi then raise_notrace Bad_token;
  c.v1 <- int_token c (c.at + 1);
  if c.at = c.hi then raise_notrace Bad_token;
  c.v2 <- int_token c (c.at + 1);
  if c.at <> c.hi then raise_notrace Bad_token

let grown a len =
  let b = Array.make len 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The job lines: [order] lists their positions in text order, and
   [size] and [req] are indexed by position (they may run past n). *)
type columns = {
  order : int array;
  size : int array;
  req : int array;
  first_bad : int;  (** the lowest position {!spec_error} rejects, or -1 *)
  sums : int option * int option * int option;  (** as {!eq1_sums}, over the good jobs *)
}

let decode text =
  let c = { text; next = 0; lo = 0; hi = 0; at = 0; v0 = 0; v1 = 0; v2 = 0 } in
  try
    if not (advance c) then bad "empty input";
    (try
       let e = token_end c c.lo in
       if e - c.lo <> 3 || String.sub text c.lo 3 <> "sos" || e = c.hi then
         raise_notrace Bad_token;
       three c (e + 1)
     with Bad_token -> bad "malformed header");
    let m = c.v0 and scale = c.v1 and count = c.v2 in
    (* A non-blank line holds a byte, and all but the last a '\n' after it,
       so the rest of the text has at most [most] lines: a larger count
       cannot match, and below it every position in range indexes [seen].
       No array is sized from the count itself; the columns start from a
       guess of 16 bytes a line and grow as needed. *)
    let most = (String.length text - c.next + 1) / 2 in
    if count > most then bad "job count mismatch";
    let seen = Bytes.make most '\000' in
    let guess = ((String.length text - c.next) / 16) + 1 in
    let order = ref (Array.make guess 0) in
    let size = ref (Array.make guess 0) and req = ref (Array.make guess 0) in
    let lines = ref 0 and first_bad = ref (-1) in
    let volume = ref 0 and requirement = ref 0 and req_sum = ref 0 in
    (try
       while advance c do
         (try three c c.lo with Bad_token -> bad "malformed job line");
         let k = !lines and p = c.v0 and sz = c.v1 and r = c.v2 in
         if p < 0 || p >= count then bad_position p "out of range" count;
         if Bytes.get seen p <> '\000' then bad_position p "repeated" count;
         Bytes.set seen p '\001';
         if k = Array.length !order then order := grown !order (2 * k);
         if p >= Array.length !size then begin
           let len = max (2 * Array.length !size) (p + 1) in
           size := grown !size len;
           req := grown !req len
         end;
         !order.(k) <- p;
         !size.(p) <- sz;
         !req.(p) <- r;
         if sz < 1 || r < 1 || mul_overflows sz r then begin
           if !first_bad < 0 || p < !first_bad then first_bad := p
         end
         else begin
           volume := add_checked !volume sz;
           requirement := add_checked !requirement (sz * r);
           req_sum := add_checked !req_sum r
         end;
         incr lines
       done
     with Bad_text _ as bad_line ->
       (* a wrong count outranks the first bad line *)
       incr lines;
       while advance c do
         incr lines
       done;
       if !lines <> count then bad "job count mismatch";
       raise bad_line);
    if !lines <> count then bad "job count mismatch";
    let order = if Array.length !order = count then !order else Array.sub !order 0 count in
    let sums = (sum_opt !volume, sum_opt !requirement, sum_opt !req_sum) in
    Ok (m, scale, { order; size = !size; req = !req; first_bad = !first_bad; sums })
  with Bad_text msg -> Error msg

let of_string str =
  match decode str with
  | Error msg -> failwith msg
  | Ok (m, scale, { order; size; req; _ }) ->
      check_shape ~m ~scale;
      (* create's job checks, in its order: by position *)
      check_jobs ~size ~req (Array.length order);
      assemble ~m ~scale ~order ~size ~req

let of_string_checked ?window str =
  match decode str with
  | Error msg -> Error (Robust.Failure.Malformed msg)
  | Ok (m, scale, { order; size; req; first_bad = p; sums }) -> (
      match shape_error ~m ~scale with
      | Some e -> Error e
      | None -> (
          match if p < 0 then None else spec_error ~job:p ~size:size.(p) ~req:req.(p) with
          | Some e -> Error e
          | None -> checked ?window (assemble ~m ~scale ~order ~size ~req) sums))
