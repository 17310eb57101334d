(* Output checks shared by the batch and serve workloads. A failed check
   is recorded, not raised, so one run reports every problem it found. *)

type t = { mutable problems : string list; mutable failed : int; mutable attempted : int }

let create () = { problems = []; failed = 0; attempted = 0 }
let ok t = t.problems = []

let fail t fmt =
  Printf.ksprintf
    (fun msg -> if List.length t.problems < 20 then t.problems <- msg :: t.problems)
    fmt

let problems t = List.rev t.problems

let field line key =
  let pat = " " ^ key ^ "=" in
  let plen = String.length pat and llen = String.length line in
  let rec matches i k = k = plen || (line.[i + k] = pat.[k] && matches i (k + 1)) in
  let rec find i =
    if i + plen > llen then None
    else if matches i 0 then begin
      let start = i + plen in
      let stop = match String.index_from_opt line start ' ' with Some j -> j | None -> llen in
      Some (String.sub line start (stop - start))
    end
    else find (i + 1)
  in
  find 0

let int_field line key = Option.bind (field line key) int_of_string_opt

(* "<index> <class> ..." with the expected index. *)
let index_and_class line =
  match String.split_on_char ' ' line with
  | idx :: cls :: _ -> (int_of_string_opt idx, cls)
  | _ -> (None, "")

(* One batch result line: in order, "ok", lb <= makespan, and
   makespan / lb within Theorem 3.3's 2 + 1/(m-2). The ratio is checked on
   the integer fields: the printed one is rounded to four places and can
   read above the bound when the true ratio is on it. *)
let batch_line t ~index line =
  t.attempted <- t.attempted + 1;
  match index_and_class line with
  | Some i, _ when i <> index -> fail t "line %d carries index %d" index i
  | _, "ok" -> (
      match (int_field line "m", int_field line "makespan", int_field line "lb") with
      | Some m, Some mk, Some lb ->
          if lb > mk then fail t "line %d: lb %d > makespan %d" index lb mk;
          if m >= 3 && float_of_int mk > (Sos.Bounds.guarantee_general ~m *. float_of_int lb) +. 1e-9 then
            fail t "line %d: makespan %d / lb %d above 2 + 1/(m-2) at m=%d" index mk lb m
      | _ -> fail t "line %d: unparsable: %s" index line)
  | _ -> t.failed <- t.failed + 1

(* Fold [f] over the lines of a file without holding it in memory. *)
let iter_lines path f =
  In_channel.with_open_bin path (fun ic ->
      let rec go i =
        match In_channel.input_line ic with
        | None -> i
        | Some l ->
            f i l;
            go (i + 1)
      in
      go 0)

let batch_file t path ~expected =
  let n = iter_lines path (fun index line -> batch_line t ~index line) in
  if n <> expected then fail t "%s: %d result lines, expected %d" (Filename.basename path) n expected

(* One serve reply: in order, and "ok". Errors, overloads, rejections and
   stale answers all count as failed requests. *)
let serve_reply t ~index line =
  t.attempted <- t.attempted + 1;
  match index_and_class line with
  | Some i, _ when i <> index -> fail t "reply %d carries index %d" index i
  | _, "ok" -> ()
  | _ -> t.failed <- t.failed + 1

let digest_file path = Digest.to_hex (Digest.file path)

(* The first [n] lines of a file, as one string. *)
let prefix_lines path n =
  let b = Buffer.create 4096 in
  In_channel.with_open_bin path (fun ic ->
      let rec go i =
        if i < n then
          match In_channel.input_line ic with
          | None -> ()
          | Some l ->
              Buffer.add_string b l;
              Buffer.add_char b '\n';
              go (i + 1)
      in
      go 0);
  Buffer.contents b
