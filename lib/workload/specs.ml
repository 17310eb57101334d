(* Streaming instance-spec reader/writer for `sosctl batch`.

   One spec per record: either a generator request (family, n, m, optional
   scale) or an @PATH instance file. Two on-disk encodings share one
   reader: the historical newline-delimited text form, and a compact
   versioned binary form (26x smaller per record, no parsing on the hot
   path) autodetected by magic. Everything streams: a million-spec corpus
   is read in O(longest line) memory, straight off its channel. *)

type payload =
  | Gen of { family : string; n : int; m : int; scale : int option }
  | File of string
  | Bad of string

type record = { recno : int; raw : string; payload : payload }

(* Exactly the diagnostics the batch CLI has always produced for malformed
   text specs (pinned by the CI acceptance smoke): the message is carried
   in [Bad] and surfaced as an invalid-instance failure at solve time. *)
let parse_line spec =
  if String.starts_with ~prefix:"@" spec then
    File (String.sub spec 1 (String.length spec - 1))
  else begin
    let fields = String.split_on_char ' ' spec |> List.filter (fun s -> s <> "") in
    match fields with
    | family :: n :: m :: rest ->
        let int_field what s k =
          match int_of_string_opt s with
          | Some v when v >= 1 -> k v
          | _ -> Bad (Printf.sprintf "bad %s %S in spec %S" what s spec)
        in
        int_field "n" n (fun n ->
            int_field "m" m (fun m ->
                match rest with
                | [] -> Gen { family; n; m; scale = None }
                | [ s ] ->
                    int_field "scale" s (fun s -> Gen { family; n; m; scale = Some s })
                | _ -> Bad (Printf.sprintf "trailing fields in spec %S" spec)))
    | _ ->
        Bad
          (Printf.sprintf "bad spec %S (want: <family> <n> <m> [scale], or @<file>)" spec)
  end

let canonical_gen family n m scale =
  match scale with
  | None -> Printf.sprintf "%s %d %d" family n m
  | Some s -> Printf.sprintf "%s %d %d %d" family n m s

let canonical r = r.raw

let family_names () =
  List.map
    (fun f -> f.Sos_gen.name)
    (Sos_gen.all_families @ List.map Sos_gen.unit_of Sos_gen.all_families)

(* ------------------------------------------------------------- digest *)

(* Chained MD5 over the canonical record stream, folded in blocks of
   [digest_block] records: h_{k+1} = md5(h_k ++ block_k). Block boundaries
   are counted in records, never in reader buffer sizes, so the digest is
   invariant under reader chunking and identical for a text corpus and its
   binary conversion — it is what binds a checkpoint journal to its spec
   input without ever holding the whole corpus in memory. *)
let digest_block = 1024

type digest_state = { mutable h : Digest.t; buf : Buffer.t; mutable pending : int }

let digest_create () = { h = Digest.string ""; buf = Buffer.create 4096; pending = 0 }

let digest_flush st =
  if st.pending > 0 then begin
    st.h <- Digest.string (st.h ^ Buffer.contents st.buf);
    Buffer.clear st.buf;
    st.pending <- 0
  end

let digest_line st line =
  Buffer.add_string st.buf line;
  Buffer.add_char st.buf '\n';
  st.pending <- st.pending + 1;
  if st.pending >= digest_block then digest_flush st

let digest_finish st =
  digest_flush st;
  Digest.to_hex st.h

(* ------------------------------------------------------------- reader *)

(* No buffer of the reader's own: the channel's is the only one. Text is
   read a line at a time with [In_channel.input_line], binary a record at
   a time into [rec_buf]. *)

let magic_line = "sosbin1"
let magic = magic_line ^ "\n"
let record_bytes = 16
let max_families = 65536

type mode = Text | Binary of { names : string array; mutable recno : int }

type source = {
  ic : In_channel.t;
  owns : bool;
  mutable first : string option; (* the sniffed first text line, not yet read *)
  mutable lineno : int;
  mutable finished : bool;
  rec_buf : Bytes.t;
  mutable mode : mode;
}

(* Up to [k] bytes into [out] from offset 0; fewer only at end of input. *)
let read_exact ic out k =
  let rec go got =
    if got = k then got
    else match In_channel.input ic out got (k - got) with 0 -> got | n -> go (got + n)
  in
  go 0

let u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

let read_binary_header s =
  let truncated = Error "corrupt binary spec file: truncated family table" in
  if read_exact s.ic s.rec_buf 4 <> 4 then truncated
  else begin
    let count = u32 s.rec_buf 0 in
    if count > max_families then
      Error (Printf.sprintf "corrupt binary spec file: %d families" count)
    else begin
      let rec names acc i =
        if i = count then Ok (Array.of_list (List.rev acc))
        else
          match In_channel.input_char s.ic with
          | None -> truncated
          | Some len -> (
              match In_channel.really_input_string s.ic (Char.code len) with
              | None -> truncated
              | Some name -> names (name :: acc) (i + 1))
      in
      names [] 0
    end
  end

(* The magic is one line, so the sniff is the first [input_line]: binary
   iff that line is [magic_line] and it ended in a newline (8 bytes read),
   so a bare 7-byte [sosbin1] stays a one-record text corpus. Otherwise
   the line is kept as the text corpus's line 1. *)
let make_source ic ~owns =
  let start = In_channel.pos ic in
  let first = In_channel.input_line ic in
  let s =
    {
      ic;
      owns;
      first;
      lineno = 0;
      finished = false;
      rec_buf = Bytes.create record_bytes;
      mode = Text;
    }
  in
  if
    first = Some magic_line
    && Int64.sub (In_channel.pos ic) start = Int64.of_int (String.length magic)
  then begin
    s.first <- None;
    match read_binary_header s with
    | Error _ as e -> e
    | Ok names ->
        s.mode <- Binary { names; recno = 0 };
        Ok s
  end
  else Ok s

let of_channel ic = make_source ic ~owns:false

let open_path path =
  match In_channel.open_bin path with
  | exception Sys_error msg -> Error msg
  | ic -> (
      match make_source ic ~owns:true with
      | Error _ as e ->
          In_channel.close ic;
          e
      | Ok _ as ok -> ok)

let is_binary s = match s.mode with Binary _ -> true | Text -> false

let close s = if s.owns then In_channel.close s.ic

let rec read s =
  if s.finished then None
  else
    match s.mode with
    | Text -> (
        let line =
          match s.first with
          | None -> In_channel.input_line s.ic
          | first ->
              s.first <- None;
              first
        in
        match line with
        | None -> None
        | Some line ->
            s.lineno <- s.lineno + 1;
            let t = String.trim line in
            if t = "" || String.starts_with ~prefix:"#" t then read s
            else begin
              let payload = parse_line t in
              let raw =
                match payload with
                | Gen { family; n; m; scale } -> canonical_gen family n m scale
                | File _ | Bad _ -> t
              in
              Some { recno = s.lineno; raw; payload }
            end)
    | Binary b -> (
        match read_exact s.ic s.rec_buf record_bytes with
        | 0 -> None
        | got when got < record_bytes ->
            (* a kill mid-write can leave a torn trailing record; surface it
               as one malformed spec instead of dying *)
            b.recno <- b.recno + 1;
            s.finished <- true;
            let msg =
              Printf.sprintf "truncated record %d (%d of %d bytes)" b.recno got record_bytes
            in
            Some { recno = b.recno; raw = msg; payload = Bad msg }
        | _ ->
            b.recno <- b.recno + 1;
            let fi = u32 s.rec_buf 0 in
            let n = u32 s.rec_buf 4 in
            let m = u32 s.rec_buf 8 in
            let sc = u32 s.rec_buf 12 in
            if fi >= Array.length b.names then begin
              let msg = Printf.sprintf "bad family index %d in record %d" fi b.recno in
              Some { recno = b.recno; raw = msg; payload = Bad msg }
            end
            else begin
              let raw =
                canonical_gen b.names.(fi) n m (if sc = 0 then None else Some sc)
              in
              Some { recno = b.recno; raw; payload = parse_line raw }
            end)

let digest_of_path path =
  match open_path path with
  | Error _ as e -> e
  | Ok s ->
      let st = digest_create () in
      let rec go () =
        match read s with
        | None -> ()
        | Some r ->
            digest_line st (canonical r);
            go ()
      in
      go ();
      close s;
      Ok (digest_finish st)

(* ------------------------------------------------------------- writer *)

module Writer = struct
  type t = { oc : Out_channel.t; index : (string * int) list; b : Bytes.t }

  let put_u32 t v = Bytes.set_int32_le t.b 0 (Int32.of_int v)

  let create oc =
    let names = family_names () in
    Out_channel.output_string oc magic;
    let t = { oc; index = List.mapi (fun i name -> (name, i)) names; b = Bytes.create 4 } in
    put_u32 t (List.length names);
    Out_channel.output_bytes oc t.b;
    List.iter
      (fun name ->
        Out_channel.output_char oc (Char.chr (String.length name));
        Out_channel.output_string oc name)
      names;
    t

  let out_u32 t v =
    put_u32 t v;
    Out_channel.output_bytes t.oc t.b

  let add t ~family ~n ~m ?scale () =
    match List.assoc_opt family t.index with
    | None -> Error (Printf.sprintf "unknown family %s" family)
    | Some _ when n < 1 || m < 1 ->
        Error (Printf.sprintf "bad n=%d m=%d (must be >= 1)" n m)
    | Some _ when (match scale with Some s -> s < 1 | None -> false) ->
        Error "bad scale (must be >= 1)"
    | Some fi ->
        out_u32 t fi;
        out_u32 t n;
        out_u32 t m;
        out_u32 t (match scale with None -> 0 | Some s -> s);
        Ok ()
end

let convert_to_binary ~src ~dst =
  match open_path src with
  | Error _ as e -> e
  | Ok s ->
      Fun.protect
        ~finally:(fun () -> close s)
        (fun () ->
          try
            Out_channel.with_open_bin dst (fun oc ->
                let w = Writer.create oc in
                let count = ref 0 in
                let rec go () =
                  match read s with
                  | None -> Ok !count
                  | Some r -> (
                      match r.payload with
                      | Bad msg -> Error (Printf.sprintf "record %d: %s" r.recno msg)
                      | File _ ->
                          Error
                            (Printf.sprintf
                               "record %d: @FILE specs cannot be converted to binary" r.recno)
                      | Gen { family; n; m; scale } -> (
                          match Writer.add w ~family ~n ~m ?scale () with
                          | Error msg -> Error (Printf.sprintf "record %d: %s" r.recno msg)
                          | Ok () ->
                              incr count;
                              go ()))
                in
                go ())
          with Sys_error msg -> Error msg)
