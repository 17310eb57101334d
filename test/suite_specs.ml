(* Workload.Specs: the streaming spec-corpus reader/writer behind
   `sosctl batch`. The central properties are (1) the binary
   encoding round-trips through the text form record-for-record — same
   canonical stream, same digest — so a converted corpus resumes
   byte-identically, and (2) malformed input (bad text specs, torn
   trailing binary records) becomes a [Bad] record, never an exception. *)

module Specs = Workload.Specs

let with_temp_file suffix f =
  let path = Filename.temp_file "sosspec" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let payload = Alcotest.testable (fun ppf p ->
    Format.pp_print_string ppf
      (match (p : Specs.payload) with
      | Gen { family; n; m; scale } ->
          Printf.sprintf "Gen(%s,%d,%d,%s)" family n m
            (match scale with None -> "-" | Some s -> string_of_int s)
      | File p -> "File(" ^ p ^ ")"
      | Bad msg -> "Bad(" ^ msg ^ ")"))
  ( = )

let test_parse_line () =
  Alcotest.check payload "plain gen"
    (Specs.Gen { family = "bimodal"; n = 10; m = 4; scale = None })
    (Specs.parse_line "bimodal 10 4");
  Alcotest.check payload "gen with scale"
    (Specs.Gen { family = "uniform-small"; n = 3; m = 2; scale = Some 50 })
    (Specs.parse_line "uniform-small 3 2 50");
  Alcotest.check payload "file spec" (Specs.File "path/to/inst")
    (Specs.parse_line "@path/to/inst");
  (* The exact historical diagnostics, pinned by the CI acceptance smoke. *)
  Alcotest.check payload "bad n"
    (Specs.Bad "bad n \"zero\" in spec \"bimodal zero 4\"")
    (Specs.parse_line "bimodal zero 4");
  Alcotest.check payload "n < 1"
    (Specs.Bad "bad n \"0\" in spec \"bimodal 0 4\"")
    (Specs.parse_line "bimodal 0 4");
  Alcotest.check payload "bad scale"
    (Specs.Bad "bad scale \"x\" in spec \"bimodal 2 4 x\"")
    (Specs.parse_line "bimodal 2 4 x");
  Alcotest.check payload "trailing fields"
    (Specs.Bad "trailing fields in spec \"bimodal 2 4 5 6\"")
    (Specs.parse_line "bimodal 2 4 5 6");
  Alcotest.check payload "too few fields"
    (Specs.Bad "bad spec \"bimodal\" (want: <family> <n> <m> [scale], or @<file>)")
    (Specs.parse_line "bimodal")

let read_all src =
  let rec go acc =
    match Specs.read src with None -> List.rev acc | Some r -> go (r :: acc)
  in
  go []

let test_text_reader () =
  with_temp_file ".specs" @@ fun path ->
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        "# a comment\nbimodal  010 4\n\n  uniform-small 3 2 50  \n@inst.txt\nnope\n");
  match Specs.open_path path with
  | Error msg -> Alcotest.fail msg
  | Ok src ->
      Alcotest.(check bool) "text detected" false (Specs.is_binary src);
      let rs = read_all src in
      Specs.close src;
      (* recno is the 1-based *physical* line number: comments and blanks
         are skipped but still counted, so diagnostics are locatable. *)
      Alcotest.(check (list int)) "physical line numbers" [ 2; 4; 5; 6 ]
        (List.map (fun (r : Specs.record) -> r.recno) rs);
      Alcotest.(check (list string)) "canonical forms"
        [ "bimodal 10 4"; "uniform-small 3 2 50"; "@inst.txt"; "nope" ]
        (List.map Specs.canonical rs);
      match List.map (fun (r : Specs.record) -> r.payload) rs with
      | [ Specs.Gen _; Specs.Gen { scale = Some 50; _ }; Specs.File "inst.txt"; Specs.Bad _ ]
        -> ()
      | _ -> Alcotest.fail "unexpected payloads"

let test_binary_round_trip () =
  with_temp_file ".specs" @@ fun text ->
  with_temp_file ".bin" @@ fun bin ->
  let families = Specs.family_names () in
  Alcotest.(check bool) "families non-empty" true (List.length families > 0);
  Out_channel.with_open_text text (fun oc ->
      List.iteri
        (fun i f -> Printf.fprintf oc "%s %d %d%s\n" f (i + 1) (i + 2)
            (if i mod 2 = 0 then "" else Printf.sprintf " %d" (10 * (i + 1))))
        families);
  (match Specs.convert_to_binary ~src:text ~dst:bin with
  | Ok n -> Alcotest.(check int) "converted count" (List.length families) n
  | Error msg -> Alcotest.fail msg);
  (match Specs.open_path bin with
  | Error msg -> Alcotest.fail msg
  | Ok src ->
      Alcotest.(check bool) "binary autodetected" true (Specs.is_binary src);
      let rs = read_all src in
      Specs.close src;
      (* Binary recnos are record ordinals. *)
      Alcotest.(check (list int)) "record ordinals"
        (List.init (List.length families) (fun i -> i + 1))
        (List.map (fun (r : Specs.record) -> r.recno) rs);
      List.iteri
        (fun i (r : Specs.record) ->
          match r.payload with
          | Specs.Gen { family; n; m; scale } ->
              Alcotest.(check string) "family survives" (List.nth families i) family;
              Alcotest.(check int) "n survives" (i + 1) n;
              Alcotest.(check int) "m survives" (i + 2) m;
              Alcotest.(check (option int)) "scale survives"
                (if i mod 2 = 0 then None else Some (10 * (i + 1)))
                scale
          | _ -> Alcotest.failf "record %d not Gen" r.recno)
        rs);
  (* The digest is over the canonical record stream, so a corpus and its
     binary conversion digest identically — the property that lets a
     checkpoint journal written against one resume against the other. *)
  match (Specs.digest_of_path text, Specs.digest_of_path bin) with
  | Ok dt, Ok db -> Alcotest.(check string) "text and binary digests equal" dt db
  | Error msg, _ | _, Error msg -> Alcotest.fail msg

let test_binary_torn_record () =
  with_temp_file ".bin" @@ fun bin ->
  Out_channel.with_open_bin bin (fun oc ->
      let w = Specs.Writer.create oc in
      (match Specs.Writer.add w ~family:"bimodal" ~n:5 ~m:3 () with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      match Specs.Writer.add w ~family:"nope" ~n:1 ~m:1 () with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "unknown family accepted by Writer");
  (* SIGKILL mid-write: chop the file mid-record. The reader must surface
     one Bad record and stop, never raise. *)
  let full = In_channel.with_open_bin bin In_channel.input_all in
  Out_channel.with_open_bin bin (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full - 7)));
  match Specs.open_path bin with
  | Error msg -> Alcotest.fail msg
  | Ok src -> (
      (match read_all src with
      | [ r ] -> (
          match r.payload with
          | Specs.Bad msg ->
              Alcotest.(check bool) "diagnostic names the record" true
                (Helpers.contains msg "truncated record 1");
              (* Its canonical text is the diagnostic, so a checkpoint
                 entry bound to it cannot replay for another corrupt
                 record at the same index. *)
              Alcotest.(check string) "canonical text" msg (Specs.canonical r)
          | _ -> Alcotest.fail "torn record not Bad")
      | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs));
      Specs.close src)

let test_convert_rejects_unconvertible () =
  with_temp_file ".specs" @@ fun text ->
  with_temp_file ".bin" @@ fun bin ->
  Out_channel.with_open_text text (fun oc ->
      Out_channel.output_string oc "bimodal 4 4\n@some/file\n");
  (match Specs.convert_to_binary ~src:text ~dst:bin with
  | Error msg ->
      Alcotest.(check bool) "error names record 2" true (Helpers.contains msg "record 2")
  | Ok _ -> Alcotest.fail "@FILE spec converted to binary");
  Out_channel.with_open_text text (fun oc ->
      Out_channel.output_string oc "bimodal 4\n");
  match Specs.convert_to_binary ~src:text ~dst:bin with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed spec converted to binary"

let test_digest_chunk_invariance () =
  (* The chained digest folds in fixed 1024-record blocks, so it only
     depends on the record stream — feed the same lines in one-by-one and
     the hex matches a second independent pass. *)
  let lines = List.init 2500 (Printf.sprintf "bimodal %d 4") in
  let d1 =
    let st = Specs.digest_create () in
    List.iter (Specs.digest_line st) lines;
    Specs.digest_finish st
  in
  let d2 =
    let st = Specs.digest_create () in
    List.iter (Specs.digest_line st) lines;
    Specs.digest_finish st
  in
  Alcotest.(check string) "digest deterministic" d1 d2;
  let d3 =
    let st = Specs.digest_create () in
    List.iter (Specs.digest_line st) (List.tl lines);
    Specs.digest_finish st
  in
  Alcotest.(check bool) "digest sensitive to the stream" true (d1 <> d3)

(* --- the reader against arbitrary bytes --- *)

(* Every record of a source, or the open error; fails if the reader does
   not end within one record per input byte (plus the torn-record one). *)
let read_source ~bytes = function
  | Error msg -> Error msg
  | Ok src ->
      let rec go k acc =
        if k > bytes + 1 then QCheck.Test.fail_reportf "reader did not end after %d records" k
        else match Specs.read src with None -> List.rev acc | Some r -> go (k + 1) (r :: acc)
      in
      let rs = go 0 [] in
      Specs.close src;
      Ok rs

let read_file input =
  with_temp_file ".in" @@ fun path ->
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc input);
  read_source ~bytes:(String.length input) (Specs.open_path path)

(* [input] through a pipe in pieces of the given sizes, so a binary
   record can arrive split across reads. *)
let read_pipe input sizes =
  Helpers.read_through_pipe input sizes (fun ic ->
      read_source ~bytes:(String.length input) (Specs.of_channel ic))

(* The magic and a valid family table, as the writer lays them out. *)
let binary_header =
  lazy
    (with_temp_file ".bin" @@ fun path ->
     Out_channel.with_open_bin path (fun oc -> ignore (Specs.Writer.create oc));
     In_channel.with_open_bin path In_channel.input_all)

(* 0-300 bytes: raw bytes, spec-like text, or 16-byte records (small
   family indices and fields, zeros included) with a torn tail; behind no
   prefix, the bare magic, or the magic and a valid family table. *)
let gen_spec_input =
  let open QCheck.Gen in
  let raw =
    string_size
      ~gen:
        (frequency
           [ (6, char_range ' ' '~'); (2, return '\n'); (1, return '\r'); (1, return '\000');
             (1, map Char.chr (int_range 128 255)) ])
      (int_range 0 300)
  in
  let text =
    map
      (fun toks ->
        let s = String.concat "" toks in
        if String.length s > 300 then String.sub s 0 300 else s)
      (list_size (int_range 0 60)
         (oneofl
            [ "bimodal"; "tiny"; "nope"; " "; " "; "\n"; "\n"; "\r\n"; "#"; "@f"; "0"; "3"; "-1";
              "12"; "99999999999999999999"; "sosbin1"; "sosbin1\n" ]))
  in
  let records =
    map2
      (fun fields tail ->
        let b = Bytes.create (16 * List.length fields) in
        List.iteri
          (fun i (fi, n, m, sc) ->
            List.iteri
              (fun j v -> Bytes.set_int32_le b ((16 * i) + (4 * j)) (Int32.of_int v))
              [ fi; n; m; sc ])
          fields;
        Bytes.to_string b ^ tail)
      (list_size (int_range 0 18)
         (quad (int_range 0 15) (int_range 0 5) (int_range 0 5) (int_range 0 3)))
      (string_size (int_range 0 15))
  in
  let prefix = oneofl [ `None; `Magic; `Table ] in
  pair (pair prefix (oneof [ raw; text; records ])) (list_size (int_range 1 6) (int_range 1 40))

let prop_reader_total =
  Helpers.qcheck ~count:300 "read never raises, ends, same records from a file and a pipe"
    QCheck.(
      make
        ~print:(fun ((_, body), sizes) ->
          Printf.sprintf "%S in writes of %s" body
            (String.concat "," (List.map string_of_int sizes)))
        gen_spec_input)
    (fun ((prefix, body), sizes) ->
      let input =
        (match prefix with
        | `None -> ""
        | `Magic -> "sosbin1\n"
        | `Table -> Lazy.force binary_header)
        ^ body
      in
      let from_file = read_file input in
      from_file = read_pipe input sizes)

let test_reader_pinned () =
  let records = Alcotest.(result (list (pair int string)) string) in
  let numbered = Result.map (List.map (fun (r : Specs.record) -> (r.recno, r.raw))) in
  let read input = numbered (read_file input) in
  (* Binary iff the first 8 bytes are "sosbin1\n": the 7-byte magic with no
     newline is a one-record text corpus. *)
  Alcotest.check records "bare sosbin1 is text" (Ok [ (1, "sosbin1") ]) (read "sosbin1");
  Alcotest.check records "sosbin1\\r\\n is text" (Ok [ (1, "sosbin1"); (2, "tiny 2 3") ])
    (read "sosbin1\r\ntiny 2 3");
  let truncated = Error "corrupt binary spec file: truncated family table" in
  Alcotest.check records "magic alone" truncated (read "sosbin1\n");
  Alcotest.check records "magic alone, piped" truncated (numbered (read_pipe "sosbin1\n" [ 3 ]));
  (* The sniffed first line is record 1, not lost to the sniff. *)
  Alcotest.check records "first text line is record 1"
    (Ok [ (1, "bimodal 10 4"); (3, "tiny 2 3") ])
    (read "bimodal  10 4\n\ntiny 2 3\n");
  Alcotest.check records "empty input" (Ok []) (read "")

let suite =
  ( "specs",
    [
      Alcotest.test_case "parse_line grammar + diagnostics" `Quick test_parse_line;
      Alcotest.test_case "text reader: comments, blanks, recno" `Quick test_text_reader;
      Alcotest.test_case "binary round-trip + digest equality" `Quick test_binary_round_trip;
      Alcotest.test_case "torn binary record becomes Bad" `Quick test_binary_torn_record;
      Alcotest.test_case "convert rejects @FILE and malformed" `Quick test_convert_rejects_unconvertible;
      Alcotest.test_case "streaming digest invariance" `Quick test_digest_chunk_invariance;
      Alcotest.test_case "reader: magic sniff and first line pinned" `Quick test_reader_pinned;
      prop_reader_total;
    ] )
