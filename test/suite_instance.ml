(* Tests for Sos.Instance and Sos.Bounds. *)

open Sos

(* The per-job checks: the first failing job in caller order, its size
   before its requirement, from the list and the column constructor
   alike. *)
let test_per_job_checks () =
  let size_msg = Invalid_argument "Instance.create: size must be positive" in
  let req_msg = Invalid_argument "Instance.create: req must be positive" in
  Alcotest.check_raises "size 0" size_msg (fun () ->
      ignore (Instance.create ~m:2 ~scale:10 [ (0, 1) ]));
  Alcotest.check_raises "req 0" req_msg (fun () ->
      ignore (Instance.create ~m:2 ~scale:10 [ (1, 0) ]));
  Alcotest.check_raises "size before req" size_msg (fun () ->
      ignore (Instance.create ~m:2 ~scale:10 [ (0, 0) ]));
  Alcotest.check_raises "first job first" req_msg (fun () ->
      ignore (Instance.create ~m:2 ~scale:10 [ (1, 1); (1, -1); (-1, 1) ]));
  Alcotest.check_raises "columns" size_msg (fun () ->
      ignore (Instance.of_columns ~m:2 ~scale:10 ~size:[| 1; 0 |] ~req:[| 1; 1 |]));
  let inst = Instance.create ~m:2 ~scale:10 [ (4, 5) ] in
  Alcotest.(check int) "s = p*r" 20 (Instance.s inst 0)

let test_instance_sorting () =
  let inst = Instance.create ~m:3 ~scale:100 [ (1, 70); (2, 10); (1, 40) ] in
  Alcotest.(check int) "n" 3 (Instance.n inst);
  Alcotest.(check (list int)) "sorted requirements" [ 10; 40; 70 ]
    (Array.to_list inst.Instance.req);
  Alcotest.(check (array int)) "original positions" [| 1; 2; 0 |] inst.Instance.original

(* Job i is index i of both columns: the i-th smallest requirement, ties
   in caller order, with its own size beside it. *)
let test_instance_sorted_order () =
  let inst = Instance.create ~m:2 ~scale:10 [ (1, 9); (2, 1); (3, 9); (4, 1) ] in
  Alcotest.(check (array int)) "job i has the i-th smallest requirement" [| 1; 1; 9; 9 |]
    inst.Instance.req;
  Alcotest.(check (array int)) "sizes follow their jobs" [| 2; 4; 1; 3 |] inst.Instance.size;
  Alcotest.(check (array int)) "ties keep caller order" [| 1; 3; 0; 2 |] inst.Instance.original

let test_instance_validation () =
  Alcotest.check_raises "m < 2" (Invalid_argument "Instance.create: need m >= 2")
    (fun () -> ignore (Instance.create ~m:1 ~scale:10 []));
  Alcotest.check_raises "scale < 1" (Invalid_argument "Instance.create: need scale >= 1")
    (fun () -> ignore (Instance.create ~m:2 ~scale:0 []))

let test_instance_aggregates () =
  let inst = Instance.create ~m:4 ~scale:100 [ (2, 30); (3, 50) ] in
  Alcotest.(check int) "total volume" 5 (Instance.total_volume inst);
  Alcotest.(check int) "total requirement" 210 (Instance.total_requirement inst);
  Alcotest.(check int) "sum req" 80 (Instance.sum_req inst);
  Alcotest.(check int) "max size" 3 (Instance.max_size inst);
  Alcotest.(check bool) "not unit" false (Instance.unit_size inst)

let test_instance_rescale () =
  let inst = Instance.create ~m:3 ~scale:10 [ (2, 3); (1, 7) ] in
  let r = Instance.rescale inst 6 in
  Alcotest.(check int) "scale" 60 r.Instance.scale;
  Alcotest.(check (array int)) "reqs scaled" [| 18; 42 |] r.Instance.req;
  Alcotest.(check int) "lower bound unchanged" (Bounds.lower_bound inst)
    (Bounds.lower_bound r)

let test_instance_roundtrip () =
  let inst = Instance.create ~m:5 ~scale:720720 [ (3, 100); (1, 720720); (7, 5) ] in
  let inst' = Instance.of_string (Instance.to_string inst) in
  Alcotest.(check int) "m" inst.Instance.m inst'.Instance.m;
  Alcotest.(check int) "scale" inst.Instance.scale inst'.Instance.scale;
  Alcotest.(check (array int)) "sizes equal" inst.Instance.size inst'.Instance.size;
  Alcotest.(check (array int)) "reqs equal" inst.Instance.req inst'.Instance.req;
  Alcotest.(check (array int)) "original equal" inst.Instance.original inst'.Instance.original

(* The position column is the jobs' original order, so it must be a
   permutation of 0..n-1; repeated or out-of-range positions used to be
   renumbered silently. *)
let test_instance_positions () =
  List.iter
    (fun text ->
      match Instance.of_string_checked text with
      | Error (Robust.Failure.Malformed _) -> ()
      | Error r -> Alcotest.failf "%S: wrong reason %s" text (Robust.Failure.invalid_to_string r)
      | Ok _ -> Alcotest.failf "%S: accepted" text)
    [ "sos 4 10 3\n7 1 2\n7 3 4\n-9 5 6\n"; "sos 4 10 2\n0 1 1\n2 1 1\n";
      "sos 4 10 2\n1 1 1\n1 2 2\n" ]

let test_of_floats () =
  let inst = Instance.of_floats ~m:2 ~scale:1000 [ (1, 0.5); (1, 1e-9); (1, 0.2501) ] in
  Alcotest.(check (array int)) "quantized (sorted)" [| 1; 250; 500 |] inst.Instance.req

let test_bounds_example () =
  (* 3 machines, scale 10. Jobs: (p=2,r=6),(p=1,r=9),(p=4,r=1).
     Σs = 12+9+4 = 25 → ⌈25/10⌉ = 3; Σp = 7 → ⌈7/3⌉ = 3; max p = 4. LB = 4. *)
  let inst = Instance.create ~m:3 ~scale:10 [ (2, 6); (1, 9); (4, 1) ] in
  Alcotest.(check int) "resource bound" 3 (Bounds.resource_bound inst);
  Alcotest.(check int) "volume bound" 3 (Bounds.volume_bound inst);
  Alcotest.(check int) "longest job" 4 (Bounds.longest_job_bound inst);
  Alcotest.(check int) "lower bound" 4 (Bounds.lower_bound inst)

let test_bounds_empty () =
  let inst = Instance.create ~m:2 ~scale:10 [] in
  Alcotest.(check int) "lb empty" 0 (Bounds.lower_bound inst)

let test_guarantees () =
  Alcotest.(check (float 1e-9)) "general m=3" 3.0 (Bounds.guarantee_general ~m:3);
  Alcotest.(check (float 1e-9)) "general m=4" 2.5 (Bounds.guarantee_general ~m:4);
  Alcotest.(check (float 1e-9)) "unit m=4" 2.0 (Bounds.guarantee_unit ~m:4);
  Alcotest.(check (float 1e-9)) "unit modified m=2" 2.0 (Bounds.guarantee_unit_modified ~m:2);
  Alcotest.(check (float 1e-9)) "unit modified m=11" 1.1 (Bounds.guarantee_unit_modified ~m:11)

let qcheck_sorted_after_create =
  Helpers.qcheck "instance always sorted by requirement"
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (int_range 1 9) (int_range 1 50)))
    (fun specs ->
      let inst = Instance.create ~m:3 ~scale:20 specs in
      let ok = ref true in
      for i = 0 to Instance.n inst - 2 do
        if inst.Instance.req.(i) > inst.Instance.req.(i + 1) then
          ok := false
      done;
      !ok)

let qcheck_roundtrip =
  Helpers.qcheck "serialization round-trip (arbitrary instances)"
    QCheck.(
      pair (int_range 2 9)
        (list_of_size Gen.(int_range 0 25) (pair (int_range 1 50) (int_range 1 400))))
    (fun (m, specs) ->
      let inst = Instance.create ~m ~scale:123 specs in
      let inst' = Instance.of_string (Instance.to_string inst) in
      Instance.to_string inst = Instance.to_string inst')

let qcheck_lb_monotone_under_addition =
  Helpers.qcheck "lower bound monotone when jobs are added"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 15) (pair (int_range 1 9) (int_range 1 40)))
        (pair (int_range 1 9) (int_range 1 40)))
    (fun (specs, extra) ->
      let inst = Instance.create ~m:4 ~scale:20 specs in
      let inst' = Instance.create ~m:4 ~scale:20 (extra :: specs) in
      Bounds.lower_bound inst' >= Bounds.lower_bound inst)

let qcheck_lb_le_trivial_schedule =
  (* Any valid schedule's makespan is at least the lower bound; the trivial
     one-job-per-step schedule has makespan Σ ⌈s_j / min(r_j, scale)⌉·…;
     cheaper check: lower bound is at most Σ_j p_j · max(1, ⌈r_j/scale⌉). *)
  Helpers.qcheck "lower bound sanity"
    QCheck.(list_of_size Gen.(int_range 1 20) (pair (int_range 1 5) (int_range 1 40)))
    (fun specs ->
      let inst = Instance.create ~m:2 ~scale:10 specs in
      let upper =
        List.fold_left
          (fun acc (p, r) -> acc + (p * (((r - 1) / 10) + 1)))
          0 specs
      in
      Bounds.lower_bound inst <= upper)

(* ---------------------------------------- decoder against the oracle *)

(* Ok text | the exception's printed form. *)
let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let columns_ok (inst : Instance.t) =
  let n = Array.length inst.original in
  Array.length inst.size = n && Array.length inst.req = n

let max_int_plus_1 = "4611686018427387904"

(* One rendering of [v] from a token alphabet int_of_string may or may
   not accept: decimal (the common case), leading zeros, signs, 0x/0o/0b/0u
   prefixes, underscores, overflowing digit runs, and plain garbage. *)
let int_token v =
  let open QCheck.Gen in
  frequency
    [
      (80, return (string_of_int v));
      (1, return ("00" ^ string_of_int v));
      (1, return ("+" ^ string_of_int v));
      (1, return (Printf.sprintf "0x%x" v));
      (1, return (Printf.sprintf "0o%o" v));
      (1, return (if v = 1 then "0b1" else "0b10"));
      (1, return (string_of_int v ^ "_"));
      (1, return ("0u" ^ string_of_int v));
      ( 1,
        oneofl
          [ ""; "x"; "-"; "+"; "0x"; "_1"; "1.5"; "1e3"; string_of_int max_int; max_int_plus_1;
            "-" ^ max_int_plus_1; "99999999999999999999"; "10000000000000000000"; "-0"; "0b2" ] );
    ]

(* An int for a size or a requirement: mostly small, so requirements tie. *)
let small_or_hostile =
  QCheck.Gen.(
    frequency
      [
        (30, int_range 1 4);
        (1, oneofl [ 0; -1 ]);
        (2, oneofl [ max_int; (max_int / 2) + 1; 1 lsl 31; 1 lsl 40 ]);
      ])

(* Whitespace the parser trims (around lines, and whole blank lines) or
   keeps (inside a line, where it makes a token malformed). *)
let line_sep =
  QCheck.Gen.frequencyl
    [ (20, "\n"); (2, "\r\n"); (1, "\n\n"); (1, "\n \t\n"); (1, "\n\012\n"); (1, "\n  \r\n") ]

let token_sep = QCheck.Gen.frequencyl [ (150, " "); (1, "  "); (1, "\t") ]
let line_pad = QCheck.Gen.frequencyl [ (40, ""); (1, " "); (1, "\t"); (1, "\r"); (1, "\012") ]

let render_line toks =
  let open QCheck.Gen in
  let* pre = line_pad and* post = line_pad in
  let rec join = function
    | [] -> return ""
    | [ t ] -> return t
    | t :: rest ->
        let* sep = token_sep and* tail = join rest in
        return (t ^ sep ^ tail)
  in
  let* body = join toks in
  return (pre ^ body ^ post)

let hostile_text =
  let open QCheck.Gen in
  let* n = int_range 0 7 in
  let* m = frequency [ (8, int_range 2 6); (1, oneofl [ 0; 1; -4 ]) ] in
  let* scale = frequencyl [ (4, 10); (2, 720720); (2, 1); (1, 0); (1, -3) ] in
  let* count =
    frequency [ (20, return n); (2, oneofl [ n - 1; n + 1 ]); (1, oneofl [ max_int; -1 ]) ]
  in
  let* jobs =
    list_repeat n (pair small_or_hostile small_or_hostile)
    >|= List.mapi (fun pos (size, req) -> (pos, size, req))
  in
  (* positions: a permutation, sometimes with one duplicate, negative or
     out-of-range entry *)
  let* jobs =
    if n = 0 then return jobs
    else
      let* k = int_range 0 (n - 1) in
      let* pos_k =
        frequencyl [ (24, k); (1, -1); (1, n); (1, (k + 1) mod n) ]
      in
      return (List.map (fun (pos, size, req) -> ((if pos = k then pos_k else pos), size, req)) jobs)
  in
  let* jobs =
    frequency
      [
        (1, return (List.sort (fun (p, _, r) (q, _, s) -> compare (r, p) (s, q)) jobs));
        (1, shuffle_l jobs);
      ]
  in
  let* header =
    let* sos = frequencyl [ (40, "sos"); (1, "SOS"); (1, "so") ] in
    let* mt = int_token m and* st = int_token scale and* ct = int_token count in
    let* extra = frequencyl [ (60, []); (1, [ "0" ]) ] in
    render_line (sos :: mt :: st :: ct :: extra)
  in
  let* lines =
    flatten_l
      (List.map
         (fun (pos, size, req) ->
           let* pt = int_token pos and* zt = int_token size and* rt = int_token req in
           let* toks =
             frequencyl [ (150, [ pt; zt; rt ]); (1, [ pt; zt ]); (1, [ pt; zt; rt; "1" ]) ]
           in
           render_line toks)
         jobs)
  in
  let* lead = frequencyl [ (10, ""); (1, "\n"); (1, " \n") ] in
  let* seps = list_repeat (List.length lines + 1) line_sep in
  let rec interleave acc lines seps =
    match (lines, seps) with
    | l :: ls, s :: ss -> interleave (acc ^ s ^ l) ls ss
    | _ -> acc
  in
  let* trail = frequencyl [ (10, "\n"); (2, ""); (1, "\n\n") ] in
  return (lead ^ header ^ interleave "" lines (List.tl seps) ^ trail)

let qcheck_decoder_matches_oracle =
  Helpers.qcheck ~count:3000 "decoder matches the list-based oracle (hostile text)"
    (QCheck.make ~print:(fun (w, s) -> Printf.sprintf "window=%b %S" w s)
       QCheck.Gen.(pair bool hostile_text))
    (fun (window, text) ->
      let show = function
        | Ok s -> "Ok " ^ s
        | Error r -> "Error " ^ Robust.Failure.invalid_to_string r
      in
      let decoded = Instance.of_string_checked ~window text in
      let lib = Result.map Instance.to_string decoded in
      let oracle = Instance_oracle.of_string_checked ~window text in
      if lib <> oracle then
        QCheck.Test.fail_reportf "of_string_checked: %s, oracle: %s" (show lib) (show oracle);
      (match decoded with
      | Ok inst when not (columns_ok inst) -> QCheck.Test.fail_reportf "columns differ in length"
      | _ -> ());
      let raising = outcome (fun () -> Instance.to_string (Instance.of_string text)) in
      let reference = outcome (fun () -> Instance_oracle.of_string text) in
      if raising <> reference then
        QCheck.Test.fail_reportf "of_string: %s, oracle: %s"
          (match raising with Ok s -> s | Error e -> e)
          (match reference with Ok s -> s | Error e -> e);
      true)

let test_decoder_huge_count () =
  let text = Printf.sprintf "sos 4 10 %d\n0 1 1\n1 1 1\n" max_int in
  match Instance.of_string_checked text with
  | Error (Robust.Failure.Malformed "Instance.of_string: job count mismatch") -> ()
  | Error r -> Alcotest.failf "wrong reason: %s" (Robust.Failure.invalid_to_string r)
  | Ok _ -> Alcotest.fail "accepted"

(* create and create_checked against the oracle: requirements drawn from
   a small range so ties are forced, lists shuffled or already sorted by
   requirement, and now and then a non-positive or overflowing entry. *)
let qcheck_create_matches_oracle =
  Helpers.qcheck ~count:1000 "create matches the list-based oracle (ties, sorted input)"
    QCheck.(
      make
        ~print:(fun (sorted, (m, (scale, specs))) ->
          Printf.sprintf "sorted=%b m=%d scale=%d [%s]" sorted m scale
            (String.concat "; " (List.map (fun (p, r) -> Printf.sprintf "%d,%d" p r) specs)))
        Gen.(
          pair bool
            (pair (int_range 1 5)
               (pair (frequencyl [ (8, 7); (1, 0) ])
                  (list_size (int_range 0 30) (pair small_or_hostile small_or_hostile))))))
    (fun (sorted, (m, (scale, specs))) ->
      let specs =
        if sorted then List.stable_sort (fun (_, r) (_, s) -> compare r s) specs else specs
      in
      let created = outcome (fun () -> Instance.create ~m ~scale specs) in
      let reference = outcome (fun () -> Instance_oracle.create ~m ~scale specs) in
      let checked w =
        Instance.create_checked ~window:w ~m ~scale specs |> Result.map Instance.to_string
      in
      (match created with
      | Ok inst when not (columns_ok inst) -> QCheck.Test.fail_reportf "columns differ in length"
      | _ -> ());
      Result.map Instance.to_string created = reference
      && checked false = Instance_oracle.create_checked ~window:false ~m ~scale specs
      && checked true = Instance_oracle.create_checked ~window:true ~m ~scale specs)

(* Building an instance allocates nothing per job. Its columns are arrays,
   which at n = 2,000 go straight to the major heap, so the minor heap
   sees a constant number of words per call; a record per job would cost
   about 4n. The columns below are unsorted, so [of_columns] sorts, and
   the text is in sorted order, so the decoder does not. Counted after
   one warm-up call. *)
let test_construction_allocation () =
  let n = 2_000 in
  let size = Array.init n (fun p -> 1 + (p mod 7)) in
  let req = Array.init n (fun p -> 1 + (p * 7919 mod 1000)) in
  let text = Instance.to_string (Instance.of_columns ~m:8 ~scale:1000 ~size ~req) in
  Alcotest.(check string) "sorted as the oracle sorts"
    (Instance_oracle.create ~m:8 ~scale:1000 (List.init n (fun p -> (size.(p), req.(p)))))
    text;
  let check what f =
    ignore (f ());
    let before = Gc.minor_words () in
    ignore (f ());
    let words = Gc.minor_words () -. before in
    if words >= float_of_int n then Alcotest.failf "%s: %.0f minor words at n = %d" what words n
  in
  check "of_columns" (fun () -> Instance.of_columns ~m:8 ~scale:1000 ~size ~req);
  check "of_string_checked" (fun () -> Instance.of_string_checked text)

(* Raw random bytes, behind no prefix, the magic word or a valid
   header: the checked parser answers Ok or a taxonomy error, under both
   validators, and never raises. *)
let prop_raw_bytes_never_raise =
  Helpers.fuzz "of_string_checked never raises on random bytes"
    ~prefixes:[ ""; "sos "; "sos 4 10 3\n" ]
    ~specials:[ ' '; '\n'; '\t'; '\r'; '-'; '+'; '#'; '_'; 'x' ]
    (fun text ->
      List.for_all
        (fun window ->
          match Sos.Instance.of_string_checked ~window text with Ok _ | Error _ -> true)
        [ false; true ])

let suite =
  ( "instance",
    [
      prop_raw_bytes_never_raise;
      Alcotest.test_case "per-job checks" `Quick test_per_job_checks;
      Alcotest.test_case "sorting" `Quick test_instance_sorting;
      Alcotest.test_case "sorted order" `Quick test_instance_sorted_order;
      Alcotest.test_case "validation" `Quick test_instance_validation;
      Alcotest.test_case "aggregates" `Quick test_instance_aggregates;
      Alcotest.test_case "rescale" `Quick test_instance_rescale;
      Alcotest.test_case "serialization roundtrip" `Quick test_instance_roundtrip;
      Alcotest.test_case "text positions are a permutation" `Quick test_instance_positions;
      Alcotest.test_case "of_floats" `Quick test_of_floats;
      Alcotest.test_case "bounds example" `Quick test_bounds_example;
      Alcotest.test_case "bounds empty" `Quick test_bounds_empty;
      Alcotest.test_case "guarantee formulas" `Quick test_guarantees;
      qcheck_sorted_after_create;
      qcheck_roundtrip;
      qcheck_lb_monotone_under_addition;
      qcheck_lb_le_trivial_schedule;
      qcheck_decoder_matches_oracle;
      Alcotest.test_case "decoder: max_int count over two lines" `Quick test_decoder_huge_count;
      qcheck_create_matches_oracle;
      Alcotest.test_case "construction allocates nothing per job" `Quick
        test_construction_allocation;
    ] )
