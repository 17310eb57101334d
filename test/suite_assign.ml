(* Direct unit tests of the per-step assignment (Assign) against the
   documented case split of Listing 1, of the splittable one-step engine,
   and of the number-theory helpers that power the step-skipping solver. *)

open Sos
module Numth = Prelude.Numth

let mk ?(m = 4) reqs_sizes =
  State.create (Instance.create ~m ~scale:100 reqs_sizes)

let allocs_of outcome =
  List.map
    (fun (a : Schedule.alloc) -> (a.job, a.assigned, a.consumed))
    (Assign.allocs outcome)

(* --- case 1: r(W∖F) ≥ budget --- *)

let test_case1_no_fracture () =
  (* reqs 40,50,60: window {0,1,2}: r(W) = 150 ≥ 100 → case 1.
     jobs 0,1 get full; max gets min(100−90, r=60) = 10. *)
  let st = mk [ (2, 40); (2, 50); (2, 60) ] in
  let w = Window.of_members st [ 0; 1; 2 ] in
  let o = Assign.compute st w ~budget:100 ~extra:true in
  Alcotest.(check bool) "case 1" true (o.Assign.case = Assign.Case_full);
  Alcotest.(check (list (triple int int int))) "allocations"
    [ (0, 40, 40); (1, 50, 50); (2, 10, 10) ]
    (allocs_of o);
  Alcotest.(check (option int)) "no extra" None o.Assign.extra

let test_case1_unfractures_iota () =
  (* Fracture job 0 (q = 15), keep r(W∖{0}) = 50+60 = 110 ≥ 100 → case 1:
     ι receives exactly q, max the leftover. *)
  let st = mk [ (2, 40); (2, 50); (2, 60) ] in
  State.consume st 0 25;
  (* s0 = 80−25 = 55 → q = 55 mod 40 = 15 *)
  let w = Window.of_members st [ 0; 1; 2 ] in
  let o = Assign.compute st w ~budget:100 ~extra:true in
  Alcotest.(check bool) "case 1" true (o.Assign.case = Assign.Case_full);
  Alcotest.(check (list (triple int int int))) "ι gets q, max the rest"
    [ (0, 15, 15); (1, 50, 50); (2, 35, 35) ]
    (allocs_of o);
  (* Applying the step leaves job 0 unfractured. *)
  let _ = Assign.apply st o in
  Alcotest.(check bool) "ι unfractured" false (State.fractured st 0);
  Alcotest.(check bool) "max fractured now" true (State.fractured st 2)

let test_case2_full_requirements () =
  (* reqs 10,20,30 → r(W) = 60 < 100 → case 2, no fracture: everyone gets
     the full requirement, leftover 40 starts the extra job (req 50). *)
  let st = mk ~m:5 [ (2, 10); (2, 20); (2, 30); (2, 50) ] in
  let w = Window.of_members st [ 0; 1; 2 ] in
  let o = Assign.compute st w ~budget:100 ~extra:true in
  Alcotest.(check bool) "case 2" true (o.Assign.case = Assign.Case_partial);
  Alcotest.(check (option int)) "extra started" (Some 3) o.Assign.extra;
  Alcotest.(check (list (triple int int int))) "allocations"
    [ (0, 10, 10); (1, 20, 20); (2, 30, 30); (3, 40, 40) ]
    (allocs_of o);
  Alcotest.(check (list int)) "window extended" [ 0; 1; 2; 3 ]
    (Window.members st o.Assign.window)

let test_case2_no_extra_when_disabled () =
  let st = mk ~m:5 [ (2, 10); (2, 20); (2, 30); (2, 50) ] in
  let w = Window.of_members st [ 0; 1; 2 ] in
  let o = Assign.compute st w ~budget:100 ~extra:false in
  Alcotest.(check (option int)) "no extra" None o.Assign.extra;
  Alcotest.(check int) "three allocations" 3 (List.length (Assign.allocs o))

let test_case2_iota_capped () =
  (* Fractured ι with tiny remainder: it gets min(gap, s, r). *)
  let st = mk [ (1, 30); (1, 40); (2, 90) ] in
  (* job 2: s = 180; consume 175 → s = 5, q = 5 (fractured). *)
  State.consume st 2 175;
  let w = Window.of_members st [ 0; 1; 2 ] in
  (* r(W∖F) = 70 < 100 → case 2: jobs 0,1 full; ι gets min(30, 5, 90) = 5;
     leftover 25 exists but R_t(W) = ∅ → no extra. *)
  let o = Assign.compute st w ~budget:100 ~extra:true in
  Alcotest.(check (list (triple int int int))) "allocations"
    [ (0, 30, 30); (1, 40, 40); (2, 5, 5) ]
    (allocs_of o);
  Alcotest.(check (option int)) "no job to the right" None o.Assign.extra

let test_single_fractured_job_alone () =
  let st = mk [ (3, 120) ] in
  State.consume st 0 110;
  (* s = 250, q = 250 mod 120 = 10? 3*120 = 360 − 110 = 250; 250 mod 120 = 10 ✓ *)
  let w = Window.of_members st [ 0 ] in
  let o = Assign.compute st w ~budget:100 ~extra:true in
  (* case 2 (r(W∖F) = 0): ι gets min(100, 250, 120) = 100. *)
  Alcotest.(check (list (triple int int int))) "whole budget" [ (0, 100, 100) ] (allocs_of o)

let test_two_fractured_rejected () =
  let st = mk [ (2, 40); (2, 50) ] in
  State.consume st 0 5;
  State.consume st 1 7;
  let w = Window.of_members st [ 0; 1 ] in
  Alcotest.check_raises "invariant guarded"
    (Invalid_argument "Assign.compute: more than one fractured job in window")
    (fun () -> ignore (Assign.compute st w ~budget:100 ~extra:true))

(* --- splittable one-step engine --- *)

let test_splittable_step_finishes_prefix () =
  let items = [ { Splittable.id = 0; size = 30 }; { id = 1; size = 40 }; { id = 2; size = 50 } ] in
  let allocs, rest = Splittable.step items ~size:3 ~budget:100 in
  Alcotest.(check (list (pair int int))) "all but last finish, last split"
    [ (0, 30); (1, 40); (2, 30) ]
    allocs;
  Alcotest.(check (list (pair int int))) "remainder reinserted"
    [ (2, 20) ]
    (List.map (fun it -> (it.Splittable.id, it.Splittable.size)) rest)

let test_splittable_step_slides () =
  (* size 2, budget 100, items 10,20,80: grow → {10,20} (r=30 < 100, size
     cap); slide → {20,80} (r=100 ≥ 100 stop): 20 finishes, 80 gets 80. *)
  let items = [ { Splittable.id = 0; size = 10 }; { id = 1; size = 20 }; { id = 2; size = 80 } ] in
  let allocs, rest = Splittable.step items ~size:2 ~budget:100 in
  Alcotest.(check (list (pair int int))) "slid window processed"
    [ (1, 20); (2, 80) ]
    allocs;
  Alcotest.(check (list (pair int int))) "skipped item remains"
    [ (0, 10) ]
    (List.map (fun it -> (it.Splittable.id, it.Splittable.size)) rest)

let test_splittable_step_degenerate () =
  let items = [ { Splittable.id = 0; size = 10 } ] in
  Alcotest.(check bool) "budget 0 no-op" true (Splittable.step items ~size:2 ~budget:0 = ([], items));
  Alcotest.(check bool) "size 0 no-op" true (Splittable.step items ~size:0 ~budget:5 = ([], items));
  Alcotest.(check bool) "empty no-op" true (Splittable.step [] ~size:2 ~budget:5 = ([], []))

let qcheck_splittable_conservation =
  Helpers.qcheck "splittable pack conserves mass and respects bins"
    QCheck.(
      pair (int_range 1 5)
        (list_of_size Gen.(int_range 1 15) (int_range 1 50)))
    (fun (k, sizes) ->
      let items = List.mapi (fun i size -> { Splittable.id = i; size }) sizes in
      let bins = Splittable.pack items ~size:k ~budget:20 in
      let total =
        List.fold_left
          (fun acc bin -> List.fold_left (fun acc (_, a) -> acc + a) acc bin)
          0 bins
      in
      total = List.fold_left ( + ) 0 sizes
      && List.for_all
           (fun bin ->
             List.length bin <= k
             && List.fold_left (fun acc (_, a) -> acc + a) 0 bin <= 20)
           bins)

(* --- number theory --- *)

let test_egcd () =
  List.iter
    (fun (a, b) ->
      let g, x, y = Numth.egcd a b in
      Alcotest.(check int) (Printf.sprintf "bezout %d %d" a b) g ((a * x) + (b * y));
      Alcotest.(check int) "gcd" g (Numth.gcd a b))
    [ (12, 18); (35, 64); (1, 1); (0, 7); (100, 100); (17, 289) ]

let test_congruence_brute () =
  (* Cross-check against brute force for all small (c, q, r). *)
  for r = 1 to 25 do
    for c = 0 to 30 do
      for q = 0 to r - 1 do
        let brute =
          let rec go i = if i > r then None else if i * c mod r = q then Some i else go (i + 1) in
          go 1
        in
        let fast = Numth.min_congruence_solution ~c ~q ~r in
        if brute <> fast then
          Alcotest.failf "congruence mismatch c=%d q=%d r=%d: brute=%s fast=%s" c q r
            (match brute with Some i -> string_of_int i | None -> "-")
            (match fast with Some i -> string_of_int i | None -> "-")
      done
    done
  done

let test_ceil_div () =
  Alcotest.(check int) "7/2" 4 (Numth.ceil_div 7 2);
  Alcotest.(check int) "8/2" 4 (Numth.ceil_div 8 2);
  Alcotest.(check int) "0/5" 0 (Numth.ceil_div 0 5);
  Alcotest.(check int) "neg" 0 (Numth.ceil_div (-3) 5)

let suite =
  ( "assign",
    [
      Alcotest.test_case "case 1: no fracture" `Quick test_case1_no_fracture;
      Alcotest.test_case "case 1: un-fracture swap" `Quick test_case1_unfractures_iota;
      Alcotest.test_case "case 2: full requirements + extra" `Quick
        test_case2_full_requirements;
      Alcotest.test_case "case 2: extra disabled" `Quick test_case2_no_extra_when_disabled;
      Alcotest.test_case "case 2: ι capped by remaining" `Quick test_case2_iota_capped;
      Alcotest.test_case "single fractured job" `Quick test_single_fractured_job_alone;
      Alcotest.test_case "two fractured rejected" `Quick test_two_fractured_rejected;
      Alcotest.test_case "splittable step: prefix" `Quick test_splittable_step_finishes_prefix;
      Alcotest.test_case "splittable step: slides" `Quick test_splittable_step_slides;
      Alcotest.test_case "splittable step: degenerate" `Quick test_splittable_step_degenerate;
      qcheck_splittable_conservation;
      Alcotest.test_case "egcd/bezout" `Quick test_egcd;
      Alcotest.test_case "congruence vs brute force" `Quick test_congruence_brute;
      Alcotest.test_case "ceil_div" `Quick test_ceil_div;
    ] )
