(* Tests for Sos.Job, Sos.Instance and Sos.Bounds. *)

open Sos

let test_job_smart_constructor () =
  Alcotest.check_raises "size 0" (Invalid_argument "Job.v: size must be positive")
    (fun () -> ignore (Job.v ~id:0 ~size:0 ~req:1));
  Alcotest.check_raises "req 0" (Invalid_argument "Job.v: req must be positive")
    (fun () -> ignore (Job.v ~id:0 ~size:1 ~req:0));
  let j = Job.v ~id:3 ~size:4 ~req:5 in
  Alcotest.(check int) "s = p*r" 20 (Job.s j)

let test_instance_sorting () =
  let inst = Instance.create ~m:3 ~scale:100 [ (1, 70); (2, 10); (1, 40) ] in
  Alcotest.(check int) "n" 3 (Instance.n inst);
  Alcotest.(check (list int)) "sorted requirements" [ 10; 40; 70 ]
    (List.init 3 (fun i -> (Instance.job inst i).Job.req));
  Alcotest.(check (array int)) "original positions" [| 1; 2; 0 |] inst.Instance.original

let test_instance_ids_relabelled () =
  let inst = Instance.create ~m:2 ~scale:10 [ (1, 9); (1, 1) ] in
  Alcotest.(check (list int)) "ids are sorted positions" [ 0; 1 ]
    (List.init 2 (fun i -> (Instance.job inst i).Job.id))

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
  Alcotest.(check (list int)) "reqs scaled" [ 18; 42 ]
    (List.init 2 (fun i -> (Instance.job r i).Job.req));
  Alcotest.(check int) "lower bound unchanged" (Bounds.lower_bound inst)
    (Bounds.lower_bound r)

let test_instance_roundtrip () =
  let inst = Instance.create ~m:5 ~scale:720720 [ (3, 100); (1, 720720); (7, 5) ] in
  let inst' = Instance.of_string (Instance.to_string inst) in
  Alcotest.(check int) "m" inst.Instance.m inst'.Instance.m;
  Alcotest.(check int) "scale" inst.Instance.scale inst'.Instance.scale;
  Alcotest.(check bool) "jobs equal" true
    (Array.for_all2 Job.equal inst.Instance.jobs inst'.Instance.jobs);
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
  Alcotest.(check (list int)) "quantized (sorted)" [ 1; 250; 500 ]
    (List.init 3 (fun i -> (Instance.job inst i).Job.req))

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
        if (Instance.job inst i).Job.req > (Instance.job inst (i + 1)).Job.req then
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

let suite =
  ( "instance",
    [
      Alcotest.test_case "job smart constructor" `Quick test_job_smart_constructor;
      Alcotest.test_case "sorting" `Quick test_instance_sorting;
      Alcotest.test_case "id relabelling" `Quick test_instance_ids_relabelled;
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
    ] )
