let schedule_to_csv (sched : Schedule.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "step,job,assigned,consumed\n";
  let time = ref 0 in
  List.iter
    (fun (st : Schedule.step) ->
      for rep = 0 to st.repeat - 1 do
        List.iter
          (fun (a : Schedule.alloc) ->
            Buffer.add_string buf
              (Printf.sprintf "%d,%d,%d,%d\n" (!time + rep) a.job a.assigned a.consumed))
          st.allocs
      done;
      time := !time + st.repeat)
    sched.steps;
  Buffer.contents buf

let columns_to_csv_rle (c : Schedule.Columns.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "t0,repeat,job,assigned,consumed\n";
  let t0 = ref 0 in
  for b = 0 to c.blocks - 1 do
    let repeat = c.repeat.(b) in
    for i = c.first.(b) to c.first.(b + 1) - 1 do
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%d,%d\n" !t0 repeat c.job.(i) c.assigned.(i) c.consumed.(i))
    done;
    t0 := !t0 + repeat
  done;
  Buffer.contents buf

let schedule_to_csv_rle sched = columns_to_csv_rle (Schedule.Columns.of_schedule sched)

let instance_to_csv (inst : Instance.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "job,original_position,size,req,scale,m\n";
  for i = 0 to Instance.n inst - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%d,%d,%d,%d,%d,%d\n" i inst.original.(i) inst.size.(i) inst.req.(i)
         inst.scale inst.m)
  done;
  Buffer.contents buf

let utilization_to_csv (sched : Schedule.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "t0,len,assigned,consumed,jobs\n";
  let scale = float_of_int sched.Schedule.inst.Instance.scale in
  Schedule.fold_segments sched ~init:() ~f:(fun () ~t0 ~repeat allocs ->
      let assigned, consumed, jobs =
        List.fold_left
          (fun (a, c, k) (al : Schedule.alloc) -> (a + al.assigned, c + al.consumed, k + 1))
          (0, 0, 0) allocs
      in
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%.6f,%.6f,%d\n" t0 repeat
           (float_of_int assigned /. scale)
           (float_of_int consumed /. scale)
           jobs));
  Buffer.contents buf

let trace_to_csv (trace : Listing1.step_info list) (inst : Instance.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "time,window_size,window_rsum,case,extra,left_border,right_border,finished\n";
  List.iter
    (fun (i : Listing1.step_info) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%.6f,%s,%s,%b,%b,%d\n" i.time
           (List.length i.window)
           (float_of_int i.window_rsum /. float_of_int inst.Instance.scale)
           (match i.case with Assign.Case_full -> "full" | Assign.Case_partial -> "partial")
           (match i.extra with Some j -> string_of_int j | None -> "")
           i.at_left_border i.at_right_border
           (List.length i.finished)))
    trace;
  Buffer.contents buf
