let schedule_to_csv (c : Schedule.Columns.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "step,job,assigned,consumed\n";
  let t0 = ref 0 in
  for b = 0 to c.blocks - 1 do
    for step = !t0 to !t0 + c.repeat.(b) - 1 do
      for i = c.first.(b) to c.first.(b + 1) - 1 do
        Buffer.add_string buf
          (Printf.sprintf "%d,%d,%d,%d\n" step c.job.(i) c.assigned.(i) c.consumed.(i))
      done
    done;
    t0 := !t0 + c.repeat.(b)
  done;
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

let instance_to_csv (inst : Instance.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "job,original_position,size,req,scale,m\n";
  for i = 0 to Instance.n inst - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%d,%d,%d,%d,%d,%d\n" i inst.original.(i) inst.size.(i) inst.req.(i)
         inst.scale inst.m)
  done;
  Buffer.contents buf

let utilization_to_csv (c : Schedule.Columns.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "t0,len,assigned,consumed,jobs\n";
  let scale = float_of_int c.inst.Instance.scale in
  let t0 = ref 0 in
  for b = 0 to c.blocks - 1 do
    let assigned = ref 0 and consumed = ref 0 in
    for i = c.first.(b) to c.first.(b + 1) - 1 do
      assigned := !assigned + c.assigned.(i);
      consumed := !consumed + c.consumed.(i)
    done;
    Buffer.add_string buf
      (Printf.sprintf "%d,%d,%.6f,%.6f,%d\n" !t0 c.repeat.(b)
         (float_of_int !assigned /. scale)
         (float_of_int !consumed /. scale)
         (c.first.(b + 1) - c.first.(b)));
    t0 := !t0 + c.repeat.(b)
  done;
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
