(* Jobs get colors by rotating the hue by the golden angle: adjacent ids are
   far apart on the wheel, and the palette is stable across renders. *)
let color_of_job j =
  let hue = float_of_int (j * 137) in
  let hue = hue -. (360.0 *. Float.of_int (int_of_float (hue /. 360.0))) in
  (* hsl → rgb with fixed s = 0.55, l = 0.62 *)
  let s = 0.55 and l = 0.62 in
  let c = (1.0 -. Float.abs ((2.0 *. l) -. 1.0)) *. s in
  let h' = hue /. 60.0 in
  let x = c *. (1.0 -. Float.abs (Float.rem h' 2.0 -. 1.0)) in
  let r, g, b =
    if h' < 1.0 then (c, x, 0.0)
    else if h' < 2.0 then (x, c, 0.0)
    else if h' < 3.0 then (0.0, c, x)
    else if h' < 4.0 then (0.0, x, c)
    else if h' < 5.0 then (x, 0.0, c)
    else (c, 0.0, x)
  in
  let m = l -. (c /. 2.0) in
  let byte v = int_of_float (255.0 *. (v +. m)) in
  Printf.sprintf "#%02x%02x%02x" (byte r) (byte g) (byte b)

let width = 960
let row_height = 22

let render ?title (c : Schedule.Columns.t) =
  let m = c.inst.Instance.m in
  let makespan = max 1 c.makespan in
  let label_w = 36 in
  let chart_w = width - label_w - 10 in
  let x_of t = label_w + (t * chart_w / makespan) in
  let title_h = match title with Some _ -> 24 | None -> 0 in
  let strip_h = 40 in
  let height = title_h + (m * row_height) + strip_h + 30 in
  let buf = Buffer.create 16384 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        font-family=\"sans-serif\" font-size=\"11\">\n"
       width height);
  (match title with
  | Some t ->
      Buffer.add_string buf
        (Printf.sprintf "<text x=\"%d\" y=\"16\" font-size=\"14\">%s</text>\n" label_w t)
  | None -> ());
  (* Rows: one bar per (job, contiguous interval). Rebuild intervals from
     the processor assignment. *)
  let placements = Schedule.processor_assignment c in
  let proc_of = Hashtbl.create 64 and start_of = Hashtbl.create 64 in
  List.iter
    (fun (j, p, t0) ->
      Hashtbl.replace proc_of j p;
      Hashtbl.replace start_of j t0)
    placements;
  let last_of = Hashtbl.create 64 in
  List.iter (fun (j, _, t1) -> Hashtbl.replace last_of j t1) (Schedule.job_spans c);
  for p = 0 to m - 1 do
    let y = title_h + (p * row_height) in
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"2\" y=\"%d\" fill=\"#555\">p%d</text>\n"
         (y + row_height - 7) p);
    Buffer.add_string buf
      (Printf.sprintf
         "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"#f4f4f4\"/>\n"
         label_w y chart_w (row_height - 2))
  done;
  (* Emit bars in ascending job-id order: Hashtbl iteration order is
     unspecified (lint rule R5) and the SVG must be byte-identical run to
     run — it is diffed as a captured artifact. *)
  let jobs = List.sort_uniq compare (List.map (fun (j, _, _) -> j) placements) in
  List.iter
    (fun j ->
      let p = Hashtbl.find proc_of j in
      let t0 = Hashtbl.find start_of j in
      let t1 = Hashtbl.find last_of j in
      let x0 = x_of t0 and x1 = x_of (t1 + 1) in
      let y = title_h + (p * row_height) in
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\" \
            stroke=\"#333\" stroke-width=\"0.5\"><title>job %d: steps %d-%d</title></rect>\n"
           x0 y (max 1 (x1 - x0)) (row_height - 2) (color_of_job j) j t0 t1);
      if x1 - x0 > 24 then
        Buffer.add_string buf
          (Printf.sprintf
             "<text x=\"%d\" y=\"%d\" fill=\"#000\">%d</text>\n"
             (x0 + 3) (y + row_height - 7) j))
    jobs;
  (* Utilization strip: one rect per step-function segment, not per time
     step — both smaller output and O(|steps|) render time. *)
  let u = Schedule.utilization c in
  let y0 = title_h + (m * row_height) + 12 in
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"2\" y=\"%d\" fill=\"#555\" font-size=\"9\">res</text>\n"
       (y0 + strip_h - 14));
  Array.iter
    (fun (t0, len, v) ->
      let h = int_of_float (v *. float_of_int (strip_h - 12)) in
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"#4477aa\"/>\n"
           (x_of t0)
           (y0 + (strip_h - 12) - h)
           (max 1 (x_of (t0 + len) - x_of t0))
           h))
    u;
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"%d\" y=\"%d\" fill=\"#555\" font-size=\"9\">0</text>\n\
        <text x=\"%d\" y=\"%d\" fill=\"#555\" font-size=\"9\">t = %d</text>\n"
       label_w (height - 4) (width - 60) (height - 4) makespan);
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf
