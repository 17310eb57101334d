type align = Left | Right

type row = Cells of string list | Sep

type t = {
  title : string option;
  headers : string list;
  aligns : align list;
  mutable rows : row list; (* reversed *)
}

let create ?title headers =
  {
    title;
    headers = List.map fst headers;
    aligns = List.map snd headers;
    rows = [];
  }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: arity mismatch";
  t.rows <- Cells cells :: t.rows

let add_sep t = t.rows <- Sep :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  end

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.fold_left
      (fun widths row ->
        match row with
        | Sep -> widths
        | Cells cells -> List.map2 (fun w c -> max w (String.length c)) widths cells)
      (List.map String.length t.headers)
      rows
  in
  let buf = Buffer.create 1024 in
  let rule () =
    let parts = List.map (fun w -> String.make w '-') widths in
    Buffer.add_string buf (String.concat "-+-" parts);
    Buffer.add_char buf '\n'
  in
  let line cells =
    let parts = List.map2 (fun (a, w) c -> pad a w c) (List.combine t.aligns widths) cells in
    Buffer.add_string buf (String.concat " | " parts);
    Buffer.add_char buf '\n'
  in
  (match t.title with
  | Some title ->
      Buffer.add_string buf ("== " ^ title ^ " ==");
      Buffer.add_char buf '\n'
  | None -> ());
  line t.headers;
  rule ();
  List.iter (function Sep -> rule () | Cells cells -> line cells) rows;
  Buffer.contents buf

let[@sos.allow
     "R4: Table.print is the one explicit stdout sink in prelude, called only by bench/ and \
      examples/ whose stdout IS the result; library emitters use render"] print t =
  print_string (render t);
  print_newline ()

let fmt_float ?(digits = 3) x = Printf.sprintf "%.*f" digits x
let fmt_ratio x = Printf.sprintf "%.4f" x
let fmt_int = string_of_int
