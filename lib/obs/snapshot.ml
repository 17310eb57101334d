(* Parser for the three snapshot renderings Metrics can produce — plain
   text, JSON, and OpenMetrics — into one flat (key, class, value) list,
   so snapshots can be diffed regardless of how they were captured.
   Parsing is line-based and tolerant: the formats are all one entry per
   line by construction, and unknown lines are skipped rather than
   rejected (a diff tool should not fall over on a hand-edited file).

   Key scheme (chosen so text and JSON agree): a counter contributes
   [name]; a histogram contributes [name.count], [name.p50], [name.p90],
   [name.p99], [name.max]. OpenMetrics keys keep their sanitized metric
   names ([sos_fast_runs_total]) — compare prom against prom, not prom
   against JSON. *)

type entry = { key : string; cls : string option; v : float }

let is_space c = c = ' ' || c = '\t'

let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = if i + nn > nh then None else if String.sub hay i nn = needle then Some i else go (i + 1) in
  go 0

(* ["key": <token>] on a JSON line; token is a bare number or a quoted
   string, terminated by [,}\]]. *)
let json_field line key =
  match find_sub line (Printf.sprintf "\"%s\":" key) with
  | None -> None
  | Some i ->
      let n = String.length line in
      let j = ref (i + String.length key + 3) in
      while !j < n && is_space line.[!j] do incr j done;
      if !j >= n then None
      else if line.[!j] = '"' then begin
        let k = ref (!j + 1) in
        while !k < n && line.[!k] <> '"' do incr k done;
        Some (String.sub line (!j + 1) (!k - !j - 1))
      end
      else begin
        let k = ref !j in
        while
          !k < n && (match line.[!k] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
        do
          incr k
        done;
        if !k = !j then None else Some (String.sub line !j (!k - !j))
      end

let parse_json body =
  let entries = ref [] in
  let add key cls v = entries := { key; cls; v } :: !entries in
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         match json_field line "name" with
         | None -> ()
         | Some name ->
             let cls = json_field line "class" in
             let num key = Option.bind (json_field line key) float_of_string_opt in
             (match num "value" with
             | Some v -> add name cls v
             | None ->
                 List.iter
                   (fun k ->
                     match num k with
                     | Some v -> add (name ^ "." ^ k) cls v
                     | None -> ())
                   [ "count"; "p50"; "p90"; "p99"; "max" ]));
  List.rev !entries

let parse_prom body =
  let entries = ref [] in
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then ()
         else if
           (* bucket series are shape, not scalars to gate on *)
           find_sub line "le=\"" <> None
         then ()
         else begin
           let name_end =
             match String.index_opt line '{' with
             | Some i -> i
             | None -> ( match String.index_opt line ' ' with Some i -> i | None -> 0)
           in
           if name_end > 0 then begin
             let key = String.sub line 0 name_end in
             let cls =
               match find_sub line "class=\"" with
               | None -> None
               | Some i ->
                   let s = i + 7 in
                   String.index_from_opt line s '"'
                   |> Option.map (fun e -> String.sub line s (e - s))
             in
             match String.rindex_opt line ' ' with
             | None -> ()
             | Some sp -> (
                 match float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)) with
                 | Some v -> entries := { key; cls; v } :: !entries
                 | None -> ())
           end
         end);
  List.rev !entries

let parse_text body =
  let entries = ref [] in
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         let line = String.trim line in
         if line = "" then ()
         else
           match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
           | [ name; v ] when float_of_string_opt v <> None ->
               entries := { key = name; cls = None; v = float_of_string v } :: !entries
           | name :: fields when fields <> [] ->
               List.iter
                 (fun tok ->
                   match String.index_opt tok '=' with
                   | None -> ()
                   | Some eq ->
                       let k = String.sub tok 0 eq in
                       let raw = String.sub tok (eq + 1) (String.length tok - eq - 1) in
                       (match float_of_string_opt raw with
                       | Some v -> entries := { key = name ^ "." ^ k; cls = None; v } :: !entries
                       | None -> ()))
                 fields
           | _ -> ());
  List.rev !entries

let parse body =
  let trimmed = String.trim body in
  if trimmed = "" then []
  else if trimmed.[0] = '{' then parse_json body
  else if trimmed.[0] = '#' || find_sub trimmed "_total{" <> None then parse_prom body
  else parse_text body

let load path = parse (In_channel.with_open_text path In_channel.input_all)
