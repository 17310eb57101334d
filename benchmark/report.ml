(* Minimal JSON output and the metric record every workload returns. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let add_str b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Float _ -> Buffer.add_string b "null"
  | Str s -> add_str b s
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          add_str b k;
          Buffer.add_string b ": ";
          write b v)
        kvs;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  write b j;
  Buffer.contents b

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }
let metrics_json ms = Obj (List.map (fun m -> (m.name, Obj [ ("value", Float m.value); ("unit", Str m.unit) ])) ms)

(* What one workload run hands back: its gated metrics, metrics reported
   beside them, the attempted and failed counts of the result line, and
   whatever else belongs in the results file. *)
type result = {
  metrics : metric list;
  reported : metric list;
  attempted : int;
  failed : int;
  problems : string list;  (** failed correctness checks; empty = correct *)
  details : (string * json) list;
}

let result_line r =
  to_string
    (Obj
       [
         ("correct", Bool (r.problems = []));
         ("attempted", Int r.attempted);
         ("failed", Int r.failed);
         ("metrics", metrics_json r.metrics);
       ])
