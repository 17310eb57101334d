(* soslint — repo-invariant static analysis for sharing-is-caring.

   The repo's reproducibility guarantee (byte-identical solver output and
   deterministic telemetry snapshots at any -j) rests on conventions that
   the compiler cannot check: seeded randomness only, one wall-clock
   chokepoint, Atomic-not-Mutex in libraries, stdout purity, ordered
   Hashtbl emission, the Robust.Failure taxonomy on hot paths, and no
   polymorphic compare on floats. This tool parses every .ml/.mli under
   lib/ bin/ bench/ with ppxlib (parse only — no typing, so it runs in
   milliseconds and needs no build) and enforces rules R1-R7; see
   doc/LINT.md for the catalogue and the suppression policy.

   A hit is suppressible only by an explicit attribute carrying the rule
   id and a reason:

     let[@sos.allow "R5: zeroing is order-insensitive"] reset () = ...
     [@@@sos.allow "R3: this file is the sanctioned blocking queue"]

   Suppressed hits are counted, reported in the JSON summary, and checked
   against a committed baseline so suppressions cannot creep in silently. *)

open Ppxlib

(* The ppxlib frontend (file walk, parsing, [@sos.allow] payload grammar,
   JSON escaping, baseline cycle) lives in Lintkit and is shared with
   sosgraph (tools/analysis/), the whole-program companion to this
   per-file pass. *)

let starts_with = Lintkit.starts_with
let json_escape = Lintkit.json_escape
let flatten = Lintkit.flatten

(* ------------------------------------------------------------ rule set *)

let rule_ids = [ "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7" ]

let rule_title = function
  | "R1" -> "seeded-rng-only"
  | "R2" -> "wall-clock-chokepoint"
  | "R3" -> "atomic-not-mutex"
  | "R4" -> "stdout-purity"
  | "R5" -> "ordered-hashtbl-emission"
  | "R6" -> "failure-taxonomy"
  | "R7" -> "explicit-float-compare"
  | _ -> "allow-syntax"

(* Path helpers. Relative paths always use '/' and are relative to
   --root, so rule scoping and output are machine-independent. *)

let in_lib rel = starts_with ~prefix:"lib/" rel

(* R6 applies where the Robust.Failure taxonomy is the error contract:
   the engine and resilience layers in full, plus the solver run loops.
   Structure modules (State, Window, Assign, ...) keep [invalid_arg] as
   their documented API contract and are out of scope; see doc/LINT.md. *)
let r6_hot rel =
  starts_with ~prefix:"lib/engine/" rel
  || starts_with ~prefix:"lib/robust/" rel
  || List.mem rel
       [
         "lib/sos/fast.ml";
         "lib/sos/listing1.ml";
         "lib/sos/online.ml";
         "lib/sos/ablation.ml";
         "lib/sos/preemptive.ml";
       ]

let rule_in_scope rule rel =
  match rule with
  | "R1" -> rel <> "lib/prelude/rng.ml" && rel <> "lib/prelude/rng.mli"
  | "R2" -> rel <> "lib/prelude/clock.ml" && rel <> "lib/prelude/clock.mli"
  | "R3" | "R4" -> in_lib rel
  | "R5" -> true
  | "R6" -> r6_hot rel
  | "R7" -> starts_with ~prefix:"lib/sos/" rel || starts_with ~prefix:"lib/sas/" rel
  | _ -> true

(* ------------------------------------------------------- found objects *)

type hit = {
  h_file : string;
  h_line : int;
  h_col : int;
  h_rule : string;
  h_msg : string;
  mutable h_suppressed : bool;
}

type allow_site = {
  a_file : string;
  a_line : int;
  a_rule : string;
  a_reason : string;
  mutable a_uses : int;
}

let hits : hit list ref = ref []
let allows : allow_site list ref = ref []
let parse_errors : string list ref = ref []

let add_hit ~rel ~loc ~rule ~msg ~active =
  if rule_in_scope rule rel then begin
    let h =
      {
        h_file = rel;
        h_line = loc.loc_start.pos_lnum;
        h_col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
        h_rule = rule;
        h_msg = msg;
        h_suppressed = false;
      }
    in
    (match List.find_opt (fun a -> a.a_rule = rule) active with
    | Some a ->
        a.a_uses <- a.a_uses + 1;
        h.h_suppressed <- true
    | None -> ());
    hits := h :: !hits
  end

(* ------------------------------------------------- attribute handling *)

(* [@sos.allow "Rn: reason"] — exactly one rule id, nonempty reason.
   Anything else under the sos.allow name is itself reported (rule R0)
   so a typo cannot silently suppress nothing. *)

let allow_of_attribute ~rel (a : attribute) : allow_site option =
  let loc = a.attr_loc in
  let bad msg =
    add_hit ~rel ~loc ~rule:"R0"
      ~msg:(Printf.sprintf "malformed [@sos.allow]: %s" msg)
      ~active:[];
    None
  in
  match Lintkit.allow_attr_payload a with
  | None -> None
  | Some (Error msg) -> bad msg
  | Some (Ok s) -> (
      match Lintkit.parse_allow_payload ~valid_ids:rule_ids ~expected:"R1..R7" s with
      | Ok (id, reason) ->
          let site =
            {
              a_file = rel;
              a_line = loc.loc_start.pos_lnum;
              a_rule = id;
              a_reason = reason;
              a_uses = 0;
            }
          in
          allows := site :: !allows;
          Some site
      | Error msg -> (
          (* An A-pass payload belongs to sosgraph (tools/analysis) and
             is not ours to police; only a payload neither tool
             recognises is malformed from soslint's side. *)
          match
            Lintkit.parse_allow_payload ~valid_ids:[ "A1"; "A2"; "A3"; "A4" ]
              ~expected:"A1..A4" s
          with
          | Ok _ -> None
          | Error _ -> bad msg))

(* --------------------------------------------------- syntactic checks *)

(* Module aliases: [module U = Unix] lets [U.time ()] evade a path match,
   so every file's alias bindings are collected up front (including inside
   nested modules — parse-only, no scoping subtleties honoured) and ident
   paths are expanded through them before rule matching. Chains
   ([module A = U]) resolve through a bounded walk. *)

let collect_aliases st =
  let aliases : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  let iter =
    object
      inherit Ast_traverse.iter as super

      method! module_binding mb =
        (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
        | Some name, Pmod_ident { txt; _ } -> Hashtbl.replace aliases name (flatten txt)
        | _ -> ());
        super#module_binding mb
    end
  in
  iter#structure st;
  aliases

let expand_aliases aliases parts =
  let rec go fuel parts =
    match parts with
    | head :: rest when fuel > 0 -> (
        match Hashtbl.find_opt aliases head with
        | Some target when target <> parts -> go (fuel - 1) (target @ rest)
        | _ -> parts)
    | _ -> parts
  in
  go 8 parts

let r3_msg parts = String.concat "." parts ^ ": libraries are Atomic-only (deterministic)"

let ident_rule parts =
  match parts with
  | [ "Random" ] | "Random" :: _ ->
      Some ("R1", "stdlib Random is global mutable state; use Prelude.Rng (seeded, splittable)")
  | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] | [ "Sys"; "time" ] ->
      Some
        ( "R2",
          Printf.sprintf "%s: wall-clock reads go through Prelude.Clock only"
            (String.concat "." parts) )
  | "Mutex" :: _ | "Condition" :: _ -> Some ("R3", r3_msg parts)
  | [ p ]
    when List.mem p
           [
             "print_string";
             "print_endline";
             "print_newline";
             "print_int";
             "print_float";
             "print_char";
             "print_bytes";
           ] ->
      Some ("R4", p ^ ": stdout belongs to sosctl results, not library code")
  | [ "Printf"; "printf" ] | [ "Format"; "printf" ] | [ "Format"; "print_string" ]
  | [ "Format"; "print_newline" ] | [ "Format"; "print_float" ] | [ "Format"; "print_int" ] ->
      Some
        ( "R4",
          String.concat "." parts ^ ": stdout belongs to sosctl results, not library code" )
  | [ "stdout" ] -> Some ("R4", "stdout handle used from library code")
  | [ "Hashtbl"; "iter" ] | [ "Hashtbl"; "fold" ] ->
      Some
        ( "R5",
          String.concat "." parts
          ^ ": iteration order is unspecified; sort keys before any emission/digest" )
  | [ "failwith" ] ->
      Some ("R6", "failwith: hot paths raise Robust.Failure carriers (or Failure.internal_error)")
  | [ "invalid_arg" ] ->
      Some ("R6", "invalid_arg: hot paths raise Robust.Failure carriers")
  | _ -> None

(* R7: a syntactic float-bearing expression — float literal, float
   arithmetic, a float stdlib constant, or int->float conversion
   anywhere in the subtree. Parse-only analysis cannot see types, so
   float->int conversions ([int_of_float], [truncate], [Float.to_int],
   [Float.compare], ...) are barriers: their result is not a float even
   though their arguments are. The heuristic has no false positives on
   this repo and catches the patterns that actually bite (nan-unsafe
   [=], boxed polymorphic [compare]/[min]). *)
let rec float_bearing e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt = Lident ("nan" | "infinity" | "neg_infinity" | "epsilon_float" | "max_float" | "min_float"); _ } ->
      true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident ("int_of_float" | "truncate"); _ }; _ }, _) ->
      false
  | Pexp_apply
      ( {
          pexp_desc =
            Pexp_ident
              {
                txt =
                  Ldot
                    ( Lident "Float",
                      ( "to_int" | "compare" | "equal" | "is_nan" | "is_finite" | "is_integer"
                      | "sign_bit" | "to_string" ) );
                _;
              };
          _;
        },
        _ ) ->
      false
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident ("+." | "-." | "*." | "/." | "**" | "~-."); _ }; _ }, _) ->
      true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident "float_of_int"; _ }; _ }, _) -> true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Ldot (Lident "Float", _); _ }; _ }, args) ->
      List.exists (fun (_, a) -> float_bearing a) args
  | Pexp_apply (f, args) -> float_bearing f || List.exists (fun (_, a) -> float_bearing a) args
  | Pexp_tuple es -> List.exists float_bearing es
  | Pexp_construct (_, Some e) -> float_bearing e
  | Pexp_field (e, _) -> float_bearing e
  | _ -> false

let poly_cmp_ops = [ "="; "<>"; "compare"; "min"; "max" ]

(* ------------------------------------------------------- the traversal *)

let lint_structure ~rel st =
  let aliases = collect_aliases st in
  let floor_allows =
    List.filter_map
      (function
        | { pstr_desc = Pstr_attribute a; _ } -> allow_of_attribute ~rel a
        | _ -> None)
      st
  in
  let iter =
    object (self)
      inherit Ast_traverse.iter as super
      val mutable active : allow_site list = floor_allows

      method with_attrs : 'a. attributes -> ('a -> unit) -> 'a -> unit =
        fun attrs k x ->
          let added = List.filter_map (allow_of_attribute ~rel) attrs in
          let saved = active in
          active <- added @ active;
          k x;
          active <- saved

      method hit loc rule msg = add_hit ~rel ~loc ~rule ~msg ~active

      method check_expr e =
        (match e.pexp_desc with
        | Pexp_ident { txt; loc } -> (
            let parts = flatten txt in
            let expanded = expand_aliases aliases parts in
            match ident_rule expanded with
            | Some (rule, msg) ->
                let msg =
                  if expanded == parts then msg
                  else Printf.sprintf "%s (via module alias %s)" msg (List.hd parts)
                in
                self#hit loc rule msg
            | None -> ())
        | Pexp_apply
            ( { pexp_desc = Pexp_ident { txt = Lident "raise"; _ }; _ },
              [ (_, { pexp_desc = Pexp_construct ({ txt = Lident "Exit"; loc }, None); _ }) ] )
          ->
            self#hit loc "R6" "raise Exit: hot paths raise Robust.Failure carriers"
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident op; loc }; _ }, args)
          when List.mem op poly_cmp_ops && List.exists (fun (_, a) -> float_bearing a) args ->
            self#hit loc "R7"
              (Printf.sprintf
                 "polymorphic %s on a float-bearing expression; use Float.equal/Float.compare"
                 op)
        | _ -> ())

      method! expression e =
        self#with_attrs e.pexp_attributes
          (fun e ->
            self#check_expr e;
            super#expression e)
          e

      method! value_binding vb =
        self#with_attrs vb.pvb_attributes super#value_binding vb

      method! core_type t =
        self#with_attrs t.ptyp_attributes
          (fun t ->
            (match t.ptyp_desc with
            | Ptyp_constr ({ txt; loc }, _) -> (
                match flatten txt with
                | ("Mutex" | "Condition") :: _ ->
                    self#hit loc "R3" (r3_msg (flatten txt))
                | _ -> ())
            | _ -> ());
            super#core_type t)
          t

      (* Floor attributes were pre-collected; skip them here so each
         site registers exactly once. *)
      method! structure_item it =
        match it.pstr_desc with
        | Pstr_attribute _ -> ()
        | _ -> super#structure_item it
    end
  in
  iter#structure st

let lint_signature ~rel sg =
  let floor_allows =
    List.filter_map
      (function
        | { psig_desc = Psig_attribute a; _ } -> allow_of_attribute ~rel a
        | _ -> None)
      sg
  in
  let iter =
    object
      inherit Ast_traverse.iter as super
      val mutable active : allow_site list = floor_allows

      method! core_type t =
        let added = List.filter_map (allow_of_attribute ~rel) t.ptyp_attributes in
        let saved = active in
        active <- added @ active;
        (match t.ptyp_desc with
        | Ptyp_constr ({ txt; loc }, _) -> (
            match flatten txt with
            | ("Mutex" | "Condition") :: _ ->
                add_hit ~rel ~loc ~rule:"R3" ~msg:(r3_msg (flatten txt)) ~active
            | _ -> ())
        | _ -> ());
        super#core_type t;
        active <- saved

      method! signature_item it =
        match it.psig_desc with
        | Psig_attribute _ -> ()
        | _ -> super#signature_item it
    end
  in
  iter#signature sg

(* ------------------------------------------------------------ file IO *)

let lint_file ~root rel =
  match Lintkit.parse_file ~root rel with
  | Ok (Lintkit.Impl st) -> lint_structure ~rel st
  | Ok (Lintkit.Intf sg) -> lint_signature ~rel sg
  | Error msg -> parse_errors := msg :: !parse_errors

(* ------------------------------------------------------------- output *)

let by_rule xs keyf =
  List.map (fun id -> (id, List.length (List.filter (fun x -> keyf x = id) xs))) rule_ids

let json_summary ~files ~open_hits ~suppressed =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"files_checked\": %d,\n" files);
  Buffer.add_string buf (Printf.sprintf "  \"violations\": %d,\n" (List.length open_hits));
  Buffer.add_string buf (Printf.sprintf "  \"suppressed\": %d,\n" (List.length suppressed));
  Buffer.add_string buf (Printf.sprintf "  \"allow_sites\": %d,\n" (List.length !allows));
  Buffer.add_string buf "  \"rules\": [\n";
  let rule_row id =
    let v = List.length (List.filter (fun h -> h.h_rule = id) open_hits) in
    let s = List.length (List.filter (fun h -> h.h_rule = id) suppressed) in
    Printf.sprintf
      "    {\"id\": \"%s\", \"name\": \"%s\", \"violations\": %d, \"suppressed\": %d}" id
      (rule_title id) v s
  in
  Buffer.add_string buf (String.concat ",\n" (List.map rule_row rule_ids));
  Buffer.add_string buf "\n  ],\n  \"violations_list\": [\n";
  let hit_row h =
    Printf.sprintf "    {\"file\": \"%s\", \"line\": %d, \"rule\": \"%s\", \"message\": \"%s\"}"
      (json_escape h.h_file) h.h_line h.h_rule (json_escape h.h_msg)
  in
  Buffer.add_string buf (String.concat ",\n" (List.map hit_row open_hits));
  Buffer.add_string buf "\n  ],\n  \"allows\": [\n";
  let allow_row a =
    Printf.sprintf
      "    {\"file\": \"%s\", \"line\": %d, \"rule\": \"%s\", \"reason\": \"%s\", \"uses\": %d}"
      (json_escape a.a_file) a.a_line a.a_rule (json_escape a.a_reason) a.a_uses
  in
  let sorted_allows =
    List.sort (fun a b -> compare (a.a_file, a.a_line) (b.a_file, b.a_line)) !allows
  in
  Buffer.add_string buf (String.concat ",\n" (List.map allow_row sorted_allows));
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

(* ------------------------------------------------------------ baseline *)

let baseline_counts suppressed = by_rule suppressed (fun h -> h.h_rule)

let write_baseline path suppressed = Lintkit.write_baseline path (baseline_counts suppressed)

let check_baseline path suppressed =
  Lintkit.check_baseline ~hint:"tools/lint" path (baseline_counts suppressed)

(* --------------------------------------------------------------- main *)

let usage =
  "soslint [--root DIR] [--json PATH] [--baseline PATH] [--write-baseline PATH] [--exclude \
   REL]... [--exclude-dir REL]... [DIR]..."

let () =
  let root = ref "." in
  let json_out = ref None in
  let baseline = ref None in
  let write_base = ref None in
  let excludes = ref [] in
  let exclude_dirs = ref [] in
  let dirs = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--root" :: v :: rest ->
        root := v;
        parse_args rest
    | "--json" :: v :: rest ->
        json_out := Some v;
        parse_args rest
    | "--baseline" :: v :: rest ->
        baseline := Some v;
        parse_args rest
    | "--write-baseline" :: v :: rest ->
        write_base := Some v;
        parse_args rest
    | "--exclude" :: v :: rest ->
        excludes := v :: !excludes;
        parse_args rest
    | "--exclude-dir" :: v :: rest ->
        exclude_dirs := v :: !exclude_dirs;
        parse_args rest
    | ("--help" | "-h") :: _ ->
        print_endline usage;
        exit 0
    | flag :: _ when String.length flag > 2 && starts_with ~prefix:"--" flag ->
        prerr_endline ("soslint: unknown flag " ^ flag);
        prerr_endline usage;
        exit 2
    | d :: rest ->
        dirs := d :: !dirs;
        parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let dirs = if !dirs = [] then [ "lib"; "bin"; "bench" ] else List.rev !dirs in
  let files =
    Lintkit.scan_files ~root:!root ~dirs ~excludes:!excludes ~exclude_dirs:!exclude_dirs
  in
  List.iter (lint_file ~root:!root) files;
  (match !parse_errors with
  | [] -> ()
  | errs ->
      List.iter prerr_endline (List.sort compare errs);
      exit 2);
  let all =
    List.sort
      (fun a b ->
        compare (a.h_file, a.h_line, a.h_col, a.h_rule) (b.h_file, b.h_line, b.h_col, b.h_rule))
      !hits
  in
  let open_hits = List.filter (fun h -> not h.h_suppressed) all in
  let suppressed = List.filter (fun h -> h.h_suppressed) all in
  (* An allow that suppresses nothing is itself a defect: it documents an
     exemption that does not exist (stale after a refactor, or a typo'd
     rule id) and would silently mask a future regression. *)
  let unused_allows =
    List.filter (fun a -> a.a_uses = 0 && rule_in_scope a.a_rule a.a_file) !allows
  in
  let unused_hits =
    List.map
      (fun a ->
        {
          h_file = a.a_file;
          h_line = a.a_line;
          h_col = 0;
          h_rule = "R0";
          h_msg = Printf.sprintf "unused [@sos.allow \"%s: ...\"]: it suppresses no hit" a.a_rule;
          h_suppressed = false;
        })
      unused_allows
  in
  let open_hits =
    List.sort
      (fun a b ->
        compare (a.h_file, a.h_line, a.h_col, a.h_rule) (b.h_file, b.h_line, b.h_col, b.h_rule))
      (open_hits @ unused_hits)
  in
  List.iter
    (fun h -> Printf.printf "%s:%d %s %s\n" h.h_file h.h_line h.h_rule h.h_msg)
    open_hits;
  let baseline_failures =
    match !baseline with Some p -> check_baseline p suppressed | None -> []
  in
  List.iter print_endline baseline_failures;
  (match !write_base with Some p -> write_baseline p suppressed | None -> ());
  (match !json_out with
  | Some p ->
      let oc = open_out p in
      output_string oc (json_summary ~files:(List.length files) ~open_hits ~suppressed);
      close_out oc
  | None -> ());
  Printf.printf "soslint: %d files, %d violations, %d suppressed hits via %d [@sos.allow] sites\n"
    (List.length files) (List.length open_hits) (List.length suppressed)
    (List.length !allows);
  if open_hits <> [] || baseline_failures <> [] then exit 1
