(* Shared helpers for the experiment tables. *)

module Rng = Prelude.Rng
module Table = Prelude.Table
module Stats = Prelude.Stats
module Clock = Prelude.Clock

let base_seed = 0xCA51E

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

let note fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n" s) fmt

(* A bound cell: "ok", or "VIOLATED", which also makes the harness exit 1
   once every table is out. Cells run on the sweep's worker domains, hence
   the atomic count. *)
let violations = Atomic.make 0

let verdict holds =
  if holds then "ok"
  else begin
    Atomic.incr violations;
    "VIOLATED"
  end

let ratios_summary (xs : float array) =
  let s = Stats.summarize xs in
  (s.Stats.mean, s.Stats.max)

let time_it = Clock.time_it

(* Domain count for the parallel sweeps; `bench/main.exe -j N` overrides. *)
let domains = ref (Engine.Pool.recommended_domain_count ())

(* Parallel map over independent experiment cells, results in submission
   order. Cells must be self-contained: compute only (no printing) and
   derive all randomness from their own parameters via explicit
   [Rng.create]/[Rng.create2] seeds — never from execution order — so the
   tables are byte-identical at any [-j]. *)
let par_map f xs =
  let tasks = Array.map (fun x () -> f x) xs in
  Engine.Batch.map ~domains:!domains tasks
  |> Array.map (function
       | Ok v -> v
       | Error e ->
           failwith
             (Printf.sprintf "experiment cell %d failed: %s" e.Engine.Batch.index
                e.Engine.Batch.message))

(* Strict-validate a generated instance before benchmarking it: a gated
   timing run over an ill-posed instance would measure garbage
   (doc/ROBUSTNESS.md). *)
let checked inst =
  match Sos.Instance.validate inst with
  | Ok inst -> inst
  | Error reason ->
      failwith
        ("bench: generated instance failed validation: "
        ^ Robust.Failure.invalid_to_string reason)

(* The (a × b) cell grid flattened row-major, for sweeps over two axes. *)
let grid xs ys = Array.of_list (List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs)
