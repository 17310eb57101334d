type entry = { index : int; payload : string }

let digest s = Digest.to_hex (Digest.string s)

(* A binding is written percent-encoded ('%', ' ' and '\n' as %25, %20
   and %0A), so the first space of an entry always ends its binding:
   "uniform 10 4" can never pass for "uniform 10 4 7", whose entry would
   otherwise start with it. A hex digest has none of the three bytes and
   is written as is. Plain loops and one allocation per entry: a batch
   binds a million of them. *)
let special = function '%' | ' ' | '\n' -> true | _ -> false
let hex = function '%' -> "25" | ' ' -> "20" | _ -> "0A"

let encoded_length binding =
  let n = ref (String.length binding) in
  for i = 0 to String.length binding - 1 do
    if special binding.[i] then n := !n + 2
  done;
  !n

let bind ~binding payload =
  let lb = encoded_length binding in
  let b = Bytes.create (lb + 1 + String.length payload) in
  let k = ref 0 in
  for i = 0 to String.length binding - 1 do
    let c = binding.[i] in
    if special c then begin
      Bytes.set b !k '%';
      Bytes.set b (!k + 1) (hex c).[0];
      Bytes.set b (!k + 2) (hex c).[1];
      k := !k + 3
    end
    else begin
      Bytes.set b !k c;
      incr k
    end
  done;
  Bytes.set b lb ' ';
  Bytes.blit_string payload 0 b (lb + 1) (String.length payload);
  Bytes.unsafe_to_string b

let unbind ~binding entry =
  let prefix = bind ~binding "" in
  match String.index_opt entry ' ' with
  | None -> Error `Unbound
  | Some sp when sp + 1 = String.length prefix && String.starts_with ~prefix entry ->
      Ok (String.sub entry (sp + 1) (String.length entry - sp - 1))
  | Some _ -> Error `Mismatch

let parse_entry line =
  (* "<index> <digest> <payload>"; the payload may itself contain spaces. *)
  match String.index_opt line ' ' with
  | None -> None
  | Some sp1 -> begin
      match String.index_from_opt line (sp1 + 1) ' ' with
      | None -> None
      | Some sp2 -> begin
          let idx = int_of_string_opt (String.sub line 0 sp1) in
          let dg = String.sub line (sp1 + 1) (sp2 - sp1 - 1) in
          let payload = String.sub line (sp2 + 1) (String.length line - sp2 - 1) in
          match idx with
          | Some index when index >= 0 && String.equal dg (digest payload) ->
              Some { index; payload }
          | _ -> None
        end
    end

let header_mismatch path got expected =
  Printf.sprintf
    "checkpoint %s was written by a different run configuration (header %S, expected %S)" path
    got expected

let create ~path ~header =
  let oc = Out_channel.open_text path in
  Out_channel.output_string oc (header ^ "\n");
  Out_channel.flush oc;
  oc

let output_entry oc ~index ~payload =
  if String.contains payload '\n' then
    invalid_arg "Robust.Journal.Sharded.append: payload contains newline"
    [@sos.allow
      "R6: caller-side framing contract (suite_robust pins it); a taxonomy failure here would \
       be journalled into the very file whose framing the check protects"];
  (* "<index> <digest> <payload>\n", written piecewise: no formatted copy
     of the whole line per append. *)
  Out_channel.output_string oc (string_of_int index);
  Out_channel.output_char oc ' ';
  Out_channel.output_string oc (digest payload);
  Out_channel.output_char oc ' ';
  Out_channel.output_string oc payload;
  Out_channel.output_char oc '\n'

module Sharded = struct
  (* Journal latency distributions (runtime class): how long one append
     takes — including any flush it triggers, so `--sync-every` batching
     shows up as a bimodal append distribution — and how long each channel
     flush takes on its own. A flush hands the bytes to the kernel; only
     resume's truncation fsyncs. *)
  let h_append = Obs.Metrics.runtime_hist "robust.journal.append_s"
  let h_flush = Obs.Metrics.runtime_hist "robust.journal.flush_s"

  type t = {
    base : string;
    shards : int;
    sync_every : int;
    outs : Out_channel.t array;
    pending : int array; (* unflushed appends per shard *)
    bound : int array;
        (* shard k holds exactly the entries k, k + shards, … below
           bound.(k), the index its interrupted run was to journal next *)
    readers : In_channel.t option array; (* lazy per-shard replay readers *)
  }

  let shard_path base k shards = if shards = 1 then base else Printf.sprintf "%s.%d" base k

  let shard_header header k shards =
    if shards = 1 then header else Printf.sprintf "%s shard=%d/%d" header k shards

  let shards t = t.shards
  let paths t = Array.init t.shards (fun k -> shard_path t.base k t.shards)
  let mem t index = index >= 0 && index < t.bound.(index mod t.shards)

  let completed t =
    let n = ref 0 in
    Array.iteri (fun k b -> n := !n + ((b - k) / t.shards)) t.bound;
    !n

  (* A header that names another run configuration. *)
  exception Refused of string

  (* Open shard k for every k with [open_shard], which gives its append
     channel and its bound; on a failure, close the shards already open. *)
  let open_all ~path ~shards ~sync_every open_shard =
    let shards = max 1 shards in
    let opened = Array.make shards None in
    match
      for k = 0 to shards - 1 do
        opened.(k) <- Some (open_shard shards k)
      done
    with
    | () ->
        {
          base = path;
          shards;
          sync_every = max 1 sync_every;
          outs = Array.map (fun o -> fst (Option.get o)) opened;
          pending = Array.make shards 0;
          bound = Array.map (fun o -> snd (Option.get o)) opened;
          readers = Array.make shards None;
        }
    | exception e ->
        Array.iter (Option.iter (fun (oc, _) -> Out_channel.close oc)) opened;
        raise e

  let start ~path ?(shards = 1) ?(sync_every = 1) ~header () =
    open_all ~path ~shards ~sync_every (fun shards k ->
        (create ~path:(shard_path path k shards) ~header:(shard_header header k shards), k))

  (* The byte length and the bound of shard [p]'s gap-free prefix, and the
     file's length: its header line, then the entries [first],
     [first + step], … each whole, newline-terminated and digest-clean, up
     to the first line that is not the next of them. [None] when the file
     holds nothing to keep: it is empty, or its header line has no
     newline. *)
  let prefix p ~header ~first ~step =
    In_channel.with_open_text p (fun ic ->
        (* [line] was read whole: a newline ends it before [keep + len]. *)
        let whole keep line = In_channel.pos ic = Int64.of_int (keep + String.length line + 1) in
        match In_channel.input_line ic with
        | None -> None
        | Some got when not (String.equal got header) ->
            raise (Refused (header_mismatch p got header))
        | Some got when not (whole 0 got) -> None
        | Some got ->
            (let rec go keep next =
               match In_channel.input_line ic with
               | Some line
                 when whole keep line
                      && Option.fold ~none:false
                           ~some:(fun e -> e.index = next)
                           (parse_entry line) ->
                   go (keep + String.length line + 1) (next + step)
               | _ -> Some (keep, next, In_channel.length ic)
             in
             go (String.length got + 1) first)
            [@sos.allow
              "A2: one read of the shard, bounded by its size on disk; runs during recovery \
               before tasks are admitted"])

  let resume ~path ?(shards = 1) ?(sync_every = 1) ~header () =
    (* Keep each shard's gap-free prefix and cut the file after it: one
       fsync'd ftruncate, and no write at all when nothing follows it.
       Whatever followed (a gap, an entry out of order, a torn tail, a
       corrupt line) is run again. *)
    let open_shard shards k =
      let p = shard_path path k shards and h = shard_header header k shards in
      match if Sys.file_exists p then prefix p ~header:h ~first:k ~step:shards else None with
      | None -> (create ~path:p ~header:h, k)
      | Some (keep, next, size) ->
          if Int64.of_int keep < size then begin
            let fd = Unix.openfile p [ Unix.O_WRONLY ] 0 in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                Unix.ftruncate fd keep;
                Unix.fsync fd)
          end;
          (Out_channel.open_gen [ Open_append; Open_text ] 0o644 p, next)
    in
    match open_all ~path ~shards ~sync_every open_shard with
    | t -> Ok t
    | exception (Refused msg | Sys_error msg) -> Error msg
    | exception Unix.Unix_error (e, fn, _) ->
        Error (Printf.sprintf "%s: %s: %s" path fn (Unix.error_message e))

  let append t ~index ~payload =
    Obs.Metrics.time h_append @@ fun () ->
    let k = index mod t.shards in
    output_entry t.outs.(k) ~index ~payload;
    t.pending.(k) <- t.pending.(k) + 1;
    if t.pending.(k) >= t.sync_every then begin
      Obs.Metrics.time h_flush (fun () -> Out_channel.flush t.outs.(k));
      t.pending.(k) <- 0
    end

  (* The entries of a shard below its bound are its first lines, in index
     order, so replay reads each shard forward once. An index the caller
     passed over is skipped; one it asks for twice, or out of order, is
     [None]. *)
  let replay t index =
    if not (mem t index) then None
    else begin
      let k = index mod t.shards in
      let ic =
        match t.readers.(k) with
        | Some ic -> ic
        | None ->
            let ic = In_channel.open_text (shard_path t.base k t.shards) in
            ignore (In_channel.input_line ic : string option) (* skip the header *);
            t.readers.(k) <- Some ic;
            ic
      in
      let rec go () =
        match Option.map parse_entry (In_channel.input_line ic) with
        | Some (Some e) when e.index = index -> Some e.payload
        | Some (Some e) when e.index < index -> go ()
        | _ -> None
      in
      go ()
    end

  let close t =
    Array.iter Out_channel.close t.outs;
    Array.iter (Option.iter In_channel.close) t.readers
end
