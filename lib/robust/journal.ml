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
     compaction fsyncs. *)
  let h_append = Obs.Metrics.runtime_hist "robust.journal.append_s"
  let h_flush = Obs.Metrics.runtime_hist "robust.journal.flush_s"

  (* Growable bitset over task indices; one bit per completed index. A
     million-spec journal resumes into 125 KB, not a million-entry list. *)
  module Bitset = struct
    type t = { mutable bits : Bytes.t; mutable count : int }

    let make () = { bits = Bytes.create 0; count = 0 }

    let mem t i =
      let byte = i lsr 3 in
      byte < Bytes.length t.bits && Char.code (Bytes.get t.bits byte) land (1 lsl (i land 7)) <> 0

    let add t i =
      let byte = i lsr 3 in
      let len = Bytes.length t.bits in
      if byte >= len then begin
        let bits = Bytes.make (max (byte + 1) ((2 * len) + 64)) '\000' in
        Bytes.blit t.bits 0 bits 0 len;
        t.bits <- bits
      end;
      let b = Char.code (Bytes.get t.bits byte) in
      if b land (1 lsl (i land 7)) = 0 then begin
        Bytes.set t.bits byte (Char.chr (b lor (1 lsl (i land 7))));
        t.count <- t.count + 1
      end
  end

  (* A replay cursor holds at most one entry of pushback: when the forward
     scan reads past the index it was looking for, the overshot entry is
     parked here instead of being lost, so the next (higher-index) replay
     still sees it. *)
  type cursor = { ic : In_channel.t; mutable pushback : entry option }

  type t = {
    base : string;
    shards : int;
    sync_every : int;
    outs : Out_channel.t array;
    pending : int array; (* unflushed appends per shard *)
    done_ : Bitset.t; (* indices completed by the interrupted run *)
    cursors : cursor option array; (* lazy per-shard replay readers *)
  }

  let shard_path base k shards = if shards = 1 then base else Printf.sprintf "%s.%d" base k

  let shard_header header k shards =
    if shards = 1 then header else Printf.sprintf "%s shard=%d/%d" header k shards

  let shards t = t.shards
  let paths t = Array.init t.shards (fun k -> shard_path t.base k t.shards)
  let mem t index = index >= 0 && Bitset.mem t.done_ index
  let completed t = t.done_.Bitset.count

  let start ~path ?(shards = 1) ?(sync_every = 1) ~header () =
    let shards = max 1 shards in
    {
      base = path;
      shards;
      sync_every = max 1 sync_every;
      outs =
        Array.init shards (fun k ->
            create ~path:(shard_path path k shards) ~header:(shard_header header k shards));
      pending = Array.make shards 0;
      done_ = Bitset.make ();
      cursors = Array.make shards None;
    }

  let resume ~path ?(shards = 1) ?(sync_every = 1) ~header () =
    let shards = max 1 shards in
    let done_ = Bitset.make () in
    (* Compact one shard: stream it line-by-line through a temp file,
       keeping the header and only the entries whose digest checks out
       (torn or corrupt lines — a kill -9 mid-append leaves at most one per
       shard — are dropped), recording each kept index in the bitset. The
       rename is atomic, so a second kill during compaction loses nothing. *)
    let compact_shard k =
      let p = shard_path path k shards in
      let h = shard_header header k shards in
      if not (Sys.file_exists p) then Ok (create ~path:p ~header:h)
      else begin
        let tmp = p ^ ".compact" in
        let res =
          In_channel.with_open_text p (fun ic ->
              match In_channel.input_line ic with
              | None -> Ok false (* truncated to nothing: restart the shard *)
              | Some got when not (String.equal got h) -> Error (header_mismatch p got h)
              | Some _ ->
                  Out_channel.with_open_text tmp (fun oc ->
                      Out_channel.output_string oc (h ^ "\n");
                      (let rec go () =
                         match In_channel.input_line ic with
                         | None -> ()
                         | Some line ->
                             (match parse_entry line with
                             | Some e ->
                                 Bitset.add done_ e.index;
                                 Out_channel.output_string oc line;
                                 Out_channel.output_char oc '\n'
                             | None -> ());
                             go ()
                       in
                       go ())
                      [@sos.allow
                        "A2: compaction replay, bounded by the shard size on disk; runs \
                         during recovery before tasks are admitted"];
                      (* The rename below is only crash-safe if the temp
                         file's data has reached disk first — otherwise a
                         power loss can leave a truncated compacted shard
                         in place of the entries it replaced. *)
                      Out_channel.flush oc;
                      Unix.fsync (Unix.descr_of_out_channel oc));
                  Ok true)
        in
        match res with
        | Error _ as e -> e
        | Ok false -> Ok (create ~path:p ~header:h)
        | Ok true ->
            Sys.rename tmp p;
            (* Persist the rename itself (the directory entry); best-effort
               since some filesystems refuse fsync on a directory fd. *)
            (try
               let dfd = Unix.openfile (Filename.dirname p) [ Unix.O_RDONLY ] 0 in
               Fun.protect
                 ~finally:(fun () -> Unix.close dfd)
                 (fun () -> Unix.fsync dfd)
             with Unix.Unix_error _ -> ());
            (* Compaction wrote every kept line newline-terminated, so
               appends can go straight after the last one. *)
            Ok (Out_channel.open_gen [ Open_append; Open_text ] 0o644 p)
      end
    in
    let outs = Array.make shards None in
    let err = ref None in
    for k = 0 to shards - 1 do
      if !err = None then
        match compact_shard k with
        | Ok oc -> outs.(k) <- Some oc
        | Error e -> err := Some e
    done;
    match !err with
    | Some e ->
        Array.iter (function Some oc -> Out_channel.close oc | None -> ()) outs;
        Error e
    | None ->
        Ok
          {
            base = path;
            shards;
            sync_every = max 1 sync_every;
            outs = Array.map Option.get outs;
            pending = Array.make shards 0;
            done_;
            cursors = Array.make shards None;
          }

  let append t ~index ~payload =
    Obs.Metrics.time h_append @@ fun () ->
    let k = index mod t.shards in
    output_entry t.outs.(k) ~index ~payload;
    t.pending.(k) <- t.pending.(k) + 1;
    if t.pending.(k) >= t.sync_every then begin
      Obs.Metrics.time h_flush (fun () -> Out_channel.flush t.outs.(k));
      t.pending.(k) <- 0
    end

  let flush t =
    Array.iteri
      (fun k oc ->
        if t.pending.(k) > 0 then begin
          Obs.Metrics.time h_flush (fun () -> Out_channel.flush oc);
          t.pending.(k) <- 0
        end)
      t.outs

  (* Slow path: the forward cursor overshot [index], so the entry — which
     the resume bitset saw during compaction — sits {e behind} the cursor.
     That happens when a shard is not index-sorted: an interrupted run
     journals nothing for a cancelled index while later in-flight tasks
     are journalled, and the first resume appends the re-run gap index
     after them. Rescan the whole shard with a fresh reader; O(shard) per
     out-of-order entry, and such entries are bounded by the gaps of prior
     interrupted runs. *)
  let rescan t k index =
    In_channel.with_open_text
      (shard_path t.base k t.shards)
      (fun ic ->
        ignore (In_channel.input_line ic : string option) (* skip the header *);
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some line -> (
              match parse_entry line with
              | Some e when e.index = index -> Some e.payload
              | _ -> go ())
        in
        go ())

  let replay t index =
    if not (mem t index) then None
    else begin
      let k = index mod t.shards in
      let cur =
        match t.cursors.(k) with
        | Some cur -> cur
        | None ->
            let ic = In_channel.open_text (shard_path t.base k t.shards) in
            ignore (In_channel.input_line ic : string option) (* skip the header *);
            let cur = { ic; pushback = None } in
            t.cursors.(k) <- Some cur;
            cur
      in
      (* Replay is driven by ordered emission and shards are appended in
         emission order, so the common case is a strictly forward scan:
         O(1) reads per entry. An entry that lands {e behind} the cursor
         (out-of-order shard, see [rescan]) must not cost the entries
         ahead of it — the overshot line is pushed back, never consumed. *)
      let rec go () =
        match In_channel.input_line cur.ic with
        | None -> rescan t k index
        | Some line -> (
            match parse_entry line with
            | Some e when e.index = index -> Some e.payload
            | Some e when e.index > index ->
                cur.pushback <- Some e;
                rescan t k index
            | _ -> go ())
      in
      match cur.pushback with
      | Some e when e.index = index ->
          cur.pushback <- None;
          Some e.payload
      | Some e when e.index > index -> rescan t k index
      | _ ->
          cur.pushback <- None;
          go ()
    end

  let close t =
    Array.iter Out_channel.close t.outs;
    Array.iter (function Some cur -> In_channel.close cur.ic | None -> ()) t.cursors
end
