let max_line = 4096

type t = {
  ic : in_channel;
  before_refill : unit -> unit;
  buf : Bytes.t;  (* the bytes read and not yet returned are [pos, len) *)
  mutable pos : int;
  mutable len : int;
  mutable eof : bool;
  mutable refills : int;
  partial : Buffer.t;  (* a line begun before the last refill, at most max_line bytes *)
  mutable over : bool;  (* that line has passed max_line *)
}

let create ?(before_refill = ignore) ic =
  {
    ic;
    before_refill;
    buf = Bytes.create max_line;
    pos = 0;
    len = 0;
    eof = false;
    refills = 0;
    partial = Buffer.create 64;
    over = false;
  }

type line = Line of string | Too_long of string

let refills t = t.refills

(* Index of the first newline in [pos, len), or [len]. *)
let newline t =
  let rec go i = if i >= t.len || Bytes.unsafe_get t.buf i = '\n' then i else go (i + 1) in
  go t.pos

(* Carry [pos, upto) into the partial line, keeping at most max_line bytes. *)
let keep t upto =
  let room = max_line - Buffer.length t.partial in
  let n = upto - t.pos in
  if n > room then t.over <- true;
  Buffer.add_subbytes t.partial t.buf t.pos (min n room)

let take_partial t =
  let s = Buffer.contents t.partial in
  let over = t.over in
  Buffer.clear t.partial;
  t.over <- false;
  Some (if over then Too_long s else Line s)

let rec read t =
  let nl = newline t in
  if nl < t.len then begin
    let line =
      if Buffer.length t.partial = 0 && not t.over then
        (* the buffer is max_line bytes, so a line inside it fits *)
        Some (Line (Bytes.sub_string t.buf t.pos (nl - t.pos)))
      else begin
        keep t nl;
        take_partial t
      end
    in
    t.pos <- nl + 1;
    line
  end
  else begin
    keep t t.len;
    t.pos <- t.len;
    if t.eof then None
    else begin
      t.before_refill ();
      t.refills <- t.refills + 1;
      let n = In_channel.input t.ic t.buf 0 max_line in
      t.pos <- 0;
      t.len <- n;
      if n > 0 then read t
      else begin
        t.eof <- true;
        if Buffer.length t.partial = 0 && not t.over then None else take_partial t
      end
    end
  end
