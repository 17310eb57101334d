type t = { id : int; size : int; req : int }

let check ~size ~req =
  if size <= 0 then invalid_arg "Job.v: size must be positive";
  if req <= 0 then invalid_arg "Job.v: req must be positive"

let v ~id ~size ~req =
  if id < 0 then invalid_arg "Job.v: negative id";
  check ~size ~req;
  { id; size; req }

let s j = j.size * j.req
let equal a b = a.id = b.id && a.size = b.size && a.req = b.req

let compare_req a b =
  let c = compare a.req b.req in
  if c <> 0 then c else compare a.id b.id

let pp ppf j = Format.fprintf ppf "job%d(p=%d,r=%d)" j.id j.size j.req
