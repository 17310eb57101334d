(* The list-building generator: [Workload.Sos_gen.generate] as it ran
   before it drew into int columns. Each job is a (size, req) pair drawn in
   position order, size first, collected by [List.init] and built by
   [Instance.create]. Kept as it was, so the suite can check that the
   column generator draws the same instances. Like the code it replaced,
   it ignores [scale] when drawing: requirements come out in units of
   1/default_scale, so it is the reference at the default scale only. *)

module D = Workload.Distributions

let generate rng (family : Workload.Sos_gen.family) ~n ~m
    ?(scale = Workload.Sos_gen.default_scale) () =
  let specs =
    List.init n (fun _ ->
        let size = max 1 (D.sample rng family.size) in
        let req = max 1 (D.sample rng family.req) in
        (size, req))
  in
  Sos.Instance.create ~m ~scale specs
