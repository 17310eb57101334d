let tick () = Robust.Context.poll ()
let spin n =
  let r = ref n in
  while !r > 0 do tick (); decr r done
let run_in inst = ignore inst; spin 9
