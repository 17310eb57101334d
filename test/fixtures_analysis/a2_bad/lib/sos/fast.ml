let spin n =
  let r = ref n in
  while !r > 0 do decr r done
let run_in inst = ignore inst; spin 9
