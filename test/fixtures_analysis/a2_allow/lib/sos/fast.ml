let spin n =
  let r = ref n in
  (while !r > 0 do decr r done) [@sos.allow "A2: fixture: bounded countdown"]
let run_in inst = ignore inst; spin 9
