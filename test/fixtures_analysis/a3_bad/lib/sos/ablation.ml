let runs = ref 0
let run_no_move () = incr runs
