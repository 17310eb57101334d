(* Monotonic nanoseconds (CLOCK_MONOTONIC via bechamel's stub): immune
   to wall-clock steps, unlike Prelude.Clock's gettimeofday. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9
let s_of_ns ns = float_of_int ns *. 1e-9
