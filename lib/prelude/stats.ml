type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (acc /. float_of_int (n - 1))
  end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty array";
  if p < 0.0 || p > 1.0 then invalid_arg "Stats.percentile: p outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let pos = p *. float_of_int (n - 1) in
  let lo = int_of_float (floor pos) in
  let hi = int_of_float (ceil pos) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty array";
  let mn = Array.fold_left min xs.(0) xs in
  let mx = Array.fold_left max xs.(0) xs in
  {
    count = n;
    mean = mean xs;
    stddev = stddev xs;
    min = mn;
    max = mx;
    p50 = percentile xs 0.5;
    p90 = percentile xs 0.9;
    p99 = percentile xs 0.99;
  }

let geometric_mean xs =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let acc =
      Array.fold_left
        (fun acc x ->
          if x <= 0.0 then invalid_arg "Stats.geometric_mean: non-positive sample";
          acc +. log x)
        0.0 xs
    in
    exp (acc /. float_of_int n)
  end
