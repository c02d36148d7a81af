(* Order statistics for the benchmark.

   Medians and quartiles follow Python's [statistics.median] and
   [statistics.quantiles(data, n=4)] (the default "exclusive" method), so
   the spread this benchmark reports is the one an outside script computes
   from the same values.  Percentiles of simulated latencies and pauses are
   nearest-rank, and a percentile is only reported when at least
   [min_beyond] samples lie beyond it: a p99 needs 1000 samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> invalid_arg "Stats.median: no samples"
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quartiles: no samples";
  if n = 1 then (a.(0), a.(0), a.(0))
  else begin
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)
  end

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

let min_beyond = 10

(* Samples strictly above the nearest-rank [p]th percentile of [n]. *)
let beyond ~n p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))

let backed ~n p = n > 0 && beyond ~n p >= min_beyond

(* Smallest sample with at least [p]% of the samples at or below it. *)
let nearest_rank a p =
  let n = Array.length a in
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (k - 1)))

let percentile xs p =
  let a = sorted xs in
  if backed ~n:(Array.length a) p then Some (nearest_rank a p) else None
