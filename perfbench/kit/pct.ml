(* Order statistics for latency samples.

   A percentile is reported only when at least [min_beyond] samples lie
   beyond it, so a tail figure always rests on more than one or two
   outliers.  Percentiles use the nearest-rank rule on the sorted
   samples: the p-th percentile of n samples is the ceil(p/100 * n)-th
   smallest, and n minus that rank samples lie beyond it. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let rank ~n p =
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  max 1 (min n k)

let beyond ~n p = n - rank ~n p

let percentile_opt xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 || beyond ~n p < min_beyond then None else Some a.(rank ~n p - 1)

let median xs =
  match xs with
  | [] -> invalid_arg "Pct.median: no samples"
  | _ ->
    let a = sorted xs in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let max_of = function
  | [] -> invalid_arg "Pct.max_of: no samples"
  | x :: xs -> List.fold_left Float.max x xs

let min_of = function
  | [] -> invalid_arg "Pct.min_of: no samples"
  | x :: xs -> List.fold_left Float.min x xs

(* The smallest sample count for which [percentile_opt xs p] is
   defined: the loop that gathers samples runs at least this long. *)
let samples_needed p =
  let rec go n = if beyond ~n p >= min_beyond then n else go (n + 1) in
  go (min_beyond + 1)
