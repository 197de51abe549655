(* Exact order statistics over a full sample: every request's own
   latency, sorted, with no histogram buckets in between. *)

type pct = { num : int; den : int }
(** The fraction [num / den], kept as integers so ranks are exact. *)

let p50 = { num = 1; den = 2 }
let p99 = { num = 99; den = 100 }
let p999 = { num = 999; den = 1000 }

(* A reported percentile must have this many samples above it, or it is
   an extreme value, not a percentile. *)
let min_beyond = 10

(* Nearest rank (1-based): the smallest [r] with [r / n >= num / den]. *)
let rank ~n q = max 1 (((n * q.num) + q.den - 1) / q.den)
let beyond ~n q = n - rank ~n q

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Error "no samples"
  else if beyond ~n q < min_beyond then
    Error
      (Printf.sprintf "p%g of %d samples has %d beyond it (< %d)"
         (100. *. float_of_int q.num /. float_of_int q.den)
         n (beyond ~n q) min_beyond)
  else Ok sorted.(rank ~n q - 1)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let median xs =
  match xs with
  | [] -> invalid_arg "Stats.median: empty"
  | _ ->
      let a = sorted (Array.of_list xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Each sample lists the host seconds of the same calls in the same
   order.  The sum over calls of each call's fastest time is the cost of
   a pass run at full speed: a slow spell of the host that covers part
   of one pass does not move it, while a change that slows a call in
   every pass does. *)
let sum_of_minima = function
  | [] -> invalid_arg "Stats.sum_of_minima: empty"
  | x :: rest -> List.fold_left ( +. ) 0. (List.fold_left (List.map2 Float.min) x rest)
