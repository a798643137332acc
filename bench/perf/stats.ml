(** Summary statistics, defined as Python's [statistics] module defines
    them so that numbers here match a reader's own analysis. *)

(** [(q1, median, q3)] as [statistics.quantiles(xs, n=4)] (exclusive
    method) and [statistics.median] give them; one sample is its own
    quartiles. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else
    let median = if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0 in
    if n = 1 then (a.(0), median, a.(0))
    else
      let q i =
        let m = i * (n + 1) in
        let j = max 1 (min (n - 1) (m / 4)) in
        let delta = float_of_int (m - (j * 4)) in
        ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
      in
      (q 1, median, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

let minimum xs = List.fold_left Float.min infinity xs

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))
