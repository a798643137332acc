(** Small helpers the evaluation engine shares with the design-space
    modules above it ([Dse.Util] re-exports these, so the divisor
    enumeration exists in exactly one place). *)

(** Positive divisors of [n] in ascending order ([divisors 12] is
    [1; 2; 3; 4; 6; 12]). [n <= 0] has no positive divisors. *)
let divisors n =
  if n <= 0 then []
  else List.filter (fun d -> n mod d = 0) (List.init n (fun i -> i + 1))
