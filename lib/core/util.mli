(** The unroll-vector enumeration primitives used by both the search
    and the sweep, over the context's precomputed divisor tables. *)

(** All normalized vectors of eligible divisor factors with unroll
    product exactly [product], each loop's factor within its
    [lower]/[upper] entries (missing entries mean factor 1). *)
val vectors_between :
  Design.context ->
  eligible:string list ->
  lower:(string * int) list ->
  upper:(string * int) list ->
  product:int ->
  (string * int) list list

(** Products reachable by some vector of eligible divisor factors, each
    factor bounded by its [upper] entry. *)
val achievable_products :
  Design.context -> eligible:string list -> upper:(string * int) list -> int list

(** All divisor vectors over the eligible loops with unroll product at
    most [max_product]; ineligible spine loops are pinned to factor 1.
    Lexicographic ascending-divisor order. *)
val divisor_vectors :
  ?max_product:int ->
  Design.context ->
  eligible:string list ->
  (string * int) list list
