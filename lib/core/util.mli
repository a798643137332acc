(** Small helpers shared by the design-space modules (and the bench
    harness): divisors, and the unroll-vector enumeration
    primitives used by both the search and the sweep. *)

open Ir

(** Positive divisors of [n] in ascending order; empty for [n <= 0]. *)
val divisors : int -> int list

(** The context's precomputed ascending divisors of a spine loop's trip
    count (computed on the spot for a loop the table misses). *)
val spine_divisors_of : Design.context -> Ast.loop -> int list

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
