(** Unroll-and-jam (Section 4 of the paper).

    Unrolling a loop by factor [u] replaces its body with [u] copies, the
    k-th with [index := index + k*step], and multiplies the step by [u];
    copies of an inner loop are jammed (fused) into one loop, exposing
    operator and memory parallelism across outer iterations. Factors that
    do not divide the trip count leave an epilogue loop. *)

open Ir

(** Unroll factor per loop index; unlisted loops keep factor 1. *)
type vector = (string * int) list

val factor : vector -> string -> int
val product : vector -> int

(** Clamp factors to trip counts and to the nest spine; round down to
    divisors when [divisors_only]. *)
val clamp : ?divisors_only:bool -> Ast.stmt list -> vector -> vector

(** Unroll-and-jam is legal when fusing the unrolled outer iterations
    does not reverse any dependence. Conservative: coupled distances
    refuse. *)
val jam_legal : Ast.kernel -> bool

(** The vector {!run} would actually apply: clamped to trip counts and
    reduced to the innermost loop when jamming is not provably legal.
    [jam_legal], when given, must be [lazy (jam_legal k)]: a verdict
    computed once for [k] and shared by every vector; it is forced only
    when the vector unrolls more than the innermost loop. *)
val effective : ?jam_legal:bool Lazy.t -> Ast.kernel -> vector -> vector

(** Apply a vector, then simplify back to canonical subscripts. When
    jamming is not provably legal, only the innermost spine loop is
    unrolled (plain unrolling never reorders a dependence). [jam_legal]
    is as for {!effective}. *)
val run : ?jam_legal:bool Lazy.t -> vector -> Ast.kernel -> Ast.kernel
