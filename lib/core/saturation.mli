(** Saturation points (Section 5.1 of the paper).

    A saturation point is an unroll-factor vector at which the unrolled
    body's memory parallelism reaches the architecture's bandwidth. With
    R uniformly generated read sets and W write sets remaining after
    scalar replacement and redundant-write elimination,
    [Psat = lcm(gcd(R, W), NumMemories)]; the saturation set contains the
    vectors of product [Psat] whose factors are 1 on loops that no
    surviving memory access varies with. *)

open Ir

type t = {
  psat : int;
  r : int;  (** uniformly generated read sets in the replaced baseline *)
  w : int;
  eligible : string list;
      (** loops whose unrolling adds memory parallelism, outermost first *)
}

(** Loops some steady-state (unguarded) memory access varies with —
    guarded accesses are the first-iteration bank loads that peeling
    removes from the main body. *)
val eligible_loops : Ast.kernel -> string list

(** Saturation data for a source kernel: the scalar pipeline runs at the
    baseline (unpeeled, so the spine stays whole), then the surviving
    uniformly generated sets are counted. *)
val compute :
  ?pipeline:Transform.Pipeline.options -> num_memories:int -> Ast.kernel -> t

(** The saturation set Sat: every divisor vector over the eligible
    loops whose product is exactly [Psat], as full spine vectors. *)
val sat_set : Design.context -> t -> (string * int) list list

(** Sat_i: the whole factor [Psat] on one loop, when its trip count
    allows. *)
val sat_i : Design.context -> t -> string -> (string * int) list option
