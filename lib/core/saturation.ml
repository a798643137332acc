(** Saturation points (Section 5.1 of the paper).

    A saturation point is an unroll-factor vector at which the memory
    parallelism of the unrolled body reaches the bandwidth of the
    architecture. With R uniformly generated read sets and W write sets
    remaining after scalar replacement and redundant-write elimination,

    {v Psat = lcm(gcd(R, W), NumMemories) v}

    and the saturation set contains the vectors of product [Psat] whose
    factors are 1 on loops that no surviving memory access varies with
    (unrolling those cannot add memory parallelism). *)

open Ir
module Access = Analysis.Access

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)
let lcm a b = if a = 0 || b = 0 then 0 else abs (a * b) / gcd a b

type t = {
  psat : int;
  r : int;  (** uniformly generated read sets in the replaced baseline *)
  w : int;
  eligible : string list;
      (** loops whose unrolling adds memory parallelism, outermost first *)
}

(** Loops some steady-state (unguarded) memory access varies with.
    Guarded accesses are the first-iteration bank loads that peeling
    moves out of the main body, so they do not count. *)
let eligible_loops (k : Ast.kernel) : string list =
  let spine = Loop_nest.spine k.k_body in
  let accesses = Access.collect k.k_body in
  List.filter_map
    (fun (l : Ast.loop) ->
      let varies =
        List.exists
          (fun (a : Access.t) ->
            (not a.Access.guarded) && Access.varies_with a l.index)
          accesses
      in
      if varies then Some l.index else None)
    spine

(** Compute the saturation data for a source kernel: apply the scalar
    pipeline at the baseline (no unrolling, no peeling so the spine stays
    whole), then count the surviving uniformly generated sets. *)
let compute ?(pipeline = Transform.Pipeline.default) ~num_memories
    (source : Ast.kernel) : t =
  let opts =
    { pipeline with Transform.Pipeline.vector = []; peel = false }
  in
  let r = Transform.Pipeline.apply opts source in
  let k = r.Transform.Pipeline.kernel in
  let nr, nw = Analysis.Reuse.set_counts k.k_body in
  let nr = max nr 1 and nw = max nw 1 in
  let psat = lcm (gcd nr nw) num_memories in
  { psat = max psat 1; r = nr; w = nw; eligible = eligible_loops k }

(** The saturation set Sat: the divisor vectors over the eligible loops
    whose product is exactly [Psat], as full spine vectors (ineligible
    loops at 1), ordered lexicographically by the eligible loops,
    outermost first. *)
let sat_set (ctx : Design.context) (sat : t) : (string * int) list list =
  Util.vectors_between ctx ~eligible:sat.eligible ~lower:[]
    ~upper:(Design.umax ctx) ~product:sat.psat

(** Sat_i: the saturation point that puts the whole factor [Psat] on loop
    [index], when the trip count allows it. *)
let sat_i (ctx : Design.context) (sat : t) index : (string * int) list option =
  List.find_opt
    (fun v ->
      List.for_all
        (fun (i, u) -> if i = index then u = sat.psat else u = 1)
        v)
    (sat_set ctx sat)
