(** Tier-1 analytical pre-estimator: closed-form, *admissible* lower
    bounds on a design point's cycles and slices computed directly from
    the source kernel and an unroll vector — no transform pipeline, no
    DFG, no scheduling.

    Admissible means that for every vector the bounds never exceed the
    corresponding fields of the full {!Estimate.t} the two-tier engine
    would otherwise compute, so a caller may skip full synthesis of any
    point whose lower bound already disqualifies it (over capacity, or
    provably slower than an incumbent) without changing which design
    the search or the sweep selects. Three transformation-invariant cost
    sources feed the bounds: the mandatory memory footprint (distinct
    elements read from never-written arrays plus distinct elements
    written, divided over the memory ports), the per-iteration loop
    control cycles that survive unrolling and peeling, and the
    structural area floor (memory interface, FSM, declared-scalar
    registers, one operator per data-dependent class).

    The bounds are admissible over the *joint* transform space, not
    just the unroll lattice: the control and register-pressure terms
    carry per-loop slack covering every peel the pipeline can perform,
    hold whether or not peeling/LICM/scalar replacement run (disabling
    a pass only adds cost), and a tiling design point is bounded by
    computing {!facts} from the strip-mined source (the skeleton then
    contains the tile and intra-tile loops; the footprint is a property
    of the iteration space and does not change). The engine memoizes
    one [facts] per tile candidate. Vectors are normalized to the
    divisor lattice by the callers before {!bound} is consulted (a raw
    vector still yields a valid, merely looser, bound). *)

open Ir

type t = {
  cycles_lb : int;  (** lower bound on [Estimate.cycles] *)
  mem_cycles_lb : int;  (** lower bound on [Estimate.mem_only_cycles] *)
  comp_cycles_lb : int;  (** lower bound on [Estimate.comp_only_cycles] *)
  slices_lb : int;  (** lower bound on [Estimate.slices] *)
  balance_trend : float;
      (** [comp_cycles_lb / mem_cycles_lb]: same shape as the balance
          metric B, usable to anticipate which side saturates first *)
}

(** Per-kernel precomputation: the mandatory memory footprint (see
    {!footprint}), the structural area floor, the declared-scalar
    register bits and the loop-control skeleton. Computed once per
    (kernel, tile) pair; {!bound} then evaluates any vector in time
    linear in the number of loops. *)
type facts

val facts : device:Device.t -> mem:Memory_model.t -> Ast.kernel -> facts

(** The mandatory memory footprint of [k] as [(loads, stores)]: distinct
    elements read from arrays [k] never writes, and distinct elements
    written, by accesses outside conditional branches whose subscripts
    evaluate from the enclosing loop indices alone. Each access is
    compiled once and enumerates only the enclosing loops its subscripts
    mention; touched elements are marked in one bitset per array over
    its declared extents, with a hashed set for tuples outside them and
    for undeclared arrays. An iteration whose subscript has no value
    (division by zero, out-of-range shift) is skipped, an access under a
    loop that runs no iteration counts nothing, and past 200 000
    enumerated points the count stops early — a partial footprint is
    still a lower bound. *)
val footprint : Ast.kernel -> int * int

(** Lower bounds for the design point at [vector] (unroll factors per
    loop index; missing indices mean 1). Monotone in nothing — call it
    per point; it is a few hundred integer operations. *)
val bound : facts -> vector:(string * int) list -> t

val pp : Format.formatter -> t -> unit
