(** Tier-1 analytical pre-estimator: closed-form, *admissible* lower
    bounds on a design point's cycles and slices computed directly from
    the source kernel, an unroll vector and the configuration's
    scalar-replacement and peeling toggles — no transform pipeline, no
    DFG, no scheduling.

    Admissible means that for every configuration the bounds never
    exceed the corresponding fields of the full {!Estimate.t} the
    two-tier engine would otherwise compute, so a caller may skip full
    synthesis of any point whose lower bound already disqualifies it
    (over capacity, or provably slower than an incumbent) without
    changing which design the search or the sweep selects. Five
    transformation-invariant cost sources feed the bounds:
    - the mandatory memory footprint (distinct elements read from
      never-written arrays plus distinct elements written, divided over
      the memory ports);
    - with scalar replacement off, the traffic of every unguarded affine
      access, which then runs once per iteration of the loops LICM
      cannot hoist it out of;
    - the per-iteration loop control cycles that survive unrolling and
      peeling;
    - each innermost body's compute critical path over operators no pass
      folds away, once per executed instance of the unrolled body, with
      accumulations chaining their unrolled copies;
    - the structural area floor (memory interface, FSM, declared-scalar
      registers, one operator per data-dependent class).

    The bounds are admissible over the *joint* transform space, not
    just the unroll lattice: the control, compute and register-pressure
    terms carry per-loop slack covering every peel the pipeline can
    perform whenever scalar replacement and peeling are both on (peeling
    follows replacement only), and a tiling design point is bounded by
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
    {!footprint}), the unguarded affine accesses with their enclosing
    loops, the innermost bodies' critical paths, the structural area
    floor, the declared-scalar register bits and the loop-control
    skeleton. Computed once per (kernel, tile) pair; {!bound} then
    evaluates any configuration in time linear in the number of loops
    and accesses. *)
type facts

(** [chaining] is the profile's operator-chaining flag
    ({!Schedule.profile}): with it a path costs its summed operator
    delay over the clock period, without it each operator's delay
    rounded up to whole cycles. It defaults to [true], the looser of the
    two, which is admissible under either schedule. *)
val facts :
  device:Device.t -> mem:Memory_model.t -> ?chaining:bool -> Ast.kernel -> facts

(** The mandatory memory footprint of [k] as [(loads, stores)], read
    off {!Analysis.Footprint.footprint}: the [must_read] elements of
    arrays [k] never writes (not even under a guard), and the
    [must_write] elements of every array. Only accesses that execute
    whenever [k] runs are counted: not under an undecided guard nor in
    a ternary branch. An array the engine skips (an unevaluable
    subscript, an undeclared or too large array, a kernel past the
    point budget) and an element outside the declared box count
    nothing, so the count never exceeds the true footprint. *)
val footprint : Ast.kernel -> int * int

(** Lower bounds for the design point at [vector] (unroll factors per
    loop index; missing indices mean 1) under the configuration's
    toggles. [scalar_replace = false] adds the unreplaced-traffic floor;
    [scalar_replace && peel] grants the peel slack. Both default to
    [true], the loosest setting, which is admissible whatever the
    configuration's toggles are. Monotone in nothing — call it per point; it is a few hundred
    integer operations. *)
val bound :
  ?scalar_replace:bool -> ?peel:bool -> facts -> vector:(string * int) list -> t

val pp : Format.formatter -> t -> unit
