(** The full design space, used as the evaluation oracle (Section 6.3):
    the paper plots balance, cycles and area for every unroll-factor
    combination and reports that the search visits only ~0.3% of the
    space while landing near the best design.

    One sweep covers two spaces, each a product of configuration axes
    ({!Design.config}): the unroll-only space — divisor vectors x the
    base pipeline's tile x its toggles — and the joint space — divisor
    vectors x tile options x all scalar-replacement/peel/LICM toggles.
    The space size follows the paper's accounting — all integer unroll
    factors for each explorable loop — while the sweep evaluates the
    divisor sub-lattice, which contains every distinct generated
    design. *)

type t = {
  points : Design.point list;
      (** the evaluated configurations, in enumeration order *)
  space_size : int;
      (** configurations enumerated before any pruning: unroll vectors
          x tile options x toggle combinations *)
  pruned_illegal : int;  (** dropped by the legality verdict *)
  pruned_redundant : int;
      (** dropped as another spelling of a design already enumerated
          (same {!Design.normalize_config}) *)
  pruned_bound : int;  (** skipped on tier-1 lower bounds *)
  total_designs : int;
      (** paper-style accounting: all integer unroll factors x tile
          options x toggles *)
}

(** [[4; 8; 16]] — the default tile-size requests of the joint space. *)
val default_tile_candidates : int list

(** The tile options the joint space enumerates over the context's spine
    for the requested sizes: [None], plus each size clamped to the
    divisor the strip-mine would use on every loop it properly splits. *)
val joint_tile_options :
  Design.context -> candidates:int list -> (string * int) option list

(** Sweep a configuration space. Without [joint] the axes are the
    unroll-only space; [joint] names the tile-size requests of the joint
    space ({!default_tile_candidates} is the usual choice). [eligible]
    defaults to the saturation analysis's loops; [max_product] skips
    vectors with larger unroll products.

    Every sweep takes one path. Enumeration runs the full product
    (counted in [space_size]). Each configuration then passes the
    legality verdict ({!Check.Legality.config_verdict}): illegal ones
    are dropped before any transform runs, and the others are deduped
    on the design they denote ({!Design.normalize_config}). The
    survivors are then visited in one of two regimes:

    - exhaustive — the unroll-only space, and a joint space of at most
      [exhaustive_below] survivors (default 64): every survivor is
      evaluated. Survivors sharing a pipeline front
      ({!Engine.Backend.front_key}: tile, unroll vector, scalar
      replacement) are evaluated as one group from one front, and with
      [jobs > 1] whole groups go to the workers, so the points and the
      [fronts]/[reused] counters do not depend on [jobs]. The workers
      run on [pool] when given — a caller running many sweeps pays the
      domain-spawn cost once — and otherwise on a pool of [jobs]
      domains created for this sweep. [jobs] defaults to the pool's
      size, or to {!Engine.Pool.default_size}; [jobs <= 1], or fewer
      than [2 * jobs] groups, evaluates on the calling domain. A
      worker's exception is re-raised once the others have drained.
    - best-first — a larger joint space: sequential, in ascending
      tier-1 cycle bound, skipping configurations whose bounds prove
      they cannot beat the incumbent or fit the device (counted in
      [pruned_bound]; admissible: the selection matches the exhaustive
      regime's). A front is built into a table the sweep owns and
      dropped as soon as the last survivor of its key has been
      evaluated or pruned.

    Points are bit-identical to unshared evaluation: a survivor whose
    peel and LICM toggles changed nothing reuses its sibling's kernel
    and estimate. *)
val sweep :
  ?eligible:string list ->
  ?max_product:int ->
  ?joint:int list ->
  ?exhaustive_below:int ->
  ?jobs:int ->
  ?pool:Engine.Pool.t ->
  Design.context ->
  t

(** Best design that fits the device: fewest cycles, ties to the smaller
    design, then to enumeration order (which puts the unroll-only
    sub-space of a joint sweep first). *)
val best : Design.context -> t -> Design.point option

(** Smallest design within [slack] of the best design's performance —
    the paper's third optimization criterion. *)
val smallest_comparable :
  ?slack:float -> Design.context -> t -> Design.point option

(** Fraction of the paper-style space a search visited. *)
val fraction_searched : t -> visited:int -> float
