(** The full design space, used as the evaluation oracle (Section 6.3):
    the paper plots balance, cycles and area for every unroll-factor
    combination and reports that the search visits only ~0.3% of the
    space while landing near the best design.

    The space size follows the paper's accounting — all integer unroll
    factors for each explorable loop — while the exhaustive sweep
    evaluates the divisor sub-lattice, which contains every distinct
    generated design. The sweep runs on several {!Engine.Pool} workers
    (see [jobs]) with per-worker forks of the evaluation cache merged
    back afterwards; its result order is deterministic and independent
    of [jobs]. *)

type sweep_point = { vector : (string * int) list; point : Design.point }

type t = {
  points : sweep_point list;  (** the divisor lattice, evaluated *)
  total_designs : int;  (** paper-style size: product of trip counts *)
}

(** All divisor vectors over the explorable loops with unroll product at
    most [max_product] (default unbounded). The bound is enforced during
    enumeration, so deep nests never materialize the full cross-product. *)
val divisor_vectors :
  ?max_product:int ->
  Design.context ->
  eligible:string list ->
  (string * int) list list

(** Evaluate the whole lattice. [eligible] defaults to the saturation
    analysis's loops; [max_product] skips points with larger unroll
    products; [jobs] is the number of evaluating workers (default
    {!Engine.Pool.default_size}). [jobs <= 1], or a lattice smaller
    than [2 * jobs], evaluates on the calling domain.

    The workers run on [pool] when given — a caller running many sweeps
    pays the domain-spawn cost once — and otherwise on a pool of [jobs]
    domains created for this sweep. With a pool, [jobs] defaults to the
    pool's size. A worker's exception is re-raised once the others have
    drained. *)
val sweep :
  ?eligible:string list ->
  ?max_product:int ->
  ?jobs:int ->
  ?pool:Engine.Pool.t ->
  Design.context ->
  t

(** Best-performing design that fits the device. *)
val best_fitting : Design.context -> t -> sweep_point option

(** Smallest design within [slack] of the best fitting design's
    performance — the paper's third optimization criterion. *)
val smallest_comparable :
  ?slack:float -> Design.context -> t -> sweep_point option

(** Fraction of the paper-style space a search visited. *)
val fraction_searched : t -> visited:int -> float

(** {2 The joint configuration space}

    Design points promoted from unroll vectors to full transform
    configurations ({!Design.config}): unroll vector x tile option x
    scalar-replacement/peel/LICM toggles, searched jointly. *)

type joint_point = { config : Design.config; point : Design.point }

type joint = {
  points : joint_point list;
      (** the evaluated configurations, in enumeration order *)
  space_size : int;
      (** joint lattice size before any pruning: unroll vectors x tile
          options x toggle combinations *)
  pruned_illegal : int;  (** dropped by the legality pre-pruner *)
  pruned_redundant : int;
      (** dropped as another spelling of a configuration already
          enumerated (canonicalization + dedupe) *)
  pruned_bound : int;  (** skipped on tier-1 lower bounds *)
  total_designs : int;
      (** paper-style accounting over the joint space: all integer
          unroll factors x tile options x toggles *)
}

(** [[4; 8; 16]] — the default tile-size requests of the joint sweep. *)
val default_tile_candidates : int list

(** The tile options the joint sweep enumerates over the context's spine
    for the requested sizes: [None], plus each size clamped to the
    divisor the strip-mine would use on every loop it properly splits. *)
val joint_tile_options :
  Design.context -> candidates:int list -> (string * int) option list

(** Sweep the joint configuration space. Enumeration runs the full
    product (counted in [space_size]); each configuration then passes
    the legality pre-pruner ({!Check.Legality.config_verdict}, one
    shared flow graph of the source — illegal and redundant
    configurations are dropped before any transform runs) and canonical
    dedupe. Below [exhaustive_below] surviving configurations (default
    64) the sweep evaluates, in enumeration order, every survivor whose
    tier-1 area bound fits the device (the others are counted in
    [pruned_bound]); above it the sweep turns best-first — ascending
    tier-1 cycle bounds, skipping configurations whose bounds prove they
    cannot beat the incumbent or fit the device (admissible: the
    selection matches the exhaustive sweep's). Sequential; the pruning
    counters are returned in the [joint] record.

    Survivors that differ only in their peel and LICM toggles share one
    pipeline front ({!Transform.Pipeline.front}: tile, unroll-and-jam,
    scalar replacement), keyed on {!Engine.Backend.front_key}. The
    first synthesis of a key builds the front into a table the sweep
    owns and the others finish from it; a cache hit builds none. A
    front is dropped as soon as the last survivor of its key has been
    evaluated or pruned, so the table holds only live fronts, and with
    it the front's memo of finishing stages and estimates: a survivor
    whose toggles changed nothing reuses its sibling's kernel and
    estimate. Points are bit-identical to unshared evaluation. *)
val sweep_joint :
  ?eligible:string list ->
  ?max_product:int ->
  ?tile_candidates:int list ->
  ?exhaustive_below:int ->
  Design.context ->
  joint

(** Best configuration of the joint space: fewest cycles among the
    fitting points, ties to the smaller design, then to enumeration
    order (which puts the unroll-only sub-space first). *)
val joint_best : Design.context -> joint -> joint_point option
