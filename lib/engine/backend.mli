(** The evaluation of one design point: the analytical tier-1 bound
    ({!bound}), behavioral synthesis ({!synthesize}, optionally with the
    P&R degradation folded in) and the cached evaluation every caller
    goes through ({!evaluate}). The bounds are admissible, so gating on
    them decides which points are synthesized, never which design is
    selected. *)

open Ir

type env = {
  source : Ast.kernel;  (** the input loop nest *)
  profile : Hls.Estimate.profile;
  spine : Ast.loop list;
  spine_divisors : (string * int list) list;
      (** ascending divisors of each spine loop's trip count *)
  pipeline : Transform.Pipeline.options;
      (** base options (the searched knobs are set per point) *)
  quick_facts : (string * int) option -> Hls.Quick.facts;
      (** tier-1 pre-estimator facts per tile candidate, memoized and
          mutex-protected (safe to share across sweep domains); the
          facts for [Some (loop, tile)] come from the strip-mined
          source, keeping the quick bounds admissible under tiling *)
  verify : bool;
      (** translation-validate every uncached evaluation *)
  source_footprint : Analysis.Footprint.t option;
      (** [Some] footprint of [source] when [verify], computed once by
          {!make_env} and shared by every verified evaluation *)
  post_route : bool;
      (** fold the P&R degradation model ({!Hls.Lowlevel}) into every
          synthesized estimate: post-route area and achieved-clock
          time; cycle counts and balance are unchanged (Section 6.4) *)
}

val make_env :
  ?pipeline:Transform.Pipeline.options ->
  ?profile:Hls.Estimate.profile ->
  ?verify:bool ->
  ?post_route:bool ->
  Ast.kernel ->
  env

(** Cover every spine loop and clamp factors to divisors of the trip
    counts — the space the search explores. *)
val normalize_vector : env -> (string * int) list -> (string * int) list

(** The env's base configuration at the given unroll vector: tile and
    toggles taken from the base pipeline options. *)
val base_config : env -> (string * int) list -> Store.config

(** The design a configuration denotes, as its canonical cache key —
    the only function that decides when two configurations are the same
    design. Its rules:
    - the vector is {!normalize_vector}d;
    - a tile on a spine loop is clamped to the divisor the strip-mine
      would use ({!Transform.Tiling.clamp}), and dropped when that
      makes it a no-op;
    - the unroll factor of a tiled loop is forced to 1 (the strip-mine
      renames the loop, so the unroller would ignore the entry);
    - peeling is off without scalar replacement (the peel stage peels
      what replacement reports, which is then nothing).

    A tile index naming no spine loop is kept verbatim — synthesizing
    such a configuration fails loudly in the pipeline. *)
val normalize_config : env -> Store.config -> Store.config

(** {2 Shared pipeline fronts}

    A front ({!Transform.Pipeline.front}) is the pipeline's output after
    tile, unroll-and-jam and scalar replacement. Configurations that
    differ only in their peel and LICM toggles share it, so a sweep can
    build it once and finish each of them from it. *)

(** Tile, unroll vector and scalar-replacement toggle of a normalized
    configuration: what the front's stages read. *)
type front_key = (string * int) option * (string * int) list * bool

val front_key : Store.config -> front_key

(** A front, built under the translation validator when the env
    verifies. It also keeps the finished kernel and estimate of each
    configuration synthesized from it: the front's finishing memo hands
    a sibling whose peel and LICM toggles changed nothing the physically
    same kernel (see {!Transform.Pipeline.front}), and that sibling gets
    the estimate without running the estimator; the store counts it in
    [reused]. *)
type front

(** A table of fronts owned by one sweep over one env. Synthesis reads
    it and adds the fronts it builds; the owner removes a front once no
    configuration left to visit needs it. *)
type fronts = (front_key, front) Hashtbl.t

(** [Generate; Synthesize] of one {!normalize_config}d configuration
    — transform pipeline, DFG, fused tri-mode schedule, data layout, and
    the P&R degradation when the env is [post_route] — bypassing the
    point cache (neither read nor written); bumps the store's counters.
    The front comes from [fronts] when it holds one for the
    configuration's key; otherwise it is built (counted in the store's
    [fronts]) and added to [fronts] when given; without [fronts] it
    serves this synthesis alone. *)
val synthesize : ?fronts:fronts -> env -> Store.t -> Store.config -> Store.point

(** The tier-1 bound: admissible lower bounds on a configuration's
    cycles and slices from the analytical pre-estimator ({!Hls.Quick}),
    never above what {!synthesize} reports at either fidelity. Counted
    in the store's [quick_estimates]. *)
val bound : env -> Store.t -> Store.config -> Hls.Quick.t

(** Cached [Generate; Synthesize] through the store: configurations are
    normalized before the cache lookup, so any two spellings of the same
    design share one synthesis run. A cache hit reads no front;
    a miss synthesizes with [fronts]. *)
val evaluate : ?fronts:fronts -> env -> Store.t -> Store.config -> Store.point
