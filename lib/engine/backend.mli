(** Pluggable estimator backends — the fidelity levels at which a design
    point can be evaluated, as first-class values, with the two-tier
    gating expressed as backend composition ({!quick_gate}) instead of
    inline logic in the search and the sweep. *)

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
  source_footprint : Check.Validate.t option;
      (** [Some] footprint of [source] when [verify], computed once by
          {!make_env} and shared by every verified evaluation *)
}

val make_env :
  ?pipeline:Transform.Pipeline.options ->
  ?profile:Hls.Estimate.profile ->
  ?verify:bool ->
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

type t = {
  name : string;
      (** stable identifier; part of the persistent store key, so two
          backends never share cached points *)
  bound : env -> Store.t -> Store.config -> Hls.Quick.t option;
      (** admissible lower bounds for a configuration, or [None] when
          this backend offers no tier-1 gate *)
  synthesize :
    ?fronts:fronts -> env -> Store.t -> Store.config -> Store.point;
      (** full evaluation of one {!normalize_config}d configuration,
          bypassing the point cache (neither read nor written); bumps
          the store's counters.
          The front comes from [fronts] when it holds one for the
          configuration's key; otherwise it is built (counted in the
          store's [fronts]) and added to [fronts] when given; without
          [fronts] it serves this synthesis alone *)
}

(** The paper's [Generate; Synthesize]: transform pipeline, DFG, fused
    tri-mode schedule, data layout. No tier-1 bound. *)
val full : t

(** {!full} composed with the P&R degradation model: the stored
    estimate carries post-route area and achieved-clock time. Cycle
    counts and balance are unchanged (Section 6.4). *)
val lowlevel : t

(** [quick_gate b] is [b] with the analytical pre-estimator
    ({!Hls.Quick}) as its tier-1 bound — the two-tier engine as backend
    composition. The bounds are admissible, so gating on them never
    changes a selection, only the set of synthesized points. *)
val quick_gate : t -> t

(** [quick_gate full] — the default of the CLI, bench and tests. *)
val default : t

val to_string : t -> string

(** Parse a backend name: [full], [quick+full] (aliases [tiered],
    [default]), [lowlevel], [quick+lowlevel]. *)
val of_string : string -> (t, string) result

val known_names : string list

(** Cached [Generate; Synthesize] through the store: configurations are
    normalized before the cache lookup, so any two spellings of the
    same design share one synthesis run. A cache hit reads no front;
    a miss synthesizes with [fronts]. *)
val evaluate :
  ?fronts:fronts -> env -> t -> Store.t -> Store.config -> Store.point
