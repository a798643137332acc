(** A design point: one transform configuration (unroll vector, tile,
    toggles), the code it generates, and the behavioral synthesis
    estimates for it. Evaluating a point is the
    [Generate; Synthesize; Balance] sequence of the paper's Figure 2.

    A [context] holds the engine's evaluation environment
    ({!Engine.Backend.env}: source, profile, spine, base pipeline,
    tier-1 facts, verification) as it is, next to the device capacity,
    a pluggable backend ({!Engine.Backend.t} — [full], [lowlevel], or
    either behind the analytical tier-1 gate) and a unified store
    ({!Engine.Store.t} — point cache, tri-schedule memo and counters,
    forkable across sweep domains and persistable across runs). Every
    evaluation in the system goes through here into
    [Engine.Backend.evaluate]. *)

open Ir

(** The transform configuration a design point is (see
    {!Transform.Pipeline.config}); points and counters are the store's. *)
type config = Engine.Store.config

type point = Engine.Store.point
type stats = Engine.Store.stats

type context = {
  env : Engine.Backend.env;
      (** what evaluation reads; updating its [pipeline] or [profile]
          with a record update invalidates the cached points — build a
          fresh context with {!context} instead. Like the cached points
          it belongs to its [source], so a context over another kernel
          must be built fresh too *)
  capacity : int;
      (** device slices; updating it with a record update is fine for
          the behavioral backends: it does not enter evaluation *)
  backend : Engine.Backend.t;
      (** the fidelity level evaluations run at; defaults to the
          two-tier composition [Engine.Backend.default] *)
  store : Engine.Store.t;
      (** point cache + tri-schedule memo + counters ([store.stats]),
          merged across domains on {!absorb} *)
}

(** Build a context. [store] plugs in an existing (possibly warm-loaded
    or memo-sharing) store; the default is fresh and empty. [capacity]
    overrides the device's slice capacity. *)
val context :
  ?pipeline:Transform.Pipeline.options ->
  ?profile:Hls.Estimate.profile ->
  ?verify:bool ->
  ?capacity:int ->
  ?backend:Engine.Backend.t ->
  ?store:Engine.Store.t ->
  Ast.kernel ->
  context

val product : (string * int) list -> int

(** Equality of the designs two vectors denote: loops missing from either
    side count as factor 1, so partial and spine-normalized spellings of
    the same design compare equal and differing lengths never raise. *)
val vector_equal : (string * int) list -> (string * int) list -> bool

(** No unrolling — the baseline of the paper's Table 2 (all other
    transformations still apply). *)
val ubase : context -> (string * int) list

(** Full unrolling of every loop. *)
val umax : context -> (string * int) list

(** The context's base configuration at the given unroll vector: tile
    and toggles from the base pipeline options — the configuration a
    vector-only caller evaluates. *)
val base_config : context -> (string * int) list -> config

(** Canonical cache key of a configuration (see
    {!Engine.Backend.normalize_config}): normalized vector, strip-mine
    clamped tile (dropped when a no-op), unroll factor 1 on the tiled
    loop. *)
val normalize_config : context -> config -> config

(** Equality of the designs two configurations denote: vectors compare
    via {!vector_equal}, the other knobs structurally. *)
val config_equal : config -> config -> bool

(** Generate the code for a configuration and estimate it, through the
    store's point cache: configurations are normalized before lookup,
    so any two spellings of the same design share one synthesis run.
    On a cache miss the synthesis takes its pipeline front from
    [fronts] and adds the fronts it builds there
    ({!Engine.Backend.fronts}); a hit builds none. Vector callers pass
    {!base_config}. *)
val evaluate : ?fronts:Engine.Backend.fronts -> context -> config -> point

(** The backend's tier-1 bound: admissible lower bounds on the point's
    cycles and slices straight from the source kernel — no code
    generation, no scheduling. The bounds never exceed what {!evaluate}
    would report for the same configuration, so callers may skip
    evaluation of points they disqualify without changing any
    selection. [None] when the backend has no bound tier (plain
    [full]/[lowlevel]); callers must then evaluate instead of pruning.
    Counted in [stats.quick_estimates]. *)
val quick : context -> config -> Hls.Quick.t option

(** Record that one full synthesis was skipped on tier-1 evidence
    (bumps [stats.pruned]). *)
val note_pruned : context -> unit

(** Number of distinct designs currently memoized. *)
val cache_size : context -> int

(** Number of distinct block shapes whose tri-schedule is memoized. *)
val sched_memo_size : context -> int

(** Immutable copy of the context's counters (for before/after deltas). *)
val stats_snapshot : context -> stats

(** A private copy of [ctx] for one domain of a parallel sweep: shares
    the immutable fields, snapshots the store's caches, and starts fresh
    counters. Never share one mutable context across domains. *)
val fork : context -> context

(** Merge a fork's cache entries, schedule memo and counters back into
    [into]. *)
val absorb : into:context -> context -> unit

val balance : point -> float
val space : point -> int
val cycles : point -> int
val pp_vector : Format.formatter -> (string * int) list -> unit
val pp_point : Format.formatter -> point -> unit
val pp_stats : Format.formatter -> stats -> unit

(** Per-stage wall-time split of the estimator (dfg / schedule / layout
    / other) plus the scheduler-memo hit count — the [--profile] view. *)
val pp_profile : Format.formatter -> stats -> unit
