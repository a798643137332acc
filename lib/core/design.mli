(** A design point: one transform configuration (unroll vector, tile,
    toggles), the code it generates, and the behavioral synthesis
    estimates for it. Evaluating a point is the
    [Generate; Synthesize; Balance] sequence of the paper's Figure 2.

    A [context] holds the engine's evaluation environment
    ({!Engine.Backend.env}: source, profile, spine, base pipeline,
    tier-1 facts, verification, post-route fidelity) as it is, next to
    the device capacity and a unified store ({!Engine.Store.t} — point
    cache, tri-schedule memo and counters, forkable across sweep domains
    and persistable across runs). Every evaluation in the system goes
    through here into [Engine.Backend.evaluate], and every point is
    first offered to the admissible tier-1 prune rule ({!prune}). *)

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
      (** device slices; it does not enter evaluation, so updating it
          with a record update is fine *)
  store : Engine.Store.t;
      (** point cache + tri-schedule memo + counters ([store.stats]),
          merged across domains on {!absorb} *)
}

(** Build a context. [store] plugs in an existing (possibly warm-loaded
    or memo-sharing) store; the default is fresh and empty. [capacity]
    overrides the device's slice capacity. [post_route] (default off)
    folds the P&R degradation into every estimate
    ({!Engine.Backend.make_env}). *)
val context :
  ?pipeline:Transform.Pipeline.options ->
  ?profile:Hls.Estimate.profile ->
  ?verify:bool ->
  ?post_route:bool ->
  ?capacity:int ->
  ?store:Engine.Store.t ->
  Ast.kernel ->
  context

val product : (string * int) list -> int

(** No unrolling — the baseline of the paper's Table 2 (all other
    transformations still apply). *)
val ubase : context -> (string * int) list

(** Full unrolling of every loop. *)
val umax : context -> (string * int) list

(** The context's base configuration at the given unroll vector: tile
    and toggles from the base pipeline options — the configuration a
    vector-only caller evaluates. *)
val base_config : context -> (string * int) list -> config

(** The design a configuration denotes, as its canonical cache key
    ({!Engine.Backend.normalize_config}, the one canonicalizer):
    normalized vector, strip-mine clamped tile (dropped when a no-op),
    unroll factor 1 on the tiled loop, no peeling without scalar
    replacement. *)
val normalize_config : context -> config -> config

(** Generate the code for a configuration and estimate it, through the
    store's point cache: configurations are normalized before lookup,
    so any two spellings of the same design share one synthesis run.
    On a cache miss the synthesis takes its pipeline front from
    [fronts] and adds the fronts it builds there
    ({!Engine.Backend.fronts}); a hit builds none. Vector callers pass
    {!base_config}. *)
val evaluate : ?fronts:Engine.Backend.fronts -> context -> config -> point

(** The tier-1 bound: admissible lower bounds on the point's cycles and
    slices straight from the source kernel — no code generation, no
    scheduling. The bounds never exceed what {!evaluate} would report
    for the same configuration, so callers may skip evaluation of
    points they disqualify without changing any selection. Counted in
    [stats.quick_estimates]. *)
val quick : context -> config -> Hls.Quick.t

(** The admissible prune rule, the one both the search and the sweep
    apply: [true] when the bound puts the point over the context's
    capacity or its cycles above [incumbent] ([max_int] when there is
    none), so it cannot be selected. A [true] verdict is counted in
    [stats.pruned]. *)
val prune : context -> incumbent:int -> Hls.Quick.t -> bool

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
