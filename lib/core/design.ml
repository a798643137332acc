(** A design point: one transform configuration (unroll vector, tile,
    toggles), the code it generates, and the behavioral synthesis
    estimates for it. Evaluating a point is the
    [Generate; Synthesize; Balance] sequence of the paper's Figure 2.

    A [context] holds the engine's evaluation environment
    ({!Engine.Backend.env}) as it is, next to the device capacity, a
    pluggable backend ({!Engine.Backend.t}) and a unified store
    ({!Engine.Store.t} — point cache, tri-schedule memo and counters
    with one fork/absorb lifecycle and a persistent on-disk form).
    Every evaluation anywhere in the system goes through
    [Engine.Backend.evaluate]; nothing here talks to the estimator
    directly. *)

open Ir

(** The transform configuration a design point is (see
    {!Transform.Pipeline.config}); points and counters are the store's. *)
type config = Engine.Store.config

type point = Engine.Store.point
type stats = Engine.Store.stats

type context = {
  env : Engine.Backend.env;  (** what evaluation reads *)
  capacity : int;  (** device slices; does not enter evaluation *)
  backend : Engine.Backend.t;
      (** the fidelity level evaluations run at; the default is the
          two-tier composition [quick_gate full] *)
  store : Engine.Store.t;  (** point cache + tri-schedule memo + counters *)
}

let context ?pipeline ?profile ?verify ?capacity
    ?(backend = Engine.Backend.default) ?store (source : Ast.kernel) =
  let env = Engine.Backend.make_env ?pipeline ?profile ?verify source in
  {
    env;
    capacity =
      Option.value capacity
        ~default:env.profile.Hls.Estimate.device.Hls.Device.capacity_slices;
    backend;
    store = (match store with Some s -> s | None -> Engine.Store.create ());
  }

let product v = List.fold_left (fun acc (_, u) -> acc * u) 1 v

(** Equality of the designs two vectors denote: loops missing from either
    side count as factor 1, so a partial vector compares equal to its
    spine-normalized form (and vectors of different lengths never raise). *)
let vector_equal a b =
  let factor v i = Option.value ~default:1 (List.assoc_opt i v) in
  let indices =
    List.sort_uniq compare (List.map fst a @ List.map fst b)
  in
  List.for_all (fun i -> factor a i = factor b i) indices

(** Unroll factor vector corresponding to no unrolling (the baseline of
    Table 2: all other transformations still apply). *)
let ubase (ctx : context) =
  List.map (fun (l : Ast.loop) -> (l.index, 1)) ctx.env.spine

(** Full unrolling of every loop. *)
let umax (ctx : context) =
  List.map (fun (l : Ast.loop) -> (l.index, Ast.loop_trip l)) ctx.env.spine

(* ------------------------------------------------------------------ *)
(* Configurations *)

(** The context's base configuration at unroll vector [v]: tile and
    toggles from the base pipeline options — the configuration a
    vector-only caller evaluates. *)
let base_config (ctx : context) (v : (string * int) list) : config =
  Engine.Backend.base_config ctx.env v

(** Canonical cache key of a configuration (see
    {!Engine.Backend.normalize_config}). *)
let normalize_config (ctx : context) (c : config) : config =
  Engine.Backend.normalize_config ctx.env c

(** Equality of the designs two configurations denote: vectors compare
    via {!vector_equal}, the other knobs structurally. *)
let config_equal (a : config) (b : config) =
  vector_equal a.vector b.vector
  && a.tile = b.tile
  && a.scalar_replace = b.scalar_replace
  && a.peel = b.peel && a.licm = b.licm

(** Cached [Generate; Synthesize] through the context's store:
    configurations are normalized before the cache lookup, so any two
    spellings of the same design share one synthesis run; a miss
    synthesizes from [fronts]. *)
let evaluate ?fronts (ctx : context) (c : config) : point =
  Engine.Backend.evaluate ?fronts ctx.env ctx.backend ctx.store c

(* ------------------------------------------------------------------ *)
(* Tier-1 analytical bounds *)

(** The backend's tier-1 bound for configuration [c] — admissible lower
    bounds without generating or estimating anything. [None] when the
    backend has no bound tier (plain [full]/[lowlevel]); callers must
    then synthesize instead of pruning. *)
let quick (ctx : context) (c : config) : Hls.Quick.t option =
  ctx.backend.Engine.Backend.bound ctx.env ctx.store c

(** Record that one full synthesis was skipped on tier-1 evidence. *)
let note_pruned (ctx : context) =
  let stats = ctx.store.Engine.Store.stats in
  stats.pruned <- stats.pruned + 1

(* ------------------------------------------------------------------ *)
(* Store and statistics plumbing *)

let cache_size (ctx : context) = Engine.Store.size ctx.store

(** Distinct block shapes whose tri-schedule is memoized. *)
let sched_memo_size (ctx : context) = Engine.Store.sched_memo_size ctx.store

(** Immutable copy of the context's counters (for before/after deltas). *)
let stats_snapshot (ctx : context) : stats =
  Engine.Store.stats_copy ctx.store.Engine.Store.stats

(** A private copy of [ctx] for one domain of a parallel sweep: shares
    the immutable fields, snapshots the store's caches, and starts fresh
    counters — no mutable state, counters included, is ever shared
    across domains. Never share one mutable context across domains —
    fork per domain and [absorb] the forks back on the joining side. *)
let fork (ctx : context) : context =
  (* The quick-facts memo is mutex-protected and domain-safe, but
     pre-warm the base pipeline's entry here so sweep domains start
     from a hit instead of contending on the first computation. *)
  ignore (ctx.env.quick_facts ctx.env.pipeline.Transform.Pipeline.tile);
  { ctx with store = Engine.Store.fork ctx.store }

(** Merge a fork's cache entries, tri-schedule memo and counters back
    into [into] (entries already present in [into] are kept as-is). *)
let absorb ~(into : context) (forked : context) : unit =
  Engine.Store.absorb ~into:into.store forked.store

let balance (p : point) = p.estimate.Hls.Estimate.balance
let space (p : point) = p.estimate.Hls.Estimate.slices
let cycles (p : point) = p.estimate.Hls.Estimate.cycles

let pp_vector fmt v =
  Format.fprintf fmt "(%s)"
    (String.concat ", " (List.map (fun (i, u) -> Printf.sprintf "%s=%d" i u) v))

let pp_point fmt (p : point) =
  Format.fprintf fmt "%a: cycles=%d slices=%d balance=%.3f" pp_vector p.vector
    (cycles p) (space p) (balance p)

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "%d synthesized, %d front(s), %d reused, %d cache hits, %d quick \
     estimates, %d pruned, %d sched memo hits (transform %.1f ms, estimate \
     %.1f ms)"
    s.evaluations s.fronts s.reused s.cache_hits s.quick_estimates s.pruned s.sched_memo_hits
    (1000.0 *. s.transform_seconds)
    (1000.0 *. s.estimate_seconds);
  if s.checked_points > 0 then
    Format.fprintf fmt "; verified %d point(s), %d violation(s)"
      s.checked_points s.verify_violations

(** Per-stage wall-time split of the estimator (the [--profile] view):
    DFG construction, scheduling, data layout, and whatever remains of
    [estimate_seconds] (region walk, area fold). *)
let pp_profile fmt (s : stats) =
  let other =
    Float.max 0.0
      (s.estimate_seconds -. s.dfg_seconds -. s.schedule_seconds
     -. s.layout_seconds)
  in
  Format.fprintf fmt
    "transform %.1f ms; estimate %.1f ms = dfg %.1f + schedule %.1f + layout \
     %.1f + other %.1f; %d tri-schedules served from the fingerprint memo"
    (1000.0 *. s.transform_seconds)
    (1000.0 *. s.estimate_seconds)
    (1000.0 *. s.dfg_seconds)
    (1000.0 *. s.schedule_seconds)
    (1000.0 *. s.layout_seconds)
    (1000.0 *. other) s.sched_memo_hits;
  if s.checked_points > 0 then
    Format.fprintf fmt
      "; translation validation: %d point(s) checked, %d violation(s)"
      s.checked_points s.verify_violations;
  if s.flow_builds > 0 then
    Format.fprintf fmt
      "; flowgraph: %d build(s), %d solve(s) in %.1f ms"
      s.flow_builds s.flow_solves
      (1000.0 *. s.flow_seconds)
