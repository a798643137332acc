(** The unified evaluation store: one value owning every piece of
    reusable evaluation state — the design-point cache keyed on the
    normalized transform {!config}, the content-addressed tri-schedule
    memo keyed on {!Hls.Dfg.fingerprint}, and the evaluation counters.

    Before the engine existed these three lived as separate fields of
    [Dse.Design.context] with per-call-site fork/absorb plumbing; the
    store makes the lifecycle one operation: {!fork} gives a domain of a
    parallel sweep a private copy (snapshotted caches, fresh counters —
    no shared mutable state crosses a domain boundary), {!absorb} merges
    a fork back on the joining side, and {!Persist} saves/loads the two
    caches to a versioned on-disk directory so later runs warm-start.

    One store serves one estimation configuration (profile, pipeline,
    backend): the caches are exact under a fixed configuration and
    meaningless across two. The owning context/session fixes the
    configuration for the store's lifetime; {!Persist} keys the on-disk
    form by a configuration hash so a mismatched cache is never read. *)

open Ir

(** The design point's transform configuration and the cache key of the
    point table: unroll vector, tile, scalar-replace/peel/LICM toggles
    ({!Transform.Pipeline.config}). *)
type config = Transform.Pipeline.config

type point = {
  config : config;  (** the normalized configuration this point is *)
  vector : (string * int) list;
      (** [config.vector], kept as a field for the many vector-only
          call sites *)
  kernel : Ast.kernel;  (** transformed code *)
  estimate : Hls.Estimate.t;
  report : Transform.Scalar_replace.report;
}

type stats = {
  mutable evaluations : int;
      (** cache misses: full [Generate; Synthesize] runs *)
  mutable fronts : int;
      (** pipeline fronts (tile, unroll-and-jam, scalar replacement)
          built: one per synthesis, except where a joint sweep shares a
          front among configurations that differ only in their peel and
          LICM toggles *)
  mutable cache_hits : int;
  mutable quick_estimates : int;
      (** tier-1 analytical lower bounds computed *)
  mutable pruned : int;
      (** full syntheses skipped because a lower bound disqualified
          the point (over capacity or provably behind the incumbent) *)
  mutable transform_seconds : float;  (** wall time in the transform pipeline *)
  mutable estimate_seconds : float;  (** wall time in the synthesis estimator *)
  mutable dfg_seconds : float;  (** estimator time building DFGs *)
  mutable schedule_seconds : float;
      (** estimator time in the tri-mode scheduler (memo hits pay only
          the fingerprint) *)
  mutable layout_seconds : float;  (** estimator time in the data layout *)
  mutable sched_memo_hits : int;
      (** blocks whose tri-schedule was served content-addressed from
          the fingerprint memo instead of being scheduled *)
  mutable checked_points : int;
      (** design points whose pipeline run was translation-validated *)
  mutable verify_violations : int;
      (** error-severity validation findings across checked points *)
  mutable flow_builds : int;
      (** flow graphs constructed by the verified path's dataflow checks *)
  mutable flow_solves : int;  (** dataflow fixpoint solves run *)
  mutable flow_seconds : float;
      (** wall time building and solving flow graphs *)
}

let fresh_stats () =
  {
    evaluations = 0;
    fronts = 0;
    cache_hits = 0;
    quick_estimates = 0;
    pruned = 0;
    transform_seconds = 0.0;
    estimate_seconds = 0.0;
    dfg_seconds = 0.0;
    schedule_seconds = 0.0;
    layout_seconds = 0.0;
    sched_memo_hits = 0;
    checked_points = 0;
    verify_violations = 0;
    flow_builds = 0;
    flow_solves = 0;
    flow_seconds = 0.0;
  }

let stats_copy (s : stats) : stats = { s with evaluations = s.evaluations }

(** Add [from]'s counters into [into] — the stats half of {!absorb}. *)
let stats_add ~(into : stats) (from : stats) =
  into.evaluations <- into.evaluations + from.evaluations;
  into.fronts <- into.fronts + from.fronts;
  into.cache_hits <- into.cache_hits + from.cache_hits;
  into.quick_estimates <- into.quick_estimates + from.quick_estimates;
  into.pruned <- into.pruned + from.pruned;
  into.transform_seconds <- into.transform_seconds +. from.transform_seconds;
  into.estimate_seconds <- into.estimate_seconds +. from.estimate_seconds;
  into.dfg_seconds <- into.dfg_seconds +. from.dfg_seconds;
  into.schedule_seconds <- into.schedule_seconds +. from.schedule_seconds;
  into.layout_seconds <- into.layout_seconds +. from.layout_seconds;
  into.sched_memo_hits <- into.sched_memo_hits + from.sched_memo_hits;
  into.checked_points <- into.checked_points + from.checked_points;
  into.verify_violations <- into.verify_violations + from.verify_violations;
  into.flow_builds <- into.flow_builds + from.flow_builds;
  into.flow_solves <- into.flow_solves + from.flow_solves;
  into.flow_seconds <- into.flow_seconds +. from.flow_seconds

let stats_diff ~(before : stats) ~(after : stats) : stats =
  {
    evaluations = after.evaluations - before.evaluations;
    fronts = after.fronts - before.fronts;
    cache_hits = after.cache_hits - before.cache_hits;
    quick_estimates = after.quick_estimates - before.quick_estimates;
    pruned = after.pruned - before.pruned;
    transform_seconds = after.transform_seconds -. before.transform_seconds;
    estimate_seconds = after.estimate_seconds -. before.estimate_seconds;
    dfg_seconds = after.dfg_seconds -. before.dfg_seconds;
    schedule_seconds = after.schedule_seconds -. before.schedule_seconds;
    layout_seconds = after.layout_seconds -. before.layout_seconds;
    sched_memo_hits = after.sched_memo_hits - before.sched_memo_hits;
    checked_points = after.checked_points - before.checked_points;
    verify_violations = after.verify_violations - before.verify_violations;
    flow_builds = after.flow_builds - before.flow_builds;
    flow_solves = after.flow_solves - before.flow_solves;
    flow_seconds = after.flow_seconds -. before.flow_seconds;
  }

type t = {
  points : (config, point) Hashtbl.t;
      (** evaluation memo, keyed on the normalized configuration *)
  sched_memo : Hls.Schedule.memo;
      (** fingerprint-keyed tri-schedule table. In a multi-kernel
          session this table is physically shared between the kernels'
          stores (fingerprints are kernel-agnostic), so one kernel's
          block shapes warm another's *)
  stats : stats;
  mutable loaded_points : int;
      (** points warm-loaded from a persistent store at creation *)
  mutable added_points : int;
      (** points that reached the table other than by a warm load: new
          keys of {!add} and {!absorb}. [0] means the table holds
          nothing its persisted form lacks, so [Persist] skips the
          save *)
}

let create ?sched_memo () : t =
  {
    points = Hashtbl.create 64;
    sched_memo =
      (match sched_memo with
      | Some m -> m
      | None -> Hls.Schedule.memo_create ());
    stats = fresh_stats ();
    loaded_points = 0;
    added_points = 0;
  }

let find (t : t) key = Hashtbl.find_opt t.points key

let add (t : t) key p =
  if not (Hashtbl.mem t.points key) then t.added_points <- t.added_points + 1;
  Hashtbl.replace t.points key p
let size (t : t) = Hashtbl.length t.points
let sched_memo_size (t : t) = Hls.Schedule.memo_size t.sched_memo

(** A private copy for one domain of a parallel sweep: snapshots both
    caches and starts fresh counters, so no mutable state — counters
    included — is ever shared across domains. *)
let fork (t : t) : t =
  {
    points = Hashtbl.copy t.points;
    sched_memo = Hls.Schedule.memo_copy t.sched_memo;
    stats = fresh_stats ();
    loaded_points = 0;
    added_points = 0;
  }

(** Merge a fork's cache entries, tri-schedule memo and counters back
    into [into] (entries already present in [into] are kept as-is). *)
let absorb ~(into : t) (forked : t) : unit =
  Hashtbl.iter
    (fun k p -> if not (Hashtbl.mem into.points k) then add into k p)
    forked.points;
  Hls.Schedule.memo_absorb ~into:into.sched_memo forked.sched_memo;
  stats_add ~into:into.stats forked.stats
