(** The unified evaluation store: design-point cache, content-addressed
    tri-schedule memo and evaluation counters as one value with a single
    fork/absorb lifecycle for domain parallelism and a persistent on-disk
    form (see {!Persist}).

    One store serves one estimation configuration (profile, pipeline,
    fidelity); the caches are exact under a fixed configuration and
    meaningless across two. *)

open Ir

(** The design point's transform configuration and the cache key of the
    point table: unroll vector, tile, scalar-replace/peel/LICM toggles
    ({!Transform.Pipeline.config}). *)
type config = Transform.Pipeline.config

type point = {
  config : config;  (** the normalized configuration this point is *)
  vector : (string * int) list;
      (** [config.vector], kept as a field for vector-only call sites *)
  kernel : Ast.kernel;  (** transformed code *)
  estimate : Hls.Estimate.t;
  report : Transform.Scalar_replace.report;
}

type stats = {
  mutable evaluations : int;
      (** cache misses: full [Generate; Synthesize] runs *)
  mutable fronts : int;
      (** pipeline fronts built ({!Transform.Pipeline.front}): one per
          synthesis, except where a joint sweep shares a front among
          configurations that differ only in their peel and LICM
          toggles *)
  mutable reused : int;
      (** syntheses served from a sibling of the same shared front: the
          finished kernel is physically the sibling's (the front's
          finishing memo also skipped the final simplify), so the
          estimator was skipped. Each is also counted in [evaluations] *)
  mutable cache_hits : int;
  mutable quick_estimates : int;
      (** tier-1 analytical lower bounds computed *)
  mutable pruned : int;
      (** full syntheses skipped because a lower bound disqualified
          the point *)
  mutable transform_seconds : float;
  mutable estimate_seconds : float;
  mutable dfg_seconds : float;
  mutable schedule_seconds : float;
  mutable layout_seconds : float;
  mutable sched_memo_hits : int;
  mutable checked_points : int;
  mutable verify_violations : int;
  mutable flow_checks : int;
      (** uninitialized-read checks run by the verified path, once per
          distinct finished kernel of a shared front *)
  mutable flow_seconds : float;  (** wall time in those checks *)
}

val fresh_stats : unit -> stats

(** Immutable copy (for before/after deltas). *)
val stats_copy : stats -> stats

(** Add [from]'s counters into [into] — the stats half of {!absorb}. *)
val stats_add : into:stats -> stats -> unit

val stats_diff : before:stats -> after:stats -> stats

type t = {
  points : (config, point) Hashtbl.t;
      (** evaluation memo, keyed on the normalized configuration *)
  sched_memo : Hls.Schedule.memo;
      (** fingerprint-keyed tri-schedule table; physically shared
          between the kernels of a session *)
  stats : stats;
  mutable loaded_points : int;
      (** points warm-loaded from a persistent store at creation *)
  mutable added_points : int;
      (** points that reached the table other than by a warm load: new
          keys of {!add} and {!absorb}. [0] means the table holds
          nothing its persisted form lacks *)
}

(** A fresh, empty store. Pass [sched_memo] to share one tri-schedule
    table across several stores (the multi-kernel session does: the
    fingerprints are kernel-agnostic, so one kernel's block shapes warm
    another's). *)
val create : ?sched_memo:Hls.Schedule.memo -> unit -> t

val find : t -> config -> point option
val add : t -> config -> point -> unit
val size : t -> int
val sched_memo_size : t -> int

(** A private copy for one domain of a parallel sweep: snapshots both
    caches and starts fresh counters — no mutable state, counters
    included, is ever shared across domains. *)
val fork : t -> t

(** Merge a fork's cache entries, tri-schedule memo and counters back
    into [into] (entries already present in [into] win). *)
val absorb : into:t -> t -> unit
