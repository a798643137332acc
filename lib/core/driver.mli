(** The multi-kernel driver: the Figure-2 exploration of several kernels
    in one run (a session), over one shared tri-schedule memo and
    (optionally) one persistent cache directory; a warm second run
    performs zero full syntheses and selects bit-identical designs. *)

type task = { name : string; kernel : Ir.Ast.kernel }

type outcome = {
  task : task;
  search : Search.result;
  baseline : Design.point;  (** the no-unrolling design ([ubase]) *)
  ctx : Design.context;  (** post-run context (store, stats, capacity) *)
  loaded_points : int;  (** points warm-loaded from the persistent store *)
  stats : Design.stats;  (** this kernel's counters, baseline included *)
  wall_seconds : float;  (** search plus baseline, loads excluded *)
}

type summary = {
  outcomes : outcome list;
  total : Design.stats;  (** sum over all kernels *)
  loaded_memo_shapes : int;
      (** tri-schedules warm-loaded from the persistent store *)
  sched_memo_shapes : int;
      (** distinct block shapes in the shared memo after the session *)
  config : string;  (** the persistence configuration string *)
  saved_to : string option;  (** cache directory written, if any *)
}

(** Cycles of the baseline over cycles of the selected design. *)
val speedup : outcome -> float

(** Explore each kernel in order with the Figure-2 search, plus the
    [ubase] baseline the drivers report speedup against. Every kernel
    gets its own store; all stores share one tri-schedule memo, whose
    fingerprints are kernel-agnostic, so one kernel's block shapes warm
    the next kernel's.

    With [cache_dir], each kernel's point cache and the shared memo are
    warm-loaded before exploring and saved (merged with the directory's
    prior contents) afterwards; [cold] skips the loads but still saves,
    refreshing the cache from scratch. Warm stores only short-circuit
    evaluations that would have produced bit-identical points, so
    selections are the same cold and warm, batched and sequential. *)
val run_many :
  ?cache_dir:string ->
  ?cold:bool ->
  ?pipeline:Transform.Pipeline.options ->
  ?profile:Hls.Estimate.profile ->
  ?verify:bool ->
  ?capacity:int ->
  ?backend:Engine.Backend.t ->
  ?search_config:Search.config ->
  task list ->
  summary
