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

(** The persistent side of a session: the configuration string its
    cached values are keyed by, the tri-schedule memo its kernels share
    and, with a cache directory, where their stores load from and save
    to. *)
type session = {
  config : string;  (** the persistence configuration string *)
  memo : Hls.Schedule.memo;
      (** the tri-schedule memo the kernels share; with a warm store,
          {!Hls.Schedule.memo_loaded} counts the shapes actually read *)
  cache_dir : string option;  (** where {!save_stores} writes, if anywhere *)
  warm : string option;  (** where stores load from: [cache_dir] unless cold *)
}

type summary = { outcomes : outcome list; session : session }

(** A session under the given base options (the defaults are
    [Design.context]'s). Its stores are keyed by fidelity: [quick+full],
    or [quick+lowlevel] with [post_route], so the two never share a
    point. With [cache_dir] and not [cold], the persisted memo is
    attached, to be read only if a block must be scheduled. *)
val session :
  ?cache_dir:string ->
  ?cold:bool ->
  ?pipeline:Transform.Pipeline.options ->
  ?profile:Hls.Estimate.profile ->
  ?post_route:bool ->
  unit ->
  session

(** A fresh store for one kernel of the session, over the session's
    memo, with the kernel's persisted points loaded when the session is
    warm (counted in its [loaded_points]). *)
val open_store : session -> Ir.Ast.kernel -> Engine.Store.t

(** Persist the given kernels' stores and the session's memo under its
    [cache_dir] ({!Engine.Persist.save}: stores and a memo that gained
    nothing are not rewritten); [Ok n] counts the files written, [Ok 0]
    without a [cache_dir]. *)
val save_stores :
  session -> (Ir.Ast.kernel * Engine.Store.t) list -> (int, string) result

(** Cycles of the baseline over cycles of the selected design. *)
val speedup : outcome -> float

(** Explore each kernel in order with the Figure-2 search, plus the
    [ubase] baseline the drivers report speedup against. Every kernel
    gets its own store; all stores share one tri-schedule memo, whose
    fingerprints are kernel-agnostic, so one kernel's block shapes warm
    the next kernel's.

    With [cache_dir], each kernel's point cache is warm-loaded before
    exploring and the shared memo is attached, to be read only if a
    block must be scheduled; [cold] skips both. Nothing is saved: the
    caller runs whatever else the command does on the outcomes'
    contexts, then calls {!save} once. Warm stores only short-circuit
    evaluations that would have produced bit-identical points, so
    selections are the same cold and warm, batched and sequential. *)
val run_many :
  ?cache_dir:string ->
  ?cold:bool ->
  ?pipeline:Transform.Pipeline.options ->
  ?profile:Hls.Estimate.profile ->
  ?verify:bool ->
  ?capacity:int ->
  ?post_route:bool ->
  ?search_config:Search.config ->
  task list ->
  summary

(** The kernels' counters summed, read from their live contexts, so work
    run on an outcome's context after {!run_many} (a joint sweep) counts. *)
val total : summary -> Design.stats

(** {!save_stores} of every outcome's store. *)
val save : summary -> (int, string) result
