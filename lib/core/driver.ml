(** The multi-kernel driver: the Figure-2 exploration of several kernels
    in one run (a session).

    One call explores a batch of kernels over one shared tri-schedule
    memo (cross-kernel fingerprint hits) and — when [cache_dir] is given
    — one persistent store, so a second run over the same kernels
    performs zero full syntheses while selecting bit-identical designs. *)

type task = { name : string; kernel : Ir.Ast.kernel }

type outcome = {
  task : task;
  search : Search.result;
  baseline : Design.point;  (** the no-unrolling design ([ubase]) *)
  ctx : Design.context;  (** post-run context (store, stats, capacity) *)
  loaded_points : int;  (** points warm-loaded from the persistent store *)
  stats : Design.stats;  (** this kernel's counters, baseline included *)
  wall_seconds : float;
}

type session = {
  config : string;  (** the persistence configuration string *)
  memo : Hls.Schedule.memo;  (** the tri-schedule memo the kernels share *)
  cache_dir : string option;  (** where {!save_stores} writes, if anywhere *)
  warm : string option;  (** where stores load from: [cache_dir] unless cold *)
}

type summary = { outcomes : outcome list; session : session }

let speedup (o : outcome) : float =
  float_of_int (Design.cycles o.baseline)
  /. float_of_int (max 1 (Design.cycles o.search.Search.selected))

let session ?cache_dir ?(cold = false) ?(pipeline = Transform.Pipeline.default)
    ?(profile = Hls.Estimate.default_profile ()) ?(post_route = false) () :
    session =
  (* The configuration every cached value depends on, under the
     defaults [Design.context] applies. The fidelity's name is part of
     it; the perf replay harness hard-codes the default one. *)
  let config =
    Engine.Persist.config_string
      ~backend:(if post_route then "quick+lowlevel" else "quick+full")
      profile pipeline
  in
  let warm = match cache_dir with Some dir when not cold -> Some dir | _ -> None in
  let memo = Hls.Schedule.memo_create () in
  Option.iter (fun dir -> Engine.Persist.load_memo ~cache_dir:dir ~config memo) warm;
  { config; memo; cache_dir; warm }

let open_store (s : session) (k : Ir.Ast.kernel) : Engine.Store.t =
  let store = Engine.Store.create ~sched_memo:s.memo () in
  Option.iter
    (fun dir ->
      ignore
        (Engine.Persist.load_points ~cache_dir:dir ~config:s.config
           ~kernel_key:(Engine.Persist.kernel_key k) store))
    s.warm;
  store

let save_stores (s : session) stores : (int, string) result =
  match s.cache_dir with
  | None -> Ok 0
  | Some dir ->
      Engine.Persist.save ~cache_dir:dir ~config:s.config ~memo:s.memo stores

let run_many ?cache_dir ?cold ?pipeline ?profile ?verify ?capacity ?post_route
    ?search_config (tasks : task list) : summary =
  let session = session ?cache_dir ?cold ?pipeline ?profile ?post_route () in
  let outcomes =
    List.map
      (fun task ->
        let store = open_store session task.kernel in
        let ctx =
          Design.context ?pipeline ?profile ?verify ?post_route ?capacity
            ~store task.kernel
        in
        let t0 = Ir.Clock.now () in
        let search = Search.run ?config:search_config ctx in
        let baseline =
          Design.evaluate ctx (Design.base_config ctx (Design.ubase ctx))
        in
        let wall_seconds = Ir.Clock.now () -. t0 in
        {
          task;
          search;
          baseline;
          ctx;
          loaded_points = store.Engine.Store.loaded_points;
          stats = Design.stats_snapshot ctx;
          wall_seconds;
        })
      tasks
  in
  { outcomes; session }

let total (s : summary) : Design.stats =
  let t = Engine.Store.fresh_stats () in
  List.iter
    (fun o -> Engine.Store.stats_add ~into:t o.ctx.Design.store.stats)
    s.outcomes;
  t

let save (s : summary) : (int, string) result =
  save_stores s.session
    (List.map (fun o -> (o.task.kernel, o.ctx.Design.store)) s.outcomes)
