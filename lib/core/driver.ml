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

type summary = {
  outcomes : outcome list;
  memo : Hls.Schedule.memo;  (** the tri-schedule memo the kernels share *)
  config : string;  (** the persistence configuration string *)
  cache_dir : string option;  (** where {!save} writes, if anywhere *)
}

let speedup (o : outcome) : float =
  float_of_int (Design.cycles o.baseline)
  /. float_of_int (max 1 (Design.cycles o.search.Search.selected))

let run_many ?cache_dir ?(cold = false) ?pipeline ?profile ?verify ?capacity
    ?(backend = Engine.Backend.default) ?search_config (tasks : task list) :
    summary =
  (* The configuration every cached value depends on. [make_env] applies
     the same defaults to every kernel, so read them off the first. *)
  let config =
    match tasks with
    | [] -> ""
    | t :: _ ->
        let env =
          Engine.Backend.make_env ?pipeline ?profile ?verify ?capacity t.kernel
        in
        Engine.Persist.config_string ~backend:backend.Engine.Backend.name
          env.Engine.Backend.profile env.Engine.Backend.pipeline
  in
  let warm = match cache_dir with Some dir when not cold -> Some dir | _ -> None in
  let sched_memo = Hls.Schedule.memo_create () in
  Option.iter
    (fun dir -> Engine.Persist.load_memo ~cache_dir:dir ~config sched_memo)
    warm;
  let outcomes =
    List.map
      (fun task ->
        let store = Engine.Store.create ~sched_memo () in
        let loaded_points =
          match warm with
          | Some dir ->
              Engine.Persist.load_points ~cache_dir:dir ~config
                ~kernel_key:(Engine.Persist.kernel_key task.kernel)
                store
          | None -> 0
        in
        let ctx =
          Design.context ?pipeline ?profile ?verify ?capacity ~backend ~store
            task.kernel
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
          loaded_points;
          stats = Design.stats_snapshot ctx;
          wall_seconds;
        })
      tasks
  in
  { outcomes; memo = sched_memo; config; cache_dir }

let total (s : summary) : Design.stats =
  let t = Engine.Store.fresh_stats () in
  List.iter (fun o -> Engine.Store.stats_add ~into:t o.ctx.Design.stats) s.outcomes;
  t

let save (s : summary) : (unit, string) result =
  match s.cache_dir with
  | None -> Ok ()
  | Some dir ->
      Engine.Persist.save ~cache_dir:dir ~config:s.config ~memo:s.memo
        (List.map
           (fun o -> (o.task.kernel, o.ctx.Design.store))
           s.outcomes)
