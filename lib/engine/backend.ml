(** The evaluation of one design point, at one fidelity.

    - {!synthesize} is the paper's [Generate; Synthesize] — transform
      pipeline, DFG construction, fused tri-mode scheduling, data
      layout. When the env is made with [post_route] it folds the P&R
      degradation model ({!Hls.Lowlevel}) into the stored estimate: the
      post-route area and the achieved-clock execution time instead of
      the behavioral ones.
    - {!bound} is the closed-form analytical pre-estimator
      ({!Hls.Quick}): admissible lower bounds that the search and the
      sweep consult before paying for a synthesis. They stay admissible
      under [post_route], whose area and time only grow, so gating on
      them never changes a selection — only the set of synthesized
      points.
    - {!evaluate} is {!synthesize} through the store's point cache.

    Evaluation reads an immutable {!env} (the evaluation environment a
    [Dse.Design.context] holds) and a mutable {!Store.t} (caches and
    counters). *)

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
          mutex-protected (safe to share across sweep domains). The
          facts for [Some (loop, tile)] are computed from the
          strip-mined source, so the quick bounds stay admissible over
          tiling design points *)
  verify : bool;
      (** translation-validate every uncached evaluation
          ({!Check.Validate}); selections are bit-identical, violations
          are counted in the store's stats *)
  source_footprint : Analysis.Footprint.t option;
      (** the source kernel's footprint, the same at every point:
          computed once, when the env is made with [verify] (eagerly —
          [Lazy] is not domain-safe, and sweep workers share the env) *)
  post_route : bool;
      (** fold the P&R degradation into every synthesized estimate *)
}

let make_env ?(pipeline = Transform.Pipeline.default)
    ?(profile = Hls.Estimate.default_profile ()) ?(verify = false)
    ?(post_route = false) (source : Ast.kernel) : env =
  let spine = Loop_nest.spine source.k_body in
  let quick_facts =
    (* One facts value per tile candidate, computed from the (possibly
       strip-mined) source. The memo and its mutex live in this closure
       and are shared by every fork of the owning context — OCaml 5
       mutexes are domain-safe, and the critical section is one table
       probe or one facts computation. *)
    let memo : ((string * int) option, Hls.Quick.facts) Hashtbl.t =
      Hashtbl.create 4
    in
    let lock = Mutex.create () in
    fun (tile : (string * int) option) ->
      Mutex.lock lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          match Hashtbl.find_opt memo tile with
          | Some f -> f
          | None ->
              let k =
                match tile with
                | None -> source
                | Some (index, t) -> (
                    try Transform.Tiling.tile_for_registers ~index ~tile:t source
                    with _ -> source)
              in
              let f =
                Hls.Quick.facts ~device:profile.Hls.Estimate.device
                  ~mem:profile.Hls.Estimate.mem
                  ~chaining:profile.Hls.Estimate.chaining k
              in
              Hashtbl.replace memo tile f;
              f)
  in
  {
    source;
    profile;
    spine;
    spine_divisors =
      List.map
        (fun (l : Ast.loop) -> (l.index, Util.divisors (Ast.loop_trip l)))
        spine;
    pipeline;
    quick_facts;
    verify;
    source_footprint =
      (if verify then Some (Analysis.Footprint.footprint source) else None);
    post_route;
  }

(** Normalise a vector to cover every spine loop, with factors clamped to
    divisors of the trip counts (the space the search explores; a
    non-divisor factor would leave an epilogue that defeats scalar
    replacement). The largest divisor no greater than the requested
    factor comes from the env's precomputed divisor lists. *)
let normalize_vector (env : env) (v : (string * int) list) :
    (string * int) list =
  List.map2
    (fun (l : Ast.loop) (_, divs) ->
      let u = max 1 (Option.value ~default:1 (List.assoc_opt l.index v)) in
      let u = min u (Ast.loop_trip l) in
      (* divisor lists are ascending; keep the largest one <= u *)
      let d =
        List.fold_left (fun best d -> if d <= u then d else best) 1 divs
      in
      (l.index, d))
    env.spine env.spine_divisors

(* ------------------------------------------------------------------ *)
(* Configurations *)

(** The env's base configuration at unroll vector [v]: tile and toggles
    from the base pipeline options — the design point the pre-refactor
    engine would have evaluated for [v]. *)
let base_config (env : env) (v : (string * int) list) : Store.config =
  { (Transform.Pipeline.config_of_options env.pipeline) with vector = v }

(** The design a configuration denotes, as its canonical cache key —
    the one place that decides when two configurations are the same
    design. The vector is spine-normalized ({!normalize_vector}); a
    tile on a spine loop is {!Transform.Tiling.clamp}ed and dropped
    when the clamp leaves no tile; the unroll factor of a tiled loop is
    forced to 1 (strip-mining renames the loop, so the unroller would
    ignore the entry); peeling is off without scalar replacement (the
    peel stage peels what replacement reports, and with replacement off
    that is nothing). A tile index naming no spine loop is kept
    verbatim: synthesis of such a configuration fails loudly in the
    pipeline. *)
let normalize_config (env : env) (c : Store.config) : Store.config =
  let tile =
    match c.tile with
    | None -> None
    | Some (index, t) -> (
        match
          List.find_opt (fun (l : Ast.loop) -> l.index = index) env.spine
        with
        | None -> Some (index, t)
        | Some l -> (
            match Transform.Tiling.clamp ~trip:(Ast.loop_trip l) t with
            | 1 -> None
            | d -> Some (index, d)))
  in
  let vector = normalize_vector env c.vector in
  let vector =
    match tile with
    | Some (ti, _) ->
        List.map (fun (i, u) -> if i = ti then (i, 1) else (i, u)) vector
    | None -> vector
  in
  { c with vector; tile; peel = c.peel && c.scalar_replace }

(* ------------------------------------------------------------------ *)
(* Shared pipeline fronts *)

type front_key = (string * int) option * (string * int) list * bool

(** The front key of a normalized configuration: its tile, vector and
    scalar-replacement toggle — everything the pipeline's first three
    stages read. *)
let front_key (c : Store.config) : front_key =
  (c.tile, c.vector, c.scalar_replace)

(* A kernel finished from a front: its estimate and, when the env
   verifies, the error count of its flow check. *)
type finished = {
  kernel : Ast.kernel;
  flow_errors : int;
  estimate : Hls.Estimate.t;
}

(* A front as the synthesis path needs it: [finish] completes a
   configuration of its key from it (under the translation validator
   when the env verifies), and [finished] holds the distinct kernels the
   configurations synthesized from it finished in. *)
type front = {
  finish : Store.t -> Transform.Pipeline.options -> Transform.Pipeline.result;
  mutable finished : finished list;
}

type fronts = (front_key, front) Hashtbl.t

(* ------------------------------------------------------------------ *)
(* Full behavioral synthesis *)

(* Verified evaluation: the pipeline instrumented per stage by the
   translation validator, plus the uninit check over the transformed
   kernel ({!uninit_errors}) — the pipeline must never
   manufacture an uninitialized read. The transformed result is
   bit-identical; error-severity findings only bump the violation
   counter (the sweep itself is the paper's experiment — reporting
   stays the job of the drivers). [verified] counts the validation's
   findings and returns the result. *)
let verified (store : Store.t) (outcome : Check.Validate.outcome) =
  let stats = store.Store.stats in
  stats.Store.checked_points <- stats.Store.checked_points + 1;
  stats.Store.verify_violations <-
    stats.Store.verify_violations
    + List.length (Check.Validate.violations outcome);
  match outcome.Check.Validate.result with
  | Some r -> r
  | None ->
      (* The pipeline raised mid-stage; surface it like the unverified
         path would. *)
      failwith
        (String.concat "; "
           (List.map Check.Diag.render (Check.Validate.violations outcome)))

(* The error count of [Check.Uninit] on a transformed kernel.
   [Check.Deadstore] is not run: it only warns, so it could never add a
   violation. *)
let uninit_errors (store : Store.t) (k : Ast.kernel) =
  let stats = store.Store.stats in
  let t0 = Clock.now () in
  let errors = Check.Uninit.errors k in
  stats.Store.flow_checks <- stats.Store.flow_checks + 1;
  stats.Store.flow_seconds <- stats.Store.flow_seconds +. (Clock.now () -. t0);
  errors

(* The pipeline run for the configurations of [opts]'s front key, from
   one front built here: its finishing memo (and, when the env verifies,
   its validated transitions) serve every configuration it finishes. *)
let start (env : env) (opts : Transform.Pipeline.options) =
  let source = env.source and source_footprint = env.source_footprint in
  if env.verify then
    let front = Check.Validate.front ~options:opts ?source_footprint source in
    fun store options ->
      verified store
        (Check.Validate.run ~options ?source_footprint ~front source)
  else
    let front = Transform.Pipeline.front opts source in
    fun _ options -> Transform.Pipeline.apply ~front options source

let synthesize ?fronts (env : env) (store : Store.t) (c : Store.config) :
    Store.point =
  let opts = Transform.Pipeline.apply_config ~base:env.pipeline c in
  let stats = store.Store.stats in
  let t0 = Clock.now () in
  (* The front from the caller's table, or built here (and added to the
     table) on the table's first miss for this key. Without a table the
     run serves this synthesis alone and keeps no memo: neither its
     intermediate kernels nor, verified, its footprints stay live
     through the flow checks and the estimate. *)
  let key = front_key c in
  let shared =
    Option.map
      (fun table ->
        match Hashtbl.find_opt table key with
        | Some e -> e
        | None ->
            let e = { finish = start env opts; finished = [] } in
            stats.Store.fronts <- stats.Store.fronts + 1;
            Hashtbl.replace table key e;
            e)
      fronts
  in
  let r =
    match shared with
    | Some e -> e.finish store opts
    | None ->
        stats.Store.fronts <- stats.Store.fronts + 1;
        if env.verify then
          verified store
            (Check.Validate.run ~options:opts
               ?source_footprint:env.source_footprint env.source)
        else Transform.Pipeline.apply opts env.source
  in
  let kernel = r.Transform.Pipeline.kernel in
  (* A sibling that finished in an equal kernel has the sibling's flow
     check and estimate: the front's finishing memo hands it the
     physically same kernel. *)
  let sibling =
    Option.bind shared (fun e ->
        List.find_opt (fun f -> f.kernel == kernel) e.finished)
  in
  let flow_errors =
    match sibling with
    | Some f -> f.flow_errors
    | None -> if env.verify then uninit_errors store kernel else 0
  in
  stats.Store.verify_violations <- stats.Store.verify_violations + flow_errors;
  let t1 = Clock.now () in
  let timers = Hls.Estimate.fresh_timers () in
  let estimate =
    match sibling with
    | Some f ->
        stats.Store.reused <- stats.Store.reused + 1;
        f.estimate
    | None ->
        let estimate =
          Hls.Estimate.estimate ~sched_memo:store.Store.sched_memo ~timers
            env.profile kernel
        in
        Option.iter
          (fun e ->
            e.finished <- { kernel; flow_errors; estimate } :: e.finished)
          shared;
        estimate
  in
  let t2 = Clock.now () in
  stats.Store.evaluations <- stats.Store.evaluations + 1;
  stats.Store.transform_seconds <- stats.Store.transform_seconds +. (t1 -. t0);
  stats.Store.estimate_seconds <- stats.Store.estimate_seconds +. (t2 -. t1);
  stats.Store.dfg_seconds <-
    stats.Store.dfg_seconds +. timers.Hls.Estimate.dfg_seconds;
  stats.Store.schedule_seconds <-
    stats.Store.schedule_seconds +. timers.Hls.Estimate.schedule_seconds;
  stats.Store.layout_seconds <-
    stats.Store.layout_seconds +. timers.Hls.Estimate.layout_seconds;
  stats.Store.sched_memo_hits <-
    stats.Store.sched_memo_hits + timers.Hls.Estimate.sched_memo_hits;
  let estimate =
    if env.post_route then
      (* Fold the degradation into the stored estimate: post-route
         area, achieved-clock wall time. Cycle counts never change
         (Section 6.4), and balance is a behavioral property. *)
      let impl =
        Hls.Lowlevel.place_and_route ~device:env.profile.Hls.Estimate.device
          estimate
      in
      {
        estimate with
        Hls.Estimate.slices = impl.Hls.Lowlevel.actual_slices;
        time_ns = impl.Hls.Lowlevel.time_ns;
      }
    else estimate
  in
  {
    Store.config = c;
    vector = c.vector;
    kernel;
    estimate;
    report = r.Transform.Pipeline.report;
  }

(* ------------------------------------------------------------------ *)
(* Tier-1 bounds *)

(** Admissible lower bounds for configuration [c], from the analytical
    pre-estimator: no code generation, no scheduling. *)
let bound (env : env) (store : Store.t) (c : Store.config) : Hls.Quick.t =
  let c = normalize_config env c in
  let facts = env.quick_facts c.tile in
  store.Store.stats.Store.quick_estimates <-
    store.Store.stats.Store.quick_estimates + 1;
  Hls.Quick.bound ~scalar_replace:c.scalar_replace ~peel:c.peel facts
    ~vector:c.vector

(* ------------------------------------------------------------------ *)
(* Cached evaluation *)

(** Cached [Generate; Synthesize] through [store]: configurations are
    normalized before the cache lookup, so any two spellings of the same
    design share one synthesis run. *)
let evaluate ?fronts (env : env) (store : Store.t) (c : Store.config) :
    Store.point =
  let key = normalize_config env c in
  match Store.find store key with
  | Some p ->
      store.Store.stats.Store.cache_hits <-
        store.Store.stats.Store.cache_hits + 1;
      p
  | None ->
      let p = synthesize ?fronts env store key in
      Store.add store key p;
      p
