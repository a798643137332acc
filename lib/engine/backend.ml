(** Pluggable estimator backends: the fidelity levels at which a design
    point can be evaluated, as first-class values.

    - {!full} is the paper's [Generate; Synthesize] — transform pipeline,
      DFG construction, fused tri-mode scheduling, data layout.
    - {!lowlevel} is {!full} composed with the P&R degradation model
      ({!Hls.Lowlevel}): the stored estimate carries the post-route area
      and the achieved-clock execution time instead of the behavioral
      ones.
    - {!quick_gate} is the tiered composition: it puts the closed-form
      analytical pre-estimator ({!Hls.Quick}) in front of any backend as
      its {!type-t.bound} tier, which is what the two-tier sweep and the
      search's capacity gate consult before paying for a synthesis. The
      bounds are admissible for {!full} (and remain admissible for
      {!lowlevel}, whose area and time only grow), so gating never
      changes a selection — only the set of synthesized points.

    A backend evaluates against an immutable {!env} (the evaluation
    environment a [Dse.Design.context] holds) and a mutable
    {!Store.t} (caches and counters). The backend's [name] identifies the
    fidelity level in the persistent store key: points cached under one
    backend are never served to another. *)

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
  source_footprint : Check.Validate.t option;
      (** the source kernel's footprint, the same at every point:
          computed once, when the env is made with [verify] (eagerly —
          [Lazy] is not domain-safe, and sweep workers share the env) *)
}

let make_env ?(pipeline = Transform.Pipeline.default)
    ?(profile = Hls.Estimate.default_profile ()) ?(verify = false)
    (source : Ast.kernel) : env =
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
      (if verify then Some (Check.Validate.footprint source) else None);
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

(** Normalise a configuration to its canonical cache key: the vector is
    spine-normalized ({!normalize_vector}); a tile on a spine loop is
    {!Transform.Tiling.clamp}ed and dropped when the clamp leaves no
    tile; the unroll factor of a
    tiled loop is forced to 1 (strip-mining renames the loop, so the
    unroller would ignore the entry — two spellings of the same
    design). A tile index naming no spine loop is kept verbatim:
    synthesis of such a configuration fails loudly in the pipeline. *)
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
  { c with vector; tile }

(* ------------------------------------------------------------------ *)
(* Shared pipeline fronts *)

type front_key = (string * int) option * (string * int) list * bool

(** The front key of a normalized configuration: its tile, vector and
    scalar-replacement toggle — everything the pipeline's first three
    stages read. *)
let front_key (c : Store.config) : front_key =
  (c.tile, c.vector, c.scalar_replace)

(* A front as the synthesis path needs it: [finish] completes a
   configuration of its key from it (under the translation validator
   when the env verifies), and [estimated] holds the finished kernels of
   the configurations synthesized from it with their estimates. *)
type front = {
  finish : Store.t -> Transform.Pipeline.options -> Transform.Pipeline.result;
  mutable estimated : (Ast.kernel * Hls.Estimate.t) list;
}

type fronts = (front_key, front) Hashtbl.t

type t = {
  name : string;
      (** stable identifier; part of the persistent store key, so two
          backends never share cached points *)
  bound : env -> Store.t -> Store.config -> Hls.Quick.t option;
      (** admissible lower bounds for a configuration, or [None] when
          this backend offers no tier-1 gate (then callers must
          synthesize) *)
  synthesize :
    ?fronts:fronts -> env -> Store.t -> Store.config -> Store.point;
      (** full evaluation of one configuration, bypassing the point
          cache (neither read nor written); bumps the store's counters *)
}

(* ------------------------------------------------------------------ *)
(* Full behavioral synthesis *)

(* Verified evaluation: the pipeline instrumented per stage by the
   translation validator, plus the flow-graph uninit check over the
   transformed kernel — the pipeline must never manufacture an
   uninitialized read. The transformed result is bit-identical;
   error-severity findings only bump the violation counter (the sweep
   itself is the paper's experiment — reporting stays the job of the
   drivers). [Check.Deadstore] is not run here: it only warns, so it
   could never add a violation. *)
let verified (store : Store.t) (outcome : Check.Validate.outcome) =
  let stats = store.Store.stats in
  stats.Store.checked_points <- stats.Store.checked_points + 1;
  stats.Store.verify_violations <-
    stats.Store.verify_violations
    + List.length (Check.Validate.violations outcome);
  match outcome.Check.Validate.result with
  | Some r ->
      let cost = Analysis.Flowgraph.fresh_cost () in
      let graph = Analysis.Flowgraph.build ~cost r.Transform.Pipeline.kernel in
      let flow_diags =
        Check.Uninit.check ~graph ~cost r.Transform.Pipeline.kernel
      in
      stats.Store.verify_violations <-
        stats.Store.verify_violations
        + List.length (Check.Diag.errors flow_diags);
      stats.Store.flow_builds <-
        stats.Store.flow_builds + cost.Analysis.Flowgraph.builds;
      stats.Store.flow_solves <-
        stats.Store.flow_solves + cost.Analysis.Flowgraph.solves;
      stats.Store.flow_seconds <-
        stats.Store.flow_seconds
        +. cost.Analysis.Flowgraph.build_seconds
        +. cost.Analysis.Flowgraph.solve_seconds;
      r
  | None ->
      (* The pipeline raised mid-stage; surface it like the unverified
         path would. *)
      failwith
        (String.concat "; "
           (List.map Check.Diag.render (Check.Validate.violations outcome)))

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

let full_synthesize ?fronts (env : env) (store : Store.t) (c : Store.config) :
    Store.point =
  let c = normalize_config env c in
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
            let e = { finish = start env opts; estimated = [] } in
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
  let t1 = Clock.now () in
  let timers = Hls.Estimate.fresh_timers () in
  let kernel = r.Transform.Pipeline.kernel in
  (* A sibling that finished in an equal kernel has the sibling's
     estimate: the front's finishing memo hands it the physically same
     kernel. *)
  let estimate =
    match Option.bind shared (fun e -> List.assq_opt kernel e.estimated) with
    | Some estimate ->
        stats.Store.reused <- stats.Store.reused + 1;
        estimate
    | None ->
        let estimate =
          Hls.Estimate.estimate ~sched_memo:store.Store.sched_memo ~timers
            env.profile kernel
        in
        Option.iter
          (fun e -> e.estimated <- (kernel, estimate) :: e.estimated)
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
  {
    Store.config = c;
    vector = c.vector;
    kernel;
    estimate;
    report = r.Transform.Pipeline.report;
  }

let no_bound _env _store _c = None

let full : t =
  {
    name = "full";
    bound = no_bound;
    synthesize = (fun ?fronts -> full_synthesize ?fronts);
  }

(* ------------------------------------------------------------------ *)
(* P&R degradation *)

let lowlevel : t =
  {
    name = "lowlevel";
    bound = no_bound;
    synthesize =
      (fun ?fronts env store c ->
        let p = full_synthesize ?fronts env store c in
        let impl =
          Hls.Lowlevel.place_and_route
            ~device:env.profile.Hls.Estimate.device p.Store.estimate
        in
        (* Fold the degradation into the stored estimate: post-route
           area, achieved-clock wall time. Cycle counts never change
           (Section 6.4), and balance is a behavioral property. *)
        {
          p with
          Store.estimate =
            {
              p.Store.estimate with
              Hls.Estimate.slices = impl.Hls.Lowlevel.actual_slices;
              time_ns = impl.Hls.Lowlevel.time_ns;
            };
        });
  }

(* ------------------------------------------------------------------ *)
(* Tiered composition *)

let quick_bound (env : env) (store : Store.t) (c : Store.config) :
    Hls.Quick.t option =
  let c = normalize_config env c in
  let facts = env.quick_facts c.tile in
  store.Store.stats.Store.quick_estimates <-
    store.Store.stats.Store.quick_estimates + 1;
  Some
    (Hls.Quick.bound ~scalar_replace:c.scalar_replace ~peel:c.peel facts
       ~vector:c.vector)

(** [quick_gate b] is [b] with the analytical pre-estimator as its
    tier-1 bound: the two-tier engine as backend composition. *)
let quick_gate (b : t) : t =
  { b with name = "quick+" ^ b.name; bound = quick_bound }

(** The default two-tier backend of the CLI, bench and tests. *)
let default : t = quick_gate full

let to_string (b : t) = b.name

let of_string (s : string) : (t, string) result =
  match String.lowercase_ascii (String.trim s) with
  | "full" -> Ok full
  | "quick+full" | "tiered" | "default" -> Ok default
  | "lowlevel" -> Ok lowlevel
  | "quick+lowlevel" -> Ok (quick_gate lowlevel)
  | other ->
      Error
        (Printf.sprintf
           "unknown backend %S (have: full, quick+full, lowlevel, \
            quick+lowlevel)"
           other)

let known_names = [ "full"; "quick+full"; "lowlevel"; "quick+lowlevel" ]

(* ------------------------------------------------------------------ *)
(* Cached evaluation *)

(** Cached [Generate; Synthesize] through [store]: configurations are
    normalized before the cache lookup, so any two spellings of the same
    design share one synthesis run. *)
let evaluate ?fronts (env : env) (b : t) (store : Store.t) (c : Store.config)
    : Store.point =
  let key = normalize_config env c in
  match Store.find store key with
  | Some p ->
      store.Store.stats.Store.cache_hits <-
        store.Store.stats.Store.cache_hits + 1;
      p
  | None ->
      let p = b.synthesize ?fronts env store key in
      Store.add store key p;
      p
