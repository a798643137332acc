(** The code-transformation pipeline applied to every design point the
    search visits: unroll-and-jam at the candidate unroll vector, scalar
    replacement, loop peeling to specialise first-iteration loads, LICM,
    and cleanup simplification (Figure 3 of the paper; data layout is a
    separate stage, see {!Layout}). *)

open Ir

type options = {
  vector : Unroll.vector;
  scalar : Scalar_replace.config;
  peel : bool;  (** peel carrier / leading iterations to despecialise guards *)
  licm : bool;
  tile : (string * int) option;
      (** strip-mine this loop to the given tile before replacement
          (register-pressure control, Section 5.4) *)
}

let default =
  {
    vector = [];
    scalar = Scalar_replace.default_config;
    peel = true;
    licm = true;
    tile = None;
  }

(* ------------------------------------------------------------------ *)
(* First-class design-point configurations *)

type config = {
  vector : Unroll.vector;  (** unroll factor per spine loop *)
  tile : (string * int) option;  (** strip-mine this loop to this tile *)
  scalar_replace : bool;
  peel : bool;
  licm : bool;
}

(** Whether a scalar-replacement configuration performs any replacement
    at all — the boolean the joint design space toggles. *)
let scalar_enabled (c : Scalar_replace.config) =
  c.Scalar_replace.max_registers > 0

(** The scalar-replacement configuration [apply_config] uses for a
    design point with replacement off: register budget zero, no
    cross-loop banks, no chains (the ablation driver's no-replace
    setting). Every other knob of [base] is preserved so the off-state
    is a function of the base options alone. *)
let scalar_disabled (base : Scalar_replace.config) =
  {
    base with
    Scalar_replace.across_loops = false;
    chains = false;
    max_registers = 0;
  }

(** Project the searchable knobs out of full pipeline options. *)
let config_of_options (o : options) : config =
  {
    vector = o.vector;
    tile = o.tile;
    scalar_replace = scalar_enabled o.scalar;
    peel = o.peel;
    licm = o.licm;
  }

(** Concrete pipeline options for one design point: the config's knobs
    over [base]'s non-searched parameters (the scalar-replacement
    budget, chain span, ...). Inverse of {!config_of_options} on the
    searched fields. *)
let apply_config ~(base : options) (c : config) : options =
  {
    vector = c.vector;
    scalar =
      (if c.scalar_replace then
         if scalar_enabled base.scalar then base.scalar
         else Scalar_replace.default_config
       else scalar_disabled base.scalar);
    peel = c.peel;
    licm = c.licm;
    tile = c.tile;
  }

let pp_config fmt (c : config) =
  Format.fprintf fmt "(%s%s | %s%s%s)"
    (String.concat ", "
       (List.map (fun (i, u) -> Printf.sprintf "%s=%d" i u) c.vector))
    (match c.tile with
    | None -> ""
    | Some (l, t) -> Printf.sprintf " | tile %s:%d" l t)
    (if c.scalar_replace then "sr+" else "sr-")
    (if c.peel then " peel+" else " peel-")
    (if c.licm then " licm+" else " licm-")

let config_to_string (c : config) = Format.asprintf "%a" pp_config c

type result = {
  kernel : Ast.kernel;
  report : Scalar_replace.report;
  options : options;
}

type stage = Tile | Unroll_jam | Scalar_replace | Peel | Licm | Simplify

let stage_name = function
  | Tile -> "tile"
  | Unroll_jam -> "unroll"
  | Scalar_replace -> "scalar-replace"
  | Peel -> "peel"
  | Licm -> "licm"
  | Simplify -> "simplify"

exception
  Stage_error of {
    stage : stage;
    kernel : string;  (** kernel name *)
    message : string;
  }

let () =
  Printexc.register_printer (function
    | Stage_error { stage; kernel; message } ->
        Some
          (Printf.sprintf "Transform.Pipeline.Stage_error(%s, %s): %s"
             (stage_name stage) kernel message)
    | _ -> None)

(* Run one stage: a [Failure]/[Invalid_argument] escaping a rewrite
   (e.g. a non-positive stride reaching [Ast.loop_trip] or a
   [Loop_nest.validate] rejection) is re-raised as a [Stage_error]
   naming the stage and kernel; [observe] sees the stage boundary. *)
type observer = stage -> before:Ast.kernel -> after:Ast.kernel -> unit

let run_stage ?(observe : observer option) kname tag f k =
  let k' =
    try f k
    with Failure msg | Invalid_argument msg ->
      raise (Stage_error { stage = tag; kernel = kname; message = msg })
  in
  Option.iter (fun obs -> obs tag ~before:k ~after:k') observe;
  k'

type front = {
  tile : (string * int) option;
  vector : Unroll.vector;
  scalar : Scalar_replace.config;
  kernel : Ast.kernel;  (** the kernel after scalar replacement *)
  report : Scalar_replace.report;
  mutable finished : (stage * Ast.kernel * Ast.kernel) list;
      (** the finishing-stage runs (stage, input, output) of the
          configurations finished from this front so far *)
}

(** What every front of one source kernel under one tile shares, read
    from the tiled source: its scalar-replacement plan, and whether
    unroll-and-jam may jam it ({!Unroll.jam_legal}); each is derived on
    first use. *)
type source_facts = { plan : Scalar_replace.plan Lazy.t; jam_legal : bool Lazy.t }

(* The facts of the last source kernel a front was built from on this
   domain (physically), one per tile. *)
let facts : (Ast.kernel * ((string * int) option * source_facts) list) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* The facts of [source] under [tile], whose tiled kernel is [tiled]. *)
let facts_for source tile tiled =
  let slot = Domain.DLS.get facts in
  let cached = match !slot with Some (k, l) when k == source -> l | _ -> [] in
  match List.assoc_opt tile cached with
  | Some f -> f
  | None ->
      let f =
        {
          plan = lazy (Scalar_replace.plan tiled);
          jam_legal = lazy (Unroll.jam_legal tiled);
        }
      in
      slot := Some (source, (tile, f) :: cached);
      f

let jam_verdict source tile =
  match !(Domain.DLS.get facts) with
  | Some (k, l) when k == source -> (
      match List.assoc_opt tile l with
      | Some { jam_legal; _ } when Lazy.is_val jam_legal -> Some (Lazy.force jam_legal)
      | _ -> None)
  | _ -> None

let front ?observe (opts : options) (source : Ast.kernel) : front =
  let stage = run_stage ?observe source.Ast.k_name in
  let tiled =
    match opts.tile with
    | Some (index, tile) ->
        stage Tile
          (fun k ->
            (* A tile index naming no loop at all is a configuration
               error, not a silent no-op: the joint search relies on
               illegal configurations failing loudly ([Stage_error]) so
               its legality pruning is testable. A named loop the
               strip-mine cannot split (trip <= tile, trip 1) is still a
               no-op — the tile is then merely redundant. *)
            if not (Loop_nest.has_loop index k.Ast.k_body) then
              failwith
                (Printf.sprintf "tile index '%s' names no loop" index);
            Tiling.tile_for_registers ~index ~tile k)
          source
    | None -> source
  in
  (* The shared facts pay off over unrolled copies; without a factor
     above 1, nothing is jammed, and scalar replacement reads the
     kernel off its own plan, which costs no more than the source's. *)
  let facts =
    if List.exists (fun (_, u) -> u > 1) opts.vector then Some (facts_for source opts.tile tiled)
    else None
  in
  let k =
    stage Unroll_jam
      (Unroll.run ?jam_legal:(Option.map (fun f -> f.jam_legal) facts) opts.vector)
      tiled
  in
  let report = ref Scalar_replace.empty_report in
  let k =
    stage Scalar_replace
      (fun k ->
        let plan = Option.map (fun f -> (Lazy.force f.plan, opts.vector)) facts in
        let k, r = Scalar_replace.run ~config:opts.scalar ?plan k in
        report := r;
        k)
      k
  in
  {
    tile = opts.tile;
    vector = opts.vector;
    scalar = opts.scalar;
    kernel = k;
    report = !report;
    finished = [];
  }

(* The (input, output) pair of an earlier run of [tag] on an input
   equal to [input]: physically first, then structurally. Structural
   equality is the polymorphic [compare], which also compares the spans
   [Ast.equal_kernel] ignores — the recalled output must be the one
   [input] itself would give — and skips the subtrees siblings share. *)
let recall (f : front) tag input =
  let find eq =
    List.find_map
      (fun (t, i, o) -> if t = tag && eq i input then Some (i, o) else None)
      f.finished
  in
  match find ( == ) with
  | Some _ as hit -> hit
  | None -> find (fun a b -> compare a b = 0)

let apply ?observe ?front:shared (opts : options) (k : Ast.kernel) : result =
  let f =
    match shared with
    | None -> front ?observe opts k
    | Some (f : front) ->
        if
          f.tile <> opts.tile || f.vector <> opts.vector
          || f.scalar <> opts.scalar
        then
          invalid_arg
            "Transform.Pipeline.apply: the front was built for another \
             tile, vector or scalar-replacement setting";
        f
  in
  (* Siblings finished from one shared front run each finishing stage
     once per distinct input: peel once, LICM and simplify once per
     input kernel, so siblings whose toggles changed nothing get the
     physically same kernel back. [observe] sees every stage a
     configuration goes through, a recalled one as the pair the memo
     holds. A private front (no [shared]) records nothing and is not
     captured here, so each intermediate kernel dies as the next stage
     runs. *)
  let stage tag run input =
    let before, after =
      match Option.bind shared (fun f -> recall f tag input) with
      | Some pair -> pair
      | None ->
          let output = run_stage k.Ast.k_name tag run input in
          Option.iter
            (fun f -> f.finished <- (tag, input, output) :: f.finished)
            shared;
          (input, output)
    in
    Option.iter (fun obs -> obs tag ~before ~after) observe;
    after
  in
  let report = f.report in
  let k = f.kernel in
  let k =
    if
      (not opts.peel)
      (* Nothing to peel: the stage would only replay the final
         range-fold, so make the no-peel spelling bit-identical to
         [peel = false] (configuration normalization folds peel into
         scalar replacement on this). *)
      || report.Scalar_replace.innermost_peels = 0
         && report.Scalar_replace.carriers = []
    then k
    else
      stage Peel
        (fun k ->
          (* Peel leading iterations of the innermost loop first (while
             the spine is still intact) to strip the chain refill guards;
             peeling replicates the innermost body, so bound it to small
             counts. *)
          (* All peels are raw [peel_first] edits; one simplification
             pass at the end folds every peeled copy at once — peeling
             itself never needs the intermediate folds (it matches the
             [For] node and the syntactic [index == lo] guards, both of
             which survive unsimplified), and one pass over the final
             body costs a fraction of one pass per peel. *)
          let k =
            if report.Scalar_replace.innermost_peels > 0
               && report.Scalar_replace.innermost_peels <= 4
            then begin
              let rec peel_n n k =
                if n = 0 then k
                else
                  match List.rev (Loop_nest.spine k.Ast.k_body) with
                  | [] -> k
                  | inner :: _ ->
                      peel_n (n - 1)
                        { k with
                          Ast.k_body =
                            Peel.peel_first ~index:inner.Ast.index k.Ast.k_body
                        }
              in
              peel_n report.Scalar_replace.innermost_peels k
            end
            else k
          in
          (* Then peel the first iteration of every bank carrier. *)
          let k =
            List.fold_left
              (fun k index ->
                { k with Ast.k_body = Peel.peel_first ~index k.Ast.k_body })
              k report.Scalar_replace.carriers
          in
          Simplify.fold_ranges k)
        k
  in
  let k = if opts.licm then stage Licm Licm.run k else k in
  let k = stage Simplify Simplify.run k in
  { kernel = k; report; options = opts }
