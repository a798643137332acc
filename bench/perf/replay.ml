(** The traced run: replay the points each [defacto] command printed
    through the library's layers, timing every call from outside.

    Only layer functions are called (the front end, [Dse.Saturation],
    [Transform.Pipeline.apply ~observe], [Hls.Quick], [Hls.Estimate],
    [Check.Validate] and the flow checks, [Engine.Persist]); never
    [Dse.Design], [Space], [Search] or [Driver], so refactors of the
    exploration core leave the replay intact.

    Per command the replay does the work the command did: it parses each
    kernel, computes saturation and the tier-1 bound where the command
    does (explore, joint), re-synthesizes every point the command printed
    when it synthesized any, validates them under [--verify], and loads
    and saves the stores under [--cache-dir]. Each kernel also gets a
    census of every layer at its base point (one strip-mined pipeline
    run, its quick bound and estimate, a validation and the flow checks),
    and a command without a store gets a store round trip, so that every
    layer has a number on every workload. Spans of census work are
    marked [counted = false]: [trace.coverage] divides only the counted
    spans by the commands' wall time. *)

open Ir

type span = {
  name : string;
  cat : string;
  start : float;
  stop : float;
  counted : bool;
  detail : string;
}

type recorder = {
  on : bool;  (** off: the same calls with no clock reads and no spans *)
  mutable spans : span list;
  totals : (string, float) Hashtbl.t;
  mutable per_command : (string * (string, float) Hashtbl.t) list;
      (** the same sums per command, latest first *)
}

let add r name v =
  let bump t = Hashtbl.replace t name (v +. Option.value ~default:0.0 (Hashtbl.find_opt t name)) in
  bump r.totals;
  match r.per_command with (_, t) :: _ -> bump t | [] -> ()

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Counted spans also sum into "counted_s", the numerator of
   trace.coverage. *)
let record r ~name ~cat ~start ~stop ~counted ~detail =
  if counted then add r "counted_s" (stop -. start);
  r.spans <- { name; cat; start; stop; counted; detail } :: r.spans

(** Time [f] as one span of layer metric [metric] (e.g. "hls.estimate"):
    adds to [metric ^ "_s"], and to [metric ^ "_mwords"] when [words]. *)
let span r ?(counted = true) ?(words_ = false) ?(detail = "") metric f =
  if not r.on then f ()
  else begin
    let w0 = if words_ then words () else 0.0 in
    let start = Probe.now () in
    let v = f () in
    let stop = Probe.now () in
    if words_ then add r (metric ^ "_mwords") ((words () -. w0) /. 1e6);
    add r (metric ^ "_s") (stop -. start);
    let cat = List.hd (String.split_on_char '.' metric) in
    record r ~name:metric ~cat ~start ~stop ~counted ~detail;
    v
  end

(** A structural span (command, kernel, point): nesting in the trace
    view, no metric. *)
let group r ~cat name f =
  if not r.on then f ()
  else begin
    let start = Probe.now () in
    let v = f () in
    record r ~name ~cat ~start ~stop:(Probe.now ()) ~counted:false ~detail:"";
    v
  end

let stage_metric = function
  | Transform.Pipeline.Tile -> "transform.tile"
  | Unroll_jam -> "transform.unroll_jam"
  | Scalar_replace -> "transform.scalar_replace"
  | Peel -> "transform.peel"
  | Licm -> "transform.licm"
  | Simplify -> "transform.simplify"

(** The pipeline with one span per stage, from the gaps between
    [observe] callbacks. *)
let transform r ~counted opts k =
  if not r.on then Transform.Pipeline.apply opts k
  else begin
    let mark = ref (Probe.now ()) and wmark = ref (words ()) in
    let observe stage ~before:_ ~after:_ =
      let stop = Probe.now () and w = words () in
      let m = stage_metric stage in
      add r (m ^ "_s") (stop -. !mark);
      add r (m ^ "_mwords") ((w -. !wmark) /. 1e6);
      record r ~name:m ~cat:"transform" ~start:!mark ~stop ~counted ~detail:"";
      wmark := words ();
      mark := Probe.now ()
    in
    Transform.Pipeline.apply ~observe opts k
  end

let rec stmts l =
  List.fold_left
    (fun acc -> function
      | Ast.For lp -> acc + 1 + stmts lp.Ast.body
      | Ast.If (_, a, b) -> acc + 1 + stmts a + stmts b
      | Ast.Assign _ | Ast.Rotate _ -> acc + 1)
    0 l

(* ------------------------------------------------------------------ *)
(* Points as the CLI prints them *)

type point = { config : Transform.Pipeline.config; cycles : int; slices : int }

let vector_of s =
  String.split_on_char ',' s
  |> List.filter_map (fun part ->
         match String.split_on_char '=' (String.trim part) with
         | [ i; u ] -> Option.map (fun u -> (i, u)) (int_of_string_opt u)
         | _ -> None)

(** "(j=32, i=4 | tile k:8 | sr+ peel- licm+)" or a plain "(j=8, i=8)". *)
let config_of inner =
  let base = Transform.Pipeline.config_of_options Transform.Pipeline.default in
  match List.map String.trim (String.split_on_char '|' inner) with
  | [ v ] -> { base with Transform.Pipeline.vector = vector_of v }
  | v :: rest ->
      let toggles = List.nth rest (List.length rest - 1) in
      let on flag = List.mem (flag ^ "+") (String.split_on_char ' ' toggles) in
      let tile =
        match rest with
        | [ t; _ ] -> Scanf.sscanf_opt t "tile %[^:]:%d" (fun l n -> (l, n))
        | _ -> None
      in
      {
        Transform.Pipeline.vector = vector_of v;
        tile;
        scalar_replace = on "sr";
        peel = on "peel";
        licm = on "licm";
      }
  | [] -> base

(** A printed point: "(...)" then either "cycles=C slices=S" (explore)
    or the space table's "C S balance fits" columns. *)
let point_of line =
  match (String.index_opt line '(', String.index_opt line ')') with
  | Some i, Some j when j > i -> (
      let config = config_of (String.sub line (i + 1) (j - i - 1)) in
      let rest = String.sub line (j + 1) (String.length line - j - 1) in
      match (Workload.int_after "cycles=" rest, Workload.int_after "slices=" rest) with
      | Some cycles, Some slices -> Some { config; cycles; slices }
      | _ -> (
          match List.filter (( <> ) "") (String.split_on_char ' ' rest) with
          | c :: s :: _ -> (
              match (int_of_string_opt c, int_of_string_opt s) with
              | Some cycles, Some slices -> Some { config; cycles; slices }
              | _ -> None)
          | _ -> None))
  | _ -> None

(** The distinct points each kernel of the command printed as evaluated:
    explore's search steps and baseline, space's table rows. *)
let printed_points (c : Workload.cmd) out =
  let lines = String.split_on_char '\n' out in
  let dedupe l = List.sort_uniq compare l in
  if c.Workload.explore then
    let rec split acc cur = function
      | [] -> List.rev (match cur with Some p -> dedupe p :: acc | None -> acc)
      | l :: rest when String.starts_with ~prefix:"kernel " l ->
          split (match cur with Some p -> dedupe p :: acc | None -> acc) (Some []) rest
      | l :: rest
        when String.starts_with ~prefix:"  (" l || String.starts_with ~prefix:"baseline:" l ->
          let cur = match (cur, point_of l) with Some p, Some x -> Some (x :: p) | c, _ -> c in
          split acc cur rest
      | _ :: rest -> split acc cur rest
    in
    split [] None lines
  else
    let rows = List.filter (String.starts_with ~prefix:"(") lines in
    [ dedupe (List.filter_map point_of rows) ]

(* ------------------------------------------------------------------ *)
(* Replay *)

let flow r ~counted k =
  span r ~counted "check.flow" (fun () ->
      let graph = Analysis.Flowgraph.build k in
      ignore (Check.Uninit.check ~graph k);
      ignore (Check.Deadstore.check ~graph k))

let rec dir_bytes path =
  if Sys.is_directory path then
    Array.fold_left (fun acc f -> acc + dir_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

(** Replay one command. Like the CLI, it keeps one store per kernel over
    one shared schedule memo; under [--cache-dir] it loads the memo and
    each kernel's points before exploring and saves them back after.
    Without a store, the census saves the command's stores to [census]
    and loads them back. Returns the directory the stores were saved to. *)
let replay_command r ~census ~on_mismatch ((c : Workload.cmd), (run : Probe.run)) =
  let out = run.Probe.out in
  let profile = Hls.Estimate.default_profile ~pipelined:c.Workload.pipelined () in
  let memo = Hls.Schedule.memo_create () in
  let config =
    Engine.Persist.config_string ~backend:"quick+full" profile Transform.Pipeline.default
  in
  Option.iter
    (fun dir ->
      span r "engine.persist_load" (fun () ->
          ignore (Engine.Persist.load_memo ~cache_dir:dir ~config memo)))
    c.Workload.cache_dir;
  let bounded = c.Workload.explore || c.Workload.joint in
  let synthesized = Option.value ~default:0 (Workload.syntheses c out) > 0 in
  let estimate ~counted ?(memo = memo) k =
    let timers = Hls.Estimate.fresh_timers () in
    let e =
      span r ~counted ~words_:true "hls.estimate" (fun () ->
          Hls.Estimate.estimate ~sched_memo:memo ~timers profile k)
    in
    if r.on then begin
      add r "hls.dfg_s" timers.Hls.Estimate.dfg_seconds;
      add r "hls.schedule_s" timers.Hls.Estimate.schedule_seconds;
      add r "layout.assign_s" timers.Hls.Estimate.layout_seconds;
      add r "hls.sched_memo_hits" (float_of_int timers.Hls.Estimate.sched_memo_hits)
    end;
    e
  in
  let printed = printed_points c out in
  let kernels =
    if List.length printed = List.length c.Workload.kernels then
      List.combine c.Workload.kernels printed
    else begin
      if r.on then on_mismatch (Workload.key c ^ ": cannot read the printed points");
      List.map (fun k -> (k, [])) c.Workload.kernels
    end
  in
  let parsed =
    List.map
      (fun ((src : Workload.src), points) ->
        group r ~cat:"kernel" src.Workload.kname (fun () ->
            let k =
              span r "frontend.parse" (fun () ->
                  Frontend.Parser.kernel_of_string ~name:src.Workload.kname src.Workload.text)
            in
            let store = Engine.Store.create ~sched_memo:memo () in
            Option.iter
              (fun dir ->
                let loaded =
                  span r "engine.persist_load" (fun () ->
                      Engine.Persist.load_points ~cache_dir:dir ~config
                        ~kernel_key:(Engine.Persist.kernel_key k) store)
                in
                if r.on then add r "engine.loaded_points" (float_of_int loaded))
              c.Workload.cache_dir;
            let num_memories = profile.Hls.Estimate.device.Hls.Device.num_memories in
            ignore
              (span r ~counted:bounded "core.saturation" (fun () ->
                   Dse.Saturation.compute ~num_memories k));
            let quick_facts tile =
              Hls.Quick.facts ~device:profile.Hls.Estimate.device ~mem:profile.Hls.Estimate.mem
                (match tile with
                | Some (index, tile) -> Transform.Tiling.tile_for_registers ~index ~tile k
                | None -> k)
            in
            (* Like the CLI, one facts value per tile. *)
            let facts = Hashtbl.create 4 in
            let quick (cfg : Transform.Pipeline.config) =
              span r "hls.quick" (fun () ->
                  let f =
                    match Hashtbl.find_opt facts cfg.tile with
                    | Some f -> f
                    | None ->
                        let f = quick_facts cfg.tile in
                        Hashtbl.replace facts cfg.tile f;
                        f
                  in
                  ignore (Hls.Quick.bound f ~vector:cfg.vector))
            in
            (* Census: every layer once at the base point, strip-mined on
               the innermost loop so the tile stage runs too. It keeps its
               own facts and schedule memo, so that it saves the replay of
               the command no work. *)
            group r ~cat:"census" "census" (fun () ->
                let spine = Loop_nest.spine k.Ast.k_body in
                let inner = (List.nth spine (List.length spine - 1)).Ast.index in
                let opts = { Transform.Pipeline.default with tile = Some (inner, 8) } in
                let cfg = Transform.Pipeline.config_of_options opts in
                span r ~counted:false "hls.quick" (fun () ->
                    ignore (Hls.Quick.bound (quick_facts cfg.tile) ~vector:cfg.vector));
                let res = transform r ~counted:false opts k in
                ignore
                  (estimate ~counted:false ~memo:(Hls.Schedule.memo_create ())
                     res.Transform.Pipeline.kernel);
                ignore
                  (span r ~counted:false ~words_:true "check.validate" (fun () ->
                       Check.Validate.run k));
                flow r ~counted:false k);
            if synthesized then
              List.iter
                (fun p ->
                  group r ~cat:"point" (Transform.Pipeline.config_to_string p.config) (fun () ->
                      let opts =
                        Transform.Pipeline.apply_config ~base:Transform.Pipeline.default p.config
                      in
                      if bounded then quick p.config;
                      let res =
                        if c.Workload.verify then begin
                          let outcome =
                            span r ~words_:true "check.validate" (fun () ->
                                Check.Validate.run ~options:opts k)
                          in
                          (* The stage split of the run validation made. *)
                          let res = transform r ~counted:false opts k in
                          Option.iter
                            (fun (v : Transform.Pipeline.result) ->
                              flow r ~counted:true v.Transform.Pipeline.kernel)
                            outcome.Check.Validate.result;
                          res
                        end
                        else transform r ~counted:true opts k
                      in
                      let e = estimate ~counted:true res.Transform.Pipeline.kernel in
                      if
                        r.on
                        && (e.Hls.Estimate.cycles <> p.cycles || e.Hls.Estimate.slices <> p.slices)
                      then
                        on_mismatch
                          (Printf.sprintf "%s %s: replayed %d cycles %d slices, printed %d/%d"
                             src.kname (Transform.Pipeline.config_to_string p.config)
                             e.Hls.Estimate.cycles e.Hls.Estimate.slices p.cycles p.slices);
                      if r.on then begin
                        add r "core.points" 1.0;
                        add r "transform.out_stmts"
                          (float_of_int (stmts res.Transform.Pipeline.kernel.Ast.k_body))
                      end;
                      Engine.Store.add store p.config
                        {
                          Engine.Store.config = p.config;
                          vector = p.config.vector;
                          kernel = res.Transform.Pipeline.kernel;
                          estimate = e;
                          report = res.Transform.Pipeline.report;
                        }))
                points;
            (k, store)))
      kernels
  in
  let save ~counted dir =
    span r ~counted "engine.persist_save" (fun () ->
        Engine.Persist.save_memo ~cache_dir:dir ~config memo;
        List.iter
          (fun (k, store) ->
            Engine.Persist.save_points ~cache_dir:dir ~config
              ~kernel_key:(Engine.Persist.kernel_key k) store)
          parsed)
  in
  match c.Workload.cache_dir with
  | Some dir ->
      save ~counted:true dir;
      dir
  | None ->
      Fs.rm_rf census;
      save ~counted:false census;
      span r ~counted:false "engine.persist_load" (fun () ->
          ignore (Engine.Persist.load_memo ~cache_dir:census ~config (Hls.Schedule.memo_create ()));
          List.iter
            (fun (k, _) ->
              ignore
                (Engine.Persist.load_points ~cache_dir:census ~config
                   ~kernel_key:(Engine.Persist.kernel_key k) (Engine.Store.create ())))
            parsed);
      census

(* engine.store_mb is the largest store a command leaves on disk. *)
let replay r ~work ~on_mismatch commands =
  List.iter
    (fun ((c, _) as cmd) ->
      let table = Hashtbl.create 64 in
      r.per_command <- (Workload.key c, table) :: r.per_command;
      let census = Filename.concat work "trace-store" in
      let dir =
        group r ~cat:"command" (Workload.key c) (fun () ->
            replay_command r ~census ~on_mismatch cmd)
      in
      if r.on then begin
        let mb = float_of_int (dir_bytes dir) /. 1048576.0 in
        Hashtbl.replace table "engine.store_mb" mb;
        let top = Option.value ~default:0.0 (Hashtbl.find_opt r.totals "engine.store_mb") in
        Hashtbl.replace r.totals "engine.store_mb" (Float.max top mb)
      end)
    commands

(* ------------------------------------------------------------------ *)

let chrome_trace ~origin spans =
  let us t = Json.Num (Float.round ((t -. origin) *. 1e7) /. 10.0) in
  Json.Obj
    [
      ( "traceEvents",
        Json.Arr
          (List.rev_map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str (if s.detail = "" then s.name else s.name ^ " " ^ s.detail));
                   ("cat", Json.Str s.cat); ("ph", Json.Str "X"); ("ts", us s.start);
                   ("dur", Json.Num (Float.round ((s.stop -. s.start) *. 1e7) /. 10.0));
                   ("pid", Json.Num 1.0); ("tid", Json.Num 1.0);
                   ("args", Json.Obj [ ("counted", Json.Bool s.counted) ]);
                 ])
             spans) );
      ("displayTimeUnit", Json.Str "ms");
    ]

let stages = [ "tile"; "unroll_jam"; "scalar_replace"; "peel"; "licm"; "simplify" ]

(** Every per-layer metric the replay produces. *)
let metric_names =
  [ "frontend.parse_s"; "core.saturation_s"; "core.self_s"; "core.points";
    "core.joint_redundant_ratio"; "core.joint_bound_pruned" ]
  @ List.concat_map (fun s -> [ "transform." ^ s ^ "_s"; "transform." ^ s ^ "_mwords" ]) stages
  @ [ "transform.out_stmts"; "hls.quick_s"; "hls.estimate_s"; "hls.dfg_s"; "hls.schedule_s";
      "hls.sched_memo_hits"; "hls.estimate_mwords"; "layout.assign_s"; "check.validate_s";
      "check.flow_s"; "check.validate_mwords"; "engine.persist_load_s"; "engine.persist_save_s";
      "engine.store_mb"; "engine.loaded_points"; "gc.minor_collections"; "gc.major_collections";
      "gc.promoted_mwords"; "gc.top_heap_mb"; "trace.coverage"; "trace.overhead_ratio" ]

type sample = { recorder : recorder; on_s : float; off_s : float }

(** Replay [commands] once with spans off, then once with spans on, on
    a heap the first replay warmed: the second's recorder, both times. *)
let sample ~work ~on_mismatch commands =
  let fresh on = { on; spans = []; totals = Hashtbl.create 64; per_command = [] } in
  let timed r =
    let t0 = Probe.now () in
    replay r ~work ~on_mismatch commands;
    Probe.now () -. t0
  in
  let off_s = timed (fresh false) in
  let recorder = fresh true in
  let on_s = timed recorder in
  { recorder; on_s; off_s }

(** The per-layer metrics, in total and per command. Each is its
    smallest value over [samples], as [walls] are the commands' fastest
    wall times over the passes. The spans of the first sample go to a
    Chrome trace-event file. *)
let summarize ~work ~walls commands samples =
  let first = (List.hd samples).recorder in
  let origin = List.fold_left (fun acc s -> Float.min acc s.start) infinity first.spans in
  let trace_file = Filename.concat work "trace.json" in
  Out_channel.with_open_bin trace_file (fun oc ->
      output_string oc (Json.to_string (chrome_trace ~origin first.spans)));
  Printf.printf "trace: %s (%d spans, %d replays)\n" trace_file (List.length first.spans)
    (List.length samples);
  let value t name = Option.value ~default:0.0 (Hashtbl.find_opt t name) in
  let best f = Stats.minimum (List.map f samples) in
  let total name = best (fun x -> value x.recorder.totals name) in
  let stat key f =
    List.fold_left (fun acc (_, run) -> f acc (Probe.gc_stat run key)) 0.0 commands
  in
  let joint = List.filter_map (fun (_, run) -> Workload.joint_counts run.Probe.out) commands in
  let jsum f = float_of_int (List.fold_left (fun acc j -> acc + f j) 0 joint) in
  let enumerated = jsum (fun j -> j.Workload.enumerated) in
  let wall = List.fold_left ( +. ) 0.0 walls in
  let derived =
    [
      ("core.self_s", wall -. total "counted_s");
      ( "core.joint_redundant_ratio",
        if enumerated > 0.0 then jsum (fun j -> j.Workload.redundant) /. enumerated else 0.0 );
      ("core.joint_bound_pruned", jsum (fun j -> j.Workload.bound_pruned));
      ("gc.minor_collections", stat "minor_collections" ( +. ));
      ("gc.major_collections", stat "major_collections" ( +. ));
      ("gc.promoted_mwords", stat "promoted_words" ( +. ) /. 1e6);
      ( "gc.top_heap_mb",
        stat "top_heap_words" Float.max *. float_of_int (Sys.word_size / 8) /. 1048576.0 );
      ("trace.coverage", total "counted_s" /. wall);
      ("trace.overhead_ratio", best (fun x -> x.on_s) /. best (fun x -> x.off_s));
    ]
  in
  let per_command =
    List.mapi
      (fun i ((c : Workload.cmd), _) ->
        let table r = snd (List.nth (List.rev r.per_command) i) in
        let cmd_value n = best (fun x -> value (table x.recorder) n) in
        ( Workload.key c,
          ("trace.coverage", cmd_value "counted_s" /. List.nth walls i)
          :: List.filter_map
               (fun n -> if Hashtbl.mem (table first) n then Some (n, cmd_value n) else None)
               metric_names ))
      commands
  in
  ( List.map
      (fun n -> (n, match List.assoc_opt n derived with Some v -> v | None -> total n))
      metric_names,
    per_command )
