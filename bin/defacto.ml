(** The [defacto] command-line driver: design space exploration for
    FPGA-bound loop nests, following So, Hall & Diniz (PLDI 2002).

    {v
    defacto explore   -k fir                 run the Figure-2 search
    defacto explore   -k fir -k mm ...       batched multi-kernel session
    defacto estimate  -k mm -u i=2,j=2       synthesize one design point
    defacto transform -k jac -u j=2          print the transformed code
    defacto space     -k pat                 exhaustive design-space sweep
    defacto check     -k fir                 static checks + pipeline validation
    defacto vhdl      -k fir -u j=2,i=2      emit behavioral VHDL
    defacto cache     stats|clear            inspect/remove a persistent store
    defacto kernels                          list built-in kernels
    v}

    Kernels come from the built-in suite ([-k], repeatable for [explore])
    or from a C-subset source file ([-f]). With [--cache-dir] (or
    [DEFACTO_CACHE_DIR]) evaluations persist across runs: a warm rerun
    performs zero full syntheses and selects bit-identical designs. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments *)

let kernel_names = String.concat ", " (Kernels.names @ Gallery.names)

let kernel_arg =
  let doc = Printf.sprintf "Built-in kernel name (%s)." kernel_names in
  Arg.(value & opt (some string) None & info [ "k"; "kernel" ] ~docv:"NAME" ~doc)

let file_arg =
  let doc = "Parse the kernel from a C-subset source $(docv)." in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let pipelined_arg =
  let doc = "Model non-pipelined memory accesses (7-cycle reads, 3-cycle writes)." in
  Arg.(value & flag & info [ "non-pipelined" ] ~doc)

let memories_arg =
  let doc = "Number of external memories." in
  Arg.(value & opt int 4 & info [ "memories" ] ~docv:"N" ~doc)

let capacity_arg =
  let doc = "Device capacity in slices." in
  Arg.(value & opt int 12288 & info [ "capacity" ] ~docv:"SLICES" ~doc)

let unroll_arg =
  let doc = "Unroll factor vector, e.g. $(b,j=2,i=4)." in
  Arg.(value & opt string "" & info [ "u"; "unroll" ] ~docv:"VEC" ~doc)

let output_arg =
  let doc = "Write output to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let load_kernel kernel file : (Ir.Ast.kernel, string) result =
  match (kernel, file) with
  | Some name, _ -> (
      match Kernels.find name with
      | Some k -> Ok k
      | None -> (
          match Gallery.find name with
          | Some k -> Ok k
          | None ->
              Error
                (Printf.sprintf "unknown kernel %s (have: %s)" name
                   (String.concat ", " (Kernels.names @ Gallery.names)))))
  | None, Some path -> (
      let src = In_channel.with_open_text path In_channel.input_all in
      let name = Filename.remove_extension (Filename.basename path) in
      match Frontend.Parser.kernel_of_string_res ~name src with
      | Ok k -> Ok k
      | Error msg -> Error (path ^ ": " ^ msg))
  | None, None -> Error "specify a kernel with -k or a source file with -f"

let parse_vector (s : string) : (string * int) list =
  if String.trim s = "" then []
  else
    String.split_on_char ',' s
    |> List.map (fun part ->
           match String.split_on_char '=' (String.trim part) with
           | [ i; u ] -> (
               match int_of_string_opt (String.trim u) with
               | Some n when n >= 1 -> (String.trim i, n)
               | _ ->
                   prerr_endline
                     (Printf.sprintf
                        "defacto: bad unroll factor %S (expected \
                         loop=positive-integer)"
                        part);
                   exit 1)
           | _ ->
               prerr_endline
                 (Printf.sprintf
                    "defacto: bad unroll component %S (expected loop=factor)"
                    part);
               exit 1)

(* Check [-u] against the loaded kernel: a component naming no loop of
   its nest would otherwise be dropped silently by the unroller. *)
let kernel_vector (k : Ir.Ast.kernel) (unroll : string) : (string * int) list =
  let v = parse_vector unroll in
  let loops = Ir.Loop_nest.spine_indices k.Ir.Ast.k_body in
  let reject msg =
    prerr_endline ("defacto: " ^ msg);
    exit 1
  in
  ignore
    (List.fold_left
       (fun seen (i, _) ->
         if not (List.mem i loops) then
           reject
             (Printf.sprintf "unroll component %S names no loop of %s (loops: %s)" i
                k.Ir.Ast.k_name (String.concat ", " loops));
         if List.mem i seen then
           reject (Printf.sprintf "unroll vector names loop %S more than once" i);
         i :: seen)
       [] v);
  v

(* Exit 1 with a one-line diagnostic unless the count given to [--flag]
   is at least 1. *)
let at_least_one flag n =
  if n < 1 then begin
    prerr_endline ("defacto: --" ^ flag ^ " must be at least 1");
    exit 1
  end

let make_profile ~non_pipelined ~memories =
  at_least_one "memories" memories;
  let device = { Hls.Device.default with Hls.Device.num_memories = memories } in
  {
    Hls.Estimate.device;
    mem = Hls.Memory_model.of_flag ~pipelined:(not non_pipelined);
    chaining = false;
  }

let with_output output f =
  match output with
  | None -> f Format.std_formatter
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          let fmt = Format.formatter_of_out_channel oc in
          f fmt;
          Format.pp_print_flush fmt ())

let or_die = function
  | Ok v -> v
  | Error msg ->
      prerr_endline ("defacto: " ^ msg);
      exit 1

(* ------------------------------------------------------------------ *)
(* Engine arguments (persistence + fidelity) *)

let cache_dir_arg =
  let doc =
    "Persist evaluated design points and tri-schedules under $(docv) and \
     warm-start from whatever earlier runs left there. The store is keyed \
     on the estimator version and the full device/memory configuration, \
     so changing either only makes it cold, never stale."
  in
  let env = Cmd.Env.info "DEFACTO_CACHE_DIR" ~doc:"Default for --cache-dir." in
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR" ~env ~doc)

let cold_arg =
  let doc =
    "Ignore whatever --cache-dir already holds (the run still saves its \
     results, refreshing the store)."
  in
  Arg.(value & flag & info [ "cold" ] ~doc)

let post_route_arg =
  let doc =
    "Estimation fidelity: $(b,quick+full) (behavioral synthesis) or \
     $(b,quick+lowlevel) (the place-and-route degradation model folded \
     into every estimate: post-route area and achieved-clock time; cycle \
     counts are unchanged). Both gate synthesis behind the admissible \
     analytical pre-estimator, so the gate never changes a selection; the \
     two never share a stored point."
  in
  Arg.(
    value
    & opt (enum [ ("quick+full", false); ("quick+lowlevel", true) ]) false
    & info [ "backend" ] ~docv:"NAME" ~doc)

(* ------------------------------------------------------------------ *)
(* explore *)

let report_arg =
  let doc = "Write a full markdown exploration report to $(docv) ('-' for stdout)." in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Print the estimator's per-stage wall-time split (dfg construction, \
     scheduling, data layout) and the content-addressed scheduler memo \
     counters after the search."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let verify_arg =
  let doc =
    "Translation-validate the transformation pipeline of every visited \
     design point (per-stage footprint comparison); selections are \
     bit-identical, violations are counted in the stats."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

let joint_arg =
  let doc =
    "Search the joint transform-configuration space (unroll vector x \
     tile x scalar-replace/peel/licm toggles) instead of the unroll \
     lattice alone: illegal and redundant configurations are pruned \
     before any transform runs, and above a size threshold the sweep \
     turns best-first on the analytical bounds."
  in
  Arg.(value & flag & info [ "joint" ] ~doc)

let tile_candidates_arg =
  let doc =
    "Comma-separated tile-size requests for the joint space (default \
     4,8,16); each is clamped to the nearest trip-count divisor per \
     spine loop. Only meaningful with $(b,--joint)."
  in
  Arg.(value & opt (some string) None & info [ "tile-candidates" ] ~docv:"T,T,..." ~doc)

let parse_tile_candidates = function
  | None -> Dse.Space.default_tile_candidates
  | Some s ->
      String.split_on_char ',' s
      |> List.filter (fun x -> String.trim x <> "")
      |> List.map (fun x ->
             match int_of_string_opt (String.trim x) with
             | Some t when t > 1 -> t
             | _ ->
                 prerr_endline
                   ("defacto: --tile-candidates: bad tile size '" ^ x ^ "'");
                 exit 1)

let print_joint_counters (j : Dse.Space.t) =
  Format.printf
    "# joint space: %d config(s) enumerated, %d illegal, %d redundant, %d \
     bound-pruned, %d evaluated@."
    j.Dse.Space.space_size j.Dse.Space.pruned_illegal
    j.Dse.Space.pruned_redundant j.Dse.Space.pruned_bound
    (List.length j.Dse.Space.points)

let explore_kernels_arg =
  let doc =
    Printf.sprintf
      "Built-in kernel name (%s). Repeatable: several $(b,-k) flags run one \
       batched session over all of them, sharing the tri-schedule memo and \
       the persistent store."
      kernel_names
  in
  Arg.(value & opt_all string [] & info [ "k"; "kernel" ] ~docv:"NAME" ~doc)

let explore_jobs_arg =
  let doc =
    "Accepted and has no effect: the search evaluates its design points \
     one at a time."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let load_tasks kernels file : Dse.Driver.task list =
  match (kernels, file) with
  | [], None ->
      prerr_endline "defacto: specify a kernel with -k or a source file with -f";
      exit 1
  | names, file ->
      let named =
        List.map
          (fun n ->
            let k = or_die (load_kernel (Some n) None) in
            { Dse.Driver.name = n; kernel = k })
          names
      in
      let from_file =
        match file with
        | None -> []
        | Some _ ->
            let k = or_die (load_kernel None file) in
            [ { Dse.Driver.name = k.Ir.Ast.k_name; kernel = k } ]
      in
      named @ from_file

(* The single end-of-command save: results are already printed, so an
   unwritable store costs only the store. Returns the files written. *)
let save_or_die dir = function
  | Ok written -> written
  | Error msg ->
      Format.print_flush ();
      prerr_endline
        (Printf.sprintf "defacto: cannot save the store under %s: %s" dir msg);
      exit 1

let explore kernels file non_pipelined memories capacity report prof verify
    cache_dir cold post_route _jobs joint tile_candidates =
  at_least_one "capacity" capacity;
  let tile_candidates = parse_tile_candidates tile_candidates in
  let tasks = load_tasks kernels file in
  let profile = make_profile ~non_pipelined ~memories in
  if report <> None && List.length tasks <> 1 then begin
    prerr_endline "defacto: --report takes exactly one kernel";
    exit 1
  end;
  if report <> None && joint then begin
    prerr_endline "defacto: --report cannot be combined with --joint";
    exit 1
  end;
  let summary =
    Dse.Driver.run_many ?cache_dir ~cold ~profile ~verify ~capacity
      ~post_route tasks
  in
  Option.iter
    (fun dest ->
      let text = Dse.Report.to_string (List.hd summary.Dse.Driver.outcomes) in
      if dest = "-" then print_string text
      else begin
        (try Out_channel.with_open_text dest (fun oc -> output_string oc text)
         with Sys_error msg ->
           prerr_endline ("defacto: " ^ msg);
           exit 1);
        Format.printf "report written to %s@." dest
      end;
      Option.iter
        (fun dir -> ignore (save_or_die dir (Dse.Driver.save summary)))
        cache_dir;
      exit 0)
    report;
  List.iter
    (fun (o : Dse.Driver.outcome) ->
      let r = o.Dse.Driver.search in
      Format.printf "kernel %s (%s memory, %d memories, capacity %d slices)@."
        o.Dse.Driver.task.Dse.Driver.kernel.Ir.Ast.k_name
        (Hls.Memory_model.name profile.Hls.Estimate.mem)
        memories capacity;
      Format.printf "saturation: R=%d W=%d Psat=%d eligible=[%s]@."
        r.sat.Dse.Saturation.r r.sat.Dse.Saturation.w r.sat.Dse.Saturation.psat
        (String.concat ", " r.sat.Dse.Saturation.eligible);
      Format.printf "Uinit = %a@." Dse.Design.pp_vector r.uinit;
      List.iter
        (fun (s : Dse.Search.step) ->
          Format.printf "  %a  [%s]@." Dse.Design.pp_point s.point s.verdict)
        r.steps;
      Format.printf "selected: %a@." Dse.Design.pp_point r.selected;
      Format.printf "baseline: %a@." Dse.Design.pp_point o.Dse.Driver.baseline;
      Format.printf "speedup over baseline: %.2fx@." (Dse.Driver.speedup o);
      Format.printf "stats: %a@." Dse.Design.pp_stats r.stats;
      if o.Dse.Driver.loaded_points > 0 then
        Format.printf "warm start: %d point(s) from the persistent store@."
          o.Dse.Driver.loaded_points;
      if verify then
        Format.printf "verify: %d design point(s) checked, %d violation(s)@."
          o.Dse.Driver.stats.checked_points o.Dse.Driver.stats.verify_violations;
      if prof then begin
        Format.printf "profile: %a@." Dse.Design.pp_profile o.Dse.Driver.stats;
        Format.printf
          "profile: %d distinct block shapes in the scheduler memo@."
          (Dse.Design.sched_memo_size o.Dse.Driver.ctx)
      end;
      if joint then begin
        (* The joint sweep reuses the outcome's context, so the search's
           warm point cache serves the unroll-only sub-space. *)
        let ctx = o.Dse.Driver.ctx in
        let j = Dse.Space.sweep ~joint:tile_candidates ~jobs:1 ctx in
        (match Dse.Space.best ctx j with
        | Some b ->
            Format.printf "joint selection: %a: cycles=%d slices=%d@."
              Transform.Pipeline.pp_config b.config (Dse.Design.cycles b)
              (Dse.Design.space b);
            let sel = r.Dse.Search.selected in
            if
              Dse.Design.cycles b < Dse.Design.cycles sel
              || Dse.Design.cycles b = Dse.Design.cycles sel
                 && Dse.Design.space b < Dse.Design.space sel
            then
              Format.printf
                "joint selection beats the unroll-only search (%d vs %d \
                 cycles, %d vs %d slices)@."
                (Dse.Design.cycles b) (Dse.Design.cycles sel)
                (Dse.Design.space b) (Dse.Design.space sel)
        | None -> Format.printf "joint selection: no fitting configuration@.");
        print_joint_counters j
      end)
    summary.Dse.Driver.outcomes;
  let t = Dse.Driver.total summary in
  Format.printf
    "session: %d synthesized, %d front(s), %d reused, %d cache hits, %d \
     pruned, %d sched memo hits over %d kernel(s); %d point(s) and %d \
     tri-schedule(s) warm-loaded@."
    t.evaluations t.fronts t.reused t.cache_hits t.pruned t.sched_memo_hits
    (List.length summary.Dse.Driver.outcomes)
    (List.fold_left
       (fun acc (o : Dse.Driver.outcome) -> acc + o.Dse.Driver.loaded_points)
       0 summary.Dse.Driver.outcomes)
    (Hls.Schedule.memo_loaded summary.Dse.Driver.session.memo);
  Option.iter
    (fun dir ->
      if save_or_die dir (Dse.Driver.save summary) = 0 then
        Format.printf "session: store at %s unchanged@." dir
      else Format.printf "session: store saved to %s@." dir)
    cache_dir

let explore_cmd =
  let doc = "Run the balance-guided design space exploration (Figure 2)." in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(
      const explore $ explore_kernels_arg $ file_arg $ pipelined_arg
      $ memories_arg $ capacity_arg $ report_arg $ profile_arg $ verify_arg
      $ cache_dir_arg $ cold_arg $ post_route_arg
      $ explore_jobs_arg $ joint_arg $ tile_candidates_arg)

(* ------------------------------------------------------------------ *)
(* estimate *)

let estimate kernel file non_pipelined memories unroll =
  let k = or_die (load_kernel kernel file) in
  let profile = make_profile ~non_pipelined ~memories in
  let ctx = Dse.Design.context ~profile k in
  let p =
    Dse.Design.evaluate ctx (Dse.Design.base_config ctx (kernel_vector k unroll))
  in
  Format.printf "%a@." Dse.Design.pp_vector p.vector;
  Format.printf "%a@." Hls.Estimate.pp p.estimate;
  Format.printf "time at 40ns clock: %.1f us@."
    (p.estimate.Hls.Estimate.time_ns /. 1000.0);
  let impl = Hls.Lowlevel.place_and_route p.estimate in
  Format.printf
    "after P&R model: %d slices, achieved clock %.1f ns (%s)@."
    impl.Hls.Lowlevel.actual_slices impl.Hls.Lowlevel.achieved_clock_ns
    (if impl.Hls.Lowlevel.meets_timing then "meets 40 ns" else "degraded")

let estimate_cmd =
  let doc = "Estimate area and cycles of one design point." in
  Cmd.v (Cmd.info "estimate" ~doc)
    Term.(const estimate $ kernel_arg $ file_arg $ pipelined_arg $ memories_arg $ unroll_arg)

(* ------------------------------------------------------------------ *)
(* transform *)

let transform kernel file unroll =
  let k = or_die (load_kernel kernel file) in
  let opts = { Transform.Pipeline.default with vector = kernel_vector k unroll } in
  let r = Transform.Pipeline.apply opts k in
  print_endline (Ir.Pretty.kernel_to_string r.Transform.Pipeline.kernel)

let transform_cmd =
  let doc = "Print the code after unroll-and-jam, scalar replacement and peeling." in
  Cmd.v (Cmd.info "transform" ~doc)
    Term.(const transform $ kernel_arg $ file_arg $ unroll_arg)

(* ------------------------------------------------------------------ *)
(* space *)

let max_product_arg =
  let doc = "Skip sweep points whose unroll product exceeds $(docv)." in
  Arg.(value & opt int 1024 & info [ "max-product" ] ~docv:"P" ~doc)

let jobs_arg =
  let doc =
    "Evaluate an exhaustive sweep on $(docv) parallel domains, at least 1 \
     (1 forces the sequential path; the default scales with the host's \
     cores). A $(b,--joint) space with more than 64 surviving \
     configurations is swept best-first, which is sequential and ignores \
     it."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let space kernel file non_pipelined memories capacity max_product jobs verify
    cache_dir cold post_route joint tile_candidates =
  at_least_one "max-product" max_product;
  Option.iter (at_least_one "jobs") jobs;
  at_least_one "capacity" capacity;
  let tile_candidates = parse_tile_candidates tile_candidates in
  let k = or_die (load_kernel kernel file) in
  let profile = make_profile ~non_pipelined ~memories in
  let session = Dse.Driver.session ?cache_dir ~cold ~profile ~post_route () in
  let store = Dse.Driver.open_store session k in
  let ctx = Dse.Design.context ~profile ~verify ~post_route ~capacity ~store k in
  let sp =
    Dse.Space.sweep ~max_product
      ?joint:(if joint then Some tile_candidates else None)
      ?jobs ctx
  in
  (* Joint points are labelled by their configuration, unroll-only
     points by their vector. *)
  let width, heading = if joint then (42, "config") else (26, "vector") in
  Format.printf "# %-*s %10s %10s %10s %8s@." (width - 2) heading "cycles"
    "slices" "balance" "fits";
  List.iter
    (fun (p : Dse.Design.point) ->
      Format.printf "%-*s %10d %10d %10.3f %8s@." width
        (if joint then Transform.Pipeline.config_to_string p.config
         else Format.asprintf "%a" Dse.Design.pp_vector p.vector)
        (Dse.Design.cycles p) (Dse.Design.space p) (Dse.Design.balance p)
        (if Dse.Design.space p <= capacity then "yes" else "no"))
    sp.Dse.Space.points;
  (match Dse.Space.best ctx sp with
  | Some b when joint ->
      Format.printf "# best fitting: %a: cycles=%d slices=%d@."
        Transform.Pipeline.pp_config b.config (Dse.Design.cycles b)
        (Dse.Design.space b)
  | Some b -> Format.printf "# best fitting: %a@." Dse.Design.pp_point b
  | None -> Format.printf "# no fitting design@.");
  if joint then print_joint_counters sp;
  if verify then
    Format.printf "# verify: %d design point(s) checked, %d violation(s)@."
      ctx.Dse.Design.store.stats.checked_points
      ctx.Dse.Design.store.stats.verify_violations;
  Format.printf "# stats: %a@." Dse.Design.pp_stats ctx.Dse.Design.store.stats;
  Option.iter
    (fun dir ->
      ignore (save_or_die dir (Dse.Driver.save_stores session [ (k, store) ])))
    cache_dir

let space_cmd =
  let doc = "Exhaustively sweep the (divisor) design space and report every point." in
  Cmd.v (Cmd.info "space" ~doc)
    Term.(
      const space $ kernel_arg $ file_arg $ pipelined_arg $ memories_arg
      $ capacity_arg $ max_product_arg $ jobs_arg $ verify_arg $ cache_dir_arg
      $ cold_arg $ post_route_arg $ joint_arg $ tile_candidates_arg)

(* ------------------------------------------------------------------ *)
(* cache *)

let cache_action_arg =
  let doc = "$(b,stats) summarizes the store; $(b,clear) removes it." in
  Arg.(
    required
    & pos 0 (some (enum [ ("stats", `Stats); ("clear", `Clear) ])) None
    & info [] ~docv:"ACTION" ~doc)

let cache action cache_dir =
  let dir =
    match cache_dir with
    | Some d -> d
    | None ->
        prerr_endline
          "defacto: cache: specify --cache-dir (or set DEFACTO_CACHE_DIR)";
        exit 1
  in
  match action with
  | `Stats ->
      let s = Engine.Persist.stats ~cache_dir:dir in
      if not s.Engine.Persist.ds_exists then
        Format.printf "%s: no store@." dir
      else begin
        Format.printf "%s: %d configuration(s), %d byte(s)@." dir
          (List.length s.Engine.Persist.ds_configs)
          s.Engine.Persist.ds_bytes;
        List.iter
          (fun (c : Engine.Persist.config_stats) ->
            Format.printf
              "  %s: %d point(s) in %d kernel file(s), %d memo shape(s)%s@."
              c.Engine.Persist.cs_key c.Engine.Persist.cs_points
              c.Engine.Persist.cs_point_files
              (max 0 c.Engine.Persist.cs_memo_shapes)
              (if c.Engine.Persist.cs_invalid > 0 then
                 Printf.sprintf ", %d invalid file(s)"
                   c.Engine.Persist.cs_invalid
               else "");
            match c.Engine.Persist.cs_config with
            | Some cfg -> Format.printf "    %s@." cfg
            | None -> ())
          s.Engine.Persist.ds_configs
      end
  | `Clear ->
      let removed, kept = Engine.Persist.clear ~cache_dir:dir in
      Format.printf "%s: removed %d file(s)%s@." dir removed
        (if kept > 0 then
           Printf.sprintf ", kept %d unrecognized file(s)" kept
         else "")

let cache_cmd =
  let doc =
    "Inspect ($(b,stats)) or remove ($(b,clear)) a persistent evaluation \
     store. $(b,clear) only deletes files matching the store's own layout, \
     so a mistyped directory cannot lose foreign data."
  in
  Cmd.v (Cmd.info "cache" ~doc) Term.(const cache $ cache_action_arg $ cache_dir_arg)

(* ------------------------------------------------------------------ *)
(* check *)

let format_arg =
  let doc = "Output format: $(b,human) or $(b,json)." in
  Arg.(
    value
    & opt (enum [ ("human", `Human); ("json", `Json) ]) `Human
    & info [ "format" ] ~docv:"FMT" ~doc)

let no_validate_arg =
  let doc =
    "Skip the (more expensive) per-stage pipeline translation validation; \
     run only the structural, bounds, dataflow and legality passes."
  in
  Arg.(value & flag & info [ "no-validate" ] ~doc)

let fail_on_arg =
  let doc =
    "Severity that makes the exit code 2: $(b,error) (the default — \
     warnings exit 1 as usual) or $(b,warning) (warnings exit 2 too, for \
     CI jobs that want to be strict)."
  in
  Arg.(
    value
    & opt
        (enum [ ("error", Check.Diag.Error); ("warning", Check.Diag.Warning) ])
        Check.Diag.Error
    & info [ "fail-on" ] ~docv:"SEV" ~doc)

(* Exit-code discipline (asserted by the integration tests and relied on
   by CI): 0 when clean (at most informational findings), 1 when the
   worst finding is a warning, 2 on any error. [--fail-on=warning]
   promotes warnings to exit 2. *)
let check kernel file unroll format no_validate fail_on =
  (* A kernel that does not even load (front-end rejection) is an error
     by the same discipline. *)
  let k =
    match load_kernel kernel file with
    | Ok k -> k
    | Error msg ->
        prerr_endline ("defacto: " ^ msg);
        exit 2
  in
  let options =
    match parse_vector unroll with
    | [] -> None
    | v -> Some { Transform.Pipeline.default with Transform.Pipeline.vector = v }
  in
  let config =
    { Check.Run.default with Check.Run.options; validate = not no_validate }
  in
  let ds = Check.Run.all ~config k in
  (match format with
  | `Human -> print_string (Check.Run.render_human ?file ~kernel:k.Ir.Ast.k_name ds)
  | `Json ->
      print_endline
        (Check.Run.render_json ?file ~fail_on
           ~passes:(Check.Run.pass_names config) ~kernel:k.Ir.Ast.k_name ds));
  exit (Check.Run.exit_code ~fail_on ds)

let check_cmd =
  let doc =
    "Statically check a kernel: structural well-formedness, affine bounds, \
     dataflow facts (uninitialized reads, dead stores), \
     transform legality, and per-stage translation validation of the \
     pipeline. Exits 0 when clean, 1 on warnings, 2 on errors (see \
     $(b,--fail-on))."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const check $ kernel_arg $ file_arg $ unroll_arg $ format_arg
      $ no_validate_arg $ fail_on_arg)

(* ------------------------------------------------------------------ *)
(* vhdl *)

let vhdl kernel file unroll memories output =
  let k = or_die (load_kernel kernel file) in
  let profile = make_profile ~non_pipelined:false ~memories in
  let opts = { Transform.Pipeline.default with vector = kernel_vector k unroll } in
  let r = Transform.Pipeline.apply opts k in
  let text =
    Vhdl.Emit.emit_with_layout
      ~num_memories:profile.Hls.Estimate.device.Hls.Device.num_memories
      r.Transform.Pipeline.kernel
  in
  with_output output (fun fmt -> Format.fprintf fmt "%s" text)

let vhdl_cmd =
  let doc = "Emit behavioral VHDL for a design point (after data layout)." in
  Cmd.v (Cmd.info "vhdl" ~doc)
    Term.(const vhdl $ kernel_arg $ file_arg $ unroll_arg $ memories_arg $ output_arg)

(* ------------------------------------------------------------------ *)
(* simulate *)

let simulate kernel file non_pipelined memories unroll =
  let k = or_die (load_kernel kernel file) in
  let profile = make_profile ~non_pipelined ~memories in
  let ctx = Dse.Design.context ~profile k in
  let p =
    Dse.Design.evaluate ctx (Dse.Design.base_config ctx (kernel_vector k unroll))
  in
  let inputs = Kernels.test_inputs k in
  (* A kernel that faults at run time (an out-of-bounds subscript on the
     test inputs, a division by zero) is the input's error, reported
     with the error exit [check] uses. *)
  let fault msg =
    prerr_endline
      (Printf.sprintf "defacto: %s: %s"
         (Option.value file ~default:k.Ir.Ast.k_name)
         msg);
    exit 2
  in
  let sim, reference =
    try
      ( Hls.Sim.run ~inputs profile p.kernel,
        Ir.Eval.observables (Ir.Eval.run ~inputs k) )
    with
    | Ir.Eval.Out_of_bounds msg -> fault ("out-of-bounds access: " ^ msg)
    | Ir.Eval.Division_by_zero divisor ->
        fault ("division by zero (divisor " ^ divisor ^ ")")
    | Ir.Eval.Unbound what -> fault ("unbound " ^ what)
  in
  let ok =
    List.for_all
      (fun (arr, data) -> List.assoc_opt arr sim.Hls.Sim.arrays = Some data)
      reference
  in
  Format.printf "design %a@." Dse.Design.pp_vector p.vector;
  Format.printf
    "simulated %d cycles (estimator: %d); %d loads, %d stores issued (%d \
     suppressed by predication)@."
    sim.Hls.Sim.cycles p.estimate.Hls.Estimate.cycles
    sim.Hls.Sim.dynamic_loads sim.Hls.Sim.dynamic_stores
    sim.Hls.Sim.stores_suppressed;
  Format.printf "datapath vs reference interpreter: %s@."
    (if ok then "IDENTICAL" else "MISMATCH");
  if not ok then exit 1

let simulate_cmd =
  let doc =
    "Execute the scheduled datapath cycle-faithfully and compare against the \
     reference interpreter."
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const simulate $ kernel_arg $ file_arg $ pipelined_arg $ memories_arg
      $ unroll_arg)

(* ------------------------------------------------------------------ *)
(* kernels *)

let kernels () =
  let show source name =
    let k =
      match Kernels.find name with
      | Some k -> k
      | None -> Option.get (Gallery.find name)
    in
    let spine = Ir.Loop_nest.spine k.Ir.Ast.k_body in
    Printf.printf "%-12s %-8s loops: %s\n" name source
      (String.concat ", "
         (List.map
            (fun (l : Ir.Ast.loop) ->
              Printf.sprintf "%s[%d..%d)" l.Ir.Ast.index l.Ir.Ast.lo
                l.Ir.Ast.hi)
            spine))
  in
  List.iter (show "paper") Kernels.names;
  List.iter (show "gallery") Gallery.names

let kernels_cmd =
  let doc = "List the built-in kernels (the paper's five benchmarks)." in
  Cmd.v (Cmd.info "kernels" ~doc) Term.(const kernels $ const ())

(* ------------------------------------------------------------------ *)

let main =
  let doc = "compiler-directed design space exploration for FPGA-based systems" in
  Cmd.group
    (Cmd.info "defacto" ~version:"1.0.0" ~doc)
    [
      explore_cmd;
      estimate_cmd;
      transform_cmd;
      space_cmd;
      cache_cmd;
      check_cmd;
      vhdl_cmd;
      simulate_cmd;
      kernels_cmd;
    ]

let () = exit (Cmd.eval main)
