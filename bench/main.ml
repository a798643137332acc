(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (Section 6) and times the search with Bechamel.

    {v
    dune exec bench/main.exe                 -- everything
    dune exec bench/main.exe -- --only fig5  -- one artifact
    dune exec bench/main.exe -- --list       -- list artifact ids
    dune exec bench/main.exe -- --smoke      -- fast CI subset
    v}

    Artifacts: fig4 fig5 fig6 fig7 fig8 fig9 fig10 (balance / cycles /
    area sweeps), tab2 (speedups), frac (fraction of the space searched),
    acc (estimate accuracy after the P&R model), ablation (contribution
    of each transformation), gallery (the search on the extended kernel
    suite), speed (Bechamel timing of the search). The measured DSE
    benchmark, with medians, spreads and per-layer costs, is
    [bench/perf] (see its README).

    [--smoke] runs a reduced subset with small sweep lattices; the test
    suite executes it on every [dune runtest] so the bench code cannot
    bit-rot silently. *)

module Design = Dse.Design
module Search = Dse.Search
module Space = Dse.Space
module Estimate = Hls.Estimate

let capacity = Hls.Device.default.Hls.Device.capacity_slices

(** Smoke mode: tiny sweep lattices, fast artifact subset — exercised
    from the test suite. *)
let smoke = ref false

let sweep_product () = if !smoke then 16 else 256

let ctx ?(pipelined = true) name =
  let k = Option.get (Kernels.find name) in
  let profile = Estimate.default_profile ~pipelined () in
  Design.context ~profile k

let divisors = Engine.Util.divisors

let vec_str v =
  "(" ^ String.concat "," (List.map (fun (_, u) -> string_of_int u) v) ^ ")"

(* ------------------------------------------------------------------ *)
(* Figures 4-10: balance, cycles, area as functions of unroll factors *)

type sweep_axes = {
  outer : string;  (** curve parameter *)
  inner : string;  (** x axis *)
  outer_vals : int list;
  inner_vals : int list;
}

let axes_of name =
  let k = Option.get (Kernels.find name) in
  let spine = Ir.Loop_nest.spine k.Ir.Ast.k_body in
  match spine with
  | o :: i :: _ ->
      let touter = Ir.Ast.loop_trip o and tinner = Ir.Ast.loop_trip i in
      {
        outer = o.Ir.Ast.index;
        inner = i.Ir.Ast.index;
        outer_vals = List.filteri (fun idx _ -> idx < 5) (divisors touter);
        inner_vals = divisors tinner;
      }
  | _ -> invalid_arg "axes_of: kernel too shallow"

let figure ~id ~pipelined name =
  let axes = axes_of name in
  let c = ctx ~pipelined name in
  let selected = (Search.run c).Search.selected.vector in
  Printf.printf
    "## %s: %s, %s memory -- balance / execution cycles / area(slices)\n" id
    (String.uppercase_ascii name)
    (if pipelined then "pipelined" else "non-pipelined");
  Printf.printf
    "#  rows: outer loop %s unroll; columns: inner loop %s unroll\n\
     #  (*) = design selected by the search; '-' = over capacity (%d slices)\n"
    axes.outer axes.inner capacity;
  let eval uo ui =
    Design.evaluate c
      (Design.base_config c [ (axes.outer, uo); (axes.inner, ui) ])
  in
  let points =
    List.map
      (fun uo -> (uo, List.map (fun ui -> (ui, eval uo ui)) axes.inner_vals))
      axes.outer_vals
  in
  let header () =
    Printf.printf "%-8s" (axes.outer ^ "\\" ^ axes.inner);
    List.iter (fun ui -> Printf.printf "%10d" ui) axes.inner_vals;
    print_newline ()
  in
  let mark uo ui s =
    let v = [ (axes.outer, uo); (axes.inner, ui) ] in
    if Engine.Backend.normalize_vector c.Design.env v = selected then s ^ "*"
    else s
  in
  let table title render =
    Printf.printf "\n%s\n" title;
    header ();
    List.iter
      (fun (uo, row) ->
        Printf.printf "%-8d" uo;
        List.iter
          (fun (ui, (p : Design.point)) ->
            Printf.printf "%10s" (mark uo ui (render p)))
          row;
        print_newline ())
      points
  in
  table "balance B = F/C" (fun p ->
      let b = Design.balance p in
      if b > 999.0 then "inf" else Printf.sprintf "%.3f" b);
  table "execution cycles" (fun p -> string_of_int (Design.cycles p));
  table "area (slices)" (fun p ->
      let s = Design.space p in
      if s > capacity then "-" else string_of_int s);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 2: speedups of the selected design over the baseline *)

let paper_speedups =
  (* Table 2 of the paper, for side-by-side comparison. *)
  [
    ("fir", (7.67, 5.56));
    ("mm", (17.26, 7.53));
    ("jac", (4.55, 34.61));
    ("pat", (13.36, 4.01));
    ("sobel", (3.87, 3.90));
  ]

let table2 () =
  Printf.printf
    "## tab2: Speedup of the selected design over the baseline (no unrolling)\n";
  Printf.printf "%-8s %18s %18s %14s %14s\n" "kernel" "non-pipelined"
    "pipelined" "paper(non-p.)" "paper(pipe.)";
  List.iter
    (fun name ->
      let speedup pipelined =
        let c = ctx ~pipelined name in
        let r = Search.run c in
        let base =
          Design.evaluate c (Design.base_config c (Design.ubase c))
        in
        float_of_int (Design.cycles base)
        /. float_of_int (Design.cycles r.Search.selected)
      in
      let pn, pp = List.assoc name paper_speedups in
      Printf.printf "%-8s %18.2f %18.2f %14.2f %14.2f\n" name (speedup false)
        (speedup true) pn pp)
    Kernels.names;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Fraction of the design space searched (Section 6.3) *)

let fraction () =
  Printf.printf
    "## frac: designs synthesized by the search vs. the full design space\n";
  Printf.printf "%-8s %-6s %8s %10s %10s %16s %9s\n" "kernel" "mem" "evals"
    "space" "searched" "selected" "vs best";
  let total = ref 0 and totsp = ref 0 in
  let evals = ref 0 and hits = ref 0 in
  let smhits = ref 0 in
  (* One pool of worker domains for all twenty sweeps: the domain-spawn
     cost is paid once per artifact, not once per sweep. *)
  Engine.Pool.with_pool (Engine.Pool.default_size ()) @@ fun pool ->
  List.iter
    (fun pipelined ->
      List.iter
        (fun name ->
          let c = ctx ~pipelined name in
          let r = Search.run c in
          let visited = Search.designs_evaluated r in
          let sp = Space.sweep ~max_product:(sweep_product ()) ~pool c in
          evals := !evals + c.Design.store.stats.evaluations;
          hits := !hits + c.Design.store.stats.cache_hits;
          smhits := !smhits + c.Design.store.stats.sched_memo_hits;
          let best = Option.get (Space.best c sp) in
          let ratio =
            float_of_int (Design.cycles r.Search.selected)
            /. float_of_int (Design.cycles best)
          in
          total := !total + visited;
          totsp := !totsp + sp.Space.total_designs;
          Printf.printf "%-8s %-6s %8d %10d %9.2f%% %16s %8.2fx\n" name
            (if pipelined then "pipe" else "nonp")
            visited sp.Space.total_designs
            (100.0 *. Space.fraction_searched sp ~visited)
            (vec_str r.Search.selected.vector)
            ratio)
        Kernels.names)
    [ true; false ];
  Printf.printf "%-8s %-6s %8d %10d %9.2f%%\n" "overall" "" !total !totsp
    (100.0 *. float_of_int !total /. float_of_int !totsp);
  Printf.printf
    "# stats: %d designs synthesized, %d served from the evaluation cache, \
     %d block tri-schedules served from the fingerprint memo\n"
    !evals !hits !smhits;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Section 6.4: accuracy of estimates vs implemented designs *)

let accuracy () =
  Printf.printf
    "## acc: behavioral estimates vs. implemented designs (P&R model)\n";
  Printf.printf "%-8s %-22s %8s %8s %10s %9s %9s\n" "kernel" "design" "cycles"
    "cyc(P&R)" "clock(ns)" "slices" "sl(P&R)";
  List.iter
    (fun name ->
      let c = ctx name in
      let r = Search.run c in
      let show label (p : Design.point) =
        let impl = Hls.Lowlevel.place_and_route p.estimate in
        Printf.printf "%-8s %-22s %8d %8d %10.1f %9d %9d\n" name
          (label ^ vec_str p.vector)
          (Design.cycles p) impl.Hls.Lowlevel.cycles
          impl.Hls.Lowlevel.achieved_clock_ns (Design.space p)
          impl.Hls.Lowlevel.actual_slices
      in
      show "baseline"
        (Design.evaluate c (Design.base_config c (Design.ubase c)));
      show "selected" r.Search.selected;
      let big =
        Design.evaluate c
          (Design.base_config c
             (List.map
                (fun (l : Ir.Ast.loop) ->
                  (l.Ir.Ast.index, min 16 (Ir.Ast.loop_trip l)))
                c.Design.env.spine))
      in
      show "large" big)
    Kernels.names;
  Printf.printf
    "# expected shapes: cycles identical; clock degradation small for\n\
     # selected designs, large for over-sized ones; slices grow super-linearly.\n\n"

(* ------------------------------------------------------------------ *)
(* Ablation: contribution of each transformation to the selected design *)

let ablation () =
  Printf.printf
    "## ablation: selected-design cycles per compiler configuration\n";
  Printf.printf "%-8s %10s %12s %12s %12s %12s\n" "kernel" "full" "no-banks"
    "no-chains" "no-replace" "1-memory";
  List.iter
    (fun name ->
      let run ?(memories = 4) scalar =
        let k = Option.get (Kernels.find name) in
        let device =
          { Hls.Device.default with Hls.Device.num_memories = memories }
        in
        let profile = { (Estimate.default_profile ()) with Estimate.device } in
        let pipeline = { Transform.Pipeline.default with scalar } in
        let c = Design.context ~profile ~pipeline k in
        let r = Search.run c in
        Design.cycles r.Search.selected
      in
      let dflt = Transform.Scalar_replace.default_config in
      Printf.printf "%-8s %10d %12d %12d %12d %12d\n" name (run dflt)
        (run { dflt with across_loops = false })
        (run { dflt with chains = false })
        (run { dflt with across_loops = false; chains = false; max_registers = 0 })
        (run ~memories:1 dflt))
    Kernels.names;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Gallery: the search on the wider application class the paper's
   Section 2.4 motivates (no paper analogue; generalization evidence) *)

let gallery () =
  Printf.printf
    "## gallery: exploration on the extended kernel suite (pipelined)\n";
  Printf.printf "%-12s %16s %10s %10s %10s %10s\n" "kernel" "selected" "cycles"
    "slices" "balance" "speedup";
  List.iter
    (fun name ->
      let k = Option.get (Gallery.find name) in
      let profile = Estimate.default_profile () in
      let c = Design.context ~profile k in
      let r = Search.run c in
      let base =
        Design.evaluate c (Design.base_config c (Design.ubase c))
      in
      let sel = r.Search.selected in
      Printf.printf "%-12s %16s %10d %10d %10.3f %9.2fx\n" name
        (vec_str sel.vector) (Design.cycles sel) (Design.space sel)
        (Design.balance sel)
        (float_of_int (Design.cycles base) /. float_of_int (Design.cycles sel)))
    Gallery.names;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bechamel: wall-clock of one full search per kernel (the paper: under
   five minutes per kernel on year-2002 hardware; ours run in
   milliseconds) *)

let bechamel_speed () =
  let open Bechamel in
  let test name =
    Test.make ~name (Staged.stage (fun () -> ignore (Search.run (ctx name))))
  in
  let tests =
    Test.make_grouped ~name:"dse-search" (List.map test Kernels.names)
  in
  Printf.printf "## speed: one full design space exploration per kernel\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun name ->
      match Analyze.OLS.estimates (Hashtbl.find results name) with
      | Some [ est ] -> Printf.printf "%-28s %10.3f ms/search\n" name (est /. 1e6)
      | _ -> ())
    (List.sort compare names);
  Printf.printf "# paper: the search ran in under 5 minutes per kernel.\n\n"

(* ------------------------------------------------------------------ *)

let artifacts : (string * (unit -> unit)) list =
  [
    ("fig4", fun () -> figure ~id:"fig4" ~pipelined:false "fir");
    ("fig5", fun () -> figure ~id:"fig5" ~pipelined:true "fir");
    ("fig6", fun () -> figure ~id:"fig6" ~pipelined:false "mm");
    ("fig7", fun () -> figure ~id:"fig7" ~pipelined:true "mm");
    ("fig8", fun () -> figure ~id:"fig8" ~pipelined:true "jac");
    ("fig9", fun () -> figure ~id:"fig9" ~pipelined:true "pat");
    ("fig10", fun () -> figure ~id:"fig10" ~pipelined:true "sobel");
    ("tab2", table2);
    ("frac", fraction);
    ("acc", accuracy);
    ("ablation", ablation);
    ("gallery", gallery);
    ("speed", bechamel_speed);
  ]

(** The CI subset: one figure, the speedup table and the sweep
    statistics — every distinct code path, small lattices, no Bechamel
    sampling. *)
let smoke_artifacts = [ "fig5"; "tab2"; "frac" ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec strip = function
    | [] -> []
    | "--smoke" :: rest ->
        smoke := true;
        strip rest
    | a :: rest -> a :: strip rest
  in
  let args = strip args in
  match args with
  | [ "--list" ] -> List.iter (fun (id, _) -> print_endline id) artifacts
  | [ "--only"; id ] -> (
      match List.assoc_opt id artifacts with
      | Some f -> f ()
      | None ->
          prerr_endline ("unknown artifact " ^ id);
          exit 1)
  | [] ->
      Printf.printf
        "# DEFACTO-style design space exploration - evaluation reproduction\n";
      Printf.printf "# device: %s, %d memories, clock %.0f ns\n\n"
        Hls.Device.default.Hls.Device.name
        Hls.Device.default.Hls.Device.num_memories
        Hls.Device.default.Hls.Device.clock_ns;
      let ids = if !smoke then smoke_artifacts else List.map fst artifacts in
      List.iter (fun id -> (List.assoc id artifacts) ()) ids
  | _ ->
      prerr_endline "usage: main.exe [--smoke] [--list | --only <artifact>]";
      exit 1
