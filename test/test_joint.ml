(** The joint transform-configuration space: persistent-store
    invalidation when any base pipeline option changes, soundness of the
    legality pre-pruner (rejected configurations raise [Stage_error] or
    demonstrably change results; accepted ones evaluate cleanly under
    translation validation), tier-1 admissibility over the joint space
    (tiling included), configuration normalization, and the joint
    sweep's dominance over the unroll-only sweep on the built-in
    kernels, and the shared pipeline fronts the sweep finishes its
    configurations from. *)

open Ir
module Design = Dse.Design
module Space = Dse.Space
module Store = Engine.Store
module Backend = Engine.Backend
module Persist = Engine.Persist
module Pipeline = Transform.Pipeline

let profile = Hls.Estimate.default_profile ()
let kernel name = Option.get (Kernels.find name)

(* The joint space over the default tile requests, on the calling
   domain. *)
let joint_sweep ?exhaustive_below ~max_product ctx =
  Space.sweep ~joint:Space.default_tile_candidates ?exhaustive_below ~jobs:1
    ~max_product ctx

let fresh_dir () =
  let f = Filename.temp_file "defacto-test-joint" "" in
  Sys.remove f;
  f

(* ------------------------------------------------------------------ *)
(* Satellite: the persisted store goes cold when any pipeline option
   changes. [Persist.config_string] digests the full base options —
   peel, LICM, tile and the scalar-replacement budget all land in the
   key, so flipping any of them reads as a different store. *)

let option_variants : (string * Pipeline.options) list =
  let d = Pipeline.default in
  [
    ("default", d);
    ("no-peel", { d with Pipeline.peel = false });
    ("no-licm", { d with Pipeline.licm = false });
    ("tiled", { d with Pipeline.tile = Some ("i", 4) });
    ( "no-scalar",
      { d with Pipeline.scalar = { d.Pipeline.scalar with max_registers = 0 } }
    );
  ]

let test_config_string_distinct () =
  let strings =
    List.map
      (fun (n, opts) ->
        (n, Persist.config_string ~backend:Backend.default.Backend.name profile opts))
      option_variants
  in
  List.iteri
    (fun i (ni, si) ->
      List.iteri
        (fun j (nj, sj) ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "config strings differ: %s vs %s" ni nj)
              false (si = sj))
        strings)
    strings

let test_persist_invalidation () =
  let k = kernel "fir" in
  let dir = fresh_dir () in
  let cfg_of opts =
    Persist.config_string ~backend:Backend.default.Backend.name profile opts
  in
  let ctx = Design.context ~profile k in
  ignore (Design.evaluate ctx (Design.base_config ctx [ ("i", 2) ]));
  ignore (Design.evaluate ctx (Design.base_config ctx [ ("i", 4) ]));
  Persist.save_points ~cache_dir:dir
    ~config:(cfg_of Pipeline.default)
    ~kernel_key:(Persist.kernel_key k) ctx.Design.store;
  (* Same options: the points come back. *)
  let warm = Store.create () in
  let n_same =
    Persist.load_points ~cache_dir:dir
      ~config:(cfg_of Pipeline.default)
      ~kernel_key:(Persist.kernel_key k) warm
  in
  Alcotest.(check int) "same options reload the points" 2 n_same;
  (* Any flipped option: the store is cold. *)
  List.iter
    (fun (name, opts) ->
      if name <> "default" then begin
        let s = Store.create () in
        let n =
          Persist.load_points ~cache_dir:dir ~config:(cfg_of opts)
            ~kernel_key:(Persist.kernel_key k) s
        in
        Alcotest.(check int)
          (Printf.sprintf "store is cold under %s options" name)
          0 n
      end)
    option_variants;
  ignore (Persist.clear ~cache_dir:dir)

(* ------------------------------------------------------------------ *)
(* Random joint configurations over the random-kernel generator. The
   generated kernels are scalar-free perfect nests, so the only illegal
   configurations are tiles naming no loop — which must raise
   [Stage_error] when force-evaluated. The deterministic recurrence
   test below witnesses the other [Config_illegal] branch. *)

let gen_config_for (k : Ast.kernel) : Pipeline.config QCheck2.Gen.t =
  let open QCheck2.Gen in
  let spine = Loop_nest.spine k.Ast.k_body in
  let* vector = Helpers.gen_vector_for k in
  let* tile =
    let spine_tiles =
      List.map
        (fun (l : Ast.loop) ->
          let* t = int_range 2 (max 2 (Ast.loop_trip l)) in
          return (Some (l.Ast.index, t)))
        spine
    in
    oneof (return None :: return (Some ("zz", 4)) :: spine_tiles)
  in
  let* scalar_replace = bool in
  let* peel = bool in
  let* licm = bool in
  return { Pipeline.vector; tile; scalar_replace; peel; licm }

let gen_kernel_and_config : (Ast.kernel * Pipeline.config) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* k = Helpers.gen_kernel in
  let* c = gen_config_for k in
  return (k, c)

(* Force-evaluate a configuration through the raw pipeline (bypassing
   the context's normalization, which exists to repair exactly the
   spellings the pruner rejects) and compare against the source. *)
let force_outcome (k : Ast.kernel) (c : Pipeline.config) =
  let inputs = Helpers.inputs_for k in
  let reference = Eval.observables (Eval.run ~inputs k) in
  match
    Pipeline.apply (Pipeline.apply_config ~base:Pipeline.default c) k
  with
  | exception Pipeline.Stage_error _ -> `Raises
  | r ->
      if Eval.observables (Eval.run ~inputs r.Pipeline.kernel) = reference
      then `Clean
      else `Differs

let prune_soundness_prop (k, c) =
  match Check.Legality.config_verdict k c with
  | Check.Legality.Config_illegal _ -> (
      match force_outcome k c with
      | `Raises | `Differs -> true
      | `Clean ->
          QCheck2.Test.fail_reportf
            "illegal config %s evaluated cleanly on:@.%s"
            (Pipeline.config_to_string c)
            (Helpers.kernel_print k))
  | Check.Legality.Config_legal | Check.Legality.Config_redundant _ -> (
      (* Accepted configurations evaluate cleanly — through the real
         context path, under translation validation. *)
      let ctx = Design.context ~profile ~verify:true k in
      match Design.evaluate ctx c with
      | exception e ->
          QCheck2.Test.fail_reportf
            "accepted config %s raised %s on:@.%s"
            (Pipeline.config_to_string c) (Printexc.to_string e)
            (Helpers.kernel_print k)
      | _ ->
          let s = Design.stats_snapshot ctx in
          s.verify_violations = 0)

let test_prune_soundness =
  Helpers.qtest "joint legality pruning is sound" ~count:150
    gen_kernel_and_config prune_soundness_prop

(* A configuration canonicalized as redundant denotes the same design:
   the context normalizes both spellings to the same point. *)
let redundant_agrees_prop (k, c) =
  match Check.Legality.config_verdict k c with
  | Check.Legality.Config_redundant canonical ->
      let ctx = Design.context ~profile k in
      let p = Design.evaluate ctx c in
      let p' = Design.evaluate ctx canonical in
      if p.estimate = p'.estimate then true
      else
        QCheck2.Test.fail_reportf
          "redundant %s and canonical %s disagree (cycles %d vs %d) on:@.%s"
          (Pipeline.config_to_string c)
          (Pipeline.config_to_string canonical)
          p.estimate.Hls.Estimate.cycles
          p'.estimate.Hls.Estimate.cycles (Helpers.kernel_print k)
  | _ -> true

let test_redundant_agrees =
  Helpers.qtest "redundant spellings evaluate identically" ~count:150
    gen_kernel_and_config redundant_agrees_prop

(* ------------------------------------------------------------------ *)
(* Deterministic witness for the hazard branch of [Config_illegal]: the
   non-commutative scalar recurrence (dependence-blind, flow-graph
   caught). Jamming it really does change results, so the pruner is
   rejecting genuinely unsafe configurations, not hedging. *)

let recurrence_kernel =
  let mk_loop index trip body =
    { Ast.index; lo = 0; hi = trip; step = 1; body; l_span = None }
  in
  {
    Ast.k_name = "rec";
    k_arrays = [ Ast.array_decl "a" [ 4; 4 ]; Ast.array_decl "out" [ 1 ] ];
    k_scalars = [ Ast.scalar_decl "s" ];
    k_body =
      [
        Ast.Assign (Ast.Lvar "s", Ast.Int 0);
        Ast.For
          (mk_loop "i" 4
             [
               Ast.For
                 (mk_loop "j" 4
                    [
                      Ast.Assign
                        ( Ast.Lvar "s",
                          Ast.Bin
                            ( Ast.Add,
                              Ast.Bin (Ast.Mul, Ast.Var "s", Ast.Int 2),
                              Ast.Arr ("a", [ Ast.Var "i"; Ast.Var "j" ]) ) );
                    ]);
             ]);
        Ast.Assign (Ast.Larr ("out", [ Ast.Int 0 ]), Ast.Var "s");
      ];
  }

let test_hazard_witness () =
  let c =
    {
      Pipeline.vector = [ ("i", 2); ("j", 1) ];
      tile = None;
      scalar_replace = true;
      peel = false;
      licm = false;
    }
  in
  (match Check.Legality.config_verdict recurrence_kernel c with
  | Check.Legality.Config_illegal _ -> ()
  | _ -> Alcotest.fail "expected the jam of the recurrence to be illegal");
  (match force_outcome recurrence_kernel c with
  | `Differs -> ()
  | `Raises -> Alcotest.fail "expected changed results, not an exception"
  | `Clean -> Alcotest.fail "jamming the recurrence did not change results");
  (* The unroll-only spelling of the same vector is just as illegal:
     the verdict does not depend on the toggles. *)
  let c0 = { c with Pipeline.scalar_replace = false } in
  match Check.Legality.config_verdict recurrence_kernel c0 with
  | Check.Legality.Config_illegal _ -> ()
  | _ -> Alcotest.fail "toggles must not mask the jam hazard"

(* A tile index naming no loop raises [Stage_error] — the other
   [Config_illegal] branch. *)
let test_unknown_tile_raises () =
  let k = kernel "fir" in
  let c =
    {
      Pipeline.vector = [];
      tile = Some ("zz", 4);
      scalar_replace = true;
      peel = true;
      licm = true;
    }
  in
  (match Check.Legality.config_verdict k c with
  | Check.Legality.Config_illegal _ -> ()
  | _ -> Alcotest.fail "unknown tile index must be illegal");
  match force_outcome k c with
  | `Raises -> ()
  | _ -> Alcotest.fail "unknown tile index must raise Stage_error"

(* ------------------------------------------------------------------ *)
(* Tier-1 admissibility over the joint space, tiling included: the
   quick bounds never exceed the synthesized estimate for any accepted
   configuration. *)

let admissible_prop ((k, c), (pipelined, chaining)) =
  match Check.Legality.config_verdict k c with
  | Check.Legality.Config_illegal _ -> true
  | _ -> (
      let profile = Hls.Estimate.default_profile ~pipelined ~chaining () in
      let ctx = Design.context ~profile k in
      let p = Design.evaluate ctx c in
      match Design.quick ctx c with
      | None -> QCheck2.Test.fail_reportf "no quick bound for %s"
                  (Pipeline.config_to_string c)
      | Some q -> (
          match Helpers.bound_violation q p.estimate with
          | None -> true
          | Some pairs ->
              QCheck2.Test.fail_reportf
                "bound exceeds estimate for %s: %s on:@.%s"
                (Pipeline.config_to_string c) pairs (Helpers.kernel_print k)))

(* Either memory model, with or without operator chaining. *)
let gen_profile = QCheck2.Gen.(pair bool bool)

let test_admissible =
  Helpers.qtest "quick bounds admissible over the joint space" ~count:150
    (QCheck2.Gen.pair gen_kernel_and_config gen_profile)
    admissible_prop

(* The flow generator's scalars, guards, reductions and zero-trip loops
   are what the compute-path and traffic terms read. *)
let test_admissible_flow =
  Helpers.qtest "flow kernels: joint bounds admissible" ~count:150
    QCheck2.Gen.(
      pair
        (let* k = Helpers.gen_flow_kernel in
         let* c = gen_config_for k in
         return (k, c))
        gen_profile)
    admissible_prop

(* Every survivor of the joint space of every built-in and gallery
   kernel at unroll product 16, under both memory models, and of the
   paper's fir/mm/jac/sobel at product 64, pipelined: the exhaustive
   sweep evaluates each one, and its bounds must not exceed its
   estimate. *)
let all_kernels =
  List.map (fun n -> (n, kernel n)) Kernels.names
  @ List.map (fun n -> (n, Option.get (Gallery.find n))) Gallery.names

(* The verdict function computes its kernel-only analyses once; every
   verdict equals the per-configuration reference's. *)
let verdict_matches_reference name k configs =
  let verdict = Check.Legality.config_verdict k in
  List.iter
    (fun c ->
      if verdict c <> Reference.Legality.config_verdict k c then
        Alcotest.failf "%s %s: verdict differs from the reference" name
          (Pipeline.config_to_string c))
    configs

(* Every configuration the joint sweep enumerates at unroll product 64
   (all spine loops eligible), with a tile naming no loop added. *)
let enumerated_configs (k : Ast.kernel) =
  let ctx = Design.context ~profile k in
  let eligible =
    List.map (fun (l : Ast.loop) -> l.Ast.index) ctx.Design.env.spine
  in
  let tiles =
    Some ("zz", 4)
    :: Space.joint_tile_options ctx ~candidates:Space.default_tile_candidates
  in
  List.concat_map
    (fun tile ->
      List.concat_map
        (fun vector ->
          List.concat_map
            (fun scalar_replace ->
              List.concat_map
                (fun peel ->
                  List.map
                    (fun licm ->
                      { Pipeline.vector; tile; scalar_replace; peel; licm })
                    [ true; false ])
                [ true; false ])
            [ true; false ])
        (Dse.Util.divisor_vectors ~max_product:64 ctx ~eligible))
    tiles

let test_verdict_reference_builtins () =
  List.iter
    (fun (name, k) -> verdict_matches_reference name k (enumerated_configs k))
    (("rec", recurrence_kernel) :: all_kernels)

let test_verdict_reference_random =
  Helpers.qtest "verdict = reference (random kernels)" ~count:300
    gen_kernel_and_config (fun (k, c) ->
      verdict_matches_reference "random" k [ c ];
      true)

let check_joint_survivors name ~pipelined ~max_product k =
  let ctx =
    Design.context ~profile:(Hls.Estimate.default_profile ~pipelined ()) k
  in
  let j = joint_sweep ~max_product ~exhaustive_below:max_int ctx in
  List.iter
    (fun (jp : Design.point) ->
      match Design.quick ctx jp.config with
      | None -> Alcotest.failf "%s: no quick bound" name
      | Some q -> (
          match Helpers.bound_violation q jp.estimate with
          | None -> ()
          | Some pairs ->
              Alcotest.failf "%s %s product %d %s: %s" name
                (if pipelined then "pipelined" else "non-pipelined")
                max_product
                (Pipeline.config_to_string jp.config)
                pairs))
    j.Space.points

let test_admissible_builtins () =
  List.iter
    (fun (name, k) ->
      check_joint_survivors name ~pipelined:true ~max_product:16 k;
      check_joint_survivors name ~pipelined:false ~max_product:16 k)
    all_kernels;
  List.iter
    (fun name ->
      check_joint_survivors name ~pipelined:true ~max_product:64 (kernel name))
    [ "fir"; "mm"; "jac"; "sobel" ]

(* Shapes the bound must not over-count. Without scalar replacement,
   LICM hoists the two identical reads of [a[i]] out of the [j] loop
   into one temporary once [i] is fully unrolled; an accumulation whose
   term does not vary with its carrier adds the same value on each
   unrolled copy; a repeated term in a sum may cancel once its
   reads become registers; nothing under a zero-trip loop runs. *)
let shapes =
  [
    ( "hoisted duplicates",
      {|int a[8]; int s;
        for (i = 0; i < 3; i++)
          for (j = 0; j < 2; j++) { s = s + a[i]; s = s + a[i]; }|} );
    ( "invariant accumulation",
      {|int a[8]; int b[8]; int c[8];
        for (i = 0; i < 4; i++)
          for (j = 0; j < 4; j++) c[j] = c[j] + a[j] * b[j];|} );
    ( "cancelling sum",
      {|int a[16]; int b[16]; int c[16];
        for (i = 0; i < 8; i++)
          c[i] = ((a[i] + b[i]) - a[i]) - b[i];|} );
    ( "zero-trip loop",
      {|int a[8]; int c[8];
        for (i = 0; i < 0; i++) c[i] = c[i] + a[i] * a[i + 1];|} );
  ]

let test_admissible_shapes () =
  List.iter
    (fun (name, src) ->
      match Frontend.Parser.kernel_of_string_res ~name src with
      | Error msg -> Alcotest.failf "%s: %s" name msg
      | Ok k ->
          check_joint_survivors name ~pipelined:true ~max_product:16 k;
          check_joint_survivors name ~pipelined:false ~max_product:16 k)
    shapes

(* ------------------------------------------------------------------ *)
(* Configuration normalization. *)

let test_normalize () =
  let k = kernel "mm" in
  let ctx = Design.context ~profile k in
  let base = Design.base_config ctx [] in
  (* The tiled loop's unroll factor is forced to 1. *)
  let c =
    Design.normalize_config ctx
      { base with vector = [ ("i", 2) ]; tile = Some ("i", 4) }
  in
  Alcotest.(check (option int)) "tiled loop pinned to factor 1" (Some 1)
    (List.assoc_opt "i" c.vector);
  Alcotest.(check bool) "tile survives" true (c.tile = Some ("i", 4));
  (* A non-divisor tile request is clamped to the divisor the
     strip-mine would use. *)
  let trip = Ast.loop_trip (List.hd ctx.Design.env.spine) in
  let c2 =
    Design.normalize_config ctx { base with tile = Some ("i", trip - 1) }
  in
  (match c2.tile with
  | Some ("i", t) ->
      Alcotest.(check bool) "clamped to a proper divisor" true
        (t > 1 && t < trip && trip mod t = 0)
  | other ->
      Alcotest.failf "expected a clamped tile, got %s"
        (match other with
        | None -> "none"
        | Some (i, t) -> Printf.sprintf "%s:%d" i t));
  (* Degenerate tiles are dropped. *)
  let c3 = Design.normalize_config ctx { base with tile = Some ("i", 1) } in
  Alcotest.(check bool) "tile 1 dropped" true (c3.tile = None);
  let c4 =
    Design.normalize_config ctx { base with tile = Some ("i", trip) }
  in
  Alcotest.(check bool) "full-trip tile dropped" true (c4.tile = None)

(* A vector-only caller's spelling ([base_config] of a partial vector)
   and the configuration written out in full are one cache entry. *)
let test_vector_config_agree () =
  let k = kernel "fir" in
  let ctx = Design.context ~profile k in
  let p = Design.evaluate ctx (Design.base_config ctx [ ("i", 4) ]) in
  let before = Design.stats_snapshot ctx in
  let p' =
    Design.evaluate ctx
      {
        Pipeline.vector = [ ("j", 1); ("i", 4) ];
        tile = None;
        scalar_replace = true;
        peel = true;
        licm = true;
      }
  in
  let after = Design.stats_snapshot ctx in
  Alcotest.(check bool) "same estimate" true
    (p.estimate = p'.estimate);
  Alcotest.(check int) "no extra synthesis"
    before.evaluations after.evaluations

(* ------------------------------------------------------------------ *)
(* Warm replay across the configuration-keyed schema: persist points for
   non-base configurations (tile and toggles included), reload into a
   fresh store, and re-evaluate with zero syntheses. *)

let test_warm_replay_configs () =
  let k = kernel "mm" in
  let dir = fresh_dir () in
  let cfg =
    Persist.config_string ~backend:Backend.default.Backend.name profile
      Pipeline.default
  in
  let ctx = Design.context ~profile k in
  let base = Design.base_config ctx [] in
  let configs =
    [
      { base with vector = [ ("i", 2) ] };
      { base with vector = [ ("j", 2) ]; tile = Some ("k", 4) };
      { base with scalar_replace = false; peel = false };
      { base with licm = false; tile = Some ("k", 8) };
    ]
  in
  let cold = List.map (Design.evaluate ctx) configs in
  Persist.save_points ~cache_dir:dir ~config:cfg
    ~kernel_key:(Persist.kernel_key k) ctx.Design.store;
  let warm_store = Store.create () in
  let loaded =
    Persist.load_points ~cache_dir:dir ~config:cfg
      ~kernel_key:(Persist.kernel_key k) warm_store
  in
  Alcotest.(check bool) "all points reload" true
    (loaded >= List.length configs);
  let warm_ctx = Design.context ~profile ~store:warm_store k in
  let warm = List.map (Design.evaluate warm_ctx) configs in
  let s = Design.stats_snapshot warm_ctx in
  Alcotest.(check int) "zero syntheses on replay" 0 s.evaluations;
  List.iter2
    (fun (c : Design.point) (w : Design.point) ->
      Alcotest.(check bool) "warm estimate equals cold" true
        (c.estimate = w.estimate))
    cold warm;
  ignore (Persist.clear ~cache_dir:dir)

(* ------------------------------------------------------------------ *)
(* The joint sweep dominates the unroll-only sweep: its search space
   contains every unroll-only point, so its selection can never be
   worse, on any built-in kernel. At product 64 tiling and the toggles
   win outright on pipelined fir (472 vs 550 cycles) and mm (822 vs
   923); at product 16 they tie. *)

let test_joint_dominates () =
  let selections ~max_product name =
    let k = kernel name in
    let ctx = Design.context ~profile k in
    let sw = Space.sweep ~max_product ~jobs:1 ctx in
    let jctx = Design.context ~profile k in
    let j = joint_sweep ~max_product jctx in
    match (Space.best ctx sw, Space.best jctx j) with
    | Some u, Some jb -> (Design.cycles jb, Design.cycles u)
    | None, _ -> Alcotest.failf "%s: no unroll-only selection" name
    | _, None -> Alcotest.failf "%s: no joint selection" name
  in
  List.iter
    (fun name ->
      let jc, uc = selections ~max_product:16 name in
      Alcotest.(check bool)
        (Printf.sprintf "%s: joint (%d) <= unroll-only (%d)" name jc uc)
        true (jc <= uc))
    Kernels.names;
  List.iter
    (fun name ->
      let jc, uc = selections ~max_product:64 name in
      Alcotest.(check bool)
        (Printf.sprintf "%s @ 64: joint (%d) < unroll-only (%d)" name jc uc)
        true (jc < uc))
    [ "fir"; "mm" ]

(* The exhaustive and best-first joint sweeps agree on the selection,
   configuration and estimate, on every kernel under both memory
   models: the bound-guided prune is admissible. *)
let test_best_first_matches_exhaustive () =
  List.iter
    (fun (name, k) ->
      List.iter
        (fun pipelined ->
          let profile = Hls.Estimate.default_profile ~pipelined () in
          let cx = Design.context ~profile k in
          let ex =
            joint_sweep ~max_product:16 ~exhaustive_below:max_int cx
          in
          let cb = Design.context ~profile k in
          let bf = joint_sweep ~max_product:16 ~exhaustive_below:0 cb in
          match (Space.best cx ex, Space.best cb bf) with
          | Some a, Some b ->
              Alcotest.(check bool)
                (Printf.sprintf
                   "%s (%s): best-first selection matches exhaustive" name
                   (Hls.Memory_model.name profile.Hls.Estimate.mem))
                true
                (Design.config_equal a.config b.config
                && a.estimate = b.estimate)
          | None, None -> ()
          | _ ->
              Alcotest.failf "%s: sweeps disagree on having a selection" name)
        [ true; false ])
    all_kernels

(* ------------------------------------------------------------------ *)
(* Shared pipeline fronts: finishing a configuration from the front of
   its tile, vector and scalar-replacement setting gives the pipeline's
   own result, plain and under translation validation. *)

(* The four configurations that share [c]'s front: its peel and LICM
   toggles in every combination. *)
let siblings (c : Pipeline.config) =
  List.map
    (fun (peel, licm) -> { c with Pipeline.peel; licm })
    [ (true, true); (true, false); (false, true); (false, false) ]

let shared_front_prop (k, c, order) =
  let options c = Pipeline.apply_config ~base:Pipeline.default c in
  let o = options c in
  let outcome f = match f () with r -> Ok r | exception e -> Error e in
  let same a b =
    match (a, b) with
    | Ok a, Ok b -> a = b
    | Error a, Error b -> Printexc.to_string a = Printexc.to_string b
    | _ -> false
  in
  (* One front finishes all four siblings, in [order]: each equals its
     own unshared run, whichever siblings the front finished before. *)
  let front = outcome (fun () -> Pipeline.front o k) in
  let finished_alike c' =
    let shared =
      match front with
      | Ok front -> outcome (fun () -> Pipeline.apply ~front (options c') k)
      | Error e -> Error e
    in
    same (outcome (fun () -> Pipeline.apply (options c') k)) shared
  in
  let checked v =
    ( v.Check.Validate.result,
      List.map Check.Diag.render v.Check.Validate.diags )
  in
  let vplain = checked (Check.Validate.run ~options:o k) in
  let vshared =
    checked
      (Check.Validate.run ~options:o
         ~front:(Check.Validate.front ~options:o k)
         k)
  in
  if List.for_all finished_alike order && vplain = vshared then true
  else
    QCheck2.Test.fail_reportf
      "%s finishes differently from its front (siblings in order %s) on:@.%s"
      (Pipeline.config_to_string c)
      (String.concat ", " (List.map Pipeline.config_to_string order))
      (Helpers.kernel_print k)

let test_shared_front =
  Helpers.qtest "front + finish = apply" ~count:150
    QCheck2.Gen.(
      let* k = oneof [ Helpers.gen_kernel; Helpers.gen_flow_kernel ] in
      let* c = gen_config_for k in
      let* order = shuffle_l (siblings c) in
      return (k, c, order))
    shared_front_prop

(* The exhaustive joint sweep at product 16 of every built-in and
   gallery kernel under both memory models, each survivor paired with a
   fresh unshared pipeline run of its configuration: computed once for
   the tests that compare the two. *)
let builtin_sweeps =
  lazy
    (List.concat_map
       (fun (name, k) ->
         List.map
           (fun pipelined ->
             let profile = Hls.Estimate.default_profile ~pipelined () in
             let ctx = Design.context ~profile k in
             let j =
               joint_sweep ~max_product:16 ~exhaustive_below:max_int ctx
             in
             let fresh (jp : Design.point) =
               ( jp,
                 Pipeline.apply
                   (Pipeline.apply_config ~base:ctx.Design.env.pipeline
                      jp.config)
                   k )
             in
             ( name,
               (if pipelined then "pipelined" else "non-pipelined"),
               profile,
               ctx,
               List.map fresh j.Space.points ))
           [ true; false ])
       all_kernels)

(* Every joint survivor of every built-in and gallery kernel at product
   16, under both memory models: the point the sharing sweep stores
   carries the kernel and report of an unshared pipeline run, and the
   sweep built exactly one front per front key it synthesized. *)
let test_shared_front_builtins () =
  List.iter
    (fun (name, model, _, ctx, points) ->
      List.iter
        (fun ((jp : Design.point), (r : Pipeline.result)) ->
          if
            r.Pipeline.kernel <> jp.kernel
            || r.Pipeline.report <> jp.report
          then
            Alcotest.failf "%s %s: %s differs from the unshared pipeline" name
              model
              (Pipeline.config_to_string jp.config))
        points;
      let keys =
        List.sort_uniq compare
          (List.map
             (fun ((jp : Design.point), _) ->
               Backend.front_key jp.config)
             points)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: one front per key" name)
        (List.length keys) ctx.Design.store.stats.fronts)
    (Lazy.force builtin_sweeps)

(* Siblings finish once: the sharing sweep runs peel, LICM, simplify
   and the estimator once per distinct input within a front, yet every
   joint survivor of every built-in and gallery kernel at product 16,
   under both memory models, carries the kernel (spans included) and
   the estimate of a fresh unshared pipeline run and estimator. On jac
   and sobel some siblings are served from another. *)
let test_siblings_finish_once () =
  let bytes (k : Ast.kernel) = Marshal.to_string k [ Marshal.No_sharing ] in
  List.iter
    (fun (name, model, profile, ctx, points) ->
      List.iter
        (fun ((jp : Design.point), (r : Pipeline.result)) ->
          if bytes r.Pipeline.kernel <> bytes jp.kernel then
            Alcotest.failf "%s %s: %s kernel differs from a fresh run" name
              model
              (Pipeline.config_to_string jp.config);
          if
            Hls.Estimate.estimate profile r.Pipeline.kernel
            <> jp.estimate
          then
            Alcotest.failf "%s %s: %s estimate differs from a fresh run" name
              model
              (Pipeline.config_to_string jp.config))
        points;
      if List.mem name [ "jac"; "sobel" ] then
        Alcotest.(check bool)
          (Printf.sprintf "%s %s: some siblings reused" name model)
          true
          (ctx.Design.store.stats.reused > 0))
    (Lazy.force builtin_sweeps)

(* The finishing memo lives only in the joint sweep's shared fronts: an
   unroll-only sweep of every built-in and gallery kernel and an explore
   session reuse nothing. *)
let test_no_reuse_unshared () =
  List.iter
    (fun (name, k) ->
      let ctx = Design.context ~profile k in
      ignore (Space.sweep ~max_product:16 ~jobs:1 ctx);
      Alcotest.(check int)
        (name ^ ": unroll-only sweep reuses nothing")
        0 ctx.Design.store.stats.reused)
    all_kernels;
  let summary =
    Dse.Driver.run_many ~profile
      (List.map
         (fun name -> { Dse.Driver.name; kernel = kernel name })
         [ "fir"; "jac" ])
  in
  Alcotest.(check int)
    "explore session reuses nothing" 0 (Dse.Driver.total summary).reused

(* The validator's findings from a shared front equal those of a full
   validated run, for every configuration an exhaustive joint sweep
   keeps, on every built-in and gallery kernel at product 4 and on jac
   and sobel at product 64 (histogram's data-dependent subscripts make
   the front stages report a skipped array, which the stages after it
   must not report again). Jac and sobel are also validated under a
   point budget of 1000, which the front kernels fit and some peeled
   kernels exceed, so finishing transitions report skips of their own.
   Each front finishes its configurations twice, the second pass
   entirely from its memo of validated transitions, and the fronts are
   built again to finish them in reverse order. *)
let test_validated_front_builtins () =
  let sweeps =
    List.map (fun (name, k) -> (name, k, 4, None)) all_kernels
    @ List.concat_map
        (fun name ->
          [ (name, kernel name, 64, None); (name, kernel name, 64, Some 1000) ])
        [ "jac"; "sobel" ]
  in
  List.iter
    (fun (name, k, max_product, max_points) ->
      let ctx = Design.context ~profile k in
      let j = joint_sweep ~max_product ~exhaustive_below:max_int ctx in
      let view (o : Check.Validate.outcome) =
        ( o.Check.Validate.result,
          List.map Check.Diag.render o.Check.Validate.diags )
      in
      let runs =
        List.map
          (fun (jp : Design.point) ->
            let options =
              Pipeline.apply_config ~base:ctx.Design.env.pipeline jp.config
            in
            ( jp.config,
              options,
              view (Check.Validate.run ~options ?max_points k) ))
          j.Space.points
      in
      let finish_twice order =
        let fronts = Hashtbl.create 16 in
        for pass = 1 to 2 do
          List.iter
            (fun (c, options, fresh) ->
              let key = Backend.front_key c in
              let front =
                match Hashtbl.find_opt fronts key with
                | Some f -> f
                | None ->
                    let f = Check.Validate.front ~options ?max_points k in
                    Hashtbl.replace fronts key f;
                    f
              in
              if
                view (Check.Validate.run ~options ?max_points ~front k)
                <> fresh
              then
                Alcotest.failf
                  "%s %s: validated front differs from a full run (pass %d)"
                  name
                  (Pipeline.config_to_string c)
                  pass)
            order
        done
      in
      finish_twice runs;
      finish_twice (List.rev runs))
    sweeps

(* A front answers for one tile, vector and scalar-replacement setting;
   finishing other options from it is a caller error. *)
let test_front_key_mismatch () =
  let k = kernel "fir" in
  let base = Pipeline.apply_config ~base:Pipeline.default in
  let c =
    {
      Pipeline.vector = [ ("j", 2); ("i", 1) ];
      tile = None;
      scalar_replace = true;
      peel = true;
      licm = true;
    }
  in
  let front = Pipeline.front (base c) k in
  List.iter
    (fun (what, c') ->
      Alcotest.check_raises what
        (Invalid_argument
           "Transform.Pipeline.apply: the front was built for another tile, \
            vector or scalar-replacement setting")
        (fun () -> ignore (Pipeline.apply ~front (base c') k)))
    [
      ("other vector", { c with vector = [ ("j", 4); ("i", 1) ] });
      ("other tile", { c with tile = Some ("i", 4) });
      ("replacement off", { c with scalar_replace = false });
    ];
  (* The toggles after the front are free. *)
  let c' = { c with peel = false; licm = false } in
  Alcotest.(check bool)
    "peel and LICM toggles finish from the front" true
    (Pipeline.apply ~front (base c') k = Pipeline.apply (base c') k)

(* A verified joint sweep shares fronts through the same path: it
   stores the unverified sweep's points and checks each one. A verified
   sibling finishes through the front's memo like a plain one, so one
   whose toggles changed nothing gets a sibling's kernel back and
   reuses that sibling's estimate. *)
let test_verified_reuses_estimates () =
  let k = kernel "jac" in
  let plain = Design.context ~profile k in
  let verified = Design.context ~profile ~verify:true k in
  let jp = joint_sweep ~max_product:64 plain in
  let jv = joint_sweep ~max_product:64 verified in
  let view (j : Space.t) =
    List.map
      (fun (p : Design.point) ->
        (p.config, p.estimate, p.kernel, p.report))
      j.Space.points
  in
  Alcotest.(check bool) "verified sweep stores the same points" true (view jp = view jv);
  let s = verified.Design.store.stats in
  Alcotest.(check int) "every synthesis checked" s.evaluations s.checked_points;
  Alcotest.(check int) "no violation" 0 s.verify_violations;
  Alcotest.(check bool) "verified siblings reuse estimates" true (s.reused > 0)

let test_verified_shares_fronts () =
  List.iter
    (fun name ->
      let k = kernel name in
      let plain = Design.context ~profile k in
      let verified = Design.context ~profile ~verify:true k in
      let jp = joint_sweep ~max_product:16 plain in
      let jv = joint_sweep ~max_product:16 verified in
      let view (j : Space.t) =
        List.map
          (fun (p : Design.point) ->
            ( p.config,
              p.estimate,
              p.kernel,
              p.report ))
          j.Space.points
      in
      Alcotest.(check bool)
        (name ^ ": verified sweep stores the same points")
        true
        (view jp = view jv);
      let s = verified.Design.store.stats in
      Alcotest.(check int)
        (name ^ ": every evaluated point checked")
        (List.length jv.Space.points) s.checked_points;
      Alcotest.(check int)
        (name ^ ": every synthesis checked")
        s.evaluations s.checked_points;
      Alcotest.(check int) (name ^ ": no violation") 0 s.verify_violations;
      Alcotest.(check int)
        (name ^ ": fronts shared as in the unverified sweep")
        plain.Design.store.stats.fronts s.fronts;
      (* The finishing memo skips no observation: [observe] sees peel
         (where it applies), LICM (where on) and simplify for every
         configuration, and once a front has finished every sibling, a
         second pass reports each transition with the very pair the
         first pass reported for it. *)
      let options c = Pipeline.apply_config ~base:verified.Design.env.pipeline c in
      let fronts = Hashtbl.create 16 in
      let front_of (c : Pipeline.config) =
        let key = Backend.front_key c in
        match Hashtbl.find_opt fronts key with
        | Some f -> f
        | None ->
            let f = Pipeline.front (options c) k in
            Hashtbl.replace fronts key f;
            f
      in
      let observed (p : Design.point) =
        let c = p.config in
        let seen = ref [] in
        let r =
          Pipeline.apply
            ~observe:(fun stage ~before ~after ->
              seen := (stage, before, after) :: !seen)
            ~front:(front_of c) (options c) k
        in
        let report = r.Pipeline.report in
        let peels =
          c.Pipeline.peel
          && (report.Transform.Scalar_replace.innermost_peels > 0
             || report.Transform.Scalar_replace.carriers <> [])
        in
        let want =
          (if peels then [ Pipeline.Peel ] else [])
          @ (if c.Pipeline.licm then [ Pipeline.Licm ] else [])
          @ [ Pipeline.Simplify ]
        in
        let seen = List.rev !seen in
        let stages = List.map (fun (stage, _, _) -> stage) seen in
        if stages <> want then
          Alcotest.failf "%s: %s observed %s" name
            (Pipeline.config_to_string c)
            (String.concat ", " (List.map Pipeline.stage_name stages));
        seen
      in
      let first = List.map observed jv.Space.points in
      List.iter2
        (fun (p : Design.point) pairs ->
          if
            not
              (List.for_all2
                 (fun (_, b, a) (_, b', a') -> b == b' && a == a')
                 pairs (observed p))
          then
            Alcotest.failf "%s: %s recalled another pair on a second pass"
              name
              (Pipeline.config_to_string p.config))
        jv.Space.points first)
    [ "fir"; "jac" ]

let () =
  Alcotest.run "joint"
    [
      ( "persist",
        [
          Alcotest.test_case "config strings pairwise distinct" `Quick
            test_config_string_distinct;
          Alcotest.test_case "option flip invalidates the store" `Quick
            test_persist_invalidation;
          Alcotest.test_case "warm replay of joint configs" `Quick
            test_warm_replay_configs;
        ] );
      ( "legality",
        [
          test_prune_soundness;
          test_redundant_agrees;
          Alcotest.test_case "recurrence jam hazard witness" `Quick
            test_hazard_witness;
          Alcotest.test_case "unknown tile index raises" `Quick
            test_unknown_tile_raises;
          Alcotest.test_case "verdict = reference (built-in configurations)"
            `Quick test_verdict_reference_builtins;
          test_verdict_reference_random;
        ] );
      ( "bounds",
        [
          test_admissible;
          test_admissible_flow;
          Alcotest.test_case "every built-in survivor admissible" `Quick
            test_admissible_builtins;
          Alcotest.test_case "hand-written shapes admissible" `Quick
            test_admissible_shapes;
          Alcotest.test_case "best-first matches exhaustive" `Quick
            test_best_first_matches_exhaustive;
        ] );
      ( "configs",
        [
          Alcotest.test_case "normalization" `Quick test_normalize;
          Alcotest.test_case "vector API agrees with base config" `Quick
            test_vector_config_agree;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "joint dominates unroll-only" `Quick
            test_joint_dominates;
        ] );
      ( "fronts",
        [
          test_shared_front;
          Alcotest.test_case "every built-in survivor" `Quick
            test_shared_front_builtins;
          Alcotest.test_case "siblings finish once" `Quick
            test_siblings_finish_once;
          Alcotest.test_case "no reuse outside shared fronts" `Quick
            test_no_reuse_unshared;
          Alcotest.test_case "validated front = full run" `Quick
            test_validated_front_builtins;
          Alcotest.test_case "front for another key raises" `Quick
            test_front_key_mismatch;
          Alcotest.test_case "verified sweep shares fronts" `Quick
            test_verified_shares_fronts;
          Alcotest.test_case "verified siblings reuse" `Quick
            test_verified_reuses_estimates;
        ] );
    ]
