(** Content-addressed scheduling tests: the DFG fingerprint must be
    invariant under scalar/array renaming and constant shifts (so
    iteration-shifted unroll copies collide) while separating blocks
    that schedule differently, and the tri-schedule memo keyed on it
    must be exact — estimates with and without the memo agree
    field-for-field on random kernels, every gallery kernel and full
    divisor lattices, and the simulated datapath is untouched. *)

open Ir
module B = Builder
module Design = Dse.Design
module Space = Dse.Space

(* ------------------------------------------------------------------ *)
(* Fingerprint invariance / separation on hand-built blocks *)

let fp_of (k : Ast.kernel) : string =
  let accesses = Analysis.Access.collect k.Ast.k_body in
  let cursor = Hls.Dfg.cursor_of accesses in
  let mem_of (a : Analysis.Access.t) = a.Analysis.Access.id mod 4 in
  let g = Hls.Dfg.of_block ~kernel:k ~mem_of ~cursor k.Ast.k_body in
  Hls.Dfg.fingerprint g

(** A saxpy-shaped straight-line block, parameterized by every name and
    by the (constant) element index — a renamed or index-shifted
    instance is exactly what unrolling produces. *)
let saxpy ?(elem = Dtype.int16) ~a ~x ~y ~s off =
  B.kernel "blk"
    ~arrays:[ Ast.array_decl ~elem x [ 16 ]; Ast.array_decl ~elem y [ 16 ] ]
    ~scalars:[ Ast.scalar_decl a; Ast.scalar_decl s ]
    [
      B.set s B.((var a * arr1 x (int off)) + arr1 y (int off));
      B.store1 y (B.int off) (B.var s);
    ]

let test_fingerprint_collides () =
  Alcotest.(check string) "renamed scalars and arrays collide"
    (fp_of (saxpy ~a:"a" ~x:"x" ~y:"y" ~s:"s" 0))
    (fp_of (saxpy ~a:"alpha" ~x:"xs" ~y:"ys" ~s:"acc" 0));
  Alcotest.(check string) "iteration-shifted constants collide"
    (fp_of (saxpy ~a:"a" ~x:"x" ~y:"y" ~s:"s" 0))
    (fp_of (saxpy ~a:"a" ~x:"x" ~y:"y" ~s:"s" 3))

let test_fingerprint_separates () =
  let base = fp_of (saxpy ~a:"a" ~x:"x" ~y:"y" ~s:"s" 0) in
  (* different operator class: x[0] + y[0] instead of a * x[0] + y[0] *)
  let add_only =
    B.kernel "blk"
      ~arrays:
        [
          Ast.array_decl ~elem:Dtype.int16 "x" [ 16 ];
          Ast.array_decl ~elem:Dtype.int16 "y" [ 16 ];
        ]
      ~scalars:[ Ast.scalar_decl "a"; Ast.scalar_decl "s" ]
      [
        B.set "s" B.(arr1 "x" (int 0) + arr1 "y" (int 0));
        B.store1 "y" (B.int 0) (B.var "s");
      ]
  in
  Alcotest.(check bool) "different operator class separates" false
    (base = fp_of add_only);
  (* different operand width *)
  Alcotest.(check bool) "different element width separates" false
    (base = fp_of (saxpy ~elem:Dtype.int32 ~a:"a" ~x:"x" ~y:"y" ~s:"s" 0));
  (* extra statement *)
  let wider =
    B.kernel "blk"
      ~arrays:
        [
          Ast.array_decl ~elem:Dtype.int16 "x" [ 16 ];
          Ast.array_decl ~elem:Dtype.int16 "y" [ 16 ];
        ]
      ~scalars:[ Ast.scalar_decl "a"; Ast.scalar_decl "s" ]
      [
        B.set "s" B.((var "a" * arr1 "x" (int 0)) + arr1 "y" (int 0));
        B.store1 "y" (B.int 0) (B.var "s");
        B.store1 "x" (B.int 1) (B.var "s");
      ]
  in
  Alcotest.(check bool) "extra store separates" false (base = fp_of wider);
  (* operator width alone: a scalar product, no memory access *)
  let product elem =
    B.kernel "blk"
      ~scalars:
        [ Ast.scalar_decl ~elem "a"; Ast.scalar_decl ~elem "b"; Ast.scalar_decl ~elem "s" ]
      [ B.set "s" B.(var "a" * var "b") ]
  in
  Alcotest.(check bool) "different operator width separates" false
    (fp_of (product Dtype.int16) = fp_of (product Dtype.int32))

(* Every block the estimator builds for [k] under [profile], in its
   order: the maximal straight-line chunks of each statement list, loop
   bodies included. Each pair is the block's fingerprint and its former
   decimal encoding. *)
let block_fingerprints (profile : Hls.Estimate.profile) (k : Ast.kernel) =
  let accesses = Analysis.Access.collect k.Ast.k_body in
  let layout =
    Data_layout.Layout.assign
      ~num_memories:profile.Hls.Estimate.device.Hls.Device.num_memories k accesses
  in
  let build =
    Hls.Dfg.block_builder ~scratch:(Hls.Dfg.scratch ()) ~kernel:k
      ~mem_of:(Data_layout.Layout.memory_of layout)
      ~cursor:(Hls.Dfg.cursor_of accesses)
  in
  let out = ref [] in
  let rec walk body =
    let flush chunk =
      match List.rev chunk with
      | [] -> ()
      | stmts ->
          let g = build stmts in
          out := (Hls.Dfg.fingerprint g, Reference.Fingerprint.decimal (Hls.Dfg.nodes g)) :: !out
    in
    let rec go chunk = function
      | [] -> flush chunk
      | Ast.For l :: rest ->
          flush chunk;
          walk l.Ast.body;
          go [] rest
      | s :: rest -> go (s :: chunk) rest
    in
    go [] body
  in
  walk k.Ast.k_body;
  List.rev !out

(* Two blocks share a fingerprint exactly when they share the decimal
   one, over every block of every built-in and gallery kernel's
   product-64 sweep under both memory models: the memo collides where
   it always did. *)
let test_fingerprint_matches_reference () =
  let fwd = Hashtbl.create 4096 and bwd = Hashtbl.create 4096 in
  let blocks = ref 0 in
  let agree tbl key value what =
    match Hashtbl.find_opt tbl key with
    | None -> Hashtbl.replace tbl key value
    | Some v ->
        if v <> value then Alcotest.failf "two blocks share a %s fingerprint only" what
  in
  List.iter
    (fun pipelined ->
      let profile = Hls.Estimate.default_profile ~pipelined () in
      List.iter
        (fun k ->
          let ctx = Design.context ~profile k in
          let eligible = List.map (fun (l : Ast.loop) -> l.Ast.index) ctx.Design.env.spine in
          List.iter
            (fun vector ->
              let r =
                Transform.Pipeline.apply { Transform.Pipeline.default with vector } k
              in
              List.iter
                (fun (fp, decimal) ->
                  incr blocks;
                  agree fwd fp decimal "new";
                  agree bwd decimal fp "decimal")
                (block_fingerprints profile r.Transform.Pipeline.kernel))
            (Dse.Util.divisor_vectors ~max_product:64 ctx ~eligible))
        (List.map (fun n -> Option.get (Kernels.find n)) Kernels.names
        @ List.map (fun n -> Option.get (Gallery.find n)) Gallery.names))
    [ true; false ];
  Alcotest.(check bool) "blocks were compared" true (!blocks > 0);
  Alcotest.(check int) "as many distinct fingerprints as decimal ones"
    (Hashtbl.length bwd) (Hashtbl.length fwd)

(* ------------------------------------------------------------------ *)
(* Exactness: memoized estimate = plain estimate, field for field *)

let estimates_identical (a : Hls.Estimate.t) (b : Hls.Estimate.t) =
  compare a b = 0

let prop_memo_exact_random =
  Helpers.qtest "memoized estimate = plain estimate (random kernels)"
    ~count:60
    QCheck2.Gen.(
      Helpers.gen_kernel >>= fun k ->
      Helpers.gen_vector_for k >>= fun v -> return (k, v))
    (fun (k, vector) ->
      let r = Transform.Pipeline.apply { Transform.Pipeline.default with vector } k in
      let tk = r.Transform.Pipeline.kernel in
      let profile = Hls.Estimate.default_profile () in
      let plain = Hls.Estimate.estimate profile tk in
      let memo = Hls.Schedule.memo_create () in
      let cold = Hls.Estimate.estimate ~sched_memo:memo profile tk in
      let warm = Hls.Estimate.estimate ~sched_memo:memo profile tk in
      estimates_identical plain cold && estimates_identical plain warm)

let test_memo_exact_gallery () =
  List.iter
    (fun pipelined ->
      List.iter
        (fun name ->
          let k = Option.get (Kernels.find name) in
          let profile = Hls.Estimate.default_profile ~pipelined () in
          (* one memo across all vectors of the kernel: later points hit
             entries populated by earlier ones, which is the production
             access pattern *)
          let memo = Hls.Schedule.memo_create () in
          List.iter
            (fun vector ->
              let r =
                Transform.Pipeline.apply
                  { Transform.Pipeline.default with vector } k
              in
              let tk = r.Transform.Pipeline.kernel in
              let plain = Hls.Estimate.estimate profile tk in
              let memoized = Hls.Estimate.estimate ~sched_memo:memo profile tk in
              Alcotest.(check bool)
                (Printf.sprintf "%s %s pipelined=%b" name
                   (Helpers.vector_to_string vector) pipelined)
                true
                (estimates_identical plain memoized))
            [ []; [ ("i", 2) ]; [ ("j", 2) ]; [ ("i", 2); ("j", 2) ];
              [ ("i", 4); ("j", 4) ]; [ ("i", 3); ("j", 5) ] ])
        Kernels.names)
    [ true; false ]

let test_memo_exact_lattice () =
  List.iter
    (fun name ->
      let k = Option.get (Kernels.find name) in
      let profile = Hls.Estimate.default_profile () in
      let ctx = Design.context ~profile k in
      let sp = Space.sweep ~max_product:16 ~jobs:1 ctx in
      (* block shapes repeat across these kernels' lattices even at a
         small product bound; deeper nests only share shapes at larger
         products, which the bench covers *)
      if List.mem name [ "fir"; "mm"; "pat" ] then
        Alcotest.(check bool)
          (name ^ ": the sweep hit the scheduler memo")
          true
          (ctx.Design.store.stats.sched_memo_hits > 0);
      List.iter
        (fun (pt : Design.point) ->
          let plain = Hls.Estimate.estimate ctx.Design.env.profile pt.kernel in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s" name (Helpers.vector_to_string pt.vector))
            true
            (estimates_identical plain pt.estimate))
        sp.Space.points)
    Kernels.names

let test_warm_run_served_from_memo () =
  let k = Option.get (Kernels.find "fir") in
  let profile = Hls.Estimate.default_profile () in
  let r =
    Transform.Pipeline.apply
      { Transform.Pipeline.default with vector = [ ("i", 4); ("j", 4) ] }
      k
  in
  let tk = r.Transform.Pipeline.kernel in
  let memo = Hls.Schedule.memo_create () in
  let cold = Hls.Estimate.fresh_timers () in
  ignore (Hls.Estimate.estimate ~sched_memo:memo ~timers:cold profile tk);
  let shapes = Hls.Schedule.memo_size memo in
  Alcotest.(check bool) "cold run memoized some shapes" true (shapes > 0);
  ignore cold;
  let warm = Hls.Estimate.fresh_timers () in
  ignore (Hls.Estimate.estimate ~sched_memo:memo ~timers:warm profile tk);
  Alcotest.(check int) "warm run adds no shapes" shapes
    (Hls.Schedule.memo_size memo);
  Alcotest.(check bool) "warm run schedules nothing fresh" true
    (warm.Hls.Estimate.sched_memo_hits >= shapes)

(* ------------------------------------------------------------------ *)
(* The simulated datapath is independent of the memo *)

let test_sim_unchanged_under_memo () =
  List.iter
    (fun name ->
      let k = Option.get (Kernels.find name) in
      let profile = Hls.Estimate.default_profile () in
      let ctx = Design.context ~profile k in
      let inputs = Kernels.test_inputs k in
      let reference = Eval.observables (Eval.run ~inputs k) in
      List.iter
        (fun vector ->
          (* evaluate through the context, so the estimate comes out of
             the shared fingerprint memo *)
          let pt = Design.evaluate ctx (Design.base_config ctx vector) in
          let sim = Hls.Sim.run ~inputs profile pt.kernel in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s values" name (Helpers.vector_to_string vector))
            true
            (List.for_all
               (fun (arr, data) ->
                 List.assoc_opt arr sim.Hls.Sim.arrays = Some data)
               reference);
          Alcotest.(check int)
            (Printf.sprintf "%s %s cycles" name (Helpers.vector_to_string vector))
            pt.estimate.Hls.Estimate.cycles sim.Hls.Sim.cycles)
        [ []; [ ("i", 2) ]; [ ("i", 2); ("j", 2) ]; [ ("i", 4); ("j", 4) ] ])
    Kernels.names

let () =
  Alcotest.run "fingerprint"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "renaming and shifts collide" `Quick
            test_fingerprint_collides;
          Alcotest.test_case "structural differences separate" `Quick
            test_fingerprint_separates;
          Alcotest.test_case "same collisions as decimal" `Quick
            test_fingerprint_matches_reference;
        ] );
      ( "memo-exactness",
        [
          prop_memo_exact_random;
          Alcotest.test_case "every gallery kernel" `Quick test_memo_exact_gallery;
          Alcotest.test_case "full divisor lattices" `Quick test_memo_exact_lattice;
          Alcotest.test_case "warm run served from the memo" `Quick
            test_warm_run_served_from_memo;
        ] );
      ( "sim",
        [
          Alcotest.test_case "datapath unchanged under memoization" `Quick
            test_sim_unchanged_under_memo;
        ] );
    ]
