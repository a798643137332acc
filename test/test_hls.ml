(** Behavioral-synthesis estimator tests: DFG construction, the ASAP
    scheduler's resource discipline, the balance observations of
    Section 5.2 on the real kernels, and the P&R degradation model. *)

open Ir
module B = Builder
module Dfg = Hls.Dfg
module Schedule = Hls.Schedule
module Estimate = Hls.Estimate

let profile ?(pipelined = true) () = Estimate.default_profile ~pipelined ()

let sched_profile ?(pipelined = true) () =
  let p = profile ~pipelined () in
  { Schedule.device = p.Estimate.device; mem = p.Estimate.mem; chaining = false }

let estimate ?(pipelined = true) name vector =
  let k = Option.get (Kernels.find name) in
  let r = Transform.Pipeline.apply { Transform.Pipeline.default with vector } k in
  Estimate.estimate (profile ~pipelined ()) r.Transform.Pipeline.kernel

(* A block whose accesses are controlled precisely: [n] loads spread over
   the given memory ids. *)
let block_of_loads mems =
  let arrays = [ Ast.array_decl "a" [ 64 ]; Ast.array_decl "o" [ 64 ] ] in
  let stmts =
    List.mapi (fun idx _ -> B.store1 "o" (B.int idx) (B.arr1 "a" (B.int idx))) mems
  in
  let kernel = B.kernel "t" ~arrays stmts in
  let accesses = Analysis.Access.collect kernel.Ast.k_body in
  let reads = List.filter Analysis.Access.is_read accesses in
  let mem_tbl =
    List.map2 (fun (a : Analysis.Access.t) m -> (a.id, m)) reads mems
  in
  (* writes spread round-robin so the loads under test stay the bottleneck *)
  let writes = List.filter Analysis.Access.is_write accesses in
  let w_tbl =
    List.mapi (fun idx (a : Analysis.Access.t) -> (a.id, idx mod 4)) writes
  in
  let mem_of (a : Analysis.Access.t) =
    match List.assoc_opt a.id mem_tbl with
    | Some m -> m
    | None -> Option.value ~default:0 (List.assoc_opt a.id w_tbl)
  in
  let cursor = Dfg.cursor_of accesses in
  (kernel, Dfg.of_block ~kernel ~mem_of ~cursor stmts)

(* ------------------------------------------------------------------ *)
(* DFG *)

let test_dfg_counts () =
  let k = Option.get (Kernels.find "fir") in
  let accesses = Analysis.Access.collect k.Ast.k_body in
  let cursor = Dfg.cursor_of accesses in
  let inner =
    match Loop_nest.perfect_nest k.Ast.k_body with _, body -> body
  in
  let g = Dfg.of_block ~kernel:k ~mem_of:(fun _ -> 0) ~cursor inner in
  Alcotest.(check int) "3 loads" 3 (Dfg.n_loads g);
  Alcotest.(check int) "1 store" 1 (Dfg.n_stores g)

let test_dfg_cursor_desync () =
  let k = Option.get (Kernels.find "fir") in
  let cursor = Dfg.cursor_of [] in
  let inner = match Loop_nest.perfect_nest k.Ast.k_body with _, b -> b in
  Alcotest.(check bool) "desync detected" true
    (try
       ignore (Dfg.of_block ~kernel:k ~mem_of:(fun _ -> 0) ~cursor inner);
       false
     with Dfg.Desync _ -> true)

let test_dfg_strength_reduction () =
  (* x * 8 must classify as a free constant shift, not a multiplier. *)
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "o" [ 4 ] ] ~scalars:[ Ast.scalar_decl "x" ]
      [ B.store1 "o" (B.int 0) B.(var "x" * B.int 8) ]
  in
  let accesses = Analysis.Access.collect k.Ast.k_body in
  let cursor = Dfg.cursor_of accesses in
  let g = Dfg.of_block ~kernel:k ~mem_of:(fun _ -> 0) ~cursor k.Ast.k_body in
  let has_mul =
    Array.exists
      (fun (n : Dfg.node) ->
        match n.kind with Dfg.Op { cls = Hls.Op_model.Mul; _ } -> true | _ -> false)
      (Dfg.nodes g)
  in
  Alcotest.(check bool) "no multiplier allocated" false has_mul

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let test_port_exclusivity () =
  (* 4 loads on one memory need 4 cycles pipelined; spread over 4
     memories they need 1 issue cycle (plus latency). *)
  let _, g1 = block_of_loads [ 0; 0; 0; 0 ] in
  let _, g4 = block_of_loads [ 0; 1; 2; 3 ] in
  let p = sched_profile () in
  let r1 = Schedule.run ~mode:`Mem_only p g1 in
  let r4 = Schedule.run ~mode:`Mem_only p g4 in
  Alcotest.(check bool) "serialized slower" true
    (r1.Schedule.cycles > r4.Schedule.cycles)

let test_non_pipelined_occupancy () =
  let _, g = block_of_loads [ 0; 0 ] in
  let rp = Schedule.run ~mode:`Mem_only (sched_profile ~pipelined:true ()) g in
  let rn = Schedule.run ~mode:`Mem_only (sched_profile ~pipelined:false ()) g in
  (* non-pipelined reads occupy the port for 7 cycles each *)
  Alcotest.(check bool) "occupancy respected" true
    (rn.Schedule.cycles >= (2 * 7) && rp.Schedule.cycles <= 4)

let test_modes_bound_joint () =
  (* The joint schedule can never beat either relaxed schedule. *)
  List.iter
    (fun name ->
      let e = estimate name [ ("j", 2); ("i", 2) ] in
      Alcotest.(check bool) (name ^ " mem <= joint") true
        (e.Estimate.mem_only_cycles <= e.Estimate.cycles);
      Alcotest.(check bool) (name ^ " comp <= joint") true
        (e.Estimate.comp_only_cycles <= e.Estimate.cycles))
    Kernels.names

let test_bits_moved () =
  let _, g = block_of_loads [ 0; 1 ] in
  let r = Schedule.run (sched_profile ()) g in
  (* 2 loads of int32 + 2 stores of int32 *)
  Alcotest.(check int) "bits counted" (4 * 32) r.Schedule.bits_moved

(* ------------------------------------------------------------------ *)
(* Estimates on the paper kernels *)

let test_cycles_decrease_with_unroll () =
  List.iter
    (fun name ->
      let base = estimate name [] in
      let unrolled = estimate name [ ("i", 2); ("j", 2) ] in
      Alcotest.(check bool)
        (name ^ " unrolling reduces cycles")
        true
        (unrolled.Estimate.cycles < base.Estimate.cycles))
    Kernels.names

let test_area_increases_with_unroll () =
  List.iter
    (fun name ->
      let small = estimate name [ ("i", 2); ("j", 2) ] in
      let big = estimate name [ ("i", 2); ("j", 2); ("k", 2) ] in
      ignore big;
      let bigger =
        match name with
        | "fir" -> estimate name [ ("j", 8); ("i", 8) ]
        | "mm" -> estimate name [ ("i", 8); ("j", 4) ]
        | "pat" -> estimate name [ ("j", 7); ("i", 8) ]
        | _ -> estimate name [ ("i", 6); ("j", 6) ]
      in
      Alcotest.(check bool)
        (name ^ " more unrolling, more slices")
        true
        (bigger.Estimate.slices > small.Estimate.slices))
    Kernels.names

let test_non_pipelined_slower () =
  List.iter
    (fun name ->
      let p = estimate ~pipelined:true name [ ("i", 2); ("j", 2) ] in
      let n = estimate ~pipelined:false name [ ("i", 2); ("j", 2) ] in
      Alcotest.(check bool) (name ^ " non-pipelined slower") true
        (n.Estimate.cycles > p.Estimate.cycles);
      Alcotest.(check bool) (name ^ " non-pipelined lower balance") true
        (n.Estimate.balance < p.Estimate.balance))
    Kernels.names

let test_fir_non_pipelined_memory_bound () =
  (* Figure 4: non-pipelined FIR is memory bound at every design point. *)
  List.iter
    (fun v ->
      let e = estimate ~pipelined:false "fir" v in
      Alcotest.(check bool)
        ("memory bound at " ^ Helpers.vector_to_string v)
        true
        (e.Estimate.balance < 1.0))
    [ []; [ ("j", 2) ]; [ ("j", 4) ]; [ ("j", 4); ("i", 4) ]; [ ("j", 8); ("i", 8) ] ]

let test_balance_rises_then_falls () =
  (* Observation 3 along the saturation direction for pipelined FIR:
     balance is maximal near the saturation point. *)
  let b v = (estimate "fir" v).Estimate.balance in
  let baseline = b [] in
  let sat = b [ ("j", 4) ] in
  let far = b [ ("j", 16); ("i", 8) ] in
  Alcotest.(check bool) "baseline is compute bound" true (baseline > 1.0);
  Alcotest.(check bool) "balance falls beyond saturation" true (far < sat || far < 1.0)

let test_operator_sharing () =
  (* Peeling duplicates code but synthesis reuses operators: the
     multiplier count must not double. *)
  let e = estimate "fir" [ ("j", 2); ("i", 2) ] in
  let mults =
    List.fold_left
      (fun acc ((cls, _), n) -> if cls = Hls.Op_model.Mul then acc + n else acc)
      0 e.Estimate.usage
  in
  Alcotest.(check bool) "at most 4 multipliers for 4 MACs" true (mults <= 4)

let test_registers_counted () =
  let e = estimate "fir" [ ("j", 2); ("i", 2) ] in
  (* 2 C banks of 16 x 32 bits dominate *)
  Alcotest.(check bool) "register bits include the banks" true
    (e.Estimate.register_bits >= 2 * 16 * 32)

(* ------------------------------------------------------------------ *)
(* Scaling: the estimator's work is linear in the code it estimates *)

(* Minor words one [Estimate.estimate] allocates: no memo, and this
   domain only, so the count repeats exactly. *)
let estimate_words (k : Ast.kernel) =
  let p = profile () in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Estimate.estimate p k));
  Gc.minor_words () -. w0

let test_estimate_scaling_sobel () =
  let k = Lazy.force Helpers.sobel64 in
  ignore
    (Helpers.doublings_ok "sobel"
       (List.map
          (fun vector ->
            let r = Transform.Pipeline.apply { Transform.Pipeline.default with vector } k in
            (Helpers.vector_to_string vector, estimate_words r.Transform.Pipeline.kernel))
          [
            [ ("i", 2); ("j", 4) ];
            [ ("i", 4); ("j", 4) ];
            [ ("i", 4); ("j", 8) ];
            [ ("i", 8); ("j", 8) ];
          ]))

(* A generated nest with its innermost body repeated 8, 16, 32 and 64
   times: one straight-line block that doubles each time. *)
let prop_estimate_scaling_random =
  Helpers.qtest "minor words linear (nests)" ~count:30 Helpers.gen_kernel
    (fun k ->
      let rec repeat n = function
        | [ Ast.For l ] -> [ Ast.For { l with Ast.body = repeat n l.Ast.body } ]
        | body -> List.concat (List.init n (fun _ -> body))
      in
      Helpers.doublings_ok "generated nest"
        (List.map
           (fun n ->
             ( Printf.sprintf "%d copies" n,
               estimate_words { k with Ast.k_body = repeat n k.Ast.k_body } ))
           [ 8; 16; 32; 64 ]))

(* Minor words DFG construction allocates per node built, over every
   block of the paper kernels' product-64 unroll sweeps: one scratch,
   as the estimator keeps one per domain, so the storage has grown by
   the time it is measured and what is left is the per-block
   fingerprint and environments. *)
let dfg_words_per_node () =
  let scratch = Dfg.scratch () in
  let words = ref 0.0 and nodes = ref 0 in
  List.iter
    (fun name ->
      let k = Option.get (Kernels.find name) in
      let ctx = Dse.Design.context k in
      let eligible = List.map (fun (l : Ast.loop) -> l.Ast.index) ctx.Dse.Design.spine in
      List.iter
        (fun vector ->
          let r = Transform.Pipeline.apply { Transform.Pipeline.default with vector } k in
          let k = r.Transform.Pipeline.kernel in
          let accesses = Analysis.Access.collect k.Ast.k_body in
          let build =
            Dfg.block_builder ~scratch ~kernel:k ~mem_of:(fun a -> a.Analysis.Access.id mod 4)
              ~cursor:(Dfg.cursor_of accesses)
          in
          let rec walk body =
            let flush chunk =
              match List.rev chunk with
              | [] -> ()
              | stmts ->
                  let w0 = Gc.minor_words () in
                  let g = build stmts in
                  words := !words +. (Gc.minor_words () -. w0);
                  nodes := !nodes + g.Dfg.len
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
          walk k.Ast.k_body)
        (Dse.Util.divisor_vectors ~max_product:64 ctx ~eligible))
    [ "fir"; "mm"; "jac"; "sobel" ];
  !words /. float_of_int !nodes

let test_dfg_words_per_node () =
  (* 1.84 measured; about 15.7 when every node was a record *)
  let w = dfg_words_per_node () in
  if w > 3.0 then Alcotest.failf "DFG construction allocates %.2f minor words per node" w

(* ------------------------------------------------------------------ *)
(* P&R model *)

let test_pnr_degradation () =
  let small = estimate "fir" [] in
  let large = estimate "fir" [ ("j", 16); ("i", 8) ] in
  let i_small = Hls.Lowlevel.place_and_route small in
  let i_large = Hls.Lowlevel.place_and_route large in
  Alcotest.(check int) "cycles never change" small.Estimate.cycles
    i_small.Hls.Lowlevel.cycles;
  Alcotest.(check bool) "clock degrades with size" true
    (i_large.Hls.Lowlevel.achieved_clock_ns > i_small.Hls.Lowlevel.achieved_clock_ns);
  Alcotest.(check bool) "area grows super-linearly" true
    (float_of_int i_large.Hls.Lowlevel.actual_slices /. float_of_int large.Estimate.slices
    > float_of_int i_small.Hls.Lowlevel.actual_slices /. float_of_int small.Estimate.slices)

let () =
  Alcotest.run "hls"
    [
      ( "dfg",
        [
          Alcotest.test_case "node counts" `Quick test_dfg_counts;
          Alcotest.test_case "cursor desync" `Quick test_dfg_cursor_desync;
          Alcotest.test_case "strength reduction" `Quick test_dfg_strength_reduction;
          Alcotest.test_case "minor words per node" `Quick test_dfg_words_per_node;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "port exclusivity" `Quick test_port_exclusivity;
          Alcotest.test_case "non-pipelined occupancy" `Quick
            test_non_pipelined_occupancy;
          Alcotest.test_case "relaxed modes bound joint" `Quick test_modes_bound_joint;
          Alcotest.test_case "bits moved" `Quick test_bits_moved;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "cycles decrease with unroll" `Quick
            test_cycles_decrease_with_unroll;
          Alcotest.test_case "area increases with unroll" `Quick
            test_area_increases_with_unroll;
          Alcotest.test_case "non-pipelined slower" `Quick test_non_pipelined_slower;
          Alcotest.test_case "FIR non-pipelined memory bound" `Quick
            test_fir_non_pipelined_memory_bound;
          Alcotest.test_case "balance rises then falls" `Quick
            test_balance_rises_then_falls;
          Alcotest.test_case "operator sharing" `Quick test_operator_sharing;
          Alcotest.test_case "registers counted" `Quick test_registers_counted;
          Alcotest.test_case "minor words linear (sobel)" `Quick
            test_estimate_scaling_sobel;
          prop_estimate_scaling_random;
        ] );
      ( "place-and-route",
        [ Alcotest.test_case "degradation model" `Quick test_pnr_degradation ] );
    ]
