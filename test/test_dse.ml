(** Design-space-exploration tests: saturation analysis, the Figure-2
    search on all five kernels under both memory models, the space
    oracle, and the paper's selection-quality claims. *)

module Design = Dse.Design
module Search = Dse.Search
module Saturation = Dse.Saturation
module Space = Dse.Space

let ctx ?(pipelined = true) ?capacity name =
  let k = Option.get (Kernels.find name) in
  let profile = Hls.Estimate.default_profile ~pipelined () in
  let c = Design.context ~profile k in
  match capacity with None -> c | Some capacity -> { c with Design.capacity }

let saturation name =
  let k = Option.get (Kernels.find name) in
  Saturation.compute ~num_memories:4 k

(* ------------------------------------------------------------------ *)
(* Saturation *)

let test_psat () =
  List.iter
    (fun name ->
      let s = saturation name in
      Alcotest.(check int) (name ^ " Psat") 4 s.Saturation.psat)
    Kernels.names

let test_eligible_loops () =
  (* MM: the innermost k loop carries no steady-state memory access, so
     only i and j are eligible — the paper's restriction to the two
     outermost loops. *)
  let s = saturation "mm" in
  Alcotest.(check (list string)) "mm eligible" [ "i"; "j" ] s.Saturation.eligible;
  let s = saturation "fir" in
  Alcotest.(check (list string)) "fir eligible" [ "j"; "i" ] s.Saturation.eligible

let test_sat_set () =
  let c = ctx "fir" in
  let s = saturation "fir" in
  let sat = Saturation.sat_set c s in
  Alcotest.(check int) "three vectors of product 4" 3 (List.length sat);
  List.iter
    (fun v -> Alcotest.(check int) "product" 4 (Design.product v))
    sat

let test_sat_i () =
  let c = ctx "fir" in
  let s = saturation "fir" in
  (match Saturation.sat_i c s "j" with
  | Some v -> Alcotest.(check int) "all factor on j" 4 (List.assoc "j" v)
  | None -> Alcotest.fail "Sat_j must exist for FIR");
  (* JAC: trips of 30 cannot carry a lone factor of 4 *)
  let cj = ctx "jac" in
  let sj = saturation "jac" in
  Alcotest.(check bool) "no Sat_i for JAC" true (Saturation.sat_i cj sj "i" = None)

(* ------------------------------------------------------------------ *)
(* The Figure-2 search *)

let test_uinit_uses_dependence_free_loop () =
  (* FIR's j loop carries no dependence: Uinit = Sat_j. *)
  let r = Search.run (ctx "fir") in
  Alcotest.(check (option int)) "j gets the factor" (Some 4)
    (List.assoc_opt "j" r.Search.uinit);
  Alcotest.(check (option int)) "i stays 1" (Some 1)
    (List.assoc_opt "i" r.Search.uinit)

let test_search_all_kernels () =
  List.iter
    (fun pipelined ->
      List.iter
        (fun name ->
          let c = ctx ~pipelined name in
          let r = Search.run c in
          let sel = r.Search.selected in
          Alcotest.(check bool)
            (Printf.sprintf "%s %b fits" name pipelined)
            true
            (Design.space sel <= c.Design.capacity);
          let base = Design.evaluate c (Design.ubase c) in
          Alcotest.(check bool)
            (Printf.sprintf "%s %b speeds up" name pipelined)
            true
            (Design.cycles sel < Design.cycles base))
        Kernels.names)
    [ true; false ]

let test_search_visits_few () =
  List.iter
    (fun name ->
      let c = ctx name in
      let r = Search.run c in
      let visited = Search.designs_evaluated r in
      let sp = Space.sweep ~max_product:1 c in
      (* paper-style space size: product of eligible trip counts *)
      let frac = Space.fraction_searched sp ~visited in
      Alcotest.(check bool)
        (Printf.sprintf "%s searches under 5%% (%d of %d)" name visited
           sp.Space.total_designs)
        true (frac < 0.05))
    Kernels.names

let test_memory_bound_stops_at_uinit () =
  (* Non-pipelined JAC is memory bound at the saturation point: the
     algorithm stops there (the paper's non-pipelined FIR behaviour). *)
  let c = ctx ~pipelined:false "jac" in
  let r = Search.run c in
  Alcotest.(check bool) "selected = Uinit" true
    (Design.vector_equal r.Search.selected.vector r.Search.uinit)

let test_capacity_constraint () =
  (* With a small device (between the baseline's and the saturation
     point's footprint), the search must return a fitting design. *)
  let c = ctx ~capacity:4500 "mm" in
  let base = Design.evaluate c (Design.ubase c) in
  Alcotest.(check bool) "baseline fits the test device" true
    (Design.space base <= 4500);
  let r = Search.run c in
  Alcotest.(check bool) "fits small device" true
    (Design.space r.Search.selected <= 4500)

let test_search_deterministic () =
  let r1 = Search.run (ctx "sobel") in
  let r2 = Search.run (ctx "sobel") in
  Alcotest.(check bool) "same selection" true
    (Design.vector_equal r1.Search.selected.vector
       r2.Search.selected.vector)

(* ------------------------------------------------------------------ *)
(* Space oracle and selection quality *)

let test_space_sweep () =
  let c = ctx "pat" in
  let sp = Space.sweep c in
  (* PAT: j in {1,7,49}, i in {1,2,4,8,16} -> 15 divisor points *)
  Alcotest.(check int) "divisor lattice size" 15 (List.length sp.Space.points);
  Alcotest.(check int) "paper-style space size" (49 * 16) sp.Space.total_designs

let test_selected_close_to_best () =
  (* The headline claim, on the pipelined configuration: the selected
     design's cycles are within a small factor of the best fitting
     design in the whole space. *)
  List.iter
    (fun name ->
      let c = ctx name in
      let r = Search.run c in
      let sp = Space.sweep ~max_product:256 c in
      match Space.best_fitting c sp with
      | None -> Alcotest.fail "no fitting design"
      | Some best ->
          let ratio =
            float_of_int (Design.cycles r.Search.selected)
            /. float_of_int (Design.cycles best.Space.point)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s within 4x of best (%.2f)" name ratio)
            true (ratio <= 4.0))
    Kernels.names

let test_smallest_comparable () =
  let c = ctx "fir" in
  let sp = Space.sweep ~max_product:64 c in
  match Space.smallest_comparable c sp with
  | None -> Alcotest.fail "no comparable design"
  | Some sc -> (
      match Space.best_fitting c sp with
      | None -> Alcotest.fail "no best"
      | Some best ->
          Alcotest.(check bool) "not larger than best" true
            (Design.space sc.Space.point <= Design.space best.Space.point))

let test_balance_monotone_to_saturation () =
  (* Observation 3 along multiples of Psat on FIR's dependence-free
     loop: balance does not increase once past the saturation point. *)
  let c = ctx "fir" in
  let b v = Design.balance (Design.evaluate c v) in
  let at_sat = b [ ("j", 4); ("i", 1) ] in
  let beyond = b [ ("j", 16); ("i", 1) ] in
  let far = b [ ("j", 64); ("i", 1) ] in
  Alcotest.(check bool) "non-increasing beyond saturation" true
    (beyond <= at_sat +. 0.2 && far <= beyond +. 0.2)

let () =
  Alcotest.run "dse"
    [
      ( "saturation",
        [
          Alcotest.test_case "Psat" `Quick test_psat;
          Alcotest.test_case "eligible loops" `Quick test_eligible_loops;
          Alcotest.test_case "saturation set" `Quick test_sat_set;
          Alcotest.test_case "Sat_i" `Quick test_sat_i;
        ] );
      ( "search",
        [
          Alcotest.test_case "Uinit from dependences" `Quick
            test_uinit_uses_dependence_free_loop;
          Alcotest.test_case "all kernels, both memories" `Quick
            test_search_all_kernels;
          Alcotest.test_case "tiny fraction searched" `Quick test_search_visits_few;
          Alcotest.test_case "memory-bound stops at Uinit" `Quick
            test_memory_bound_stops_at_uinit;
          Alcotest.test_case "capacity constraint" `Quick test_capacity_constraint;
          Alcotest.test_case "deterministic" `Quick test_search_deterministic;
        ] );
      ( "space",
        [
          Alcotest.test_case "sweep" `Quick test_space_sweep;
          Alcotest.test_case "selected close to best" `Slow
            test_selected_close_to_best;
          Alcotest.test_case "smallest comparable" `Quick test_smallest_comparable;
          Alcotest.test_case "balance monotonicity" `Quick
            test_balance_monotone_to_saturation;
        ] );
    ]
