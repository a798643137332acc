(** Datapath simulator tests: the scheduled hardware graphs must compute
    exactly what the source program computes (cross-checked against the
    reference interpreter), with the same cycle count the estimator
    reports, for every kernel under many unroll vectors and both memory
    models. *)

open Ir

let sim_matches ?(pipelined = true) name vector =
  let k = Option.get (Kernels.find name) in
  let r = Transform.Pipeline.apply { Transform.Pipeline.default with vector } k in
  let transformed = r.Transform.Pipeline.kernel in
  let profile = Hls.Estimate.default_profile ~pipelined () in
  let inputs = Kernels.test_inputs k in
  let sim = Hls.Sim.run ~inputs profile transformed in
  let reference = Eval.observables (Eval.run ~inputs k) in
  let est = Hls.Estimate.estimate profile transformed in
  let values_ok =
    List.for_all
      (fun (arr, data) ->
        match List.assoc_opt arr sim.Hls.Sim.arrays with
        | Some d -> d = data
        | None -> false)
      reference
  in
  (values_ok, sim.Hls.Sim.cycles = est.Hls.Estimate.cycles, sim)

let test_values_all_kernels () =
  List.iter
    (fun pipelined ->
      List.iter
        (fun name ->
          List.iter
            (fun vector ->
              let values_ok, _, _ = sim_matches ~pipelined name vector in
              Alcotest.(check bool)
                (Printf.sprintf "%s %s %b values" name
                   (Helpers.vector_to_string vector) pipelined)
                true values_ok)
            [ []; [ ("i", 2) ]; [ ("j", 2) ]; [ ("i", 2); ("j", 2) ];
              [ ("i", 3); ("j", 5) ] ])
        Kernels.names)
    [ true; false ]

let test_cycles_match_estimator () =
  List.iter
    (fun name ->
      List.iter
        (fun vector ->
          let _, cycles_ok, _ = sim_matches name vector in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s cycles" name (Helpers.vector_to_string vector))
            true cycles_ok)
        [ []; [ ("i", 2); ("j", 2) ]; [ ("i", 4); ("j", 4) ] ])
    Kernels.names

let test_guarded_stores_suppressed () =
  (* A kernel with a data-dependent store: the predicated datapath must
     suppress the store on not-taken paths and still agree with the
     interpreter. *)
  let src =
    {| short x[32]; short y[32];
       for (i = 0; i < 32; i++)
         if (x[i] > 0) y[i] = x[i]; else y[i] = 0 - x[i]; |}
  in
  let k = Result.get_ok (Frontend.Parser.kernel_of_string_res ~name:"absval" src) in
  let profile = Hls.Estimate.default_profile () in
  let inputs = Kernels.test_inputs k in
  (* simulate the *raw* kernel: the pipeline's CSE would legitimately
     rewrite the two guarded stores into one unconditional store *)
  let sim = Hls.Sim.run ~inputs profile k in
  let reference = Eval.observables (Eval.run ~inputs k) in
  Alcotest.(check bool) "values" true
    (List.for_all
       (fun (arr, data) -> List.assoc_opt arr sim.Hls.Sim.arrays = Some data)
       reference);
  Alcotest.(check bool) "some stores were suppressed" true
    (sim.Hls.Sim.stores_suppressed > 0)

let test_dynamic_counts () =
  (* FIR at (2,2): peeled first j iteration loads the 32 C coefficients;
     the steady state loads 3 S words per iteration. *)
  let _, _, sim = sim_matches "fir" [ ("j", 2); ("i", 2) ] in
  Alcotest.(check bool) "plausible dynamic load count" true
    (sim.Hls.Sim.dynamic_loads > 1000 && sim.Hls.Sim.dynamic_loads < 4000);
  (* one store per output element (redundant writes eliminated) *)
  Alcotest.(check int) "64 output stores" 64 sim.Hls.Sim.dynamic_stores

let test_sim_random_kernels =
  Helpers.qtest "sim agrees with eval on random kernels" ~count:60
    QCheck2.Gen.(
      Helpers.gen_kernel >>= fun k ->
      Helpers.gen_vector_for k >>= fun v -> return (k, v))
    (fun (k, v) ->
      let r = Transform.Pipeline.apply { Transform.Pipeline.default with vector = v } k in
      let profile = Hls.Estimate.default_profile () in
      let inputs = Helpers.inputs_for k in
      let sim = Hls.Sim.run ~inputs profile r.Transform.Pipeline.kernel in
      let reference = Eval.observables (Eval.run ~inputs k) in
      List.for_all
        (fun (arr, data) -> List.assoc_opt arr sim.Hls.Sim.arrays = Some data)
        reference)

(* The datapath of points evaluated in sequence through one context (so
   every cache the evaluator keeps across points is warm) still computes
   what the source does. *)
let test_sim_unchanged () =
  let k = Option.get (Kernels.find "jac") in
  let profile = Hls.Estimate.default_profile () in
  let ctx = Dse.Design.context ~profile k in
  let inputs = Kernels.test_inputs ~seed:11 k in
  let reference = Eval.observables (Eval.run ~inputs k) in
  List.iter
    (fun vector ->
      let pt = Dse.Design.evaluate ctx (Dse.Design.base_config ctx vector) in
      let sim = Hls.Sim.run ~inputs profile pt.kernel in
      List.iter
        (fun (arr, data) ->
          Alcotest.(check bool)
            (Printf.sprintf "jac %s %s" (Helpers.vector_to_string vector) arr)
            true
            (List.assoc_opt arr sim.Hls.Sim.arrays = Some data))
        reference)
    [ []; [ ("i", 2) ]; [ ("i", 2); ("j", 2) ]; [ ("i", 4); ("j", 4) ] ]

let () =
  Alcotest.run "sim"
    [
      ( "datapath",
        [
          Alcotest.test_case "values, all kernels" `Quick test_values_all_kernels;
          Alcotest.test_case "cycles match estimator" `Quick
            test_cycles_match_estimator;
          Alcotest.test_case "guarded stores" `Quick test_guarded_stores_suppressed;
          Alcotest.test_case "dynamic access counts" `Quick test_dynamic_counts;
          test_sim_random_kernels;
          Alcotest.test_case "datapath unchanged" `Quick test_sim_unchanged;
        ] );
    ]
