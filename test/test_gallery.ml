(** The extended kernel gallery through the full flow: every kernel must
    survive exploration with a correct, fitting, baseline-beating (or at
    least baseline-matching) design — including the deliberately
    non-affine histogram, which the analyses must decline to transform
    rather than mistransform. *)

open Ir

let flow name =
  let k = Option.get (Gallery.find name) in
  let profile = Hls.Estimate.default_profile () in
  let ctx = Dse.Design.context ~profile k in
  let r = Dse.Search.run ctx in
  let sel = r.Dse.Search.selected in
  let inputs = Kernels.test_inputs k in
  (k, ctx, sel, inputs)

let test_flow_correct () =
  List.iter
    (fun name ->
      let k, ctx, sel, inputs = flow name in
      Alcotest.(check bool) (name ^ " correct") true
        (Helpers.equivalent ~inputs ~reference:k sel.kernel);
      Alcotest.(check bool) (name ^ " fits") true
        (Dse.Design.space sel <= ctx.Dse.Design.capacity);
      let base =
        Dse.Design.evaluate ctx
          (Dse.Design.base_config ctx (Dse.Design.ubase ctx))
      in
      Alcotest.(check bool) (name ^ " not slower than baseline") true
        (Dse.Design.cycles sel <= Dse.Design.cycles base))
    Gallery.names

let test_flow_simulates () =
  List.iter
    (fun name ->
      let k, _, sel, inputs = flow name in
      let profile = Hls.Estimate.default_profile () in
      let sim = Hls.Sim.run ~inputs profile sel.kernel in
      let reference = Eval.observables (Eval.run ~inputs k) in
      Alcotest.(check bool) (name ^ " datapath correct") true
        (List.for_all
           (fun (arr, data) -> List.assoc_opt arr sim.Hls.Sim.arrays = Some data)
           reference))
    Gallery.names

let test_histogram_conservative () =
  (* data-dependent subscripts: single memory, no register promotion of
     the histogram array *)
  let k = Option.get (Gallery.find "histogram") in
  let accesses = Analysis.Access.collect k.Ast.k_body in
  let layout = Data_layout.Layout.assign ~num_memories:4 k accesses in
  Alcotest.(check int) "hist in one bank" 1
    (List.assoc "hist" layout.Data_layout.Layout.banks);
  let r = Transform.Pipeline.apply Transform.Pipeline.default k in
  Alcotest.(check bool) "hist accesses survive" true
    (List.exists
       (fun (a : Analysis.Access.t) -> a.array = "hist")
       (Analysis.Access.collect r.Transform.Pipeline.kernel.Ast.k_body))

let test_conv1d_matches_fir_shape () =
  (* conv1d is FIR-shaped: the same machinery should bank the taps *)
  let k = Option.get (Gallery.find "conv1d") in
  let r =
    Transform.Pipeline.apply
      { Transform.Pipeline.default with vector = [ ("n", 2); ("k", 2) ] }
      k
  in
  Alcotest.(check bool) "taps banked" true
    (List.exists (fun (a, _) -> a = "h") r.Transform.Pipeline.report.banks)

let test_erosion_reduction () =
  (* min-reduction over the window must survive the whole pipeline *)
  let k = Option.get (Gallery.find "erosion") in
  let inputs = Kernels.test_inputs k in
  List.iter
    (fun v ->
      let r = Transform.Pipeline.apply { Transform.Pipeline.default with vector = v } k in
      Alcotest.(check bool)
        ("erosion " ^ Helpers.vector_to_string v)
        true
        (Helpers.equivalent ~inputs ~reference:k r.Transform.Pipeline.kernel))
    [ [ ("i", 2) ]; [ ("j", 4) ]; [ ("i", 2); ("j", 2) ] ]

let test_transpose_no_reuse () =
  (* transpose has no reuse: no registers should be introduced beyond
     the trivial, and the design must still be correct *)
  let k = Option.get (Gallery.find "transpose") in
  let r =
    Transform.Pipeline.apply
      { Transform.Pipeline.default with vector = [ ("i", 2); ("j", 2) ] }
      k
  in
  Alcotest.(check (list (pair string int))) "no banks" []
    r.Transform.Pipeline.report.banks;
  Helpers.check_equiv
    ~inputs:(Kernels.test_inputs k)
    ~reference:k r.Transform.Pipeline.kernel "transpose semantics"

let () =
  Alcotest.run "gallery"
    [
      ( "flow",
        [
          Alcotest.test_case "explore + correctness" `Quick test_flow_correct;
          Alcotest.test_case "datapath simulation" `Quick test_flow_simulates;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "histogram conservative" `Quick
            test_histogram_conservative;
          Alcotest.test_case "conv1d banks taps" `Quick
            test_conv1d_matches_fir_shape;
          Alcotest.test_case "erosion reduction" `Quick test_erosion_reduction;
          Alcotest.test_case "transpose no reuse" `Quick test_transpose_no_reuse;
        ] );
    ]
