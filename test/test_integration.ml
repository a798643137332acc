(** End-to-end integration: C source -> front end -> exploration ->
    selected design -> generated code still computes the kernel -> VHDL
    emission. This is the full Figure-3 flow of the paper. *)


let full_flow ?(pipelined = true) name src =
  (* parse *)
  let k =
    match Frontend.Parser.kernel_of_string_res ~name src with
    | Ok k -> k
    | Error msg -> Alcotest.failf "parse: %s" msg
  in
  (* explore *)
  let profile = Hls.Estimate.default_profile ~pipelined () in
  let ctx = Dse.Design.context ~profile k in
  let r = Dse.Search.run ctx in
  let sel = r.Dse.Search.selected in
  (* the selected design's generated code is functionally the kernel *)
  let inputs = Kernels.test_inputs k in
  Alcotest.(check bool) (name ^ " selected code is correct") true
    (Helpers.equivalent ~inputs ~reference:k sel.kernel);
  (* it fits and improves on the baseline *)
  Alcotest.(check bool) (name ^ " fits") true
    (Dse.Design.space sel <= ctx.Dse.Design.capacity);
  let base = Dse.Design.evaluate ctx (Dse.Design.ubase ctx) in
  Alcotest.(check bool) (name ^ " not slower than baseline") true
    (Dse.Design.cycles sel <= Dse.Design.cycles base);
  (* VHDL emission of the selected design succeeds *)
  let vhdl = Vhdl.Emit.emit_with_layout ~num_memories:4 sel.kernel in
  Alcotest.(check bool) (name ^ " vhdl") true (String.length vhdl > 500);
  (sel, base)

let test_builtin_kernels_pipelined () =
  List.iter
    (fun name ->
      let src =
        match name with
        | "fir" -> Kernels.fir_src
        | "mm" -> Kernels.mm_src
        | "pat" -> Kernels.pat_src
        | "jac" -> Kernels.jac_src
        | _ -> Kernels.sobel_src
      in
      ignore (full_flow ~pipelined:true name src))
    Kernels.names

let test_builtin_kernels_non_pipelined () =
  List.iter
    (fun name ->
      let src =
        match name with
        | "fir" -> Kernels.fir_src
        | "mm" -> Kernels.mm_src
        | "pat" -> Kernels.pat_src
        | "jac" -> Kernels.jac_src
        | _ -> Kernels.sobel_src
      in
      ignore (full_flow ~pipelined:false name src))
    Kernels.names

let test_user_written_kernel () =
  (* a kernel that is none of the built-ins: a 2D correlation *)
  let src =
    {| short img[20][20];
       short w[3][3];
       int acc;
       short out[18][18];
       for (i = 0; i < 18; i++)
         for (j = 0; j < 18; j++) {
           acc = 0;
           for (di = 0; di < 3; di++)
             for (dj = 0; dj < 3; dj++)
               acc = acc + img[i+di][j+dj] * w[di][dj];
           out[i][j] = acc;
         } |}
  in
  ignore (full_flow "corr2d" src)

let test_speedups_reported () =
  (* Table-2 style: every kernel speeds up under both memory models. *)
  List.iter
    (fun pipelined ->
      List.iter
        (fun name ->
          let k = Option.get (Kernels.find name) in
          let profile = Hls.Estimate.default_profile ~pipelined () in
          let ctx = Dse.Design.context ~profile k in
          let r = Dse.Search.run ctx in
          let base = Dse.Design.evaluate ctx (Dse.Design.ubase ctx) in
          let speedup =
            float_of_int (Dse.Design.cycles base)
            /. float_of_int (Dse.Design.cycles r.Dse.Search.selected)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s speedup %.2f > 1.5" name
               (if pipelined then "pipelined" else "non-pipelined")
               speedup)
            true (speedup > 1.5))
        Kernels.names)
    [ true; false ]

let () =
  Alcotest.run "integration"
    [
      ( "full-flow",
        [
          Alcotest.test_case "built-ins pipelined" `Quick test_builtin_kernels_pipelined;
          Alcotest.test_case "built-ins non-pipelined" `Quick
            test_builtin_kernels_non_pipelined;
          Alcotest.test_case "user kernel" `Quick test_user_written_kernel;
          Alcotest.test_case "speedups" `Slow test_speedups_reported;
        ] );
    ]
