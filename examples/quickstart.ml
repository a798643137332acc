(** Quickstart: write a loop nest in the C subset, run the design space
    exploration, and inspect the chosen hardware design.

    {v dune exec examples/quickstart.exe v} *)

let source =
  {|
  /* dot product of two 256-element vectors, accumulated in 32 bits */
  short x[256];
  short y[256];
  int dot[1];
  for (i = 0; i < 256; i++)
    dot[0] = dot[0] + x[i] * y[i];
|}

let () =
  (* 1. Parse the kernel. *)
  let kernel =
    match Frontend.Parser.kernel_of_string_res ~name:"dot" source with
    | Ok k -> k
    | Error msg -> failwith msg
  in
  Format.printf "Input kernel:@.%s@.@." (Ir.Pretty.kernel_to_string kernel);

  (* 2. Build an exploration context: the default profile is a
     Virtex-1000-class FPGA with four pipelined external memories and a
     40 ns clock. *)
  let profile = Hls.Estimate.default_profile ~pipelined:true () in
  let ctx = Dse.Design.context ~profile kernel in

  (* 3. Run the balance-guided search (Figure 2 of the paper). *)
  let result = Dse.Search.run ctx in
  Format.printf "Saturation: R=%d W=%d Psat=%d@." result.sat.Dse.Saturation.r
    result.sat.Dse.Saturation.w result.sat.Dse.Saturation.psat;
  Format.printf "Search trace:@.";
  List.iter
    (fun (s : Dse.Search.step) ->
      Format.printf "  %a  [%s]@." Dse.Design.pp_point s.point s.verdict)
    result.steps;

  (* 4. Inspect the selected design. *)
  let sel = result.selected in
  Format.printf "@.Selected design: %a@." Dse.Design.pp_point sel;
  Format.printf "Estimates: %a@." Hls.Estimate.pp sel.estimate;

  (* 5. Compare against the no-unrolling baseline. *)
  let base =
    Dse.Design.evaluate ctx (Dse.Design.base_config ctx (Dse.Design.ubase ctx))
  in
  Format.printf "Baseline:  %a@." Dse.Design.pp_point base;
  Format.printf "Speedup: %.2fx@."
    (float_of_int (Dse.Design.cycles base)
    /. float_of_int (Dse.Design.cycles sel));

  (* 6. The generated code is ordinary IR: run it against the reference
     interpreter to confirm it still computes a dot product. *)
  let x = Array.init 256 (fun i -> (i mod 17) - 8) in
  let y = Array.init 256 (fun i -> (i mod 11) - 5) in
  let expected = ref 0 in
  Array.iteri (fun i xi -> expected := !expected + (xi * y.(i))) x;
  let st = Ir.Eval.run ~inputs:[ ("x", x); ("y", y) ] sel.kernel in
  let got = (Option.get (Ir.Eval.array_value st "dot")).(0) in
  Format.printf "Functional check: dot = %d (expected %d) -> %s@." got !expected
    (if got = !expected then "OK" else "MISMATCH")
