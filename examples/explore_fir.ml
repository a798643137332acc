(** The paper's running example, end to end: FIR through unroll-and-jam,
    scalar replacement, peeling and data layout — printing the code at
    each stage (compare with Figure 1 of the paper) and then the full
    exploration under both memory models.

    {v dune exec examples/explore_fir.exe v} *)

let rule title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '-')

let () =
  let fir = Option.get (Kernels.find "fir") in
  rule "Original kernel (Figure 1(a))";
  Format.printf "%s@." (Ir.Pretty.kernel_to_string fir);

  (* Unroll-and-jam both loops by 2, as in Figure 1(b). *)
  let unrolled = Transform.Unroll.run [ ("j", 2); ("i", 2) ] fir in
  rule "After unroll-and-jam by (2, 2) (Figure 1(b))";
  Format.printf "%s@." (Ir.Pretty.kernel_to_string unrolled);

  (* Scalar replacement introduces the accumulators, the rotating C
     register banks and the S_0 temporary of Figure 1(c); peeling the
     first j iteration then specialises the guarded bank loads
     (Figure 1(d) without the data layout). *)
  let r =
    Transform.Pipeline.apply
      { Transform.Pipeline.default with vector = [ ("j", 2); ("i", 2) ] }
      fir
  in
  rule "After scalar replacement and peeling (Figure 1(c)-(d))";
  Format.printf "%s@." (Ir.Pretty.kernel_to_string r.kernel);
  Format.printf
    "@.registers introduced: %d (banks: %s; hoisted accumulators: %d; CSE loads: %d)@."
    r.report.registers
    (String.concat ", "
       (List.map
          (fun (a, n) -> Printf.sprintf "%s x%d" a n)
          r.report.banks))
    r.report.hoisted_members r.report.cse_loads;

  (* The custom data layout distributes S, C and D across the four
     memories (Figure 1(d)'s S0/S1, C0/C1, D2/D3). *)
  let d = Data_layout.Renaming.rewrite ~num_memories:4 r.kernel in
  rule "Custom data layout";
  List.iter
    (fun (orig, banks) ->
      Format.printf "%s -> %s@." orig (String.concat ", " banks))
    d.split;

  (* Exploration under both memory models. *)
  List.iter
    (fun pipelined ->
      rule
        (Printf.sprintf "Design space exploration (%s memories)"
           (if pipelined then "pipelined" else "non-pipelined"));
      let profile = Hls.Estimate.default_profile ~pipelined () in
      let ctx = Dse.Design.context ~profile fir in
      let res = Dse.Search.run ctx in
      Format.printf "Uinit = %a (R=%d, W=%d, Psat=%d)@." Dse.Design.pp_vector
        res.uinit res.sat.r res.sat.w res.sat.psat;
      List.iter
        (fun (s : Dse.Search.step) ->
          Format.printf "  %a [%s]@." Dse.Design.pp_point s.point s.verdict)
        res.steps;
      let base =
        Dse.Design.evaluate ctx
          (Dse.Design.base_config ctx (Dse.Design.ubase ctx))
      in
      Format.printf "selected %a@."
        Dse.Design.pp_point res.selected;
      Format.printf "speedup over baseline: %.2fx@."
        (float_of_int (Dse.Design.cycles base)
        /. float_of_int (Dse.Design.cycles res.selected)))
    [ true; false ]
