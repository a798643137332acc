(** VHDL emission tests: structural checks on the generated text for the
    paper kernels, both raw and after data layout. *)

let contains = Helpers.contains

let emit name vector =
  let k = Option.get (Kernels.find name) in
  let r = Transform.Pipeline.apply { Transform.Pipeline.default with vector } k in
  Vhdl.Emit.emit r.Transform.Pipeline.kernel

let emit_laid_out name vector =
  let k = Option.get (Kernels.find name) in
  let r = Transform.Pipeline.apply { Transform.Pipeline.default with vector } k in
  Vhdl.Emit.emit_with_layout ~num_memories:4 r.Transform.Pipeline.kernel

let test_entity_structure () =
  let text = emit "fir" [] in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("contains " ^ frag) true (contains text frag))
    [
      "entity fir is";
      "architecture behavioral of fir";
      "package defacto_support";
      "main : process";
      "for ";
      "end loop;";
      "end architecture behavioral;";
      "wait until rising_edge(clk)";
    ]

let test_memory_pragmas () =
  let text = emit_laid_out "fir" [ ("j", 2); ("i", 2) ] in
  Alcotest.(check bool) "maps arrays to memories" true
    (contains text "pragma map_to_memory mem");
  (* the distributed S banks appear *)
  Alcotest.(check bool) "bank arrays present" true
    (contains text "S0" && contains text "S1")

let test_registers_are_variables () =
  let text = emit "fir" [ ("j", 2); ("i", 2) ] in
  Alcotest.(check bool) "register comment" true
    (contains text "-- register (scalar replacement)")

let test_rotation_emitted () =
  let text = emit "fir" [ ("j", 2); ("i", 2) ] in
  Alcotest.(check bool) "rotation tmp" true (contains text "rot_tmp :=")

let test_strided_loop_form () =
  let text = emit "fir" [ ("j", 2); ("i", 2) ] in
  (* stride-2 loops derive the index from a unit-stride iterator *)
  Alcotest.(check bool) "derived index" true (contains text "_it * 2")

let test_all_kernels_emit () =
  List.iter
    (fun name ->
      let text = emit_laid_out name [] in
      Alcotest.(check bool) (name ^ " nonempty") true (String.length text > 500);
      Alcotest.(check bool) (name ^ " balanced loops") true
        (let count sub =
           let rec go i acc =
             if i + String.length sub > String.length text then acc
             else if String.sub text i (String.length sub) = sub then
               go (i + 1) (acc + 1)
             else go (i + 1) acc
           in
           go 0 0
         in
         count " loop" >= count "end loop;" && count "end loop;" > 0))
    Kernels.names

let test_conditionals () =
  (* SOBEL's min/abs go through the support package. *)
  let text = emit "sobel" [] in
  Alcotest.(check bool) "imin used" true (contains text "imin(");
  Alcotest.(check bool) "abs used" true (contains text "abs(")

let () =
  Alcotest.run "vhdl"
    [
      ( "emit",
        [
          Alcotest.test_case "entity structure" `Quick test_entity_structure;
          Alcotest.test_case "memory pragmas" `Quick test_memory_pragmas;
          Alcotest.test_case "registers" `Quick test_registers_are_variables;
          Alcotest.test_case "rotation" `Quick test_rotation_emitted;
          Alcotest.test_case "strided loops" `Quick test_strided_loop_form;
          Alcotest.test_case "all kernels emit" `Quick test_all_kernels_emit;
          Alcotest.test_case "conditionals" `Quick test_conditionals;
        ] );
    ]
