(** Unit and property tests for the IR: data types, affine forms, the
    pretty printer, loop-nest utilities and the reference interpreter. *)

open Ir
module B = Builder

(* ------------------------------------------------------------------ *)
(* Dtype *)

let test_wrap () =
  Alcotest.(check int) "int8 positive wrap" (-128) (Dtype.wrap Dtype.int8 128);
  Alcotest.(check int) "int8 identity" 127 (Dtype.wrap Dtype.int8 127);
  Alcotest.(check int) "int8 negative" (-1) (Dtype.wrap Dtype.int8 255);
  Alcotest.(check int) "uint8 wrap" 1 (Dtype.wrap Dtype.uint8 257);
  Alcotest.(check int) "uint8 negative wraps" 255 (Dtype.wrap Dtype.uint8 (-1));
  Alcotest.(check int) "int16" (-32768) (Dtype.wrap Dtype.int16 32768)

let test_range () =
  Alcotest.(check (pair int int)) "int8" (-128, 127) (Dtype.range Dtype.int8);
  Alcotest.(check (pair int int)) "uint8" (0, 255) (Dtype.range Dtype.uint8)

let test_join () =
  let j = Dtype.join Dtype.int8 Dtype.uint16 in
  Alcotest.(check int) "width" 16 (Dtype.bits j);
  Alcotest.(check bool) "signedness" true (Dtype.is_signed j)

let test_make_invalid () =
  Alcotest.check_raises "zero width" (Invalid_argument "Dtype.make: unsupported width 0")
    (fun () -> ignore (Dtype.make ~bits:0 ~signed:true))

(* ------------------------------------------------------------------ *)
(* Affine *)

let affine = Alcotest.testable Affine.pp Affine.equal

let test_affine_of_expr () =
  let e = B.((B.int 2 * var "i") + var "j" + B.int 3) in
  match Affine.of_expr e with
  | None -> Alcotest.fail "should be affine"
  | Some f ->
      Alcotest.(check int) "coeff i" 2 (Affine.coeff f "i");
      Alcotest.(check int) "coeff j" 1 (Affine.coeff f "j");
      Alcotest.(check int) "const" 3 (Affine.const_part f)

let test_affine_nonaffine () =
  Alcotest.(check bool) "i*j rejected" true
    (Affine.of_expr B.(var "i" * var "j") = None);
  Alcotest.(check bool) "array read rejected" true
    (Affine.of_expr B.(arr1 "a" (var "i")) = None);
  Alcotest.(check bool) "division folds when exact" true
    (Affine.of_expr B.((B.int 4 * var "i") / B.int 2)
    = Some (Affine.var ~coeff:2 "i"));
  Alcotest.(check bool) "inexact division rejected" true
    (Affine.of_expr B.(var "i" / B.int 2) = None)

let test_affine_algebra () =
  let f = Affine.make [ ("i", 2); ("j", -1) ] 5 in
  let g = Affine.make [ ("i", -2); ("k", 3) ] 1 in
  let s = Affine.add f g in
  Alcotest.(check int) "i cancels" 0 (Affine.coeff s "i");
  Alcotest.(check int) "j stays" (-1) (Affine.coeff s "j");
  Alcotest.(check int) "k joins" 3 (Affine.coeff s "k");
  Alcotest.(check int) "consts add" 6 (Affine.const_part s);
  Alcotest.check affine "sub self is zero" Affine.zero (Affine.sub f f);
  Alcotest.check affine "scale" (Affine.make [ ("i", 4); ("j", -2) ] 10) (Affine.scale 2 f)

let test_affine_subst () =
  let f = Affine.make [ ("i", 2); ("j", 1) ] 1 in
  (* i := 3k + 4 *)
  let s = Affine.subst f "i" (Affine.make [ ("k", 3) ] 4) in
  Alcotest.check affine "substituted"
    (Affine.make [ ("j", 1); ("k", 6) ] 9)
    s

let test_uniformly_generated () =
  let f = Affine.make [ ("i", 1); ("j", 1) ] 0 in
  let g = Affine.make [ ("i", 1); ("j", 1) ] 2 in
  let h = Affine.make [ ("i", 2) ] 0 in
  Alcotest.(check bool) "ug" true (Affine.uniformly_generated f g);
  Alcotest.(check bool) "distance" true (Affine.ug_distance f g = Some 2);
  Alcotest.(check bool) "not ug" false (Affine.uniformly_generated f h)

let prop_affine_roundtrip =
  Helpers.qtest "affine to_expr/of_expr roundtrip"
    QCheck2.Gen.(
      let* terms =
        list_size (int_range 0 3)
          (pair (oneofl [ "i"; "j"; "k" ]) (int_range (-4) 4))
      in
      let* const = int_range (-10) 10 in
      return (Affine.make terms const))
    (fun f ->
      match Affine.of_expr (Affine.to_expr f) with
      | Some f' -> Affine.equal f f'
      | None -> false)

let prop_affine_eval_linear =
  Helpers.qtest "affine add commutes with eval"
    QCheck2.Gen.(
      let gen_aff =
        let* terms =
          list_size (int_range 0 3)
            (pair (oneofl [ "i"; "j" ]) (int_range (-4) 4))
        in
        let* const = int_range (-10) 10 in
        return (Affine.make terms const)
      in
      triple gen_aff gen_aff (pair (int_range (-5) 5) (int_range (-5) 5)))
    (fun (f, g, (vi, vj)) ->
      let env = function "i" -> vi | "j" -> vj | _ -> 0 in
      Affine.eval ~env (Affine.add f g) = Affine.eval ~env f + Affine.eval ~env g)

(* [add] merges two normalized term lists without re-sorting them; it
   must equal normalizing their concatenation. Unsorted names, repeated
   variables and cancelling coefficients included. *)
let prop_affine_add_merge =
  Helpers.qtest "add = make of the concatenation" ~count:500
    QCheck2.Gen.(
      let gen_aff =
        let* terms =
          list_size (int_range 0 5)
            (pair (oneofl [ "k"; "b"; "z"; "a"; "i"; "j" ]) (int_range (-3) 3))
        in
        let* const = int_range (-10) 10 in
        return (Affine.make terms const)
      in
      pair gen_aff gen_aff)
    (fun (a, b) ->
      Affine.equal (Affine.add a b)
        (Affine.make (a.Affine.terms @ b.Affine.terms) (a.Affine.const + b.Affine.const))
      && Affine.equal (Affine.sub a b)
           (Affine.make
              (a.Affine.terms @ List.map (fun (v, c) -> (v, -c)) b.Affine.terms)
              (a.Affine.const - b.Affine.const)))

(* ------------------------------------------------------------------ *)
(* Loop nest utilities *)

let fir () = Option.get (Kernels.find "fir")

let test_spine () =
  let k = fir () in
  Alcotest.(check (list string)) "spine" [ "j"; "i" ] (Loop_nest.spine_indices k.k_body);
  Alcotest.(check int) "total iterations" (64 * 32) (Loop_nest.total_iterations k.k_body)

let test_trip () =
  Alcotest.(check int) "basic" 10
    (Ast.loop_trip { index = "i"; lo = 0; hi = 10; step = 1; body = []; l_span = None });
  Alcotest.(check int) "strided" 5
    (Ast.loop_trip { index = "i"; lo = 0; hi = 10; step = 2; body = []; l_span = None });
  Alcotest.(check int) "uneven stride rounds up" 4
    (Ast.loop_trip { index = "i"; lo = 0; hi = 10; step = 3; body = []; l_span = None });
  Alcotest.(check int) "empty" 0
    (Ast.loop_trip { index = "i"; lo = 5; hi = 5; step = 1; body = []; l_span = None })

let test_iteration_vectors () =
  let loops =
    [
      { Ast.index = "i"; lo = 0; hi = 4; step = 2; body = []; l_span = None };
      { Ast.index = "j"; lo = 1; hi = 3; step = 1; body = []; l_span = None };
    ]
  in
  Alcotest.(check (list (list int)))
    "lexicographic order"
    [ [ 0; 1 ]; [ 0; 2 ]; [ 2; 1 ]; [ 2; 2 ] ]
    (Loop_nest.iteration_vectors loops)

let test_validate_rejects () =
  Alcotest.(check bool) "nonpositive step raises" true
    (try
       ignore
         (B.kernel "bad" [ Ast.For { index = "i"; lo = 0; hi = 4; step = 0; body = []; l_span = None } ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Pretty printer *)

let test_pretty_precedence () =
  Alcotest.(check string) "mul binds tighter" "a + b * c"
    (Pretty.expr_to_string B.(var "a" + (var "b" * var "c")));
  Alcotest.(check string) "parens for re-associated sub" "a * (b - c)"
    (Pretty.expr_to_string B.(var "a" * (var "b" - var "c")));
  Alcotest.(check string) "comparison chain" "a < b && c >= 1"
    (Pretty.expr_to_string B.((var "a" < var "b") && (var "c" >= B.int 1)))

let test_pretty_roundtrip_kernels () =
  (* Pretty-printed built-ins parse back and evaluate identically. *)
  List.iter
    (fun name ->
      let k = Option.get (Kernels.find name) in
      let src = Pretty.kernel_to_string k in
      match Frontend.Parser.kernel_of_string_res ~name src with
      | Error msg -> Alcotest.failf "%s does not reparse: %s" name msg
      | Ok k' ->
          let inputs = Kernels.test_inputs k in
          Helpers.check_equiv ~inputs ~reference:k k' (name ^ " roundtrip"))
    Kernels.names

(* ------------------------------------------------------------------ *)
(* Interpreter *)

let test_eval_fir_small () =
  (* 4-tap FIR against a hand-computed expectation. *)
  let k =
    B.kernel "t"
      ~arrays:[ Ast.array_decl "s" [ 6 ]; Ast.array_decl "c" [ 2 ]; Ast.array_decl "d" [ 4 ] ]
      [
        B.loop "j" 0 4
          [ B.loop "i" 0 2 [ B.store1 "d" B.(var "j")
                B.(arr1 "d" (var "j") + (arr1 "s" (var "i" + var "j") * arr1 "c" (var "i"))) ] ];
      ]
  in
  let s = [| 1; 2; 3; 4; 5; 6 |] and c = [| 10; 1 |] in
  let st = Eval.run ~inputs:[ ("s", s); ("c", c) ] k in
  let d = Option.get (Eval.array_value st "d") in
  Alcotest.(check (array int)) "fir result" [| 12; 23; 34; 45 |] d

let test_eval_rotate () =
  let k =
    B.kernel "t"
      ~scalars:[ Ast.scalar_decl "a"; Ast.scalar_decl "b"; Ast.scalar_decl "c" ]
      ~arrays:[ Ast.array_decl "o" [ 3 ] ]
      [
        B.set "a" (B.int 1);
        B.set "b" (B.int 2);
        B.set "c" (B.int 3);
        B.rotate [ "a"; "b"; "c" ];
        B.store1 "o" (B.int 0) (B.var "a");
        B.store1 "o" (B.int 1) (B.var "b");
        B.store1 "o" (B.int 2) (B.var "c");
      ]
  in
  let st = Eval.run k in
  Alcotest.(check (array int)) "left rotation" [| 2; 3; 1 |]
    (Option.get (Eval.array_value st "o"))

let test_eval_out_of_bounds () =
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 4 ] ]
      [ B.store1 "a" (B.int 4) (B.int 1) ]
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Eval.run k);
       false
     with Eval.Out_of_bounds _ -> true)

let test_eval_division_by_zero () =
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 1 ] ]
      [ B.store1 "a" (B.int 0) B.(B.int 4 / B.int 0) ]
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Eval.run k);
       false
     with Eval.Division_by_zero _ -> true)

let test_eval_conditional () =
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 4 ] ]
      [
        B.for_ "i" 0 4 (fun i ->
            [ B.if_else B.(i < B.int 2)
                [ B.store1 "a" i (B.int 1) ]
                [ B.store1 "a" i B.(cond (i == B.int 2) (B.int 5) (B.int 9)) ] ]);
      ]
  in
  let st = Eval.run k in
  Alcotest.(check (array int)) "if and ternary" [| 1; 1; 5; 9 |]
    (Option.get (Eval.array_value st "a"))

let test_eval_wrapping_store () =
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl ~elem:Dtype.uint8 "a" [ 1 ] ]
      [ B.store1 "a" (B.int 0) (B.int 300) ]
  in
  let st = Eval.run k in
  Alcotest.(check (array int)) "store wraps to declared type" [| 44 |]
    (Option.get (Eval.array_value st "a"))

let test_eval_guard_short_circuit () =
  (* && must not evaluate the second operand when the first is false:
     here the second operand would divide by zero. *)
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 1 ] ]
      [
        B.if_
          B.((B.int 0 != B.int 0) && (B.int 1 / B.int 0 == B.int 0))
          [ B.store1 "a" (B.int 0) (B.int 1) ];
      ]
  in
  let st = Eval.run k in
  Alcotest.(check (array int)) "no store, no crash" [| 0 |]
    (Option.get (Eval.array_value st "a"))

let () =
  Alcotest.run "ir"
    [
      ( "dtype",
        [
          Alcotest.test_case "wrap" `Quick test_wrap;
          Alcotest.test_case "range" `Quick test_range;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "make rejects bad widths" `Quick test_make_invalid;
        ] );
      ( "affine",
        [
          Alcotest.test_case "of_expr" `Quick test_affine_of_expr;
          Alcotest.test_case "non-affine rejected" `Quick test_affine_nonaffine;
          Alcotest.test_case "algebra" `Quick test_affine_algebra;
          Alcotest.test_case "subst" `Quick test_affine_subst;
          Alcotest.test_case "uniformly generated" `Quick test_uniformly_generated;
          prop_affine_roundtrip;
          prop_affine_eval_linear;
          prop_affine_add_merge;
        ] );
      ( "loop_nest",
        [
          Alcotest.test_case "spine" `Quick test_spine;
          Alcotest.test_case "trip counts" `Quick test_trip;
          Alcotest.test_case "iteration vectors" `Quick test_iteration_vectors;
          Alcotest.test_case "validate" `Quick test_validate_rejects;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "precedence" `Quick test_pretty_precedence;
          Alcotest.test_case "kernel roundtrip" `Quick test_pretty_roundtrip_kernels;
        ] );
      ( "eval",
        [
          Alcotest.test_case "small FIR" `Quick test_eval_fir_small;
          Alcotest.test_case "rotate" `Quick test_eval_rotate;
          Alcotest.test_case "out of bounds" `Quick test_eval_out_of_bounds;
          Alcotest.test_case "division by zero" `Quick test_eval_division_by_zero;
          Alcotest.test_case "conditionals" `Quick test_eval_conditional;
          Alcotest.test_case "wrapping stores" `Quick test_eval_wrapping_store;
          Alcotest.test_case "short circuit" `Quick test_eval_guard_short_circuit;
        ] );
    ]
