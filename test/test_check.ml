(** The check layer: clean kernels stay clean (including across the
    verified divisor lattice, with selections bit-identical to an
    unverified sweep), mutated kernels are flagged, the legality pass
    agrees with the dependence analysis on hand-built carried
    dependences, a deliberately broken transform is caught with a
    stage-tagged diagnostic, and the [defacto check] exit codes follow
    the 0/1/2 discipline. *)

open Ir
module Diag = Check.Diag
module Design = Dse.Design
module Space = Dse.Space

let parse name src =
  match Frontend.Parser.kernel_of_string_res ~name src with
  | Ok k -> k
  | Error msg -> Alcotest.failf "parse %s: %s" name msg

let all_builtin () =
  List.map (fun n -> (n, Option.get (Kernels.find n))) Kernels.names
  @ List.map (fun n -> (n, Option.get (Gallery.find n))) Gallery.names

(* ------------------------------------------------------------------ *)
(* Clean kernels are clean *)

let test_builtins_clean () =
  List.iter
    (fun (name, k) ->
      let ds = Check.Run.all k in
      Alcotest.(check int)
        (name ^ " exit code (findings: "
        ^ String.concat "; " (List.map (Diag.render ~file:name) ds)
        ^ ")")
        0
        (Check.Run.exit_code ds))
    (all_builtin ())

(* Every divisor-lattice point of every built-in kernel validates, and
   verification never changes the selected design. *)
let verified_lattice name k ~max_product =
  let profile = Hls.Estimate.default_profile () in
  let plain = Design.context ~profile k in
  let verified = Design.context ~profile ~verify:true k in
  let sp_plain = Space.sweep ~max_product ~jobs:1 plain in
  let sp_verified = Space.sweep ~max_product ~jobs:1 verified in
  Alcotest.(check int)
    (name ^ " verified every lattice point")
    (List.length sp_verified.Space.points)
    verified.Design.store.stats.checked_points;
  Alcotest.(check int)
    (name ^ " zero violations")
    0 verified.Design.store.stats.verify_violations;
  let best sp ctx = (Option.get (Space.best ctx sp)).vector in
  Alcotest.(check bool)
    (name ^ " same selection verified/unverified")
    true
    (best sp_plain plain = best sp_verified verified)

let test_paper_lattice_verified () =
  List.iter
    (fun name ->
      verified_lattice name (Option.get (Kernels.find name)) ~max_product:64)
    Kernels.names

let test_gallery_lattice_verified () =
  List.iter
    (fun name ->
      verified_lattice name (Option.get (Gallery.find name)) ~max_product:16)
    Gallery.names

(* ------------------------------------------------------------------ *)
(* Mutations are flagged (qcheck) *)

let flagged k = Check.Run.exit_code (Check.Run.all k) = 2

(* Dropping a declaration leaves uses of the array undeclared. *)
let prop_dropped_decl =
  Helpers.qtest "dropped declaration flagged" ~count:50 Helpers.gen_kernel
    (fun k -> flagged { k with Ast.k_arrays = List.tl k.Ast.k_arrays })

(* Generated arrays are sized exactly to their own subscript range, so
   swapping the subscripts of the output write and the first input read
   sends the array with the smaller extent out of bounds whenever the
   extents differ. *)
let swap_subscripts (k : Ast.kernel) =
  let out_sub = ref None and in_sub = ref None in
  let rec scan_expr = function
    | Ast.Arr ("a0", [ s ]) -> if !in_sub = None then in_sub := Some s
    | Ast.Arr (_, subs) -> List.iter scan_expr subs
    | Ast.Bin (_, a, b) ->
        scan_expr a;
        scan_expr b
    | Ast.Un (_, a) -> scan_expr a
    | Ast.Cond (c, a, b) ->
        scan_expr c;
        scan_expr a;
        scan_expr b
    | Ast.Var _ | Ast.Int _ -> ()
  in
  let rec scan_stmt = function
    | Ast.Assign (Ast.Larr ("out", [ s ]), rhs) ->
        if !out_sub = None then out_sub := Some s;
        scan_expr rhs
    | Ast.Assign (_, rhs) -> scan_expr rhs
    | Ast.For l -> List.iter scan_stmt l.Ast.body
    | Ast.If (_, t, e) ->
        List.iter scan_stmt t;
        List.iter scan_stmt e
    | Ast.Rotate _ -> ()
  in
  List.iter scan_stmt k.Ast.k_body;
  match (!out_sub, !in_sub) with
  | Some os, Some is ->
      let rec rw_expr = function
        | Ast.Arr ("a0", [ s ]) when s = is -> Ast.Arr ("a0", [ os ])
        | Ast.Arr (a, subs) -> Ast.Arr (a, List.map rw_expr subs)
        | Ast.Bin (op, a, b) -> Ast.Bin (op, rw_expr a, rw_expr b)
        | Ast.Un (op, a) -> Ast.Un (op, rw_expr a)
        | Ast.Cond (c, a, b) -> Ast.Cond (rw_expr c, rw_expr a, rw_expr b)
        | (Ast.Var _ | Ast.Int _) as e -> e
      in
      let rec rw_stmt = function
        | Ast.Assign (Ast.Larr ("out", [ s ]), rhs) when s = os ->
            Ast.Assign (Ast.Larr ("out", [ is ]), rw_expr rhs)
        | Ast.Assign (lv, rhs) -> Ast.Assign (lv, rw_expr rhs)
        | Ast.For l -> Ast.For { l with Ast.body = List.map rw_stmt l.Ast.body }
        | Ast.If (c, t, e) ->
            Ast.If (rw_expr c, List.map rw_stmt t, List.map rw_stmt e)
        | Ast.Rotate _ as s -> s
      in
      Some { k with Ast.k_body = List.map rw_stmt k.Ast.k_body }
  | _ -> None

let extent k name = List.hd (Option.get (Ast.find_array k name)).Ast.a_dims

let prop_swapped_subscript =
  Helpers.qtest "swapped subscript flagged" ~count:100 Helpers.gen_kernel
    (fun k ->
      QCheck2.assume (extent k "out" <> extent k "a0");
      match swap_subscripts k with
      | None -> QCheck2.assume_fail ()
      | Some k' -> flagged k')

(* Widening a loop that drives the output subscript overruns the output
   array, which is sized exactly to the original trips. *)
let widen_bound (k : Ast.kernel) =
  let writes =
    List.filter
      (fun (a : Analysis.Access.t) ->
        a.Analysis.Access.array = "out" && a.Analysis.Access.kind = Analysis.Access.Write)
      (Analysis.Access.collect k.Ast.k_body)
  in
  let var =
    List.find_map
      (fun (a : Analysis.Access.t) ->
        match a.Analysis.Access.affine with
        | Some f :: _ -> (
            match Affine.vars f with v :: _ -> Some v | [] -> None)
        | _ -> None)
      writes
  in
  Option.map
    (fun v ->
      let rec widen = function
        | Ast.For l when l.Ast.index = v ->
            Ast.For { l with Ast.hi = l.Ast.hi + 4 }
        | Ast.For l -> Ast.For { l with Ast.body = List.map widen l.Ast.body }
        | s -> s
      in
      { k with Ast.k_body = List.map widen k.Ast.k_body })
    var

let prop_widened_bound =
  Helpers.qtest "widened loop bound flagged" ~count:50 Helpers.gen_kernel
    (fun k ->
      match widen_bound k with
      | None -> QCheck2.assume_fail ()
      | Some k' -> flagged k')

(* ------------------------------------------------------------------ *)
(* Legality agrees with the dependence analysis *)

let has_jam_reversing_dep k =
  (* the predicate's ground truth, recomputed straight from the
     dependence analysis: an outer-carried dependence with a negative or
     coupled entry further in *)
  List.exists
    (fun (d : Analysis.Dependence.dep) ->
      let rec go = function
        | [] -> false
        | Analysis.Dependence.Exact 0 :: rest
        | Analysis.Dependence.Any :: rest ->
            go rest
        | Analysis.Dependence.Exact v :: rest ->
            v < 0
            || List.exists
                 (function
                   | Analysis.Dependence.Exact w -> w < 0
                   | Analysis.Dependence.Coupled -> true
                   | Analysis.Dependence.Any -> false)
                 rest
        | Analysis.Dependence.Coupled :: _ -> true
      in
      go d.Analysis.Dependence.distance)
    (Analysis.Dependence.dependences k k.Ast.k_body)

let legality_example name src ~legal =
  let k = parse name src in
  Alcotest.(check bool) (name ^ " jam legal") legal
    (Transform.Unroll.jam_legal k && Check.Legality.scalar_jam_hazard k = None);
  Alcotest.(check bool) (name ^ " agrees with Dependence") (not legal)
    (has_jam_reversing_dep k)

let test_legality_vs_dependence () =
  (* distance (1, -1): fusing the unrolled outer iterations reverses the
     dependence — the classic illegal unroll-and-jam *)
  legality_example "carried-(1,-1)" ~legal:false
    {| int A[9][9];
       for (i = 0; i < 8; i++)
         for (j = 1; j < 8; j++)
           A[i+1][j-1] = A[i][j] + 1; |};
  (* distance (1, 1): lexicographically positive throughout, jam-safe *)
  legality_example "carried-(1,1)" ~legal:true
    {| int A[9][9];
       for (i = 0; i < 8; i++)
         for (j = 0; j < 8; j++)
           A[i+1][j+1] = A[i][j] + 1; |};
  (* no dependence at all *)
  legality_example "independent" ~legal:true
    {| int A[8][8];
       int B[8][8];
       for (i = 0; i < 8; i++)
         for (j = 0; j < 8; j++)
           A[i][j] = B[i][j] + 1; |}

let reuse_group_for k array =
  List.find
    (fun (g : Analysis.Reuse.group) ->
      g.Analysis.Reuse.array = array
      && g.Analysis.Reuse.kind = Analysis.Access.Read
      && List.length g.Analysis.Reuse.members > 1)
    (Analysis.Reuse.groups k.Ast.k_body)

(* The set passes the dependence test and no foreign access reaches it. *)
let replaceable k g =
  Check.Legality.replaceable_group_dependence k g
  && Check.Legality.foreign_hazard k g = None

let test_replaceable_group () =
  (* A[i+j] vs A[i+j+1]: the distance system i+j = i'+j'+1 has infinitely
     many solutions per iteration — coupled, not replaceable *)
  let coupled =
    parse "coupled"
      {| int A[20];
         int out[10][10];
         for (i = 0; i < 10; i++)
           for (j = 0; j < 10; j++)
             out[i][j] = A[i+j] + A[i+j+1]; |}
  in
  let g = reuse_group_for coupled "A" in
  Alcotest.(check bool) "coupled group not replaceable" false
    (replaceable coupled g);
  (* A[j] vs A[j+1]: exact distance 1 along j, any along i — replaceable *)
  let consistent =
    parse "consistent"
      {| int A[11];
         int out[10][10];
         for (i = 0; i < 10; i++)
           for (j = 0; j < 10; j++)
             out[i][j] = A[j] + A[j+1]; |}
  in
  let g = reuse_group_for consistent "A" in
  Alcotest.(check bool) "consistent group replaceable" true
    (replaceable consistent g)

(* ------------------------------------------------------------------ *)
(* Translation validation *)

let test_validate_clean_and_identical () =
  List.iter
    (fun (name, k) ->
      let outcome = Check.Validate.run k in
      Alcotest.(check int) (name ^ " no violations") 0
        (List.length (Check.Validate.violations outcome));
      match outcome.Check.Validate.result with
      | None -> Alcotest.failf "%s: validated pipeline produced no result" name
      | Some r ->
          let plain = Transform.Pipeline.apply Transform.Pipeline.default k in
          Alcotest.(check bool)
            (name ^ " validated result bit-identical")
            true
            (Ast.equal_kernel r.Transform.Pipeline.kernel
               plain.Transform.Pipeline.kernel))
    (all_builtin ())

(* A broken unroll stage: the post-stage kernel writes D[0] where the
   pre-stage kernel wrote all of D. The footprint comparison must report
   an error diagnostic carrying the stage tag. *)
let test_broken_transform_caught () =
  let k = Option.get (Kernels.find "fir") in
  let rec break_stmt = function
    | Ast.Assign (Ast.Larr ("D", _), rhs) ->
        Ast.Assign (Ast.Larr ("D", [ Ast.Int 0 ]), rhs)
    | Ast.For l -> Ast.For { l with Ast.body = List.map break_stmt l.Ast.body }
    | s -> s
  in
  let broken = { k with Ast.k_body = List.map break_stmt k.Ast.k_body } in
  let pre = Analysis.Footprint.footprint k in
  let post = Analysis.Footprint.footprint broken in
  let ds = Check.Validate.compare_footprints ~stage:"unroll" ~pre ~post in
  Alcotest.(check bool) "stage-tagged error reported" true
    (List.exists
       (fun (d : Diag.t) ->
         d.Diag.severity = Diag.Error && d.Diag.stage = Some "unroll")
       ds)

(* ------------------------------------------------------------------ *)
(* Exit-code discipline of the installed binary *)

(* Resolve paths against the test binary so the test works both under
   [dune runtest] (cwd = test dir) and [dune exec] (cwd = root). *)
let build_path p = Filename.concat (Filename.dirname Sys.executable_name) p

let defacto args =
  Sys.command
    (Filename.quote_command
       (build_path "../bin/defacto.exe")
       ~stdout:Filename.null ~stderr:Filename.null args)

(* Every fixture under examples/checks exits with the code its name's
   suffix encodes: [_ok] 0, [_warn] 1, [_err] 2. *)
let test_exit_codes () =
  Alcotest.(check int) "clean kernel exits 0" 0 (defacto [ "check"; "-k"; "fir" ]);
  let dir = build_path "../examples/checks" in
  let fixtures =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort compare
  in
  Alcotest.(check bool) "fixtures found" true (fixtures <> []);
  List.iter
    (fun f ->
      let want =
        match
          List.find_opt
            (fun (suffix, _) -> Filename.check_suffix f (suffix ^ ".c"))
            [ ("_ok", 0); ("_warn", 1); ("_err", 2) ]
        with
        | Some (_, code) -> code
        | None -> Alcotest.failf "%s: unclassified fixture name" f
      in
      Alcotest.(check int) f want
        (defacto [ "check"; "-f"; Filename.concat dir f ]))
    fixtures

let () =
  Alcotest.run "check"
    [
      ( "clean",
        [
          Alcotest.test_case "built-ins clean" `Quick test_builtins_clean;
          Alcotest.test_case "paper lattice verified" `Slow
            test_paper_lattice_verified;
          Alcotest.test_case "gallery lattice verified" `Slow
            test_gallery_lattice_verified;
        ] );
      ( "mutations",
        [ prop_dropped_decl; prop_swapped_subscript; prop_widened_bound ] );
      ( "legality",
        [
          Alcotest.test_case "jam vs dependence" `Quick
            test_legality_vs_dependence;
          Alcotest.test_case "replaceable groups" `Quick test_replaceable_group;
        ] );
      ( "validate",
        [
          Alcotest.test_case "clean and bit-identical" `Quick
            test_validate_clean_and_identical;
          Alcotest.test_case "broken transform caught" `Quick
            test_broken_transform_caught;
        ] );
      ( "exit-codes",
        [ Alcotest.test_case "0/1/2 discipline" `Quick test_exit_codes ] );
    ]
