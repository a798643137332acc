(** Transformation tests. Every pass is checked two ways: structurally
    (the paper's FIR example transforms into the Figure 1(c)/(d) shape)
    and semantically (random kernels, random unroll vectors, interpreter
    equality before and after — the strongest invariant in the system). *)

open Ir
module B = Builder
module P = Transform.Pipeline

let fir () = Option.get (Kernels.find "fir")
let mm () = Option.get (Kernels.find "mm")
let jac () = Option.get (Kernels.find "jac")

let apply ?(opts = P.default) vector k =
  P.apply { opts with P.vector } k

(* ------------------------------------------------------------------ *)
(* Simplify *)

let test_simplify_folds () =
  let e = B.((B.int 2 + B.int 3) * var "x" + B.int 0) in
  Alcotest.(check string) "constant folding" "5 * x"
    (Pretty.expr_to_string (Transform.Simplify.fold_expr e));
  Alcotest.(check string) "mul by zero" "0"
    (Pretty.expr_to_string (Transform.Simplify.fold_expr B.(var "x" * B.int 0)));
  Alcotest.(check string) "reassociation" "x + 5"
    (Pretty.expr_to_string
       (Transform.Simplify.fold_expr B.((var "x" + B.int 2) + B.int 3)))

let test_simplify_kills_dead_branches () =
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 2 ] ]
      [
        B.if_ (B.int 1) [ B.store1 "a" (B.int 0) (B.int 5) ];
        B.if_ (B.int 0) [ B.store1 "a" (B.int 1) (B.int 7) ];
      ]
  in
  let k' = Transform.Simplify.run k in
  Alcotest.(check int) "one statement remains" 1 (List.length k'.Ast.k_body)

let test_simplify_inlines_trip1 () =
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 4 ] ]
      [ B.loop "i" 2 3 [ B.store1 "a" (B.var "i") (B.int 1) ] ]
  in
  let k' = Transform.Simplify.run k in
  match k'.Ast.k_body with
  | [ Ast.Assign (Ast.Larr ("a", [ Ast.Int 2 ]), _) ] -> ()
  | _ -> Alcotest.failf "expected inlined body, got %s" (Pretty.kernel_to_string k')

let test_fold_ranges () =
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 8 ] ]
      [
        B.loop "i" 2 8
          [
            B.if_ B.(var "i" < B.int 2) [ B.store1 "a" (B.int 0) (B.int 1) ];
            B.if_ B.(var "i" >= B.int 2) [ B.store1 "a" (B.var "i") (B.int 2) ];
          ];
      ]
  in
  let k' = Transform.Simplify.fold_ranges k in
  match k'.Ast.k_body with
  | [ Ast.For l ] -> (
      match l.body with
      | [ Ast.Assign _ ] -> () (* dead guard gone, live guard dissolved *)
      | _ -> Alcotest.failf "unexpected result %s" (Pretty.kernel_to_string k'))
  | _ -> Alcotest.fail "expected one loop"

(* ------------------------------------------------------------------ *)
(* Unroll-and-jam *)

let test_unroll_structure () =
  let k = fir () in
  let k' = Transform.Unroll.run [ ("j", 2); ("i", 2) ] k in
  match Loop_nest.perfect_nest k'.Ast.k_body with
  | [ lj; li ], body ->
      Alcotest.(check int) "j step" 2 lj.Ast.step;
      Alcotest.(check int) "i step" 2 li.Ast.step;
      Alcotest.(check int) "jammed body has 4 statements" 4 (List.length body)
  | _ -> Alcotest.fail "expected a 2-deep perfect nest"

let test_unroll_epilogue () =
  (* 10 iterations unrolled by 3: main loop of 9 plus an epilogue. *)
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 10 ] ]
      [ B.for_ "i" 0 10 (fun i -> [ B.store1 "a" i i ]) ]
  in
  let k' = Transform.Unroll.run [ ("i", 3) ] k in
  (match k'.Ast.k_body with
  | Ast.For main :: rest ->
      Alcotest.(check int) "main covers 9" 9 main.hi;
      Alcotest.(check int) "main step" 3 main.step;
      Alcotest.(check bool) "epilogue exists" true (rest <> [])
  | _ -> Alcotest.failf "unexpected shape: %s" (Pretty.kernel_to_string k'));
  Helpers.check_equiv ~reference:k k' "epilogue semantics"

let test_unroll_full () =
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 4 ] ]
      [ B.for_ "i" 0 4 (fun i -> [ B.store1 "a" i i ]) ]
  in
  let k' = Transform.Unroll.run [ ("i", 4) ] k in
  Alcotest.(check int) "loop fully dissolved" 4 (List.length k'.Ast.k_body);
  Helpers.check_equiv ~reference:k k' "full unroll semantics"

let test_unroll_clamp () =
  let v =
    Transform.Unroll.clamp ~divisors_only:true (fir ()).Ast.k_body
      [ ("j", 100); ("i", 5) ]
  in
  Alcotest.(check (option int)) "j clamped to trip" (Some 64) (List.assoc_opt "j" v);
  Alcotest.(check (option int)) "i rounded to divisor" (Some 4) (List.assoc_opt "i" v)

let test_jam_legal () =
  Alcotest.(check bool) "FIR jam legal" true (Transform.Unroll.jam_legal (fir ()));
  Alcotest.(check bool) "MM jam legal" true (Transform.Unroll.jam_legal (mm ()))

(* ------------------------------------------------------------------ *)
(* Peeling *)

let test_peel_first () =
  let k = fir () in
  let body = Transform.Peel.peel_first ~index:"j" k.Ast.k_body in
  let loops =
    Ast.fold_stmts
      ~stmt:(fun acc s ->
        match s with Ast.For l when l.index = "j" -> l :: acc | _ -> acc)
      ~expr:(fun acc _ -> acc)
      [] body
  in
  Alcotest.(check int) "one j loop left" 1 (List.length loops);
  Alcotest.(check int) "starts at 1" 1 (List.hd loops).Ast.lo;
  Helpers.check_equiv
    ~inputs:(Kernels.test_inputs k)
    ~reference:k
    { k with Ast.k_body = body }
    "peel semantics"

let test_peel_last () =
  let k = fir () in
  let body = Transform.Peel.peel_last ~index:"i" k.Ast.k_body in
  Helpers.check_equiv ~inputs:(Kernels.test_inputs k) ~reference:k
    { k with Ast.k_body = body } "peel last semantics"

let test_peel_kills_guard () =
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 4 ] ]
      [
        B.for_ "i" 0 4 (fun i ->
            [
              B.if_ B.(i == B.int 0) [ B.store1 "a" (B.int 0) (B.int 9) ];
              B.store1 "a" i i;
            ]);
      ]
  in
  let body = Transform.Peel.peel_first ~index:"i" k.Ast.k_body in
  let k' = Transform.Simplify.run { k with Ast.k_body = body } in
  let has_if =
    Ast.fold_stmts
      ~stmt:(fun acc s -> acc || match s with Ast.If _ -> true | _ -> false)
      ~expr:(fun acc _ -> acc)
      false k'.Ast.k_body
  in
  Alcotest.(check bool) "guard specialised away" false has_if;
  Helpers.check_equiv ~reference:k k' "guard peel semantics"

(* ------------------------------------------------------------------ *)
(* LICM *)

let test_licm_hoists () =
  let k =
    B.kernel "t"
      ~arrays:[ Ast.array_decl "a" [ 8 ]; Ast.array_decl "b" [ 8 ] ]
      ~scalars:[ Ast.scalar_decl "x" ]
      [
        B.for_ "i" 0 8 (fun i ->
            [ B.store1 "a" i B.((var "x" * var "x") + arr1 "b" i) ]);
      ]
  in
  let k' = Transform.Licm.run k in
  (match k'.Ast.k_body with
  | [ Ast.Assign (Ast.Lvar _, _); Ast.For _ ] -> ()
  | _ -> Alcotest.failf "x*x not hoisted: %s" (Pretty.kernel_to_string k'));
  Helpers.check_equiv ~reference:k k' "licm semantics"

let test_licm_respects_writes () =
  (* b[0] is written in the loop: reads of b must not be hoisted. *)
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "a" [ 8 ]; Ast.array_decl "b" [ 8 ] ]
      [
        B.for_ "i" 0 8 (fun i ->
            [
              B.store1 "b" (B.int 0) i;
              B.store1 "a" i B.(arr1 "b" (B.int 0) + arr1 "b" (B.int 1));
            ]);
      ]
  in
  let k' = Transform.Licm.run k in
  (match k'.Ast.k_body with
  | [ Ast.For _ ] -> ()
  | _ -> Alcotest.failf "unsafe hoist: %s" (Pretty.kernel_to_string k'));
  Helpers.check_equiv ~reference:k k' "licm write safety"

(* ------------------------------------------------------------------ *)
(* Scalar replacement: FIR turns into the Figure 1(c)/(d) shape *)

let count_accesses body =
  let accesses = Analysis.Access.collect body in
  ( List.length (Analysis.Access.reads accesses),
    List.length (Analysis.Access.writes accesses) )

let test_fir_2x2_shape () =
  let r = apply [ ("j", 2); ("i", 2) ] (fir ()) in
  let rep = r.P.report in
  Alcotest.(check int) "two accumulators hoisted" 2
    rep.Transform.Scalar_replace.hoisted_members;
  Alcotest.(check int) "two C banks" 2 (List.length rep.banks);
  Alcotest.(check bool) "bank size 16" true
    (List.for_all (fun (_, n) -> n = 16) rep.banks);
  Alcotest.(check int) "one CSE load (S_0)" 1 rep.cse_loads;
  Alcotest.(check (list string)) "carrier peeled" [ "j" ] rep.carriers;
  (* steady state: main j loop's inner body has exactly 3 S reads *)
  let main_loop =
    List.rev r.P.kernel.Ast.k_body
    |> List.find_map (function Ast.For l -> Some l | _ -> None)
  in
  match main_loop with
  | Some lj ->
      let inner =
        List.find_map (function Ast.For l -> Some l | _ -> None) lj.Ast.body
      in
      let reads, writes = count_accesses (Option.get inner).Ast.body in
      Alcotest.(check int) "3 loads in steady state" 3 reads;
      Alcotest.(check int) "0 stores in steady state" 0 writes
  | None -> Alcotest.fail "no main loop"

let test_mm_inner_clean () =
  (* After banking A and B and hoisting C, MM's innermost main loop body
     has no memory accesses at all — the paper's premise for exploring
     only the two outer loops. *)
  let r = apply [] (mm ()) in
  (* follow the *last* loop at each level: peeled copies come first *)
  let rec innermost body =
    match
      List.rev body |> List.find_map (function Ast.For l -> Some l | _ -> None)
    with
    | Some l -> innermost l.Ast.body
    | None -> body
  in
  let main =
    List.rev r.P.kernel.Ast.k_body
    |> List.find_map (function Ast.For l -> Some l | _ -> None)
  in
  let reads, writes = count_accesses (innermost (Option.get main).Ast.body) in
  Alcotest.(check (pair int int)) "no memory ops in innermost body" (0, 0)
    (reads, writes)

let test_jac_chains () =
  let r = apply [] (jac ()) in
  let rep = r.P.report in
  Alcotest.(check bool) "a chain for the row reuse" true
    (List.exists
       (fun (a, _) -> a = "A")
       rep.Transform.Scalar_replace.chain_lengths);
  Alcotest.(check bool) "chain spans 3 registers" true
    (List.for_all (fun (_, n) -> n = 3) rep.chain_lengths)

let test_register_budget () =
  let opts =
    {
      P.default with
      P.scalar =
        { Transform.Scalar_replace.default_config with max_registers = 8 };
    }
  in
  let r = apply ~opts [] (fir ()) in
  Alcotest.(check bool) "budget respected" true
    (r.P.report.Transform.Scalar_replace.registers <= 8);
  Helpers.check_equiv
    ~inputs:(Kernels.test_inputs (fir ()))
    ~reference:(fir ()) r.P.kernel "budget-limited semantics"

(* Chain partition against the plain pairwise scan: every member joins
   the first class whose first member the dependence solver puts at a
   consistent inner-loop distance, with no keyed fast path and no memo. *)

let reference_chain_distance (inner : Ast.loop) a b =
  let module D = Analysis.Dependence in
  match D.ug_distance_vector a b with
  | D.Distance entries ->
      let rec go loops entries acc =
        match (loops, entries) with
        | [], [] -> acc
        | (l : Ast.loop) :: ls, e :: es -> (
            match e with
            | D.Exact d when l.Ast.index = inner.Ast.index ->
                if acc = None then go ls es (Some d) else None
            | D.Exact 0 | D.Any -> go ls es acc
            | D.Exact _ | D.Coupled -> None)
        | _ -> None
      in
      go (D.common_loops a b) entries None
  | _ -> None

let reference_partition inner members =
  let classes =
    List.fold_left
      (fun classes a ->
        let rec insert = function
          | [] -> [ (a, [ a ]) ]
          | (m, cls) :: rest ->
              if reference_chain_distance inner m a <> None then (m, a :: cls) :: rest
              else (m, cls) :: insert rest
        in
        insert classes)
      [] members
  in
  List.map
    (fun (first, cls) ->
      List.rev_map
        (fun a -> (a, Option.value ~default:0 (reference_chain_distance inner first a)))
        cls)
    classes

(** Member sets of one array over loops [i], [j], [k] (inner [k]): a
    random uniformly generated set (trip counts include primes, offsets
    reach past them), a corr-style coupled set [img[i+di][j+dj]] with the
    inner loop inside a coupled dimension, and a non-affine set. *)
let gen_members =
  let open QCheck2.Gen in
  let loop index trip step =
    { Ast.index; lo = 0; hi = trip * step; step; body = []; l_span = None }
  in
  let* trip = oneofl [ 3; 4; 8; 17; 29; 31 ] in
  let* step = oneofl [ 1; 1; 2 ] in
  let loops = [ loop "i" 5 1; loop "j" 7 1; loop "k" trip step ] in
  let* shape = int_range 0 3 in
  let* dims = int_range 1 2 in
  let* coeffs = list_repeat dims (list_repeat 3 (int_range (-1) 2)) in
  let* n = int_range 1 24 in
  let* offsets = list_repeat n (list_repeat dims (int_range (-6) 40)) in
  let offsets = List.sort_uniq compare offsets in
  let vars = [ "i"; "j"; "k" ] in
  let affine ?(extra = []) consts =
    List.map2
      (fun cs c -> Affine.to_expr (Affine.make (extra @ List.combine vars cs) c))
      coeffs consts
  in
  let subs_of id consts =
    match shape with
    | 0 -> affine consts
    | 3 ->
        (* Every other member also reads a parameter [n]: two shapes,
           and no consistent distance between them. *)
        affine ~extra:(if id mod 2 = 0 then [] else [ ("n", 1) ]) consts
    | 1 ->
        (* i and k share the first dimension, j and k the last *)
        List.mapi
          (fun d c ->
            Affine.to_expr
              (Affine.make [ ((if d = 0 then "i" else "j"), 1); ("k", 1) ] c))
          consts
    | _ ->
        List.map (fun c -> Ast.Bin (Ast.Add, Ast.Bin (Ast.Mul, Ast.Var "i", Ast.Var "k"), Ast.Int c)) consts
  in
  return
    ( List.nth loops 2,
      List.mapi
        (fun id consts ->
          let subs = subs_of id consts in
          {
            Analysis.Access.id;
            array = "A";
            kind = Analysis.Access.Read;
            subs;
            affine = List.map Affine.of_expr subs;
            loops;
            guarded = false;
          })
        offsets )

let prop_partition_chains_matches_pairwise =
  Helpers.qtest "partition_chains = pairwise reference" ~count:500 gen_members
    (fun (inner, members) ->
      let ids = List.map (List.map (fun ((a : Analysis.Access.t), d) -> (a.id, d))) in
      ids (Transform.Scalar_replace.partition_chains inner members)
      = ids (reference_partition inner members))

(* Element CSE once chains replace the reads inside a subscript: the
   chain turns [img[i + 2]] into a register the body assigns, so
   [hist]'s element names a different element before and after that
   load and must keep its memory accesses. *)
let hist2 () =
  Frontend.Parser.kernel_of_string ~name:"hist2"
    {|unsigned char img[66]; short hist[256]; short out[64];
      for (i = 0; i < 64; i++) {
        out[i] = img[i] + img[i + 2];
        hist[img[i + 2]] = hist[img[i + 2]] + 1;
      }|}

let test_cse_indirect_subscript () =
  let k = hist2 () in
  let ctx = Dse.Design.context k in
  List.iter
    (fun u ->
      let where = Printf.sprintf "i=%d" u in
      let p =
        Dse.Design.evaluate ctx (Dse.Design.base_config ctx [ ("i", u) ])
      in
      List.iter
        (fun seed ->
          Helpers.check_equiv ~inputs:(Kernels.test_inputs ~seed k) ~reference:k
            p.Engine.Store.kernel
            (Printf.sprintf "%s, inputs %d: interpreter = transformed" where seed))
        [ 1; 2; 3; 7; 11 ];
      (* what [defacto simulate] checks: the datapath against the
         interpreter *)
      let inputs = Kernels.test_inputs k in
      let sim = Hls.Sim.run ~inputs ctx.Dse.Design.env.profile p.Engine.Store.kernel in
      List.iter
        (fun (arr, data) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: simulated %s identical" where arr)
            true
            (List.assoc_opt arr sim.Hls.Sim.arrays = Some data))
        (Eval.observables (Eval.run ~inputs k)))
    [ 1; 2; 4 ]

(* Subscripts naming a scalar the nest assigns: a chain register
   ([hist[img_h2]] next to [hist[7]]), a banked register that changes
   with an outer loop ([t[k + x_r]]) and a chained load inside another
   array's subscript ([t[x[j] + j]]). Each address moves where no loop
   index does, so those patterns are neither hoisted, banked, chained
   nor element-CSEd; the three kernels once simulated a MISMATCH. *)
let assigned_subscript_kernels =
  [
    ( "hist7",
      {|unsigned char img[66]; short hist[256]; short out[64];
        for (i = 0; i < 64; i++) {
          out[i] = img[i] + img[i + 2];
          hist[img[i + 2]] = hist[img[i + 2]] + 1;
          hist[7] = hist[7] + 1;
        }|},
      [ [ ("i", 1) ]; [ ("i", 2) ]; [ ("i", 4) ] ] );
    ( "xk",
      {|unsigned char x[5]; int t[300]; int out[3];
        for (i = 0; i < 3; i++)
          for (j = 0; j < 4; j++)
            for (k = 0; k < 4; k++)
              out[i] = out[i] + t[x[j + 1] + k];|},
      [ []; [ ("k", 2) ]; [ ("j", 2); ("k", 2) ] ] );
    ( "xj",
      {|unsigned char x[5]; int t[300]; int out[3];
        for (i = 0; i < 3; i++)
          for (j = 0; j < 4; j++)
            out[i] = out[i] + t[x[j] + j] + t[x[j] + j + 1];|},
      [ []; [ ("j", 2) ] ] );
  ]

let test_assigned_subscripts () =
  List.iter
    (fun (name, src, vectors) ->
      let k = Frontend.Parser.kernel_of_string ~name src in
      let ctx = Dse.Design.context k in
      List.iter
        (fun vector ->
          let where = Printf.sprintf "%s %s" name (Helpers.vector_to_string vector) in
          let p = Dse.Design.evaluate ctx (Dse.Design.base_config ctx vector) in
          List.iter
            (fun seed ->
              Helpers.check_equiv ~inputs:(Kernels.test_inputs ~seed k) ~reference:k
                p.Engine.Store.kernel
                (Printf.sprintf "%s, inputs %d: interpreter = transformed" where seed))
            [ 1; 2; 3 ];
          let inputs = Kernels.test_inputs k in
          let sim = Hls.Sim.run ~inputs ctx.Dse.Design.env.profile p.Engine.Store.kernel in
          List.iter
            (fun (arr, data) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: simulated %s identical" where arr)
                true
                (List.assoc_opt arr sim.Hls.Sim.arrays = Some data))
            (Eval.observables (Eval.run ~inputs k)))
        vectors)
    assigned_subscript_kernels

(* Minor words one [Scalar_replace.run] allocates on this domain. *)
let sr_words (k : Ast.kernel) =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Transform.Scalar_replace.run k));
  Gc.minor_words () -. w0

(* The scalar-replacement input of [k] unrolled by [vector]. *)
let sr_input vector k =
  let input = ref None in
  ignore
    (P.front
       ~observe:(fun stage ~before ~after:_ ->
         if stage = P.Scalar_replace then input := Some before)
       { P.default with P.vector } k);
  Option.get !input

(* Unroll products 16 to 256 of corr (coupled [img[i+di][j+dj]] reads:
   the pairwise chain scan) and of Sobel over a 66x66 image. *)
let test_sr_scaling () =
  List.iter
    (fun (what, k) ->
      ignore
        (Helpers.doublings_ok what
           (List.map
              (fun vector -> (Helpers.vector_to_string vector, sr_words (sr_input vector k)))
              [
                [ ("i", 4); ("j", 4) ];
                [ ("i", 4); ("j", 8) ];
                [ ("i", 8); ("j", 8) ];
                [ ("i", 8); ("j", 16) ];
                [ ("i", 16); ("j", 16) ];
              ])))
    [ ("corr", Option.get (Gallery.find "corr")); ("sobel", Lazy.force Helpers.sobel64) ]

(* A generated nest with its innermost body repeated 8, 16, 32 and 64
   times. *)
let prop_sr_scaling_random =
  Helpers.qtest "minor words linear (scalar replacement, nests)" ~count:30 Helpers.gen_kernel
    (fun k ->
      let rec repeat n = function
        | [ Ast.For l ] -> [ Ast.For { l with Ast.body = repeat n l.Ast.body } ]
        | body -> List.concat (List.init n (fun _ -> body))
      in
      Helpers.doublings_ok "generated nest"
        (List.map
           (fun n ->
             (Printf.sprintf "%d copies" n, sr_words { k with Ast.k_body = repeat n k.Ast.k_body }))
           [ 8; 16; 32; 64 ]))

(* ------------------------------------------------------------------ *)
(* Fresh names *)

(** The first free name of [base], [base_0], [base_1], ..., found by
    scanning from [base_0] on every call. *)
let scanning_fresh used base =
  let name =
    if not (Hashtbl.mem used base) then base
    else
      let rec go n =
        let cand = Printf.sprintf "%s_%d" base n in
        if Hashtbl.mem used cand then go (n + 1) else cand
      in
      go 0
  in
  Hashtbl.replace used name ();
  name

type names_op = Reserve of string | Fresh of string

let run_names_ops ops =
  let empty = { Ast.k_name = "k"; k_arrays = []; k_scalars = []; k_body = [] } in
  let t = Transform.Names.of_kernel empty in
  List.filter_map
    (function
      | Reserve n ->
          Transform.Names.reserve t n;
          None
      | Fresh b -> Some (Transform.Names.fresh t b))
    ops

let test_fresh_skips_reserved () =
  Alcotest.(check (list string)) "x, x_0, then past the reserved x_1"
    [ "x"; "x_0"; "x_2" ]
    (run_names_ops [ Reserve "x_1"; Fresh "x"; Fresh "x"; Fresh "x" ])

let prop_fresh_matches_scan =
  let open QCheck2.Gen in
  let op =
    frequency
      [
        (1, map (fun n -> Reserve n)
              (oneofl [ "x"; "x_0"; "x_1"; "x_2"; "x_3"; "x_0_0"; "x_1_0"; "y"; "y_1" ]));
        (2, map (fun b -> Fresh b) (oneofl [ "x"; "x_0"; "x_1"; "y" ]));
      ]
  in
  Helpers.qtest "hinted fresh = scanning fresh" ~count:300 (list_size (int_range 0 40) op)
    (fun ops ->
      let used = Hashtbl.create 16 in
      let expected =
        List.filter_map
          (function
            | Reserve n ->
                Hashtbl.replace used n ();
                None
            | Fresh b -> Some (scanning_fresh used b))
          ops
      in
      run_names_ops ops = expected)

(* ------------------------------------------------------------------ *)
(* Tiling *)

let test_strip_mine () =
  let k = fir () in
  let names = Transform.Names.of_kernel k in
  let body, tile_idx =
    Transform.Tiling.strip_mine ~index:"i" ~tile:8 names k.Ast.k_body
  in
  Alcotest.(check bool) "tile loop created" true (tile_idx <> None);
  Alcotest.(check int) "nest now 3 deep" 3 (Loop_nest.nest_depth body);
  Helpers.check_equiv ~inputs:(Kernels.test_inputs k) ~reference:k
    { k with Ast.k_body = body } "strip-mine semantics"

(* [Tiling.clamp] is the largest divisor of the trip no greater than the
   request, 1 when the request covers the whole trip; and it is the tile
   [strip_mine] makes: the intra-tile loop runs [clamp] iterations, and
   no tile loop appears exactly when [clamp] is 1. *)
let test_clamp_is_the_split () =
  for trip = 1 to 64 do
    let k =
      B.kernel
        ~arrays:[ Ast.array_decl "a" [ trip ] ]
        "clamp"
        [ B.for_ "i" 0 trip (fun i -> [ B.store1 "a" i (B.int 0) ]) ]
    in
    for tile = 0 to 70 do
      let body, tile_idx =
        Transform.Tiling.strip_mine ~index:"i" ~tile
          (Transform.Names.of_kernel k) k.Ast.k_body
      in
      let split =
        match (tile_idx, body) with
        | None, _ -> 1
        | Some _, [ Ast.For { body = [ Ast.For intra ]; _ } ] ->
            Ast.loop_trip intra
        | Some _, _ -> Alcotest.fail "strip-mine made an unexpected nest"
      in
      let largest =
        if tile >= trip then 1
        else
          List.fold_left
            (fun best d -> if d <= tile then d else best)
            1 (Engine.Util.divisors trip)
      in
      let what = Printf.sprintf "trip %d, tile %d" trip tile in
      Alcotest.(check int) (what ^ ": largest divisor") largest
        (Transform.Tiling.clamp ~trip tile);
      Alcotest.(check int) (what ^ ": strip-mine split") split
        (Transform.Tiling.clamp ~trip tile)
    done
  done

let test_interchange () =
  let k = jac () in
  match Transform.Tiling.interchange ~outer:"i" k with
  | None -> Alcotest.fail "JAC loops are permutable"
  | Some k' ->
      Alcotest.(check (list string)) "order swapped" [ "j"; "i" ]
        (Loop_nest.spine_indices k'.Ast.k_body);
      Helpers.check_equiv ~inputs:(Kernels.test_inputs k) ~reference:k k'
        "interchange semantics"

let test_interchange_illegal () =
  (* b[i][j] = b[i-1][j+1]: distance (1, -1); interchange must refuse. *)
  let k =
    B.kernel "t" ~arrays:[ Ast.array_decl "b" [ 8; 8 ] ]
      [
        B.loop "i" 1 8
          [
            B.loop "j" 0 7
              [
                B.store2 "b" (B.var "i") (B.var "j")
                  B.(arr2 "b" (var "i" - B.int 1) (var "j" + B.int 1));
              ];
          ];
      ]
  in
  Alcotest.(check bool) "refused" true
    (Transform.Tiling.interchange ~outer:"i" k = None)

let test_tile_for_registers () =
  let k = fir () in
  let k' = Transform.Tiling.tile_for_registers ~index:"i" ~tile:8 k in
  Helpers.check_equiv ~inputs:(Kernels.test_inputs k) ~reference:k k'
    "tiling semantics";
  let _, rep = Transform.Scalar_replace.run k' in
  Alcotest.(check bool) "banks at most 8 wide" true
    (List.for_all (fun (_, n) -> n <= 8) rep.Transform.Scalar_replace.banks)

(* ------------------------------------------------------------------ *)
(* Property tests: the full pipeline preserves semantics *)

let prop_pipeline_preserves_semantics =
  Helpers.qtest "pipeline preserves semantics (random kernels)" ~count:120
    QCheck2.Gen.(
      Helpers.gen_kernel >>= fun k ->
      Helpers.gen_vector_for k >>= fun v -> return (k, v))
    (fun (k, v) ->
      let r = apply v k in
      Helpers.equivalent ~inputs:(Helpers.inputs_for k) ~reference:k r.P.kernel)

let prop_unroll_preserves_semantics =
  Helpers.qtest "unroll-and-jam alone preserves semantics" ~count:120
    QCheck2.Gen.(
      Helpers.gen_kernel >>= fun k ->
      Helpers.gen_vector_for k >>= fun v -> return (k, v))
    (fun (k, v) ->
      let k' = Transform.Unroll.run v k in
      Helpers.equivalent ~inputs:(Helpers.inputs_for k) ~reference:k k')

let test_paper_kernels_all_divisor_vectors () =
  List.iter
    (fun name ->
      let k = Option.get (Kernels.find name) in
      let spine = Loop_nest.spine k.Ast.k_body in
      List.iter
        (fun (uo, ui) ->
          match spine with
          | a :: b :: _ ->
              let v = [ (a.Ast.index, uo); (b.Ast.index, ui) ] in
              let r = apply v k in
              Alcotest.(check bool)
                (Printf.sprintf "%s %s" name (Helpers.vector_to_string v))
                true
                (Helpers.equivalent
                   ~inputs:(Kernels.test_inputs k)
                   ~reference:k r.P.kernel)
          | _ -> ())
        [ (2, 2); (2, 4); (4, 2); (1, 8); (8, 1); (3, 3); (2, 8) ])
    Kernels.names

let () =
  Alcotest.run "transform"
    [
      ( "simplify",
        [
          Alcotest.test_case "folding" `Quick test_simplify_folds;
          Alcotest.test_case "dead branches" `Quick test_simplify_kills_dead_branches;
          Alcotest.test_case "trip-1 inlining" `Quick test_simplify_inlines_trip1;
          Alcotest.test_case "range folding" `Quick test_fold_ranges;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "structure" `Quick test_unroll_structure;
          Alcotest.test_case "epilogue" `Quick test_unroll_epilogue;
          Alcotest.test_case "full unroll" `Quick test_unroll_full;
          Alcotest.test_case "clamping" `Quick test_unroll_clamp;
          Alcotest.test_case "jam legality" `Quick test_jam_legal;
          prop_unroll_preserves_semantics;
        ] );
      ( "peel",
        [
          Alcotest.test_case "first" `Quick test_peel_first;
          Alcotest.test_case "last" `Quick test_peel_last;
          Alcotest.test_case "guard specialisation" `Quick test_peel_kills_guard;
        ] );
      ( "licm",
        [
          Alcotest.test_case "hoists invariants" `Quick test_licm_hoists;
          Alcotest.test_case "write safety" `Quick test_licm_respects_writes;
        ] );
      ( "scalar-replacement",
        [
          Alcotest.test_case "FIR figure-1 shape" `Quick test_fir_2x2_shape;
          Alcotest.test_case "MM clean innermost" `Quick test_mm_inner_clean;
          Alcotest.test_case "JAC chains" `Quick test_jac_chains;
          Alcotest.test_case "register budget" `Quick test_register_budget;
          prop_partition_chains_matches_pairwise;
          Alcotest.test_case "element CSE on indirect subscripts" `Quick
            test_cse_indirect_subscript;
          Alcotest.test_case "subscripts naming assigned scalars" `Quick
            test_assigned_subscripts;
          Alcotest.test_case "minor words linear (scalar replacement)" `Quick test_sr_scaling;
          prop_sr_scaling_random;
        ] );
      ( "names",
        [
          Alcotest.test_case "fresh skips reserved names" `Quick test_fresh_skips_reserved;
          prop_fresh_matches_scan;
        ] );
      ( "tiling",
        [
          Alcotest.test_case "strip-mine" `Quick test_strip_mine;
          Alcotest.test_case "interchange" `Quick test_interchange;
          Alcotest.test_case "interchange legality" `Quick test_interchange_illegal;
          Alcotest.test_case "tile for registers" `Quick test_tile_for_registers;
          Alcotest.test_case "clamp = strip-mine split" `Quick
            test_clamp_is_the_split;
        ] );
      ( "pipeline",
        [
          prop_pipeline_preserves_semantics;
          Alcotest.test_case "paper kernels x divisor vectors" `Slow
            test_paper_kernels_all_divisor_vectors;
        ] );
    ]
