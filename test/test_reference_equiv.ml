(** The optimized flow analyses and footprint enumerators against the
    straightforward references of [reference.ml]: every solution equal
    node for node, every validation footprint equal byte for byte (oob
    flags and skip reasons included, budget exhaustion too), and every
    tier-1 footprint count equal wherever the reference walk finishes.
    Run on the random kernel generators, on every stage output of the
    built-in and gallery kernels, and on their strip-mined sources. *)

open Ir
module F = Analysis.Flowgraph
module V = Check.Validate
module R = Reference
module G = QCheck2.Gen

let failf fmt = Printf.ksprintf failwith fmt

(* ------------------------------------------------------------------ *)
(* Comparisons *)

let show_locs s = String.concat " " (List.map (Format.asprintf "%a" F.pp_loc) s)

let same_solution name ~equal ~show (a : 'f F.solution) (b : 'f F.solution) =
  let check side x y =
    Array.iteri
      (fun i fx ->
        if not (equal fx y.(i)) then
          failf "%s: %s facts differ at node %d: %s vs reference %s" name side i
            (show fx) (show y.(i)))
      x
  in
  check "before" a.F.before b.F.before;
  check "after" a.F.after b.F.after

let show_set s = show_locs (F.LocSet.elements s)

let show_opt = function None -> "unreachable" | Some s -> show_set s

let equal_opt a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> F.LocSet.equal a b
  | _ -> false

let show_ints s = String.concat " " (List.map string_of_int (F.IntSet.elements s))

(** Every analysis of the library equals its reference on [k]. *)
let flow_equivalent (k : Ast.kernel) =
  let g = F.build k in
  Array.iteri
    (fun i _ ->
      if F.uses g i <> R.Flow.uses g i then
        failf "uses differ at node %d: %s vs %s" i (show_locs (F.uses g i))
          (show_locs (R.Flow.uses g i));
      if F.defs_at g i <> R.Flow.defs_at g i then
        failf "defs differ at node %d: %s vs %s" i (show_locs (F.defs_at g i))
          (show_locs (R.Flow.defs_at g i)))
    g.F.nodes;
  let r = F.reaching g and r' = R.Flow.reaching g in
  if r.F.r_defs <> r'.F.r_defs then failf "definition sites differ";
  same_solution "reaching" ~equal:F.IntSet.equal ~show:show_ints r.F.r_sol
    r'.F.r_sol;
  same_solution "live" ~equal:F.LocSet.equal ~show:show_set (F.live g)
    (R.Flow.live g);
  same_solution "must_init" ~equal:equal_opt ~show:show_opt (F.must_init g)
    (R.Flow.must_init g);
  same_solution "anticipated" ~equal:equal_opt ~show:show_opt
    (F.anticipated g) (R.Flow.anticipated g);
  (* [live_at] and [reaching_defs_of] over every fact set and use *)
  let live = F.live g in
  Array.iteri
    (fun i _ ->
      List.iter
        (fun l ->
          if F.live_at live.F.after.(i) l <> R.Flow.live_at live.F.after.(i) l
          then failf "live_at differs at node %d" i;
          if F.reaching_defs_of r i l <> R.Flow.reaching_defs_of r i l then
            failf "reaching_defs_of differs at node %d" i)
        (F.uses g i @ F.defs_at g i))
    g.F.nodes;
  if F.use_before_def g <> R.Flow.use_before_def g then
    failf "use_before_def differs";
  true

let same_fp name (a : V.array_fp) (b : V.array_fp) =
  if a.V.size <> b.V.size then failf "%s: size %d vs %d" name a.V.size b.V.size;
  List.iter
    (fun (what, x, y) ->
      if not (Bytes.equal x y) then failf "%s: %s bytes differ" name what)
    [
      ("may_read", a.V.may_read, b.V.may_read);
      ("may_write", a.V.may_write, b.V.may_write);
      ("must_write", a.V.must_write, b.V.must_write);
    ];
  if a.V.oob_read <> b.V.oob_read then failf "%s: oob_read differs" name;
  if a.V.oob_write <> b.V.oob_write then failf "%s: oob_write differs" name

(** The slot-compiled footprint equals the interpreted one on [k]. *)
let footprint_equivalent ?max_points (k : Ast.kernel) =
  let a = V.footprint ?max_points k and b = R.Footprint.footprint ?max_points k in
  let show sk = String.concat "; " (List.map (fun (n, r) -> n ^ ": " ^ r) sk) in
  if a.V.skipped <> b.V.skipped then
    failf "skipped differ: [%s] vs reference [%s]" (show a.V.skipped)
      (show b.V.skipped);
  if List.map fst a.V.arrays <> List.map fst b.V.arrays then
    failf "enumerated arrays differ";
  List.iter2 (fun (n, x) (_, y) -> same_fp n x y) a.V.arrays b.V.arrays;
  true

(** The tier-1 footprint count equals the interpreted walk on [k]
    wherever the walk finishes within its budget. *)
let quick_footprint_equivalent (k : Ast.kernel) =
  let counts, finished = R.Quick_footprint.footprint k in
  let l, s = Hls.Quick.footprint k in
  if finished && counts <> (l, s) then
    failf "quick footprint (%d, %d) vs reference (%d, %d)" l s (fst counts)
      (snd counts);
  true

(* ------------------------------------------------------------------ *)
(* A footprint-hostile generator: data-dependent, unevaluable and
   out-of-box subscripts, undeclared arrays, arity mismatches, known
   and unknown scalars (some updated from their own value), decidable
   and undecidable guards, division by zero, rotations, zero-trip and
   non-positive-stride loops, a duplicate array declaration. Arrays [c]
   and [d] take mostly evaluable subscripts (constants, loop indices,
   the scalar [u]), so they usually stay enumerated and their bytes are
   compared; [a] takes arbitrary ones and is usually skipped. *)

let gen_rough_kernel : Ast.kernel G.t =
  let open G in
  let scalar = oneofl [ "s"; "t"; "r0"; "r1"; "u" ] in
  let bin sub =
    map3
      (fun op x y -> Ast.Bin (op, x, y))
      (oneofl
         Ast.
           [
             Add; Sub; Mul; Div; Mod; Lt; Le; Gt; Ge; Eq; Ne; And; Or; Band;
             Bor; Bxor; Shl; Shr; Min; Max;
           ])
      sub sub
  in
  let cond sub = map3 (fun c x y -> Ast.Cond (c, x, y)) sub sub sub in
  let rec clean depth =
    let leaf =
      frequency
        [
          (2, map (fun n -> Ast.Int n) (int_range (-1) 8));
          (3, map (fun v -> Ast.Var v) (oneofl [ "i"; "j"; "u"; "r0" ]));
        ]
    in
    if depth = 0 then leaf
    else
      let sub = clean (depth - 1) in
      frequency [ (4, leaf); (2, bin sub); (1, cond sub) ]
  in
  let rec expr depth =
    let leaf =
      oneof
        [
          map (fun n -> Ast.Int n) (int_range (-2) 7);
          map (fun v -> Ast.Var v) (oneofl [ "s"; "t"; "p"; "r0"; "r1"; "i"; "j"; "u" ]);
        ]
    in
    if depth = 0 then leaf
    else
      let sub = expr (depth - 1) in
      frequency
        [
          (3, leaf);
          (3, map (fun x -> Ast.Arr ("c", [ x ])) (clean 1));
          (2, map2 (fun x y -> Ast.Arr ("d", [ x; y ])) (clean 1) (clean 1));
          (1, map (fun x -> Ast.Arr ("a", [ x ])) sub);
          (1, map2 (fun x y -> Ast.Arr ("a", [ x; y ])) sub sub);
          (1, map (fun x -> Ast.Arr ("nope", [ x ])) sub);
          (3, bin sub);
          (1, map2 (fun op x -> Ast.Un (op, x)) (oneofl Ast.[ Neg; Not; Bnot; Abs ]) sub);
          (1, cond sub);
        ]
  in
  let store target subs e = Ast.Assign (Ast.Larr (target, subs), e) in
  let rec stmt depth =
    let e = expr 2 in
    let assign =
      frequency
        [
          (3, map2 (fun v e -> Ast.Assign (Ast.Lvar v, e)) scalar e);
          (* known values, and updates that read the scalar they write *)
          (1, map2 (fun v n -> Ast.Assign (Ast.Lvar v, Ast.Int n)) scalar (int_range 0 4));
          ( 1,
            map2
              (fun v n -> Ast.Assign (Ast.Lvar v, Ast.Bin (Ast.Add, Ast.Var v, Ast.Int n)))
              scalar (int_range (-1) 2) );
          (3, map2 (fun x e -> store "c" [ x ] e) (clean 2) e);
          (2, map3 (fun x y e -> store "d" [ x; y ] e) (clean 1) (clean 1) e);
          (1, map2 (fun x e -> store "d" [ x ] e) (clean 1) e);
          (1, map2 (fun x e -> store "a" [ x ] e) (expr 1) e);
          (1, map2 (fun x e -> store "nope" [ x ] e) (expr 1) e);
          (1, return (Ast.Rotate [ "r0"; "r1" ]));
        ]
    in
    if depth = 0 then assign
    else
      let body = list_size (int_range 0 3) (stmt (depth - 1)) in
      frequency
        [
          (3, assign);
          (1, map3 (fun c t e -> Ast.If (c, t, e)) (oneof [ clean 1; expr 1 ]) body body);
          ( 3,
            map3
              (fun (index, lo) (hi, step) body ->
                Ast.For { Ast.index; lo; hi; step; body; l_span = None })
              (pair (oneofl [ "i"; "j" ]) (int_range 0 2))
              (pair (int_range 0 6) (frequency [ (12, return 1); (4, return 2); (1, return 0); (1, return (-1)) ]))
              body );
        ]
  in
  let* u0 = int_range 0 3 in
  let* body = list_size (int_range 1 6) (stmt 2) in
  let* dup = bool in
  return
    {
      Ast.k_name = "rough";
      k_arrays =
        [ Ast.array_decl "a" [ 6 ]; Ast.array_decl "c" [ 8 ]; Ast.array_decl "d" [ 3; 3 ] ]
        @ if dup then [ Ast.array_decl "c" [ 5 ] ] else [];
      k_scalars =
        [
          Ast.scalar_decl "s";
          Ast.scalar_decl "t";
          Ast.scalar_decl "u";
          Ast.scalar_decl ~kind:Ast.Param "p";
          Ast.scalar_decl ~kind:Ast.Register "r0";
          Ast.scalar_decl ~kind:Ast.Register "r1";
        ];
      k_body = Ast.Assign (Ast.Lvar "u", Ast.Int u0) :: body;
    }

let gen_budget = G.(option (int_range 0 60))

(* [u = 3; u = u + 1; a[u] = 0]: the update reads the value it
   replaces, so [u] stays known and the store lands on a[4]. *)
let test_self_update () =
  let k =
    {
      Ast.k_name = "self_update";
      k_arrays = [ Ast.array_decl "a" [ 6 ] ];
      k_scalars = [ Ast.scalar_decl "u" ];
      k_body =
        [
          Ast.Assign (Ast.Lvar "u", Ast.Int 3);
          Ast.Assign (Ast.Lvar "u", Ast.Bin (Ast.Add, Ast.Var "u", Ast.Int 1));
          Ast.Assign (Ast.Larr ("a", [ Ast.Var "u" ]), Ast.Int 0);
        ];
    }
  in
  ignore (footprint_equivalent k);
  match (V.footprint k).V.arrays with
  | [ ("a", fp) ] ->
      Alcotest.(check string) "a[4] written" "\000\000\000\000\001\000"
        (Bytes.to_string fp.V.must_write)
  | _ -> Alcotest.fail "a not enumerated"

(* ------------------------------------------------------------------ *)
(* Built-in stage outputs *)

let builtins () =
  List.map (fun n -> (n, Option.get (Kernels.find n))) Kernels.names
  @ List.map (fun n -> (n, Option.get (Gallery.find n))) Gallery.names

(** The source and every stage output of [k] at each unroll vector of
    product at most 8. *)
let stage_outputs (k : Ast.kernel) =
  let ctx = Dse.Design.context k in
  let eligible = List.map (fun (l : Ast.loop) -> l.Ast.index) ctx.Dse.Design.env.spine in
  k
  :: List.concat_map
       (fun vector ->
         let outs = ref [] in
         ignore
           (Transform.Pipeline.apply
              ~observe:(fun _ ~before:_ ~after -> outs := after :: !outs)
              { Transform.Pipeline.default with vector }
              k);
         List.rev !outs)
       (Dse.Util.divisor_vectors ~max_product:8 ctx ~eligible)

let test_builtin_stages () =
  List.iter
    (fun (name, k) ->
      List.iteri
        (fun i s ->
          let where = Printf.sprintf "%s stage output %d" name i in
          (try
             ignore
               (flow_equivalent s && footprint_equivalent s
              && quick_footprint_equivalent s)
           with Failure m -> Alcotest.failf "%s: %s" where m);
          (* a budget below the kernel's size exhausts it *)
          try ignore (footprint_equivalent ~max_points:50 s)
          with Failure m -> Alcotest.failf "%s, budget 50: %s" where m)
        (stage_outputs k))
    (builtins ())

(* Every built-in and gallery kernel, strip-mined for each tile option
   of the joint sweep — the sources tier-1 facts are computed from. *)
let test_builtin_tiles () =
  List.iter
    (fun (name, k) ->
      let ctx = Dse.Design.context k in
      List.iter
        (fun tile ->
          let src, where =
            match tile with
            | None -> (k, name)
            | Some (index, t) ->
                ( Transform.Tiling.tile_for_registers ~index ~tile:t k,
                  Printf.sprintf "%s tiled %s=%d" name index t )
          in
          try ignore (quick_footprint_equivalent src)
          with Failure m -> Alcotest.failf "%s: %s" where m)
        (Dse.Space.joint_tile_options ctx
           ~candidates:Dse.Space.default_tile_candidates))
    (builtins ())

(* Past the walk's step budget the per-access count stays exact: the
   [j] loop multiplies the walk's steps but not the points of [a[i]] or
   [c[i]], which never mention it. *)
let test_past_budget () =
  let k =
    Builder.(
      kernel "past_budget"
        ~arrays:[ Ast.array_decl "a" [ 600 ]; Ast.array_decl "b" [ 400 ]; Ast.array_decl "c" [ 600 ] ]
        [
          for_ "i" 0 600 (fun i ->
              [
                for_ "j" 0 400 (fun j ->
                    [ store1 "c" i (arr1 "c" i + (arr1 "a" i * arr1 "b" j)) ]);
              ]);
        ])
  in
  let partial, finished = R.Quick_footprint.footprint k in
  Alcotest.(check bool) "the reference runs out of budget" false finished;
  let exact, finished = R.Quick_footprint.footprint ~budget:max_int k in
  Alcotest.(check bool) "an unlimited reference finishes" true finished;
  let counts = Hls.Quick.footprint k in
  Alcotest.(check (pair int int)) "exact count" exact counts;
  Alcotest.(check (pair int int)) "a[], b[] loads and c[] stores" (1000, 600) counts;
  Alcotest.(check bool) "at least the partial count" true
    (fst counts >= fst partial && snd counts >= snd partial)

(* A caller-supplied source footprint changes nothing. *)
let test_primed_run =
  Helpers.qtest "Validate.run with a primed source footprint" ~count:60
    G.(Helpers.gen_kernel >>= fun k -> pair (return k) (Helpers.gen_vector_for k))
    (fun (k, vector) ->
      let options = { Transform.Pipeline.default with vector } in
      let plain = V.run ~options k in
      let primed = V.run ~options ~source_footprint:(V.footprint k) k in
      List.map Check.Diag.render plain.V.diags
      = List.map Check.Diag.render primed.V.diags
      && Option.map (fun r -> r.Transform.Pipeline.kernel) plain.V.result
         = Option.map (fun r -> r.Transform.Pipeline.kernel) primed.V.result)

(* Skipping the advisory checks drops exactly the advisory findings. *)
let test_wellformed_threshold =
  Helpers.qtest "Wellformed ~min_severity:Error = its errors" ~count:200
    gen_rough_kernel (fun k ->
      Check.Wellformed.check ~min_severity:Check.Diag.Error k
      = Check.Diag.errors (Check.Wellformed.check k))

(* ------------------------------------------------------------------ *)
(* Simplification *)

(* [a1], [a2] are two runs of one implementation on the same input and
   [b1], [b2] two runs of the other. A block is carried over from the
   input exactly when both runs of its implementation return the same
   physical block (fresh blocks differ from run to run), so the two
   implementations agree structurally and in sharing when at every
   position either both carry over the very same block or both build a
   fresh one whose fields agree in turn. Strings are compared by value. *)
let rec same_sharing (a1 : Obj.t) a2 (b1 : Obj.t) b2 =
  if Obj.is_int a1 || Obj.is_int b1 then a1 == b1
  else if Obj.tag a1 = Obj.string_tag || Obj.tag b1 = Obj.string_tag then
    Obj.tag a1 = Obj.tag b1 && (Obj.obj a1 : string) = Obj.obj b1
  else
    let kept_a = a1 == a2 and kept_b = b1 == b2 in
    if kept_a || kept_b then kept_a && kept_b && a1 == b1
    else
      Obj.tag a1 = Obj.tag b1
      && Obj.size a1 = Obj.size b1
      &&
      if Obj.tag a1 >= Obj.no_scan_tag then compare a1 b1 = 0
      else
        let rec fields i =
          i >= Obj.size a1
          || same_sharing (Obj.field a1 i) (Obj.field a2 i) (Obj.field b1 i)
               (Obj.field b2 i)
             && fields (i + 1)
        in
        fields 0

(** [Simplify.run] equals the reference on [k], structurally and in
    which blocks come back physically unchanged, and a second run
    changes nothing. *)
let simplify_equivalent (k : Ast.kernel) =
  let run = Transform.Simplify.run and run_ref = R.Simplify.run in
  let a1 = run k and a2 = run k and b1 = run_ref k and b2 = run_ref k in
  if a1 <> b1 then
    failf "differs from the reference:\n%s\nreference:\n%s"
      (Pretty.kernel_to_string a1) (Pretty.kernel_to_string b1);
  if not (same_sharing (Obj.repr a1) (Obj.repr a2) (Obj.repr b1) (Obj.repr b2))
  then failf "shares differently from the reference";
  if (run a1).Ast.k_body != a1.Ast.k_body then failf "a second run changes the body";
  true

(* Scalar chains in unsorted name order with coefficients of +-1 and
   +-k, nested constants, negations, products by constants on either
   side, division by dividing and non-dividing constants (zero and one
   included), conditionals, comparisons and array reads, used as right-
   hand sides, stored-to subscripts, branch conditions and inside a
   single-iteration loop. *)
let gen_simplify_kernel : Ast.kernel G.t =
  let open G in
  let names = [ "k"; "b"; "z"; "a"; "i"; "j" ] in
  let var = map (fun v -> Ast.Var v) (oneofl names) in
  let int = map (fun n -> Ast.Int n) (oneofl [ 0; 1; -1; 2; 3; -4; 6 ]) in
  let term =
    map3
      (fun c v left ->
        if c = 1 then v
        else if left then Ast.Bin (Ast.Mul, Ast.Int c, v)
        else Ast.Bin (Ast.Mul, v, Ast.Int c))
      (oneofl [ 1; -1; 2; -2; 3; -3; 0 ])
      var bool
  in
  let chain =
    let* first = term in
    let* rest =
      list_size (int_range 0 4)
        (pair (oneofl [ Ast.Add; Ast.Sub ]) (frequency [ (3, term); (1, int) ]))
    in
    return (List.fold_left (fun acc (op, t) -> Ast.Bin (op, acc, t)) first rest)
  in
  let rec expr depth =
    if depth = 0 then frequency [ (3, chain); (1, var); (1, int) ]
    else
      let sub = expr (depth - 1) in
      frequency
        [
          (3, chain);
          (1, int);
          ( 3,
            map3
              (fun op x y -> Ast.Bin (op, x, y))
              (oneofl [ Ast.Add; Ast.Sub; Ast.Mul ])
              sub sub );
          ( 2,
            map2
              (fun op (x, n) -> Ast.Bin (op, x, Ast.Int n))
              (oneofl [ Ast.Add; Ast.Sub ])
              (pair sub (int_range (-3) 3)) );
          (2, map2 (fun x d -> Ast.Bin (Ast.Div, x, Ast.Int d)) sub (oneofl [ 0; 1; 2; 3; -2; 9 ]));
          (1, map (fun x -> Ast.Un (Ast.Neg, x)) sub);
          (1, map2 (fun op x -> Ast.Un (op, x)) (oneofl Ast.[ Not; Bnot; Abs ]) sub);
          ( 1,
            map3
              (fun c t e -> Ast.Cond (c, t, e))
              (frequency [ (1, int); (2, sub) ])
              sub sub );
          ( 1,
            map3
              (fun op x y -> Ast.Bin (op, x, y))
              (oneofl Ast.[ Lt; Eq; Mod; And; Or; Min ])
              sub sub );
          (1, map (fun x -> Ast.Arr ("x", [ x ])) sub);
        ]
  in
  let e = expr 3 in
  let* rhs = list_size (int_range 1 3) e in
  let* sub = e and* stored = e and* cond = e and* inner = e in
  return
    {
      Ast.k_name = "simplify";
      k_arrays = [ Ast.array_decl "x" [ 64 ]; Ast.array_decl "y" [ 64 ] ];
      k_scalars = List.map Ast.scalar_decl ("s" :: names);
      k_body =
        List.map (fun e -> Ast.Assign (Ast.Lvar "s", e)) rhs
        @ [
            Ast.Assign (Ast.Larr ("y", [ sub ]), stored);
            Ast.If (cond, [ Ast.Assign (Ast.Lvar "s", stored) ], []);
            Ast.For
              {
                Ast.index = "i";
                lo = 2;
                hi = 3;
                step = 1;
                body = [ Ast.Assign (Ast.Larr ("y", [ inner ]), Ast.Var "i") ];
                l_span = None;
              };
          ];
    }

(* Every stage input and output of every built-in and gallery kernel
   over its product-64 lattice, peel and LICM each on and off. *)
let test_simplify_stages () =
  List.iter
    (fun (name, k) ->
      let ctx = Dse.Design.context k in
      let eligible = List.map (fun (l : Ast.loop) -> l.Ast.index) ctx.Dse.Design.env.spine in
      List.iter
        (fun vector ->
          let seen = ref [] in
          let check (kernel : Ast.kernel) =
            if not (List.memq kernel !seen) then begin
              seen := kernel :: !seen;
              try ignore (simplify_equivalent kernel)
              with Failure m ->
                Alcotest.failf "%s %s: %s" name (Helpers.vector_to_string vector) m
            end
          in
          List.iter
            (fun (peel, licm) ->
              ignore
                (Transform.Pipeline.apply
                   ~observe:(fun _ ~before ~after ->
                     check before;
                     check after)
                   { Transform.Pipeline.default with vector; peel; licm }
                   k))
            [ (true, true); (true, false); (false, true); (false, false) ])
        (Dse.Util.divisor_vectors ~max_product:64 ctx ~eligible))
    (builtins ())

(* ------------------------------------------------------------------ *)
(* Scheduler and data layout *)

(* Both memory models, chaining off and on. *)
let sched_profiles =
  List.concat_map
    (fun pipelined ->
      List.map
        (fun chaining ->
          let p = Hls.Estimate.default_profile ~pipelined ~chaining () in
          ( Printf.sprintf "pipelined=%b chaining=%b" pipelined chaining,
            { Hls.Schedule.device = p.Hls.Estimate.device; mem = p.Hls.Estimate.mem; chaining } ))
        [ false; true ])
    [ true; false ]

(* One DFG scratch for every block of the run, as the estimator keeps
   one per domain: each block is built over what the previous ones, of
   other kernels, left behind. *)
let dfg_scratch = Hls.Dfg.scratch ()

(* Hand [f] every block the estimator builds for [k], in its order (the
   maximal straight-line chunks of each statement list, loop bodies
   included): the library's graph, while its view is valid, and the
   reference builder's. Memories come from the data layout unless
   [mem_of] says otherwise. *)
let iter_blocks ?mem_of (k : Ast.kernel) f =
  let accesses = Analysis.Access.collect k.Ast.k_body in
  let mem_of =
    match mem_of with
    | Some m -> m
    | None ->
        Data_layout.Layout.memory_of (Data_layout.Layout.assign ~num_memories:4 k accesses)
  in
  let build =
    Hls.Dfg.block_builder ~scratch:dfg_scratch ~kernel:k ~mem_of
      ~cursor:(Hls.Dfg.cursor_of accesses)
  and build_ref = R.Dfg.block_builder ~kernel:k ~mem_of ~cursor:(R.Dfg.cursor_of accesses) in
  let rec walk body =
    let flush chunk =
      match List.rev chunk with
      | [] -> ()
      | stmts -> (
          match build_ref stmts with
          | r -> f (build stmts) r
          | exception ((Invalid_argument _ | Hls.Dfg.Desync _) as e) ->
              (* a block the estimator never sees: the library must
                 refuse it the same way, and the cursors are spent *)
              let same =
                match (build stmts, e) with
                | _ -> false
                | exception Invalid_argument m -> e = Invalid_argument m
                | exception Hls.Dfg.Desync _ -> (
                    match e with Hls.Dfg.Desync _ -> true | _ -> false)
              in
              if not same then failf "the reference raises %s" (Printexc.to_string e);
              raise_notrace Exit)
    in
    let rec go chunk = function
      | [] -> flush chunk
      | Ast.For l :: rest ->
          flush chunk;
          walk l.Ast.body;
          go [] rest
      | s :: rest -> go (s :: chunk) rest
    in
    go [] body
  in
  try walk k.Ast.k_body with Exit -> ()

(* One scratch for every block of the run: each block starts from what
   the previous ones, of other kernels and profiles, left behind. *)
let sched_scratch = Hls.Schedule.scratch ()

let modes = [ ("joint", `Joint); ("mem_only", `Mem_only); ("comp_only", `Comp_only) ]

(** [run_tri], on the shared scratch and on a fresh one, and [run] in
    every mode equal the reference on every block of [k], under every
    profile. *)
let schedule_equivalent (k : Ast.kernel) =
  iter_blocks k (fun g g_ref ->
      List.iter
        (fun (what, p) ->
          let r = R.Schedule.run_tri p g_ref in
          if Hls.Schedule.run_tri ~scratch:sched_scratch p g <> r then
            failf "run_tri on the shared scratch differs (%s)" what;
          if Hls.Schedule.run_tri p g <> r then failf "run_tri differs (%s)" what;
          List.iter
            (fun (name, mode) ->
              if Hls.Schedule.run ~mode p g <> R.Schedule.run ~mode p g_ref then
                failf "run ~mode:%s differs (%s)" name what)
            modes)
        sched_profiles);
  true

(** The flat graph of every block of [k] decodes to the reference
    builder's nodes, has its fingerprint, and its owned copy decodes
    and schedules alike. *)
let dfg_equivalent ?mem_of (k : Ast.kernel) =
  iter_blocks ?mem_of k (fun g g_ref ->
      if g.Hls.Dfg.len <> g_ref.R.Dfg.len then
        failf "%d nodes, reference %d" g.Hls.Dfg.len g_ref.R.Dfg.len;
      let nodes = Hls.Dfg.nodes g in
      Array.iteri
        (fun i n ->
          if n <> g_ref.R.Dfg.nodes.(i) then failf "node %d differs from the reference" i)
        nodes;
      if Hls.Dfg.fingerprint g <> g_ref.R.Dfg.fp then failf "fingerprint differs";
      let c = Hls.Dfg.copy g in
      if Hls.Dfg.nodes c <> nodes || Hls.Dfg.fingerprint c <> g_ref.R.Dfg.fp then
        failf "the copy differs";
      List.iter
        (fun (what, p) ->
          if Hls.Schedule.run_tri ~scratch:sched_scratch p g <> R.Schedule.run_tri p g_ref
          then failf "run_tri differs (%s)" what)
        sched_profiles);
  true

(** [Layout.assign] equals the reference on [k]'s accesses for 1, 2, 4
    and 8 memories: shapes, banks, physical binding, and every access's
    memory. *)
let layout_equivalent (k : Ast.kernel) =
  let module L = Data_layout.Layout in
  let accesses = Analysis.Access.collect k.Ast.k_body in
  List.iter
    (fun num_memories ->
      let a = L.assign ~num_memories k accesses
      and b = R.Layout.assign ~num_memories k accesses in
      if a.L.shapes <> b.R.Layout.shapes then failf "%d memories: shapes differ" num_memories;
      if a.L.banks <> b.R.Layout.banks then failf "%d memories: banks differ" num_memories;
      if a.L.phys <> b.R.Layout.phys then failf "%d memories: phys differs" num_memories;
      List.iter
        (fun (acc : Analysis.Access.t) ->
          if L.memory_of a acc <> R.Layout.memory_of b acc then
            failf "%d memories: access %d's memory differs" num_memories acc.id)
        accesses)
    [ 1; 2; 4; 8 ];
  true

(* [check] on every point of every built-in and gallery kernel's
   product-64 unroll sweep. *)
let on_builtin_sweeps check () =
  List.iter
    (fun (name, k) ->
      let ctx = Dse.Design.context k in
      let eligible = List.map (fun (l : Ast.loop) -> l.Ast.index) ctx.Dse.Design.env.spine in
      List.iter
        (fun vector ->
          let r = Transform.Pipeline.apply { Transform.Pipeline.default with vector } k in
          try ignore (check r.Transform.Pipeline.kernel)
          with Failure m ->
            Alcotest.failf "%s %s: %s" name (Helpers.vector_to_string vector) m)
        (Dse.Util.divisor_vectors ~max_product:64 ctx ~eligible))
    (builtins ())

(* Accesses that only the stride-modulus legality check tells apart:
   coefficients 0-3 on two indices (constant subscripts included), loop
   steps 1-3 and lower bounds 0-2, several reads of one array with
   different coefficients in one context, and sometimes a second
   context that leaves out the inner loop. *)
let gen_layout_kernel : Ast.kernel G.t =
  let open G in
  let sub =
    map3
      (fun ci cj c -> Affine.to_expr (Affine.make [ ("i", ci); ("j", cj) ] c))
      (int_range 0 3) (int_range 0 3) (int_range 0 4)
  in
  let loop index (lo, step) body =
    Ast.For { Ast.index; lo; hi = lo + 8; step; body; l_span = None }
  in
  let bounds = pair (int_range 0 2) (int_range 1 3) in
  let* reads = list_size (int_range 1 4) (map2 (fun x y -> Ast.Arr ("a", [ x; y ])) sub sub) in
  let* x = sub and* y = sub and* li = bounds and* lj = bounds and* second = bool in
  let body =
    [
      Ast.Assign
        ( Ast.Larr ("b", [ x; y ]),
          List.fold_left (fun acc r -> Ast.Bin (Ast.Add, acc, r)) (Ast.Int 0) reads );
    ]
  in
  return
    {
      Ast.k_name = "layout";
      k_arrays = [ Ast.array_decl "a" [ 64; 64 ]; Ast.array_decl "b" [ 64; 64 ] ];
      k_scalars = [];
      k_body = loop "i" li [ loop "j" lj body ] :: (if second then [ loop "i" li body ] else []);
    }

(* A generated kernel, unroll-and-jammed by a generated vector. *)
let gen_transformed =
  G.(
    Helpers.gen_kernel >>= fun k ->
    Helpers.gen_vector_for k >>= fun vector ->
    return
      (Transform.Pipeline.apply { Transform.Pipeline.default with vector } k)
        .Transform.Pipeline.kernel)

(* ------------------------------------------------------------------ *)
(* Scalar replacement *)

(** [Scalar_replace.run] equals the former pass on [k]: the kernel and
    the report. *)
let sr_equivalent ?config (k : Ast.kernel) =
  let k1, r1 = Transform.Scalar_replace.run ?config k
  and k2, r2 = R.Scalar_replace.run ?config k in
  if k1 <> k2 then
    failf "kernel differs from the reference:\n%s\nreference:\n%s"
      (Helpers.kernel_print k1) (Helpers.kernel_print k2);
  if r1 <> r2 then failf "report differs from the reference";
  true

(* The input of the scalar-replacement stage under [opts], and the
   configuration it runs with. *)
let sr_input (opts : Transform.Pipeline.options) k =
  let input = ref None in
  ignore
    (Transform.Pipeline.front
       ~observe:(fun stage ~before ~after:_ ->
         if stage = Transform.Pipeline.Scalar_replace then input := Some before)
       opts k);
  (Option.get !input, opts.Transform.Pipeline.scalar)

(* Every front of every built-in and gallery kernel's product-64 joint
   lattice: each tile option and unroll vector, replacement on and off. *)
let test_sr_fronts () =
  List.iter
    (fun (name, k) ->
      let ctx = Dse.Design.context k in
      let eligible = List.map (fun (l : Ast.loop) -> l.Ast.index) ctx.Dse.Design.env.spine in
      List.iter
        (fun tile ->
          List.iter
            (fun vector ->
              List.iter
                (fun scalar_replace ->
                  let opts =
                    Transform.Pipeline.apply_config ~base:Transform.Pipeline.default
                      { Transform.Pipeline.vector; tile; scalar_replace; peel = true; licm = true }
                  in
                  let input, config = sr_input opts k in
                  try ignore (sr_equivalent ~config input)
                  with Failure m ->
                    Alcotest.failf "%s %s: %s" name
                      (Transform.Pipeline.config_to_string
                         (Transform.Pipeline.config_of_options opts))
                      m)
                [ true; false ])
            (Dse.Util.divisor_vectors ~max_product:64 ctx ~eligible))
        (Dse.Space.joint_tile_options ctx ~candidates:Dse.Space.default_tile_candidates))
    (builtins ())

(* Budgets from none to plenty, chain spans 1-4, banks and chains each
   on or off. *)
let gen_sr_config : Transform.Scalar_replace.config G.t =
  G.(
    map4
      (fun across_loops chains max_chain_span max_registers ->
        { Transform.Scalar_replace.across_loops; chains; max_chain_span; max_registers })
      bool bool (int_range 1 4)
      (oneofl [ 0; 1; 2; 3; 5; 8; 13; 60; 2048 ]))

(* A generated kernel unroll-and-jammed by a generated vector, with a
   generated replacement configuration. *)
let gen_sr_case gen_kernel =
  G.(
    gen_kernel >>= fun k ->
    Helpers.gen_vector_for k >>= fun vector ->
    gen_sr_config >>= fun config ->
    return (fst (sr_input { Transform.Pipeline.default with vector } k), config))

let sr_case_equivalent (k, config) = sr_equivalent ~config k

(* Two loops over arrays read at several offsets of one coupled pattern
   [a*i + b*j + c] (one or two dimensions): members whose residues agree
   but whose dependence system has a free variable, so the fast chain
   partition fails its check and the pairwise scan decides. The result
   sometimes accumulates, read and written at different offsets of one
   pattern. *)
let gen_coupled_kernel : Ast.kernel G.t =
  let open G in
  let* ti = int_range 2 8 and* tj = int_range 2 8 in
  let* a = int_range 0 2 and* b = int_range 1 2 in
  let* two_d = bool in
  let* offsets = list_size (int_range 2 6) (pair (int_range 0 3) (int_range 0 3)) in
  let* accumulate = bool and* cw = int_range 0 2 and* cr = int_range 0 2 in
  let lin c = Affine.to_expr (Affine.make [ ("i", a); ("j", b) ] c) in
  let read (c, d) =
    if two_d then
      Ast.Arr ("s", [ Affine.to_expr (Affine.make [ ("i", 1); ("j", 1) ] c); lin d ])
    else Ast.Arr ("s", [ lin (c + d) ])
  in
  let rhs =
    List.fold_left (fun acc o -> Ast.Bin (Ast.Add, acc, read o)) (read (List.hd offsets))
      (List.tl offsets)
  in
  let out c = [ Ast.Bin (Ast.Add, Ast.Var "i", Ast.Int c) ] in
  let rhs = if accumulate then Ast.Bin (Ast.Add, Ast.Arr ("out", out cr), rhs) else rhs in
  let n = (2 * ti) + (2 * tj) + 8 in
  let loop index hi body = Ast.For { Ast.index; lo = 0; hi; step = 1; body; l_span = None } in
  return
    {
      Ast.k_name = "coupled";
      k_arrays =
        [
          (if two_d then Ast.array_decl "s" [ n; n ] else Ast.array_decl "s" [ n ]);
          Ast.array_decl "out" [ ti + 2 ];
        ];
      k_scalars = [];
      k_body = [ loop "i" ti [ loop "j" tj [ Ast.Assign (Ast.Larr ("out", out cw), rhs) ] ] ];
    }

(* Subscripts that read arrays, in a nest of one to three loops: a
   histogram [h[x[..]]], reads of a read-only table [t] through [x],
   [x] itself read at several offsets of one loop's index (so it chains
   along the innermost loop, or banks across an outer one), [t] read at
   [x[..]] plus the innermost index and 0 or 1 (affine once [x]'s read
   becomes a register), and a scalar loaded from [x] and used as a subscript. *)
let gen_indirect_kernel : Ast.kernel G.t =
  let open G in
  let* depth = int_range 1 3 in
  let indices = List.filteri (fun n _ -> n < depth) [ "i"; "j"; "k" ] in
  let* trips = list_repeat depth (int_range 1 5) in
  let* along = oneofl indices in
  let innermost = List.nth indices (depth - 1) in
  let x o = Ast.Arr ("x", [ Ast.Bin (Ast.Add, Ast.Var along, Ast.Int o) ]) in
  let* offs = list_size (int_range 1 3) (int_range 0 3) in
  let out = Ast.Arr ("out", [ Ast.Var (List.hd indices) ]) in
  let stmt kind o =
    match kind with
    | 0 -> Ast.Assign (Ast.Larr ("h", [ x o ]), Ast.Bin (Ast.Add, Ast.Arr ("h", [ x o ]), Ast.Int 1))
    | 1 -> Ast.Assign (Ast.Larr ("out", [ Ast.Var along ]), Ast.Bin (Ast.Add, x o, Ast.Arr ("t", [ x o ])))
    | 2 -> Ast.Assign (Ast.Larr ("out", [ Ast.Var (List.hd indices) ]), Ast.Bin (Ast.Add, out, x o))
    | 3 -> Ast.Assign (Ast.Lvar "v", x o)
    | 4 | 5 ->
        let sub = Ast.Bin (Ast.Add, x o, Ast.Bin (Ast.Add, Ast.Var innermost, Ast.Int (kind - 4))) in
        Ast.Assign (Ast.Larr ("out", [ Ast.Var (List.hd indices) ]), Ast.Bin (Ast.Add, out, Ast.Arr ("t", [ sub ])))
    | _ ->
        Ast.Assign
          (Ast.Larr ("h", [ Ast.Var "v" ]), Ast.Bin (Ast.Add, Ast.Arr ("h", [ Ast.Var "v" ]), Ast.Int 1))
  in
  let* kinds = list_size (int_range 1 4) (int_range 0 6) in
  let body = List.mapi (fun n kind -> stmt kind (List.nth offs (n mod List.length offs))) kinds in
  let nest =
    List.fold_right2
      (fun index hi inner -> [ Ast.For { Ast.index; lo = 0; hi; step = 1; body = inner; l_span = None } ])
      indices trips body
  in
  return
    {
      Ast.k_name = "indirect";
      k_arrays =
        [
          Ast.array_decl ~elem:Dtype.uint8 "x" [ 9 ];
          Ast.array_decl ~elem:Dtype.int16 "h" [ 256 ];
          Ast.array_decl ~elem:Dtype.int16 "t" [ 260 ];
          Ast.array_decl ~elem:Dtype.int32 "out" [ 5 ];
        ];
      k_scalars = [ Ast.scalar_decl ~elem:Dtype.uint8 "v" ];
      k_body = nest;
    }

(* Subscripts that turn affine when a bank or a chain replaces the read
   inside them, on every unroll vector: [t]'s reads through [x[j]]
   become [t[x_0_0 + j]] once [x] banks across [i], and [hist]'s element
   names a chain register of [img], which makes [hist]'s accesses look
   like one pattern to element CSE. *)
let test_sr_indirect () =
  List.iter
    (fun (name, src) ->
      let k = Frontend.Parser.kernel_of_string ~name src in
      let ctx = Dse.Design.context k in
      let eligible = List.map (fun (l : Ast.loop) -> l.Ast.index) ctx.Dse.Design.env.spine in
      List.iter
        (fun vector ->
          let input, config = sr_input { Transform.Pipeline.default with vector } k in
          try ignore (sr_equivalent ~config input)
          with Failure m -> Alcotest.failf "%s %s: %s" name (Helpers.vector_to_string vector) m)
        (Dse.Util.divisor_vectors ~max_product:16 ctx ~eligible))
    [
      ( "banked_index",
        {|unsigned char x[9]; short t[300]; int out[5];
          for (i = 0; i < 3; i++) for (j = 0; j < 4; j++)
            out[i] = out[i] + t[x[j] + j] + t[x[j] + j + 1];|} );
      ( "chained_index",
        {|unsigned char img[66]; short hist[256]; short out[64];
          for (i = 0; i < 64; i++) {
            out[i] = img[i] + img[i + 2];
            hist[img[i + 2]] = hist[img[i + 2]] + 1;
          }|} );
      ( "chained_index_and_constant",
        {|unsigned char img[66]; short hist[256]; short out[64];
          for (i = 0; i < 64; i++) {
            out[i] = img[i] + img[i + 2];
            hist[img[i + 2]] = hist[img[i + 2]] + 1;
            hist[7] = hist[7] + 1;
          }|} );
    ]

let () =
  Alcotest.run "reference-equiv"
    [
      ( "flow",
        [
          Helpers.qtest "analyses = reference (flow kernels)" ~count:300
            Helpers.gen_flow_kernel flow_equivalent;
          Helpers.qtest "analyses = reference (array nests)" ~count:100
            Helpers.gen_kernel flow_equivalent;
          Helpers.qtest "analyses = reference (rough kernels)" ~count:300
            gen_rough_kernel flow_equivalent;
        ] );
      ( "footprint",
        [
          Helpers.qtest "footprint = reference (array nests)" ~count:100
            G.(pair Helpers.gen_kernel gen_budget)
            (fun (k, max_points) -> footprint_equivalent ?max_points k);
          Helpers.qtest "footprint = reference (flow kernels)" ~count:200
            G.(pair Helpers.gen_flow_kernel gen_budget)
            (fun (k, max_points) -> footprint_equivalent ?max_points k);
          Helpers.qtest "footprint = reference (rough kernels)" ~count:500
            G.(pair gen_rough_kernel gen_budget)
            (fun (k, max_points) -> footprint_equivalent ?max_points k);
          Alcotest.test_case "self-updating scalar stays known" `Quick test_self_update;
          test_primed_run;
          test_wellformed_threshold;
        ] );
      ( "quick",
        [
          Helpers.qtest "footprint = reference (array nests)" ~count:200
            Helpers.gen_kernel quick_footprint_equivalent;
          Helpers.qtest "footprint = reference (flow kernels)" ~count:300
            Helpers.gen_flow_kernel quick_footprint_equivalent;
          Helpers.qtest "footprint = reference (rough kernels)" ~count:500
            gen_rough_kernel quick_footprint_equivalent;
          Alcotest.test_case "every tile option's source" `Quick test_builtin_tiles;
          Alcotest.test_case "exact past the walk's budget" `Quick test_past_budget;
        ] );
      ( "simplify",
        [
          Helpers.qtest "run = reference (expressions)" ~count:500
            gen_simplify_kernel simplify_equivalent;
          Helpers.qtest "run = reference (array nests)" ~count:100
            Helpers.gen_kernel simplify_equivalent;
          Alcotest.test_case "every stage boundary" `Quick test_simplify_stages;
        ] );
      ( "built-ins",
        [ Alcotest.test_case "every stage output" `Quick test_builtin_stages ] );
      ( "schedule",
        [
          Alcotest.test_case "every block of the built-in sweeps" `Quick
            (on_builtin_sweeps schedule_equivalent);
          Helpers.qtest "run_tri = reference (array nests)" ~count:100 gen_transformed
            schedule_equivalent;
          Helpers.qtest "run_tri = reference (flow kernels)" ~count:200
            Helpers.gen_flow_kernel schedule_equivalent;
        ] );
      ( "dfg",
        [
          Alcotest.test_case "every block of the built-in sweeps" `Quick
            (on_builtin_sweeps dfg_equivalent);
          Helpers.qtest "build = reference (array nests)" ~count:100 gen_transformed
            dfg_equivalent;
          Helpers.qtest "build = reference (flow kernels)" ~count:200
            Helpers.gen_flow_kernel dfg_equivalent;
          (* no data layout: it refuses subscript counts that disagree
             with the declaration, which the builder must still take *)
          Helpers.qtest "build = reference (rough kernels)" ~count:500 gen_rough_kernel
            (dfg_equivalent ~mem_of:(fun a -> a.Analysis.Access.id mod 4));
        ] );
      ( "layout",
        [
          Alcotest.test_case "every access of the built-in sweeps" `Quick
            (on_builtin_sweeps layout_equivalent);
          Helpers.qtest "assign = reference (array nests)" ~count:200 gen_transformed
            layout_equivalent;
          Helpers.qtest "assign = reference (flow kernels)" ~count:200
            Helpers.gen_flow_kernel layout_equivalent;
          Helpers.qtest "assign = reference (strided)" ~count:500 gen_layout_kernel
            layout_equivalent;
        ] );
      ( "scalar",
        [
          Alcotest.test_case "every front of the built-in joint lattices" `Quick test_sr_fronts;
          Helpers.qtest "run = reference (array nests)" ~count:300
            (gen_sr_case Helpers.gen_kernel) sr_case_equivalent;
          Helpers.qtest "run = reference (flow kernels)" ~count:300
            (gen_sr_case Helpers.gen_flow_kernel) sr_case_equivalent;
          Helpers.qtest "run = reference (coupled subscripts)" ~count:300
            (gen_sr_case gen_coupled_kernel) sr_case_equivalent;
          Helpers.qtest "run = reference (indirect subscripts)" ~count:300
            (gen_sr_case gen_indirect_kernel) sr_case_equivalent;
          Alcotest.test_case "subscripts through replaced reads" `Quick test_sr_indirect;
        ] );
    ]
