(** The optimized flow analyses and footprint enumerators against the
    straightforward references of [reference.ml]: every solution equal
    node for node, every legality walk's verdict equal to its flow-graph
    oracle's, every footprint equal byte for byte (oob flags and skip
    reasons included, budget exhaustion too), and every tier-1 footprint
    count equal to the reference footprint's certain elements.
    Run on the random kernel generators, on every stage output of the
    built-in and gallery kernels, and on their strip-mined sources. *)

open Ir
module F = Analysis.Flowgraph
module V = Check.Validate
module Fp = Analysis.Footprint
module U = Check.Uninit
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

(** The uninitialized-read walk names exactly the reference's scalar
    uses that are not initialized, once per node and name, with the
    node's span and rotation flag; its error count is that of the
    diagnostics. *)
let uninit_equivalent (k : Ast.kernel) =
  let g = F.build k in
  let seen = Hashtbl.create 16 in
  let expected =
    List.filter_map
      (fun (u : R.Flow.use_site) ->
        match (u.R.Flow.u_loc, u.R.Flow.u_status) with
        | F.Scalar name, (R.Flow.Uninitialized | R.Flow.Maybe_uninitialized)
          when not (Hashtbl.mem seen (u.R.Flow.u_node, name)) ->
            Hashtbl.add seen (u.R.Flow.u_node, name) ();
            Some (u.R.Flow.u_node, name, u.R.Flow.u_status = R.Flow.Uninitialized)
        | _ -> None)
      (R.Flow.use_before_def g)
  in
  let sites = U.sites k in
  let actual =
    List.map (fun (s : U.site) -> (s.U.node, s.U.name, s.U.status = U.Uninitialized)) sites
  in
  let show l =
    String.concat " "
      (List.map (fun (n, v, u) -> Printf.sprintf "%d:%s%s" n v (if u then "!" else "?")) l)
  in
  if actual <> expected then
    failf "uninit sites %s vs reference %s" (show actual) (show expected);
  List.iter
    (fun (s : U.site) ->
      let nd = g.F.nodes.(s.U.node) in
      if s.U.span <> nd.F.span then failf "uninit site %d: span differs" s.U.node;
      if s.U.rotation <> (match nd.F.kind with F.Rotate _ -> true | _ -> false) then
        failf "uninit site %d: rotation flag differs" s.U.node)
    sites;
  if U.errors k <> List.length (Check.Diag.errors (U.check k)) then
    failf "Uninit.errors %d vs %d error diagnostics" (U.errors k)
      (List.length (Check.Diag.errors (U.check k)));
  true

(** The legality walks give the graph oracles' verdicts: the same first
    scalar jam hazard, and the same foreign-access verdict on every
    uniformly generated set. *)
let legality_equivalent (g : F.t) =
  let k = g.F.kernel in
  let walk = Check.Legality.scalar_jam_hazard k
  and graph = R.Legality.scalar_jam_hazard g in
  let show = function None -> "none" | Some (l, s) -> l ^ ":" ^ s in
  if walk <> graph then
    failf "jam hazard %s vs graph %s" (show walk) (show graph);
  List.iter
    (fun (grp : Analysis.Reuse.group) ->
      let walk = Check.Legality.foreign_hazard k grp
      and graph = R.Legality.foreign_hazard g grp in
      if walk <> graph then
        failf "foreign hazard on %s set of %s: %s vs graph %s"
          (match grp.Analysis.Reuse.kind with
          | Analysis.Access.Read -> "read"
          | Analysis.Access.Write -> "write")
          grp.Analysis.Reuse.array
          (Option.value walk ~default:"none")
          (Option.value graph ~default:"none"))
    (Analysis.Reuse.groups k.Ast.k_body);
  true

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
  same_solution "live" ~equal:F.LocSet.equal ~show:show_set (F.live g)
    (R.Flow.live g);
  same_solution "anticipated" ~equal:equal_opt ~show:show_opt
    (F.anticipated g) (R.Flow.anticipated g);
  (* [live_at] over every fact set and use *)
  let live = F.live g in
  Array.iteri
    (fun i _ ->
      List.iter
        (fun l ->
          if F.live_at live.F.after.(i) l <> R.Flow.live_at live.F.after.(i) l
          then failf "live_at differs at node %d" i)
        (F.uses g i @ F.defs_at g i))
    g.F.nodes;
  uninit_equivalent k && legality_equivalent g

(* The elements of [fp] in [set], one byte each: 1 in, 0 out. *)
let members (fp : Fp.array_fp) set =
  String.init fp.Fp.size (fun i -> if Fp.mem fp set i then '\001' else '\000')

let same_fp name (a : Fp.array_fp) (b : Fp.array_fp) =
  if a.Fp.size <> b.Fp.size then failf "%s: size %d vs %d" name a.Fp.size b.Fp.size;
  if not (Bytes.equal a.Fp.flags b.Fp.flags) then failf "%s: flags differ" name;
  if a.Fp.oob_read <> b.Fp.oob_read then failf "%s: oob_read differs" name;
  if a.Fp.oob_write <> b.Fp.oob_write then failf "%s: oob_write differs" name

(** The slot-compiled footprint equals the interpreted one on [k]. *)
let footprint_equivalent ?max_points (k : Ast.kernel) =
  let a = Fp.footprint ?max_points k and b = R.Footprint.footprint ?max_points k in
  let show sk = String.concat "; " (List.map (fun (n, r) -> n ^ ": " ^ r) sk) in
  if a.Fp.skipped <> b.Fp.skipped then
    failf "skipped differ: [%s] vs reference [%s]" (show a.Fp.skipped)
      (show b.Fp.skipped);
  if List.map fst a.Fp.arrays <> List.map fst b.Fp.arrays then
    failf "enumerated arrays differ";
  List.iter2 (fun (n, x) (_, y) -> same_fp n x y) a.Fp.arrays b.Fp.arrays;
  true

(** The tier-1 footprint count on [k] equals the certain elements of
    the interpreted footprint: the must-reads of arrays [k] never
    writes, and every must-write. *)
let quick_footprint_equivalent (k : Ast.kernel) =
  let written =
    List.filter_map
      (fun (a : Analysis.Access.t) ->
        if Analysis.Access.is_write a then Some a.Analysis.Access.array else None)
      (Analysis.Access.collect k.Ast.k_body)
  in
  let expected =
    List.fold_left
      (fun (l, s) (name, fp) ->
        ( (if List.mem name written then l else l + Fp.count fp Fp.must_read),
          s + Fp.count fp Fp.must_write ))
      (0, 0) (R.Footprint.footprint k).Fp.arrays
  in
  let l, s = Hls.Quick.footprint k in
  if (l, s) <> expected then
    failf "quick footprint (%d, %d) vs reference (%d, %d)" l s (fst expected)
      (snd expected);
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

(* Nests whose inner loops mostly hold array accesses alone, the
   closed-form path of the footprint: affine subscripts with negative,
   zero and cancelling coefficients (some divided, so not affine),
   strides above 1, zero-trip and non-positive-stride loops, arity
   mismatches, the unknown parameter [p] alone or after an out-of-box
   subscript, LICM-style temporaries [t] and the known scalar [u] in
   subscripts, scalars [s] that feed no subscript, and rotations of
   registers, [r0] feeding subscripts and [r2] not. *)
let gen_scan_kernel : Ast.kernel G.t =
  let open G in
  let rec aff depth =
    let leaf =
      frequency
        [
          (2, map (fun n -> Ast.Int n) (int_range (-3) 6));
          (6, map (fun v -> Ast.Var v) (oneofl [ "i"; "j"; "j"; "t"; "u"; "r0"; "p" ]));
        ]
    in
    if depth = 0 then leaf
    else
      let sub = aff (depth - 1) in
      frequency
        [
          (4, leaf);
          (3, map2 (fun a b -> Ast.Bin (Ast.Add, a, b)) sub sub);
          (1, map2 (fun a b -> Ast.Bin (Ast.Sub, a, b)) sub sub);
          (1, map (fun a -> Ast.Un (Ast.Neg, a)) sub);
          (2, map2 (fun c a -> Ast.Bin (Ast.Mul, Ast.Int c, a)) (int_range (-2) 3) sub);
          (1, map2 (fun a c -> Ast.Bin (Ast.Mul, a, Ast.Int c)) sub (int_range (-2) 3));
          (1, map (fun a -> Ast.Bin (Ast.Div, a, Ast.Int 2)) sub);
        ]
  in
  let subs rank =
    let* n =
      frequency [ (8, return rank); (1, return (rank - 1)); (1, return (rank + 1)) ]
    in
    list_repeat (max 0 n) (aff 2)
  in
  let arrays = [ ("a", 1); ("b", 2); ("d", 2); ("e", 3) ] in
  let access =
    let* name, rank = oneofl arrays in
    let* subs = subs rank in
    return (name, subs)
  in
  let read = map (fun (a, subs) -> Ast.Arr (a, subs)) access in
  let value =
    frequency
      [
        (2, read);
        (1, map2 (fun x y -> Ast.Bin (Ast.Add, x, y)) read read);
        (1, return (Ast.Var "s"));
        (1, map (fun n -> Ast.Int n) (int_range 0 3));
      ]
  in
  let inner =
    frequency
      [
        (6, map2 (fun (a, subs) e -> Ast.Assign (Ast.Larr (a, subs), e)) access value);
        (2, map (fun e -> Ast.Assign (Ast.Lvar "s", e)) value);
        (1, return (Ast.Rotate [ "r2"; "r3" ]));
        (* these make the loop an ordinary one *)
        (1, return (Ast.Rotate [ "r0"; "r1" ]));
        (1, map (fun e -> Ast.Assign (Ast.Lvar "t", e)) (aff 1));
      ]
  in
  let loop index body =
    map3
      (fun lo (span, step) body ->
        Ast.For { Ast.index; lo; hi = lo + span; step; body; l_span = None })
      (int_range (-2) 3)
      (pair (int_range (-1) 9) (frequency [ (6, return 1); (3, int_range 2 3); (1, return 0) ]))
      body
  in
  let innermost = loop "j" (list_size (int_range 0 4) inner) in
  let outer =
    let* licm = option (map (fun e -> Ast.Assign (Ast.Lvar "t", e)) (aff 1)) in
    let* inners = list_size (int_range 1 2) innermost in
    let* after = list_size (int_range 0 1) inner in
    loop "i" (return (Option.to_list licm @ inners @ after))
  in
  let* r0 = int_range 0 3 and* u = int_range 0 2 in
  let* body = list_size (int_range 1 3) (frequency [ (3, outer); (1, innermost) ]) in
  return
    {
      Ast.k_name = "scan";
      k_arrays =
        [
          Ast.array_decl "a" [ 10 ];
          Ast.array_decl "b" [ 4; 5 ];
          Ast.array_decl "d" [ 3; 3 ];
          Ast.array_decl "e" [ 2; 3; 2 ];
        ];
      k_scalars =
        [
          Ast.scalar_decl "s";
          Ast.scalar_decl "t";
          Ast.scalar_decl "u";
          Ast.scalar_decl ~kind:Ast.Param "p";
          Ast.scalar_decl ~kind:Ast.Register "r0";
          Ast.scalar_decl ~kind:Ast.Register "r1";
          Ast.scalar_decl ~kind:Ast.Register "r2";
          Ast.scalar_decl ~kind:Ast.Register "r3";
        ];
      k_body =
        [
          Ast.Assign (Ast.Lvar "u", Ast.Int u);
          Ast.Assign (Ast.Lvar "r0", Ast.Int r0);
          Ast.Assign (Ast.Lvar "r1", Ast.Int 1);
        ]
        @ body;
    }

(* Hand-picked corners of the closed form, each against the reference
   and against the outcome the enumeration semantics prescribe. *)
let test_scan_corners () =
  let d = Ast.array_decl "d" [ 3; 3 ] in
  let kernel name body =
    {
      Ast.k_name = name;
      k_arrays = [ d ];
      k_scalars = [ Ast.scalar_decl ~kind:Ast.Param "p"; Ast.scalar_decl "t" ];
      k_body = body;
    }
  in
  let loop ?(lo = 0) ?(step = 1) hi body =
    Ast.For { Ast.index = "i"; lo; hi; step; body; l_span = None }
  in
  let store subs = Ast.Assign (Ast.Larr ("d", subs), Ast.Int 0) in
  let i = Ast.Var "i" and p = Ast.Var "p" in
  let plus a n = Ast.Bin (Ast.Add, a, Ast.Int n) in
  let outcome name body =
    let k = kernel name body in
    (try ignore (footprint_equivalent k)
     with Failure m -> Alcotest.failf "%s: %s" name m);
    let fp = Fp.footprint k in
    match (fp.Fp.skipped, fp.Fp.arrays) with
    | [ ("d", reason) ], [] -> `Skipped reason
    | [], [ ("d", f) ] -> `Enumerated (f.Fp.oob_write, members f Fp.must_write)
    | _ -> Alcotest.failf "%s: unexpected footprint shape" name
  in
  let check name body expected =
    if outcome name body <> expected then Alcotest.failf "%s: wrong outcome" name
  in
  let none = String.make 9 '\000' in
  let row0 = "\001\001\001" ^ String.make 6 '\000' in
  (* one subscript for two dimensions: out of the box once [i] is *)
  check "arity mismatch" [ loop 3 [ store [ i ] ] ] (`Enumerated (true, none));
  (* the common prefix is evaluated first: unknown there skips *)
  check "unknown prefix, arity mismatch" [ loop 3 [ store [ p ] ] ]
    (`Skipped "unevaluable subscript");
  (* an out-of-box subscript stops before the unknown one *)
  check "out of box before unknown" [ loop 3 [ store [ plus i 3; p ] ] ]
    (`Enumerated (true, none));
  check "in box before unknown" [ loop 4 [ store [ i; p ] ] ]
    (`Skipped "unevaluable subscript");
  check "zero trip" [ loop 0 [ store [ p; p ] ] ] (`Enumerated (false, none));
  let times c e = Ast.Bin (Ast.Mul, Ast.Int c, e) in
  (* i = -4, -2, 0, 2, 4 lands d[0][-i] on columns 2 and 0 *)
  check "step 2, negative coefficient"
    [ loop ~lo:(-4) ~step:2 5 [ store [ Ast.Int 0; Ast.Un (Ast.Neg, times 1 i) ] ] ]
    (`Enumerated (true, "\001\000\001" ^ String.make 6 '\000'));
  (* a cancelled unknown still makes the subscript unevaluable *)
  check "cancelled unknown"
    [ loop 3 [ store [ Ast.Int 0; Ast.Bin (Ast.Add, i, times 0 p) ] ] ]
    (`Skipped "unevaluable subscript");
  (* a LICM temporary hoisted out of the loop is known inside it *)
  check "hoisted temporary"
    [ Ast.Assign (Ast.Lvar "t", Ast.Int 0); loop 3 [ store [ Ast.Var "t"; i ] ] ]
    (`Enumerated (false, row0))

(* [Validate.run] against validation recomputed from scratch at every
   stage through the pipeline's [observe] hook, so a stage whose output
   is a structural copy of its input (LICM and simplify often are) gets
   exactly the diagnostics a full re-validation would give. *)
let revalidated options (k : Ast.kernel) =
  let diags = ref [] and reported = Hashtbl.create 4 in
  let add d = diags := d :: !diags in
  let observe stage ~before ~after =
    let stage = Transform.Pipeline.stage_name stage in
    let pre = Fp.footprint before and post = Fp.footprint after in
    List.iter
      (fun (d : Check.Diag.t) -> add { d with Check.Diag.pass = "validate"; stage = Some stage })
      (Check.Wellformed.check ~min_severity:Check.Diag.Error after);
    List.iter
      (fun (name, reason) ->
        if not (Hashtbl.mem reported name) then begin
          Hashtbl.add reported name ();
          add
            (Check.Diag.diagf Check.Diag.Info ~stage ~pass:"validate"
               "array '%s' not validated: %s" name reason)
        end)
      (pre.Fp.skipped @ post.Fp.skipped);
    List.iter add (V.compare_footprints ~stage ~pre ~post)
  in
  (try ignore (Transform.Pipeline.apply ~observe options k)
   with Transform.Pipeline.Stage_error { stage; kernel; message } ->
     add (Check.Diag.of_stage_error ~stage ~kernel message));
  List.rev_map Check.Diag.render !diags

let same_as_revalidated options k =
  let got = List.map Check.Diag.render (V.run ~options k).V.diags in
  let want = revalidated options k in
  if got <> want then
    failf "diagnostics differ:\n%s\nvs revalidated:\n%s" (String.concat "\n" got)
      (String.concat "\n" want);
  true

let test_copied_stages =
  Helpers.qtest "Validate.run = revalidation (unchanged stages)" ~count:100
    G.(
      Helpers.gen_kernel >>= fun k ->
      pair (return k) (Helpers.gen_vector_for k))
    (fun (k, vector) ->
      same_as_revalidated { Transform.Pipeline.default with vector } k)

let test_copied_stages_rough =
  Helpers.qtest "Validate.run = revalidation (rough kernels)" ~count:200
    gen_rough_kernel (same_as_revalidated Transform.Pipeline.default)

(* The built-in stage transitions include structural copies, so the
   properties above exercise the reuse: on mm, LICM and simplify change
   nothing at any vector up to product 8. *)
let test_copies_occur () =
  let k = Option.get (Kernels.find "mm") in
  let copies = ref 0 in
  List.iter
    (fun vector ->
      let options = { Transform.Pipeline.default with vector } in
      ignore
        (Transform.Pipeline.apply
           ~observe:(fun _ ~before ~after -> if compare before after = 0 then incr copies)
           options k);
      ignore (same_as_revalidated options k))
    [ []; [ ("i", 2) ]; [ ("j", 4); ("i", 2) ] ];
  Alcotest.(check bool) (Printf.sprintf "%d unchanged stages" !copies) true (!copies > 0)

(* Minor words of one footprint: an access-only loop is solved in closed
   form, so doubling its trip count adds no allocation. *)
let test_scan_flat () =
  let words trip =
    let k =
      Builder.(
        kernel "flat"
          ~arrays:[ Ast.array_decl "a" [ 4096 ]; Ast.array_decl "b" [ 4096 ] ]
          [ for_ "i" 0 trip (fun i -> [ store1 "a" i (arr1 "b" i + arr1 "b" (i + int 1)) ]) ])
    in
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Fp.footprint k));
    Gc.minor_words () -. w0
  in
  let base = words 1000 in
  List.iter
    (fun trip ->
      let w = words trip in
      if w > base then
        Alcotest.failf "trip %d: %.0f minor words, %.0f at trip 1000" trip w base)
    [ 2000; 4000 ]

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
  match (Fp.footprint k).Fp.arrays with
  | [ ("a", fp) ] ->
      Alcotest.(check string) "a[4] written" "\000\000\000\000\001\000"
        (members fp Fp.must_write)
  | _ -> Alcotest.fail "a not enumerated"

(* [c[i] = b[i] ? a[i] : 0]: the condition's read runs at every
   iteration, the branch's only when the condition holds. So [a] is in
   [may_read] but not in [must_read], and the tier-1 count takes the
   loads of [b] alone. *)
let test_ternary_reads () =
  let k =
    Builder.(
      kernel "ternary"
        ~arrays:
          [ Ast.array_decl "a" [ 4 ]; Ast.array_decl "b" [ 4 ]; Ast.array_decl "c" [ 4 ] ]
        [
          for_ "i" 0 4 (fun i ->
              [ store1 "c" i (Ast.Cond (arr1 "b" i, arr1 "a" i, int 0)) ]);
        ])
  in
  ignore (footprint_equivalent k);
  let fp = Fp.footprint k in
  let sets name =
    let f = List.assoc name fp.Fp.arrays in
    (members f Fp.may_read, members f Fp.must_read)
  in
  let all = String.make 4 '\001' and none = String.make 4 '\000' in
  Alcotest.(check (pair string string)) "a: may-read only" (all, none) (sets "a");
  Alcotest.(check (pair string string)) "b: must-read" (all, all) (sets "b");
  Alcotest.(check (pair int int)) "loads of b, stores of c" (4, 4) (Hls.Quick.footprint k)

(* An array of more than 2^24 elements, or whose extent product wraps,
   is skipped with its reason and allocates nothing; the other arrays
   keep their footprints. *)
let test_huge_arrays () =
  List.iter
    (fun extent ->
      let k =
        Builder.(
          kernel "huge"
            ~arrays:[ Ast.array_decl "a" [ extent; extent ]; Ast.array_decl "b" [ 4 ] ]
            [
              for_ "i" 0 4 (fun i ->
                  [ store1 "b" i (Ast.Arr ("a", [ i; i ]) + int 1) ]);
            ])
      in
      ignore (footprint_equivalent k);
      let b0 = Gc.allocated_bytes () in
      let fp = Fp.footprint k in
      let bytes = Gc.allocated_bytes () -. b0 in
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "a[%d][%d] skipped" extent extent)
        [ ("a", "more than 16777216 elements") ] fp.Fp.skipped;
      Alcotest.(check (list string)) "b enumerated" [ "b" ] (List.map fst fp.Fp.arrays);
      Alcotest.(check bool) (Printf.sprintf "%.0f bytes allocated" bytes) true (bytes < 65_536.);
      Alcotest.(check (pair int int)) "stores of b" (0, 4) (Hls.Quick.footprint k))
    [ 100_000; 1 lsl 32 ]

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

(* The uninit walk on every finished kernel of the verified joint sweep
   (product 16) of each built-in and gallery kernel. *)
let test_uninit_sweeps () =
  List.iter
    (fun (name, k) ->
      let ctx = Dse.Design.context ~verify:true k in
      let sp =
        Dse.Space.sweep ~max_product:16 ~joint:Dse.Space.default_tile_candidates ~jobs:1 ctx
      in
      List.iter
        (fun (p : Dse.Design.point) ->
          try ignore (uninit_equivalent p.Engine.Store.kernel)
          with Failure m ->
            Alcotest.failf "%s %s: %s" name
              (Transform.Pipeline.config_to_string p.Engine.Store.config)
              m)
        sp.Dse.Space.points)
    (builtins ())

(* The tier-1 counts [(loads, stores)] of every built-in and gallery
   kernel, pinned because the memory floor of every bound, and with it
   which points are pruned, follows them. Strip-mining does not change
   a footprint, so every tile option's source has its kernel's
   counts. *)
let pinned_counts =
  [
    ("fir", (127, 64));
    ("mm", (576, 128));
    ("pat", (80, 49));
    ("jac", (1020, 900));
    ("sobel", (1024, 900));
    ("corr", (1165, 1024));
    ("laplace", (1020, 900));
    ("erosion", (1156, 1024));
    ("dilation", (1156, 1024));
    ("conv1d", (95, 64));
    ("transpose", (384, 384));
    ("boxblur", (1156, 1024));
    ("downsample", (32, 32));
    ("histogram", (64, 0));
  ]

(* Every built-in and gallery kernel, strip-mined for each tile option
   of the joint sweep — the sources tier-1 facts are computed from. *)
let test_builtin_tiles () =
  Alcotest.(check (list string))
    "one pinned count per kernel" (List.map fst (builtins ()))
    (List.map fst pinned_counts);
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
          Alcotest.(check (pair int int))
            where (List.assoc name pinned_counts) (Hls.Quick.footprint src))
        (Dse.Space.joint_tile_options ctx
           ~candidates:Dse.Space.default_tile_candidates))
    (builtins ())

(* The count is exact on a nest of 240 000 statement executions, well
   within the engine's budget: the [j] loop multiplies the steps but not
   the elements of [a[i]] or [c[i]], which never mention it. *)
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
  ignore (quick_footprint_equivalent k);
  Alcotest.(check (pair int int)) "a[], b[] loads and c[] stores" (1000, 600)
    (Hls.Quick.footprint k)

(* A caller-supplied source footprint changes nothing. *)
let test_primed_run =
  Helpers.qtest "Validate.run with a primed source footprint" ~count:60
    G.(Helpers.gen_kernel >>= fun k -> pair (return k) (Helpers.gen_vector_for k))
    (fun (k, vector) ->
      let options = { Transform.Pipeline.default with vector } in
      let plain = V.run ~options k in
      let primed = V.run ~options ~source_footprint:(Fp.footprint k) k in
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

(* A kernel, one of its loop indices or scalars, and a value for it:
   shifted or fixed, by small positive and negative constants. *)
let gen_subst_case gen_kernel =
  G.(
    gen_kernel >>= fun (k : Ast.kernel) ->
    oneofl
      (Ast.bound_indices k.Ast.k_body
      @ List.map (fun (d : Ast.scalar_decl) -> d.Ast.s_name) k.Ast.k_scalars)
    >>= fun v ->
    map2
      (fun fixed c ->
        (k, v, if fixed then Transform.Simplify.Fixed c else Transform.Simplify.Shifted c))
      bool (int_range (-3) 3))

(** Simplifying [Simplify.subst_index] of a value gives what simplifying
    [Ast.subst_var] of the same value gives. *)
let subst_equivalent ((k : Ast.kernel), v, value) =
  let by =
    match value with
    | Transform.Simplify.Shifted c -> Ast.Bin (Ast.Add, Ast.Var v, Ast.Int c)
    | Transform.Simplify.Fixed c -> Ast.Int c
  in
  let simplified body = Pretty.kernel_to_string (Transform.Simplify.run { k with Ast.k_body = body }) in
  let plain = simplified (Ast.subst_var v by k.Ast.k_body)
  and canonical = simplified (Transform.Simplify.subst_index v value k.Ast.k_body) in
  if plain <> canonical then
    failf "substituting %s differs from the plain substitution:\n%s\nplain:\n%s" v canonical plain;
  true

(* [subst_equivalent] on every loop body of [k], substituted as the
   passes substitute it: the index fixed to the loop's first value (a
   peeled copy, an inlined single-iteration loop) and shifted by its
   step (an unrolled copy). Bodies in [seen] are skipped, checked ones
   added. *)
let loops_subst_equivalent seen (k : Ast.kernel) =
  Ast.fold_stmts
    ~stmt:(fun () s ->
      match s with
      | Ast.For l when not (List.memq l.Ast.body !seen) ->
          seen := l.Ast.body :: !seen;
          List.iter
            (fun value -> ignore (subst_equivalent ({ k with Ast.k_body = l.Ast.body }, l.Ast.index, value)))
            [ Transform.Simplify.Fixed l.Ast.lo; Transform.Simplify.Shifted l.Ast.step ]
      | _ -> ())
    ~expr:(fun () _ -> ())
    () k.Ast.k_body

(* Every stage input and output of every built-in and gallery kernel
   over its product-64 lattice, peel and LICM each on and off: the
   simplifier against the reference, and the canonical substitution
   against the plain one on every loop body. *)
let test_simplify_stages () =
  List.iter
    (fun (name, k) ->
      let ctx = Dse.Design.context k in
      let eligible = List.map (fun (l : Ast.loop) -> l.Ast.index) ctx.Dse.Design.env.spine in
      let bodies = ref [] in
      List.iter
        (fun vector ->
          let seen = ref [] in
          let check ~input (kernel : Ast.kernel) =
            if not (List.memq kernel !seen) then begin
              seen := kernel :: !seen;
              try
                ignore (simplify_equivalent kernel);
                if input then loops_subst_equivalent bodies kernel
              with Failure m ->
                Alcotest.failf "%s %s: %s" name (Helpers.vector_to_string vector) m
            end
          in
          List.iter
            (fun (peel, licm) ->
              ignore
                (Transform.Pipeline.apply
                   ~observe:(fun _ ~before ~after ->
                     check ~input:true before;
                     check ~input:false after)
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
let sr_equivalent ?config ?plan (k : Ast.kernel) =
  let k1, r1 = Transform.Scalar_replace.run ?config ?plan k
  and k2, r2 = R.Scalar_replace.run ?config k in
  if k1 <> k2 then
    failf "kernel differs from the reference:\n%s\nreference:\n%s"
      (Helpers.kernel_print k1) (Helpers.kernel_print k2);
  if r1 <> r2 then failf "report differs from the reference";
  true

module SR = Transform.Scalar_replace

let origin_name (w : SR.walk) =
  match w.SR.origin with SR.Planned { copies = 1; _ } -> "planned" | SR.Planned _ -> "unrolled" | SR.Rehoisted -> "rehoisted"

let pattern_print (p : SR.pattern) =
  Printf.sprintf "%s{%s} varying [%s]%s%s" p.SR.array
    (String.concat "; "
       (List.map
          (fun (a : Analysis.Access.t) ->
            Printf.sprintf "#%d %s %s" a.Analysis.Access.id
              (if Analysis.Access.is_read a then "r" else "w")
              (Format.asprintf "%a" Analysis.Access.pp a))
          p.SR.members))
    (String.concat "," (List.map (fun (l : Ast.loop) -> l.Ast.index) p.SR.varying))
    (if p.SR.has_reads then " reads" else "")
    (if p.SR.has_writes then " writes" else "")

let classes_print classes =
  String.concat " | "
    (List.map
       (fun cls ->
         String.concat " "
           (List.map (fun ((a : Analysis.Access.t), d) -> Printf.sprintf "#%d@%d" a.Analysis.Access.id d) cls))
       classes)

(** On every pattern of a walk that the chains phase may read (its
    innermost varying loop is the spine's, its members vary on the
    spine only and name no assigned scalar), the closed-form chain
    classes are the pairwise reference's classes of two or more members,
    member for member and distance for distance. Both list classes in
    the order of their first members, so the rest are the same
    singletons. *)
let chains_equivalent (w : SR.walk) =
  List.iter
    (fun (p : SR.pattern) ->
      match (List.rev p.SR.varying, List.rev p.SR.spine) with
      | inner :: _, spine_inner :: _
        when inner == spine_inner && p.SR.spine_only && not p.SR.scalar_subs ->
          let oracle =
            List.filter
              (fun cls -> List.compare_length_with cls 1 > 0)
              (R.Scalar_replace.partition_chains inner p.SR.members)
          in
          let classes = SR.chain_classes inner p in
          let same a b = List.equal (List.equal (fun (x, d) (y, e) -> x == y && d = e)) a b in
          if not (same classes oracle) then
            failf "%s walk: chains of %s along %s differ:\n%s\npairwise:\n%s" (origin_name w)
              (pattern_print p) inner.Ast.index (classes_print classes) (classes_print oracle)
      | _ -> ())
    w.SR.patterns

(** Every walk a run reads equals the collected walk of its kernel
    ({!R.Sr_walk.walk}): the same patterns, members (ids and loops
    included) and facts, and the same answer to element CSE's
    single-pattern test on every array; its chain classes are the
    pairwise reference's. *)
let plan_walk_equivalent ?config ?plan (k : Ast.kernel) =
  List.iter
    (fun (w : SR.walk) ->
      chains_equivalent w;
      let patterns, indirect = R.Sr_walk.walk w.SR.walked in
      if compare w.SR.patterns patterns <> 0 then
        failf "%s walk differs from the walk:\n%s\nwalk:\n%s\nof:\n%s" (origin_name w)
          (String.concat "\n" (List.map pattern_print w.SR.patterns))
          (String.concat "\n" (List.map pattern_print patterns))
          (Helpers.kernel_print w.SR.walked);
      if w.SR.indirect <> indirect then failf "%s walk: indirection differs" (origin_name w);
      List.iter
        (fun (d : Ast.array_decl) ->
          let a = d.Ast.a_name in
          if SR.single w a <> R.Sr_walk.single w.SR.walked a then
            failf "%s walk: single pattern of %s differs" (origin_name w) a)
        w.SR.walked.Ast.k_arrays)
    (SR.walks ?config ?plan k);
  true

(* The input of the scalar-replacement stage under [opts], the
   configuration it runs with, and the plan of the tiled source. *)
let sr_input (opts : Transform.Pipeline.options) k =
  let input = ref None and tiled = ref k in
  ignore
    (Transform.Pipeline.front
       ~observe:(fun stage ~before ~after ->
         if stage = Transform.Pipeline.Tile then tiled := after;
         if stage = Transform.Pipeline.Scalar_replace then input := Some before)
       opts k);
  (Option.get !input, opts.Transform.Pipeline.scalar, (SR.plan !tiled, opts.Transform.Pipeline.vector))

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
                  let input, config, plan = sr_input opts k in
                  try
                    ignore (sr_equivalent ~config input);
                    ignore (sr_equivalent ~config ~plan input);
                    if scalar_replace then ignore (plan_walk_equivalent ~config ~plan input)
                  with Failure m ->
                    Alcotest.failf "%s %s: %s" name
                      (Transform.Pipeline.config_to_string
                         (Transform.Pipeline.config_of_options opts))
                      m)
                [ true; false ])
            (Dse.Util.divisor_vectors ~max_product:64 ctx ~eligible))
        (Dse.Space.joint_tile_options ctx ~candidates:Dse.Space.default_tile_candidates))
    (builtins ())

(* Every front of every built-in and gallery kernel's product-64 joint
   lattice, tiled ones included: the jam verdict the fronts of a source
   and tile share is [Unroll.jam_legal] of the tiled source, and the
   unrolled kernel is the one [Unroll.run] gives without it. *)
let test_jam_fronts () =
  let shared = ref 0 in
  List.iter
    (fun (name, k) ->
      let ctx = Dse.Design.context k in
      let eligible = List.map (fun (l : Ast.loop) -> l.Ast.index) ctx.Dse.Design.env.spine in
      List.iter
        (fun tile ->
          List.iter
            (fun vector ->
              let opts = { Transform.Pipeline.default with vector; tile } in
              let seen = ref None in
              ignore
                (Transform.Pipeline.front
                   ~observe:(fun stage ~before ~after ->
                     if stage = Transform.Pipeline.Unroll_jam then seen := Some (before, after))
                   opts k);
              let tiled, unrolled = Option.get !seen in
              let where () =
                Printf.sprintf "%s %s" name
                  (Transform.Pipeline.config_to_string (Transform.Pipeline.config_of_options opts))
              in
              if unrolled <> Transform.Unroll.run vector tiled then
                Alcotest.failf "%s: the unrolled kernel differs from Unroll.run's" (where ());
              match Transform.Pipeline.jam_verdict k tile with
              | Some verdict ->
                  incr shared;
                  if verdict <> Transform.Unroll.jam_legal tiled then
                    Alcotest.failf "%s: shared jam verdict %b" (where ()) verdict
              | None -> ())
            (Dse.Util.divisor_vectors ~max_product:64 ctx ~eligible))
        (Dse.Space.joint_tile_options ctx ~candidates:Dse.Space.default_tile_candidates))
    (builtins ());
  if !shared = 0 then Alcotest.fail "no front shared a jam verdict"

(* Loop indices read as values: unrolling a loop fully makes them
   constants, [a[1] * (j - 1)] folds to 0 and its read disappears, so
   the closed form must not stand in for the kernel's own plan there. *)
let test_plan_index_values () =
  let k =
    Frontend.Parser.kernel_of_string ~name:"index_values"
      {|int a[8]; int b[8]; int out[8];
        for (i = 0; i < 4; i++) for (j = 0; j < 4; j++)
          out[i] = out[i] + a[j] * (j - 1) + b[i + j] * i;|}
  in
  let ctx = Dse.Design.context k in
  let eligible = List.map (fun (l : Ast.loop) -> l.Ast.index) ctx.Dse.Design.env.spine in
  List.iter
    (fun vector ->
      let input, config, plan = sr_input { Transform.Pipeline.default with vector } k in
      try ignore (plan_walk_equivalent ~config ~plan input && sr_equivalent ~config ~plan input)
      with Failure m -> Alcotest.failf "%s: %s" (Helpers.vector_to_string vector) m)
    (Dse.Util.divisor_vectors ~max_product:16 ctx ~eligible)

(* One kernel per shape the closed-form unroll does not cover, each
   with the unroll vector it is replaced at: the walk is then read off
   the unrolled kernel's own plan. Simplification inlines the one-trip
   loop, so that kernel's nest is covered once planned. *)
let uncovered =
  [
    ( "conditional",
      {|int a[8][9]; int b[8][8];
        for (i = 0; i < 8; i++) for (j = 0; j < 8; j++)
          if (a[i][j] > 0) b[i][j] = a[i][j] + a[i][j + 1];|},
      [ ("j", 2) ] );
    ( "imperfect",
      {|int a[8][8]; int s[8];
        for (i = 0; i < 8; i++) {
          s[i] = 0;
          for (j = 0; j < 8; j++) s[i] = s[i] + a[i][j];
        }|},
      [ ("i", 2) ] );
    ( "scalar_subscript",
      {|int b[8]; int t[300]; int out[8]; int v;
        for (i = 0; i < 8; i++) for (j = 0; j < 4; j++) {
          v = b[i];
          out[i] = out[i] + t[v + j] + t[v + j + 1];
        }|},
      [ ("j", 2) ] );
    ( "array_subscript",
      {|unsigned char img[64]; short hist[256];
        for (i = 0; i < 64; i++) hist[img[i]] = hist[img[i]] + 1;|},
      [ ("i", 4) ] );
    ( "one_trip",
      {|int a[4][10]; int out[4];
        for (i = 0; i < 1; i++) for (j = 0; j < 8; j++)
          out[i] = out[i] + a[i][j] + a[i][j + 2];|},
      [ ("j", 2) ] );
    ( "index_value",
      {|int a[8]; int b[8]; int out[8];
        for (i = 0; i < 4; i++) for (j = 0; j < 4; j++)
          out[i] = out[i] + a[j] * (j - 1) + b[i + j] * i;|},
      [ ("j", 4) ] );
    ( "epilogue",
      {|int a[8][12]; int out[8];
        for (i = 0; i < 8; i++) for (j = 0; j < 8; j++)
          out[i] = out[i] + a[i][j] + a[i][j + 1] + a[i][j + 3];|},
      [ ("j", 3) ] );
  ]

let test_uncovered () =
  List.iter
    (fun (name, src, vector) ->
      let k = Frontend.Parser.kernel_of_string ~name src in
      let input = Transform.Unroll.run vector k in
      let plan = (SR.plan k, vector) in
      (match SR.walks ~plan input with
      | { SR.origin = SR.Planned { copies = 1; _ }; _ } :: _ -> ()
      | _ -> if name <> "one_trip" then Alcotest.failf "%s: the walk is not the kernel's own" name);
      try ignore (sr_equivalent ~plan input && plan_walk_equivalent ~plan input)
      with Failure m -> Alcotest.failf "%s: %s" name m)
    uncovered

(* A depth-3 kernel of the shape the benchmark's generator draws: a
   3x3-window stencil whose column subscript [j + k] couples the middle
   loop with a short innermost reduction, accumulated into [dst[i][j]]
   (hoisted, so the chains read a rehoisted walk). *)
let reduction3 =
  lazy
    (Frontend.Parser.kernel_of_string ~name:"reduction3"
       {|short src[34][68]; short w[3]; int dst[32][64];
         for (i = 0; i < 32; i++)
           for (j = 0; j < 64; j++)
             for (k = 0; k < 3; k++)
               dst[i][j] = dst[i][j] + (3*src[i][j+k] - 5*src[i+1][j+k+2] + 2*src[i+2][j+k+1]) * w[k];|})

(* Scalar replacement's minor words per distinct member, one loop's
   factor doubling from 2 to 32 with another's fixed: Sobel over a
   66x66 image (i unrolled by 2), and corr and the depth-3 reduction
   (i unrolled by 8), whose windows are coupled patterns of up to 256
   and more members. The walk is instantiated per distinct member, not
   per unrolled access, and chain classes come from the plan without a
   pairwise scan, so the ratio may fall with fixed costs spread thinner
   but not rise by more than 10% per doubling. *)
let test_plan_scaling () =
  let per_member (k : Ast.kernel) plan vector =
    let input = Transform.Unroll.run vector k in
    let members =
      match SR.walks ~plan:(plan, vector) input with
      | ({ SR.origin = SR.Planned _; _ } as w) :: _ ->
          List.fold_left (fun n (p : SR.pattern) -> n + List.length p.SR.members) 0 w.SR.patterns
      | _ -> failf "%s %s: the first walk is not planned" k.Ast.k_name (Helpers.vector_to_string vector)
    in
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (SR.run ~plan:(plan, vector) input));
    (Gc.minor_words () -. w0) /. float_of_int members
  in
  List.iter
    (fun (k, fixed) ->
      let plan = SR.plan k in
      let rec check = function
        | (ja, ra) :: ((jb, rb) :: _ as rest) ->
            if rb > 1.1 *. ra then
              Alcotest.failf "%s: j=%d -> j=%d: %.1f -> %.1f words per distinct member" k.Ast.k_name
                ja jb ra rb;
            check rest
        | _ -> ()
      in
      check (List.map (fun j -> (j, per_member k plan [ fixed; ("j", j) ])) [ 2; 4; 8; 16; 32 ]))
    [
      (Lazy.force Helpers.sobel64, ("i", 2));
      (Option.get (Gallery.find "corr"), ("i", 8));
      (Lazy.force reduction3, ("i", 8));
    ]

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
    let input, _, plan = sr_input { Transform.Pipeline.default with vector } k in
    return (input, config, plan))

(* A generated kernel unroll-and-jammed by a vector of divisor factors
   (a tile of its innermost loop now and then), with a generated
   replacement configuration: the plan covers most of these. *)
let gen_plan_case gen_kernel =
  G.(
    gen_kernel >>= fun k ->
    let spine = Loop_nest.spine k.Ast.k_body in
    flatten_l
      (List.map
         (fun (l : Ast.loop) ->
           let trip = Ast.loop_trip l in
           map
             (fun u -> (l.Ast.index, u))
             (oneofl (List.filter (fun u -> trip mod u = 0) (List.init (max 1 trip) succ))))
         spine)
    >>= fun vector ->
    (match List.rev spine with
    | inner :: _ -> oneofl [ None; None; Some (inner.Ast.index, 2) ]
    | [] -> return None)
    >>= fun tile ->
    gen_sr_config >>= fun config ->
    let input, _, plan = sr_input { Transform.Pipeline.default with vector; tile } k in
    return (input, config, plan))

let plan_case_equivalent (k, config, plan) =
  plan_walk_equivalent ~config ~plan k && sr_equivalent ~config ~plan k

let sr_case_equivalent (k, config, plan) =
  sr_equivalent ~config k && sr_equivalent ~config ~plan k
  && plan_walk_equivalent ~config ~plan k

(* Two loops over arrays read at several offsets of one coupled pattern
   [a*i + b*j + c] (one or two dimensions): members whose residues agree
   but whose dependence system has a free variable, so no two of them
   chain, as the pairwise reference decides pair by pair. The result
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
          let input, config, plan = sr_input { Transform.Pipeline.default with vector } k in
          try ignore (sr_equivalent ~config ~plan input)
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
          Alcotest.test_case "uninit walk = reference (joint verified sweeps)" `Quick
            test_uninit_sweeps;
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
          Helpers.qtest "footprint = reference (access-only loops)" ~count:500
            G.(pair gen_scan_kernel gen_budget)
            (fun (k, max_points) -> footprint_equivalent ?max_points k);
          Alcotest.test_case "closed-form corners" `Quick test_scan_corners;
          Alcotest.test_case "access-only loop allocation is flat" `Quick test_scan_flat;
          Alcotest.test_case "self-updating scalar stays known" `Quick test_self_update;
          Alcotest.test_case "ternary branch reads are uncertain" `Quick test_ternary_reads;
          Alcotest.test_case "huge arrays are skipped" `Quick test_huge_arrays;
          test_copied_stages;
          test_copied_stages_rough;
          Alcotest.test_case "built-in stages include copies" `Quick test_copies_occur;
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
          Helpers.qtest "footprint = reference (access-only loops)" ~count:300
            gen_scan_kernel quick_footprint_equivalent;
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
          Helpers.qtest "subst_index = subst_var (expressions)" ~count:500
            (gen_subst_case gen_simplify_kernel) subst_equivalent;
          Helpers.qtest "subst_index = subst_var (array nests)" ~count:200
            (gen_subst_case Helpers.gen_kernel) subst_equivalent;
          Helpers.qtest "subst_index = subst_var (flow kernels)" ~count:200
            (gen_subst_case Helpers.gen_flow_kernel) subst_equivalent;
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
          Alcotest.test_case "one jam verdict per source and tile" `Quick test_jam_fronts;
          Alcotest.test_case "kernels the closed form does not cover" `Quick test_uncovered;
          Alcotest.test_case "plan words track distinct members" `Quick test_plan_scaling;
          Alcotest.test_case "loop indices read as values" `Quick test_plan_index_values;
          Helpers.qtest "plan walk = walk (array nests, divisor vectors)" ~count:300
            (gen_plan_case Helpers.gen_kernel) plan_case_equivalent;
          Helpers.qtest "plan walk = walk (coupled subscripts, divisor vectors)" ~count:300
            (gen_plan_case gen_coupled_kernel) plan_case_equivalent;
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
