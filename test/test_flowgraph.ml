(** Flow-graph framework: CFG shape against the documented node order,
    every dataflow analysis validated against an instrumented concrete
    interpreter on random kernels (and on the built-ins and their
    pipeline-transformed forms), the strengthened legality predicates
    cross-validated against the dependence-only ones, the
    scalar-replacement dead-store cross-check, and the zero-trip
    [Bounds.index_range] regression. *)

open Ir
module F = Analysis.Flowgraph
module U = Check.Uninit
module Diag = Check.Diag
module G = QCheck2.Gen

let failf fmt = Printf.ksprintf failwith fmt

let all_builtin () =
  List.map (fun n -> (n, Option.get (Kernels.find n))) Kernels.names
  @ List.map (fun n -> (n, Option.get (Gallery.find n))) Gallery.names

let mk_loop ?(lo = 0) ?(step = 1) index hi body =
  { Ast.index; lo; hi; step; body; l_span = None }

let mk_kernel ?(arrays = []) ?(scalars = []) name body =
  { Ast.k_name = name; k_arrays = arrays; k_scalars = scalars; k_body = body }

(* ------------------------------------------------------------------ *)
(* CFG shape: the documented preorder node allocation and the
   trip-aware edges *)

let sorted_succ g i = List.sort compare g.F.succ.(i)

let test_cfg_straight_line_for () =
  (* entry=0; s=0 (1); header (2); s=s+a[i] (3); out[0]=s (4); exit=5 *)
  let k =
    mk_kernel "shape"
      ~arrays:[ Ast.array_decl "a" [ 4 ]; Ast.array_decl "out" [ 1 ] ]
      ~scalars:[ Ast.scalar_decl "s" ]
      [
        Ast.Assign (Ast.Lvar "s", Ast.Int 0);
        Ast.For
          (mk_loop "i" 4
             [
               Ast.Assign
                 ( Ast.Lvar "s",
                   Ast.Bin (Ast.Add, Ast.Var "s", Ast.Arr ("a", [ Ast.Var "i" ])) );
             ]);
        Ast.Assign (Ast.Larr ("out", [ Ast.Int 0 ]), Ast.Var "s");
      ]
  in
  let g = F.build k in
  Alcotest.(check int) "node count" 6 (Array.length g.F.nodes);
  Alcotest.(check int) "entry" 0 g.F.entry;
  Alcotest.(check int) "exit" 5 g.F.exit_;
  (match g.F.nodes.(2).F.kind with
  | F.Header l -> Alcotest.(check string) "header index" "i" l.Ast.index
  | _ -> Alcotest.fail "node 2 is not the loop header");
  Alcotest.(check (list int)) "entry -> init" [ 1 ] (sorted_succ g 0);
  Alcotest.(check (list int)) "init -> header" [ 2 ] (sorted_succ g 1);
  Alcotest.(check (list int)) "header -> body only (trip >= 1)" [ 3 ] (sorted_succ g 2);
  Alcotest.(check (list int)) "tail -> header and follow" [ 2; 4 ] (sorted_succ g 3);
  Alcotest.(check (list int)) "follow -> exit" [ 5 ] (sorted_succ g 4);
  Alcotest.(check bool) "all reachable" true
    (Array.for_all (fun b -> b) g.F.reachable)

let test_cfg_if_join () =
  (* entry=0; branch (1); then (2); else (3); join stmt (4); exit=5 *)
  let k =
    mk_kernel "ifshape"
      ~arrays:[ Ast.array_decl "out" [ 1 ] ]
      ~scalars:[ Ast.scalar_decl ~kind:Ast.Param "p"; Ast.scalar_decl "s" ]
      [
        Ast.If
          ( Ast.Bin (Ast.Lt, Ast.Var "p", Ast.Int 2),
            [ Ast.Assign (Ast.Lvar "s", Ast.Int 1) ],
            [ Ast.Assign (Ast.Lvar "s", Ast.Int 2) ] );
        Ast.Assign (Ast.Larr ("out", [ Ast.Int 0 ]), Ast.Var "s");
      ]
  in
  let g = F.build k in
  Alcotest.(check int) "node count" 6 (Array.length g.F.nodes);
  (match g.F.nodes.(1).F.kind with
  | F.Branch _ -> ()
  | _ -> Alcotest.fail "node 1 is not the branch");
  Alcotest.(check (list int)) "branch -> both arms" [ 2; 3 ] (sorted_succ g 1);
  Alcotest.(check (list int)) "then -> join" [ 4 ] (sorted_succ g 2);
  Alcotest.(check (list int)) "else -> join" [ 4 ] (sorted_succ g 3);
  (* both arms write s on every path: the read at the join is provably
     initialised *)
  Alcotest.(check bool) "s initialised at join" false
    (List.exists
       (fun (u : U.site) -> u.U.node = 4 && u.U.name = "s")
       (U.sites k))

let test_cfg_zero_trip () =
  (* entry=0; header (1); body (2); follow (3); exit=4 *)
  let k =
    mk_kernel "zt"
      ~arrays:[ Ast.array_decl "out" [ 1 ] ]
      ~scalars:[ Ast.scalar_decl "s" ]
      [
        Ast.For (mk_loop "i" 0 [ Ast.Assign (Ast.Lvar "s", Ast.Int 1) ]);
        Ast.Assign (Ast.Larr ("out", [ Ast.Int 0 ]), Ast.Int 7);
      ]
  in
  let g = F.build k in
  Alcotest.(check int) "node count" 5 (Array.length g.F.nodes);
  Alcotest.(check (list int)) "header skips dead body" [ 3 ] (sorted_succ g 1);
  Alcotest.(check bool) "body node kept but unreachable" false g.F.reachable.(2);
  Alcotest.(check bool) "follow reachable" true g.F.reachable.(3)

let test_cfg_empty_body () =
  let g = F.build (mk_kernel "empty" []) in
  Alcotest.(check int) "entry+exit only" 2 (Array.length g.F.nodes);
  Alcotest.(check (list int)) "entry -> exit" [ 1 ] (sorted_succ g 0)

(* ------------------------------------------------------------------ *)
(* Instrumented reference interpreter.

   Nodes are matched to statements by replaying the builder's documented
   allocation order (entry first, then statements in preorder with a
   loop's header before its body). The interpreter then executes the
   kernel concretely, recording which definition each read observes, so
   the dataflow analyses' claims can be checked against ground truth. *)

type ann =
  | A_assign of int * Ast.lvalue * Ast.expr
  | A_rotate of int * string list
  | A_if of int * Ast.expr * ann list * ann list
  | A_for of int * Ast.loop * ann list

let annotate (body : Ast.stmt list) : ann list =
  let ctr = ref 1 in
  let rec go (s : Ast.stmt) =
    let id = !ctr in
    incr ctr;
    match s with
    | Ast.Assign (lv, e) -> A_assign (id, lv, e)
    | Ast.Rotate rs -> A_rotate (id, rs)
    | Ast.If (c, t, e) ->
        let t' = List.map go t in
        let e' = List.map go e in
        A_if (id, c, t', e')
    | Ast.For l -> A_for (id, l, List.map go l.Ast.body)
  in
  List.map go body

let check_alignment (g : F.t) (anns : ann list) =
  let rec chk (a : ann) =
    let expect id ok what =
      if not ok then failf "node %d is not the expected %s" id what
    in
    match a with
    | A_assign (id, lv, e) ->
        expect id
          (match g.F.nodes.(id).F.kind with
          | F.Assign (lv', e') -> Ast.equal_expr e e' && lv = lv'
          | _ -> false)
          "assignment"
    | A_rotate (id, rs) ->
        expect id
          (match g.F.nodes.(id).F.kind with
          | F.Rotate rs' -> rs = rs'
          | _ -> false)
          "rotate"
    | A_if (id, c, t, e) ->
        expect id
          (match g.F.nodes.(id).F.kind with
          | F.Branch c' -> Ast.equal_expr c c'
          | _ -> false)
          "branch";
        List.iter chk t;
        List.iter chk e
    | A_for (id, l, body) ->
        expect id
          (match g.F.nodes.(id).F.kind with
          | F.Header l' -> l.Ast.index = l'.Ast.index
          | _ -> false)
          "header";
        List.iter chk body
  in
  List.iter chk anns

(* A concrete memory location. *)
type cloc = CS of string | CA of string * int list

type trace = {
  (* (reader node, writer node): the read at [reader] observed the value
     last written by [writer] *)
  t_read_from : (int * int, unit) Hashtbl.t;
  (* nodes some instance of whose written value was read later (arrays
     surviving to exit count: the host reads them back) *)
  t_observed : (int, unit) Hashtbl.t;
  (* (node, scalar): a read at [node] found the scalar written *)
  t_read_written : (int * string, unit) Hashtbl.t;
  (* (node, scalar): a read at [node] found the scalar never written *)
  t_read_unwritten : (int * string, unit) Hashtbl.t;
}

let b2i b = if b then 1 else 0

let ev_bin (op : Ast.binop) a b =
  match op with
  | Ast.Add -> a + b
  | Ast.Sub -> a - b
  | Ast.Mul -> a * b
  | Ast.Div -> if b = 0 then 0 else a / b
  | Ast.Mod -> if b = 0 then 0 else a mod b
  | Ast.Lt -> b2i (a < b)
  | Ast.Le -> b2i (a <= b)
  | Ast.Gt -> b2i (a > b)
  | Ast.Ge -> b2i (a >= b)
  | Ast.Eq -> b2i (a = b)
  | Ast.Ne -> b2i (a <> b)
  | Ast.And -> b2i (a <> 0 && b <> 0)
  | Ast.Or -> b2i (a <> 0 || b <> 0)
  | Ast.Band -> a land b
  | Ast.Bor -> a lor b
  | Ast.Bxor -> a lxor b
  | Ast.Shl -> a lsl (b land 31)
  | Ast.Shr -> a asr (b land 31)
  | Ast.Min -> min a b
  | Ast.Max -> max a b

let ev_un (op : Ast.unop) a =
  match op with
  | Ast.Neg -> -a
  | Ast.Not -> b2i (a = 0)
  | Ast.Bnot -> lnot a
  | Ast.Abs -> abs a

(** Execute [anns] (the annotated body of [k]) concretely. [Param]
    scalars and arrays start host-initialised with deterministic values;
    [Temp]/[Register] scalars start unwritten (reads yield 0 and are
    recorded). Out-of-bounds accesses are skipped silently — they model
    no real cell, so they generate no events (transformed built-ins may
    evaluate both arms of a [Cond] mux). *)
let interp (k : Ast.kernel) (anns : ann list) : trace =
  let tr =
    {
      t_read_from = Hashtbl.create 64;
      t_observed = Hashtbl.create 64;
      t_read_written = Hashtbl.create 64;
      t_read_unwritten = Hashtbl.create 64;
    }
  in
  let scal : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : Ast.scalar_decl) ->
      if s.Ast.s_kind = Ast.Param then
        Hashtbl.replace scal s.Ast.s_name ((String.length s.Ast.s_name * 3) + 2))
    k.Ast.k_scalars;
  let dims : (string, int list) Hashtbl.t = Hashtbl.create 8 in
  let arrs : (string, (int list, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (a : Ast.array_decl) ->
      Hashtbl.replace dims a.Ast.a_name a.Ast.a_dims;
      Hashtbl.replace arrs a.Ast.a_name (Hashtbl.create 64))
    k.Ast.k_arrays;
  let lw : (cloc, int) Hashtbl.t = Hashtbl.create 64 in
  let in_bounds name idx =
    match Hashtbl.find_opt dims name with
    | None -> false
    | Some ds ->
        List.length ds = List.length idx
        && List.for_all2 (fun v d -> v >= 0 && v < d) idx ds
  in
  let note_read node c =
    (match Hashtbl.find_opt lw c with
    | Some w ->
        Hashtbl.replace tr.t_observed w ();
        Hashtbl.replace tr.t_read_from (node, w) ()
    | None -> ());
    match c with
    | CS s ->
        if Hashtbl.mem scal s then Hashtbl.replace tr.t_read_written (node, s) ()
        else Hashtbl.replace tr.t_read_unwritten (node, s) ()
    | CA _ -> ()
  in
  let write node c v =
    (match c with
    | CS s -> Hashtbl.replace scal s v
    | CA (a, idx) -> Hashtbl.replace (Hashtbl.find arrs a) idx v);
    Hashtbl.replace lw c node
  in
  let init_val name idx =
    (List.fold_left (fun acc v -> (acc * 5) + v + 3) (String.length name) idx
    mod 17)
    - 8
  in
  let rec ev node (e : Ast.expr) : int =
    match e with
    | Ast.Int n -> n
    | Ast.Var v ->
        note_read node (CS v);
        Option.value (Hashtbl.find_opt scal v) ~default:0
    | Ast.Arr (a, subs) ->
        let idx = List.map (ev node) subs in
        if not (in_bounds a idx) then 0
        else begin
          note_read node (CA (a, idx));
          match Hashtbl.find_opt (Hashtbl.find arrs a) idx with
          | Some x -> x
          | None -> init_val a idx
        end
    | Ast.Bin (op, x, y) -> ev_bin op (ev node x) (ev node y)
    | Ast.Un (op, x) -> ev_un op (ev node x)
    | Ast.Cond (c, t, e2) ->
        (* hardware evaluates both arms and muxes, matching the
           analysis's view of conditional reads *)
        let cv = ev node c in
        let tv = ev node t in
        let fv = ev node e2 in
        if cv <> 0 then tv else fv
  in
  let rec exec (a : ann) : unit =
    match a with
    | A_assign (id, Ast.Lvar s, e) -> write id (CS s) (ev id e)
    | A_assign (id, Ast.Larr (arr, subs), e) ->
        let v = ev id e in
        let idx = List.map (ev id) subs in
        if in_bounds arr idx then write id (CA (arr, idx)) v
    | A_rotate (id, rs) ->
        let vals =
          List.map
            (fun r ->
              note_read id (CS r);
              Option.value (Hashtbl.find_opt scal r) ~default:0)
            rs
        in
        let n = List.length rs in
        (* left rotation: r0 takes the old r1, ..., rn the old r0 *)
        List.iteri (fun i r -> write id (CS r) (List.nth vals ((i + 1) mod n))) rs
    | A_if (id, c, t, e) ->
        if ev id c <> 0 then List.iter exec t else List.iter exec e
    | A_for (id, l, body) ->
        if l.Ast.step > 0 then begin
          let i = ref l.Ast.lo in
          while !i < l.Ast.hi do
            write id (CS l.Ast.index) !i;
            List.iter exec body;
            i := !i + l.Ast.step
          done
        end
  in
  List.iter exec anns;
  (* the host reads every array back: final array writers are observed *)
  Hashtbl.iter
    (fun c w -> match c with CA _ -> Hashtbl.replace tr.t_observed w () | CS _ -> ())
    lw;
  tr

(* ------------------------------------------------------------------ *)
(* Soundness of every analysis against the interpreter *)

let soundness (k : Ast.kernel) : bool =
  let g = F.build k in
  let anns = annotate k.Ast.k_body in
  check_alignment g anns;
  let r = Reference.Flow.reaching g in
  let live = F.live g in
  let ant = F.anticipated g in
  let sites = U.sites k in
  let tr = interp k anns in
  (* Reaching definitions: every concretely-observed (reader, writer)
     pair must be predicted — some definition made at the writer node
     reaches the reader's entry. *)
  Hashtbl.iter
    (fun (n, w) () ->
      let predicted =
        Reference.Flow.IntSet.exists
          (fun did -> r.Reference.Flow.r_defs.(did).Reference.Flow.d_node = w)
          r.Reference.Flow.r_sol.F.before.(n)
      in
      if not predicted then
        failf "node %d concretely reads a value written at node %d, \
               but no definition of node %d reaches node %d"
          n w w n)
    tr.t_read_from;
  (* Uninitialized reads: an Uninitialized claim must never see a
     written read, and every concrete unwritten read must be reported
     (as not provably initialised). *)
  List.iter
    (fun (u : U.site) ->
      if u.U.status = U.Uninitialized && Hashtbl.mem tr.t_read_written (u.U.node, u.U.name)
      then
        failf "scalar %s claimed never-initialised at node %d but was \
               concretely read after a write"
          u.U.name u.U.node)
    sites;
  Hashtbl.iter
    (fun (n, s) () ->
      if not (List.exists (fun (u : U.site) -> u.U.node = n && u.U.name = s) sites)
      then
        failf "scalar %s concretely read unwritten at node %d but \
               Check.Uninit calls it initialised"
          s n)
    tr.t_read_unwritten;
  (* Liveness / anticipated: a store the analysis calls dead (or
     redundant) must never have an instance observed by a later read. *)
  Array.iter
    (fun (nd : F.node) ->
      if g.F.reachable.(nd.F.id) then
        match nd.F.kind with
        | F.Assign (Ast.Lvar s, _) ->
            if
              (not (F.live_at live.F.after.(nd.F.id) (F.Scalar s)))
              && Hashtbl.mem tr.t_observed nd.F.id
            then
              failf "store to %s at node %d is claimed dead but an \
                     instance was concretely read"
                s nd.F.id
        | F.Assign (Ast.Larr (a, _), _) -> (
            match F.defs_at g nd.F.id with
            | [ (F.Cell _ as l) ] -> (
                match ant.F.after.(nd.F.id) with
                | Some set when F.LocSet.mem l set ->
                    if Hashtbl.mem tr.t_observed nd.F.id then
                      failf "store to %s at node %d is claimed redundant \
                             but an instance was concretely read (or \
                             survived to exit)"
                        a nd.F.id
                | _ -> ())
            | _ -> ())
        | _ -> ()) g.F.nodes;
  (* End-to-end: a concrete uninitialised read implies Uninit reports
     something. *)
  if Hashtbl.length tr.t_read_unwritten > 0 then begin
    match U.check k with
    | [] -> failf "concrete uninitialised read but Check.Uninit is clean"
    | _ -> ()
  end;
  true

let test_soundness_random =
  Helpers.qtest "dataflow facts sound vs interpreter (random kernels)" ~count:300
    Helpers.gen_flow_kernel
    (fun k -> soundness k)

let test_soundness_scalar_free =
  Helpers.qtest "dataflow facts sound vs interpreter (array nests)" ~count:100
    Helpers.gen_kernel
    (fun k -> soundness k)

let test_soundness_builtins () =
  List.iter
    (fun (name, k) ->
      Alcotest.(check bool) (name ^ " sound vs interpreter") true (soundness k))
    (all_builtin ())

(* The analyses stay sound on transformed code: Rotate, Register
   scalars, peel guards and tiled nests. *)
let test_soundness_transformed () =
  List.iter
    (fun (name, vec) ->
      let k = Option.get (Kernels.find name) in
      let vec = Transform.Unroll.clamp k.Ast.k_body vec in
      let opts = { Transform.Pipeline.default with vector = vec } in
      let r = Transform.Pipeline.apply opts k in
      Alcotest.(check bool)
        (name ^ " transformed kernel sound vs interpreter")
        true
        (soundness r.Transform.Pipeline.kernel))
    [ ("fir", [ ("i", 2); ("j", 2) ]); ("mm", [ ("i", 2); ("k", 2) ]);
      ("jac", [ ("i", 2) ]); ("sobel", [ ("i", 2); ("j", 2) ]) ]

(* ------------------------------------------------------------------ *)
(* Built-ins and gallery kernels are clean under the new passes *)

let test_builtins_clean () =
  List.iter
    (fun (name, k) ->
      let g = F.build k in
      let show ds = String.concat "; " (List.map (Diag.render ~file:name) ds) in
      let uninit = U.check k in
      let dead = Check.Deadstore.check ~graph:g k in
      Alcotest.(check string) (name ^ " no uninit findings") "" (show uninit);
      Alcotest.(check string) (name ^ " no deadstore findings") "" (show dead))
    (all_builtin ())

(* ------------------------------------------------------------------ *)
(* Legality: the structural walks add nothing to the dependence-only
   predicates on scalar-free nests, and catch the hazards the
   dependence test cannot see *)

let test_jam_equiv_scalar_free =
  Helpers.qtest "jam legality = dependence-only on scalar-free kernels" ~count:80
    Helpers.gen_kernel
    (fun k ->
      (Transform.Unroll.jam_legal k && Check.Legality.scalar_jam_hazard k = None)
      = Transform.Unroll.jam_legal k)

let test_replaceable_equiv_scalar_free =
  Helpers.qtest "replaceable = dependence-only on scalar-free kernels" ~count:80
    Helpers.gen_kernel
    (fun k ->
      List.for_all
        (fun gp ->
          (Check.Legality.replaceable_group_dependence k gp
          && Check.Legality.foreign_hazard k gp = None)
          = Check.Legality.replaceable_group_dependence k gp)
        (Analysis.Reuse.groups k.Ast.k_body))

(* A non-commutative scalar recurrence: invisible to the dependence
   test, caught by the walk and by its graph oracle. *)
let recurrence_kernel op =
  mk_kernel "rec"
    ~arrays:[ Ast.array_decl "a" [ 4; 4 ]; Ast.array_decl "out" [ 1 ] ]
    ~scalars:[ Ast.scalar_decl "s" ]
    [
      Ast.Assign (Ast.Lvar "s", Ast.Int 0);
      Ast.For
        (mk_loop "i" 4
           [
             Ast.For
               (mk_loop "j" 4
                  [
                    Ast.Assign
                      ( Ast.Lvar "s",
                        Ast.Bin
                          (Ast.Add, op (Ast.Var "s"), Ast.Arr ("a", [ Ast.Var "i"; Ast.Var "j" ]))
                      );
                  ]);
           ]);
      Ast.Assign (Ast.Larr ("out", [ Ast.Int 0 ]), Ast.Var "s");
    ]

let test_jam_scalar_recurrence () =
  let hazard = Alcotest.(option (pair string string)) in
  let bad = recurrence_kernel (fun s -> Ast.Bin (Ast.Mul, s, Ast.Int 2)) in
  Alcotest.(check bool) "dependence test is blind to the recurrence" true
    (Transform.Unroll.jam_legal bad);
  Alcotest.check hazard "walk rejects s = s*2 + a[i][j] at loop i"
    (Some ("i", "s"))
    (Check.Legality.scalar_jam_hazard bad);
  Alcotest.check hazard "graph oracle agrees" (Some ("i", "s"))
    (Reference.Legality.scalar_jam_hazard (F.build bad));
  let good = recurrence_kernel (fun s -> s) in
  Alcotest.check hazard "no hazard on the reduction s = s + a[i][j]" None
    (Check.Legality.scalar_jam_hazard good);
  Alcotest.check hazard "graph oracle agrees" None
    (Reference.Legality.scalar_jam_hazard (F.build good))

(* A scalar live at an inner loop's entry only round its outer loop's
   back edge: [s] is read at the top of i's body, and i cannot carry it
   itself because a loop in its body is indexed by [s]. The walk's
   second pass over i's body is what shows j the read. *)
let test_jam_hazard_round_outer_loop () =
  let k =
    mk_kernel "round"
      ~arrays:[ Ast.array_decl "a" [ 4 ] ]
      ~scalars:[ Ast.scalar_decl "s"; Ast.scalar_decl "x"; Ast.scalar_decl "z" ]
      [
        Ast.For
          (mk_loop "i" 4
             [
               Ast.Assign (Ast.Lvar "x", Ast.Var "s");
               Ast.For (mk_loop "s" 2 []);
               Ast.For
                 (mk_loop "j" 4
                    [
                      Ast.For
                        (mk_loop "k" 4
                           [ Ast.Assign (Ast.Lvar "z", Ast.Arr ("a", [ Ast.Var "k" ])) ]);
                      Ast.If
                        ( Ast.Bin (Ast.Lt, Ast.Var "j", Ast.Int 2),
                          [ Ast.Assign (Ast.Lvar "s", Ast.Arr ("a", [ Ast.Var "j" ])) ],
                          [] );
                    ]);
             ]);
      ]
  in
  let hazard = Alcotest.(option (pair string string)) in
  Alcotest.check hazard "walk finds j carrying s" (Some ("j", "s"))
    (Check.Legality.scalar_jam_hazard k);
  Alcotest.check hazard "graph oracle agrees" (Some ("j", "s"))
    (Reference.Legality.scalar_jam_hazard (F.build k))

(* Several loops carry a recurrence: the hazard names the first in
   program order, the then-branch's before the else-branch's, an
   earlier nest before a later one, and an outer loop before its inner
   ones. *)
let test_jam_hazard_first_in_program_order () =
  let nest i j s =
    Ast.For
      (mk_loop i 4
         [
           Ast.For
             (mk_loop j 4
                [
                  Ast.Assign
                    ( Ast.Lvar s,
                      Ast.Bin
                        ( Ast.Add,
                          Ast.Bin (Ast.Mul, Ast.Var s, Ast.Int 2),
                          Ast.Arr ("a", [ Ast.Var i; Ast.Var j ]) ) );
                ]);
         ])
  in
  let kernel body =
    mk_kernel "first"
      ~arrays:[ Ast.array_decl "a" [ 4; 4 ] ]
      ~scalars:(List.map Ast.scalar_decl [ "p"; "s"; "t"; "u" ])
      body
  in
  let hazard = Alcotest.(option (pair string string)) in
  List.iter
    (fun (what, k, expected) ->
      Alcotest.check hazard what expected (Check.Legality.scalar_jam_hazard k);
      Alcotest.check hazard (what ^ ": graph oracle agrees") expected
        (Reference.Legality.scalar_jam_hazard (F.build k)))
    [
      ( "then-branch nest first",
        kernel
          [
            Ast.If
              ( Ast.Bin (Ast.Lt, Ast.Var "p", Ast.Int 2),
                [ nest "i" "j" "s" ],
                [ nest "k" "l" "t" ] );
            nest "m" "n" "u";
          ],
        Some ("i", "s") );
      ( "earlier nest first",
        kernel [ nest "m" "n" "u"; nest "i" "j" "s" ],
        Some ("m", "u") );
      ( "outer loop first",
        kernel [ Ast.For (mk_loop "o" 2 [ nest "i" "j" "s" ]) ],
        Some ("o", "s") );
    ]

(* A foreign-pattern write into a read set's array: each read pair has
   consistent distances (dependence-only says replaceable), but a write
   through a different subscript pattern reaches the reads. *)
let test_replaceable_foreign_write () =
  let k =
    mk_kernel "foreign"
      ~arrays:[ Ast.array_decl "a" [ 8 ]; Ast.array_decl "out" [ 4 ] ]
      [
        Ast.For
          (mk_loop "i" 4
             [
               Ast.Assign
                 ( Ast.Larr ("out", [ Ast.Var "i" ]),
                   Ast.Bin
                     ( Ast.Add,
                       Ast.Arr ("a", [ Ast.Var "i" ]),
                       Ast.Arr ("a", [ Ast.Bin (Ast.Add, Ast.Var "i", Ast.Int 1) ]) ) );
               Ast.Assign
                 ( Ast.Larr ("a", [ Ast.Bin (Ast.Mul, Ast.Int 2, Ast.Var "i") ]),
                   Ast.Var "i" );
             ]);
      ]
  in
  let reads =
    List.filter
      (fun (g : Analysis.Reuse.group) ->
        g.Analysis.Reuse.array = "a" && List.length g.Analysis.Reuse.members > 1)
      (Analysis.Reuse.read_sets k.Ast.k_body)
  in
  match reads with
  | [ gp ] ->
      let why =
        Some "a write through a different access pattern reaches the set's reads"
      in
      Alcotest.(check bool) "dependence-only predicate accepts the read set" true
        (Check.Legality.replaceable_group_dependence k gp);
      Alcotest.(check (option string)) "walk detects the foreign write a[2*i]" why
        (Check.Legality.foreign_hazard k gp);
      Alcotest.(check (option string)) "graph oracle agrees" why
        (Reference.Legality.foreign_hazard (F.build k) gp)
  | gs -> Alcotest.failf "expected one read set over a, got %d" (List.length gs)

(* ------------------------------------------------------------------ *)
(* Scalar replacement never introduces a dead store to its own
   registers, and never an uninitialised read *)

(* Dead stores to compiler-introduced registers. With
   [allow_priming_loads], stores whose right-hand side is a plain array
   read are exempt: those are the register bank initialisation loads,
   conservative by design (a guarded body store must preserve the
   original memory value), which the trip-aware CFG can prove dead when
   a write-only group's stores turn out to be unconditional. A dead
   *compute* store is never acceptable. *)
let register_dead_stores ?(allow_priming_loads = false) (tk : Ast.kernel) =
  let g = F.build tk in
  let live = F.live g in
  let dead = ref [] in
  Array.iter
    (fun (nd : F.node) ->
      if g.F.reachable.(nd.F.id) then
        match nd.F.kind with
        | F.Assign (Ast.Lvar _, Ast.Arr _) when allow_priming_loads -> ()
        | F.Assign (Ast.Lvar s, _) -> (
            match Ast.find_scalar tk s with
            | Some d when d.Ast.s_kind = Ast.Register ->
                if not (F.live_at live.F.after.(nd.F.id) (F.Scalar s)) then
                  dead := s :: !dead
            | _ -> ())
        | _ -> ()) g.F.nodes;
  !dead

let assert_no_register_deadstore name (tk : Ast.kernel) =
  let g = F.build tk in
  let live = F.live g in
  Array.iter
    (fun (nd : F.node) ->
      if g.F.reachable.(nd.F.id) then
        match nd.F.kind with
        | F.Assign (Ast.Lvar s, _) -> (
            match Ast.find_scalar tk s with
            | Some d when d.Ast.s_kind = Ast.Register ->
                if not (F.live_at live.F.after.(nd.F.id) (F.Scalar s)) then
                  failf "%s: scalar replacement introduced a dead store to \
                         register %s"
                    name s
            | _ -> ())
        | _ -> ()) g.F.nodes;
  match Diag.errors (U.check tk) with
  | [] -> ()
  | d :: _ ->
      failf "%s: transformed kernel has an uninit error: %s" name
        (Diag.render ~file:name d)

let transform_with k vec =
  let vec = Transform.Unroll.clamp k.Ast.k_body vec in
  let opts = { Transform.Pipeline.default with vector = vec } in
  (Transform.Pipeline.apply opts k).Transform.Pipeline.kernel

let test_scalar_replace_cross_check () =
  List.iter
    (fun (name, k) ->
      let spine = List.map (fun (l : Ast.loop) -> (l.Ast.index, 2)) (Loop_nest.spine k.Ast.k_body) in
      List.iter
        (fun vec -> assert_no_register_deadstore name (transform_with k vec))
        [ []; spine ])
    (all_builtin ())

(* Stage-local form of the cross-check for arbitrary random kernels: a
   source whose inner loop repeatedly overwrites the same output cell is
   already redundant, and unrolling legitimately turns that inherited
   redundancy into dead register stores — so the "never introduces one"
   claim is made of the scalar-replace stage itself, on store-clean
   input, and exempts the conservative bank-priming loads.
   Uninitialised reads must never appear, clean input or not. *)
let test_scalar_replace_cross_check_random =
  Helpers.qtest "scalar replace introduces no register dead stores (random)"
    ~count:60
    G.(Helpers.gen_kernel >>= fun k ->
       Helpers.gen_vector_for k >>= fun v -> return (k, v))
    (fun (k, vec) ->
      let vec = Transform.Unroll.clamp k.Ast.k_body vec in
      let opts = { Transform.Pipeline.default with vector = vec } in
      let staged = ref None in
      let observe stage ~before ~after =
        if stage = Transform.Pipeline.Scalar_replace then
          staged := Some (before, after)
      in
      let r = Transform.Pipeline.apply ~observe opts k in
      (match !staged with
      | Some (before, after) when Check.Deadstore.check before = [] -> (
          match register_dead_stores ~allow_priming_loads:true after with
          | [] -> ()
          | s :: _ ->
              failf "scalar replacement introduced a dead store to register \
                     %s on store-clean input"
                s)
      | _ -> ());
      (match
         Diag.errors (U.check r.Transform.Pipeline.kernel)
       with
      | [] -> ()
      | d :: _ ->
          failf "transformed kernel has an uninit error: %s"
            (Diag.render ~file:"rand" d));
      true)

(* ------------------------------------------------------------------ *)
(* Zero-trip regression: index_range is None, the body is unreachable,
   and no pass invents findings for code that never runs *)

let test_zero_trip_regression () =
  let l = mk_loop "i" 0 [ Ast.Assign (Ast.Larr ("out", [ Ast.Int 0 ]), Ast.Var "s") ] in
  Alcotest.(check (option (pair int int)))
    "index_range of for i in 0..0" None
    (Check.Bounds.index_range l);
  Alcotest.(check (option (pair int int)))
    "index_range of a non-positive step" None
    (Check.Bounds.index_range { l with Ast.step = 0 });
  let k =
    mk_kernel "zt"
      ~arrays:[ Ast.array_decl "out" [ 1 ] ]
      ~scalars:[ Ast.scalar_decl "s" ]
      [ Ast.For l ]
  in
  let g = F.build k in
  Alcotest.(check bool) "dead body kept but unreachable" false g.F.reachable.(2);
  Alcotest.(check int) "no uninit findings in dead code" 0
    (List.length (U.check k));
  Alcotest.(check int) "no deadstore findings in dead code" 0
    (List.length (Check.Deadstore.check ~graph:g k))

(* ------------------------------------------------------------------ *)
(* Run driver: deterministic ordering and the --fail-on threshold *)

let test_run_sorted_deterministic =
  Helpers.qtest "Run.all output is deterministically sorted" ~count:100
    Helpers.gen_flow_kernel
    (fun k ->
      let ds = Check.Run.all k in
      let rec sorted = function
        | a :: (b :: _ as rest) ->
            Check.Run.compare_diag a b <= 0 && sorted rest
        | _ -> true
      in
      sorted ds
      && List.map (Diag.render ~file:"k") ds
         = List.map (Diag.render ~file:"k") (Check.Run.all k))

let test_fail_on_threshold () =
  (* a kernel with a warning-severity finding only: the dead temporary *)
  let k =
    mk_kernel "warnonly"
      ~arrays:[ Ast.array_decl "a" [ 8 ]; Ast.array_decl "out" [ 8 ] ]
      ~scalars:[ Ast.scalar_decl "t" ]
      [
        Ast.For
          (mk_loop "i" 8
             [
               Ast.Assign (Ast.Lvar "t", Ast.Bin (Ast.Add, Ast.Arr ("a", [ Ast.Var "i" ]), Ast.Int 1));
               Ast.Assign (Ast.Larr ("out", [ Ast.Var "i" ]), Ast.Arr ("a", [ Ast.Var "i" ]));
             ]);
      ]
  in
  let ds = Check.Run.all k in
  Alcotest.(check int) "warnings exit 1 by default" 1 (Check.Run.exit_code ds);
  Alcotest.(check int) "--fail-on=warning promotes to 2" 2
    (Check.Run.exit_code ~fail_on:Diag.Warning ds);
  (* an error-severity kernel is 2 under both thresholds *)
  let bad =
    mk_kernel "uninit"
      ~arrays:[ Ast.array_decl "out" [ 8 ] ]
      ~scalars:[ Ast.scalar_decl "s" ]
      [
        Ast.For
          (mk_loop "i" 8
             [ Ast.Assign (Ast.Larr ("out", [ Ast.Var "i" ]), Ast.Var "s") ]);
      ]
  in
  let bs = Check.Run.all bad in
  Alcotest.(check int) "errors exit 2" 2 (Check.Run.exit_code bs);
  Alcotest.(check int) "errors exit 2 under --fail-on=warning" 2
    (Check.Run.exit_code ~fail_on:Diag.Warning bs);
  (* clean kernels stay 0 under the tighter threshold *)
  let fir = Option.get (Kernels.find "fir") in
  Alcotest.(check int) "clean kernel stays 0 under --fail-on=warning" 0
    (Check.Run.exit_code ~fail_on:Diag.Warning (Check.Run.all fir))

(* ------------------------------------------------------------------ *)
(* Scaling: the flow analyses' work is linear in the code they check *)

(* Minor words of the flow checks [defacto check] runs: the graph built
   once for the dead-store analysis, and the uninitialised-read walk,
   which needs none. This domain only, so the count repeats exactly. *)
let flow_words (k : Ast.kernel) =
  let w0 = Gc.minor_words () in
  let graph = F.build k in
  ignore (Sys.opaque_identity (Check.Deadstore.check ~graph k));
  ignore (Sys.opaque_identity (U.check k));
  Gc.minor_words () -. w0

(* The uninitialised-read walk [--verify] runs on every distinct
   finished kernel allocates no more per statement as an unrolled
   kernel doubles: a 10% rise between doublings fails. *)
let test_uninit_walk_scaling () =
  let k = Lazy.force Helpers.sobel64 in
  let per_statement vector =
    let r = Transform.Pipeline.apply { Transform.Pipeline.default with vector } k in
    let tk = r.Transform.Pipeline.kernel in
    let statements = Array.length (F.build tk).F.nodes in
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (U.errors tk));
    (Gc.minor_words () -. w0) /. float_of_int statements
  in
  let rec flat = function
    | (a, wa) :: ((b, wb) :: _ as rest) ->
        Printf.printf "%s %.2f -> %s %.2f\n" a wa b wb;
        if wb > 1.1 *. wa then
          Alcotest.failf "sobel: %s -> %s grows the walk's words per statement %.2f -> %.2f"
            a b wa wb;
        flat rest
    | _ -> ()
  in
  flat
    (List.map
       (fun vector -> (Helpers.vector_to_string vector, per_statement vector))
       [
         [ ("i", 2); ("j", 4) ];
         [ ("i", 4); ("j", 4) ];
         [ ("i", 4); ("j", 8) ];
         [ ("i", 8); ("j", 8) ];
         [ ("i", 8); ("j", 16) ];
       ])

let test_flow_scaling_sobel () =
  let k = Lazy.force Helpers.sobel64 in
  ignore
    (Helpers.doublings_ok "sobel"
       (List.map
          (fun vector ->
            let r = Transform.Pipeline.apply { Transform.Pipeline.default with vector } k in
            (Helpers.vector_to_string vector, flow_words r.Transform.Pipeline.kernel))
          [
            [ ("i", 2); ("j", 4) ];
            [ ("i", 4); ("j", 4) ];
            [ ("i", 4); ("j", 8) ];
            [ ("i", 8); ("j", 8) ];
            [ ("i", 8); ("j", 16) ];
          ]))

(* The jam-hazard walk visits each loop's body once per enclosing loop,
   so doubling a nest's depth from 8 to 16 may quadruple its words; a
   walk per path would multiply them by 256. *)
let test_jam_hazard_depth_scaling () =
  let nest depth =
    let rec go d =
      if d = depth then
        [
          Ast.Assign
            ( Ast.Lvar "s",
              Ast.Bin
                ( Ast.Add,
                  Ast.Bin (Ast.Mul, Ast.Var "s", Ast.Int 2),
                  Ast.Arr ("a", [ Ast.Var "i0" ]) ) );
        ]
      else [ Ast.For (mk_loop (Printf.sprintf "i%d" d) 2 (go (d + 1))) ]
    in
    mk_kernel "deep"
      ~arrays:[ Ast.array_decl "a" [ 2 ] ]
      ~scalars:[ Ast.scalar_decl "s" ]
      (go 0)
  in
  let words depth =
    let k = nest depth in
    let w0 = Gc.minor_words () in
    Alcotest.(check (option (pair string string)))
      (Printf.sprintf "depth %d: outermost loop carries s" depth)
      (Some ("i0", "s"))
      (Sys.opaque_identity (Check.Legality.scalar_jam_hazard k));
    Gc.minor_words () -. w0
  in
  let w8 = words 8 and w16 = words 16 in
  if w16 > 8. *. w8 then
    Alcotest.failf "depth 8 -> 16 multiplies the walk's words by %.1f" (w16 /. w8)

(* A generated nest with its innermost body repeated 8, 16, 32 and 64
   times. *)
let test_flow_scaling_random =
  Helpers.qtest "minor words linear (nests)" ~count:30 Helpers.gen_kernel (fun k ->
      let rec repeat n = function
        | [ Ast.For l ] -> [ Ast.For { l with Ast.body = repeat n l.Ast.body } ]
        | body -> List.concat (List.init n (fun _ -> body))
      in
      Helpers.doublings_ok "generated nest"
        (List.map
           (fun n ->
             ( Printf.sprintf "%d copies" n,
               flow_words { k with Ast.k_body = repeat n k.Ast.k_body } ))
           [ 8; 16; 32; 64 ]))

let () =
  Alcotest.run "flowgraph"
    [
      ( "cfg-shape",
        [
          Alcotest.test_case "straight-line + for" `Quick test_cfg_straight_line_for;
          Alcotest.test_case "if join" `Quick test_cfg_if_join;
          Alcotest.test_case "zero-trip loop" `Quick test_cfg_zero_trip;
          Alcotest.test_case "empty body" `Quick test_cfg_empty_body;
        ] );
      ( "soundness",
        [
          test_soundness_random;
          test_soundness_scalar_free;
          Alcotest.test_case "built-ins + gallery" `Quick test_soundness_builtins;
          Alcotest.test_case "transformed built-ins" `Quick test_soundness_transformed;
          Alcotest.test_case "built-ins clean" `Quick test_builtins_clean;
        ] );
      ( "legality",
        [
          test_jam_equiv_scalar_free;
          test_replaceable_equiv_scalar_free;
          Alcotest.test_case "scalar recurrence vs reduction" `Quick
            test_jam_scalar_recurrence;
          Alcotest.test_case "jam hazard round the outer loop" `Quick
            test_jam_hazard_round_outer_loop;
          Alcotest.test_case "jam hazard: first in program order" `Quick
            test_jam_hazard_first_in_program_order;
          Alcotest.test_case "foreign-pattern write" `Quick
            test_replaceable_foreign_write;
        ] );
      ( "cross-checks",
        [
          Alcotest.test_case "scalar replace: no register dead stores" `Quick
            test_scalar_replace_cross_check;
          test_scalar_replace_cross_check_random;
        ] );
      ( "driver",
        [
          Alcotest.test_case "zero-trip regression" `Quick test_zero_trip_regression;
          test_run_sorted_deterministic;
          Alcotest.test_case "--fail-on threshold" `Quick test_fail_on_threshold;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "minor words linear (sobel)" `Quick test_flow_scaling_sobel;
          test_flow_scaling_random;
          Alcotest.test_case "uninit walk words per statement flat (sobel)" `Quick
            test_uninit_walk_scaling;
          Alcotest.test_case "jam hazard walk words polynomial in depth" `Quick
            test_jam_hazard_depth_scaling;
        ] );
    ]
