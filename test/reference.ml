(** Reference implementations for the equivalence properties of
    [test_reference_equiv.ml] and [test_fingerprint.ml]: the
    straightforward flow analyses, footprint interpreter, simplifier,
    DFG builder, fingerprint encoder, scheduler, data layout, scalar
    replacement, legality hazards and configuration legality verdict the
    optimized library versions must agree with,
    solution for solution and byte for byte.
    They recompute every node's uses and definitions from the syntax on
    demand, build kill sets by scanning all definitions, filter whole
    fact sets in the transfer functions, interpret footprints over a
    string-keyed [Hashtbl] environment, re-derive every affine form
    from the syntax, build DFG nodes as records, encode fingerprints as
    decimal text, keep schedule
    state in tuple-keyed [Hashtbl]s and rescore bank shapes at every
    comparison. Only the types ([loc], [LocSet], [solution],
    [array_fp], the schedule's [profile], [result] and [tri], the
    access record, ...), the simplifier's unchanged [fold_expr] and, for
    scalar replacement, the dependence tests and fresh names are shared
    with the library. *)

open Ir

module Flow = struct
  open Analysis.Flowgraph

  (* The cell key of an access, valid at a node whose enclosing loop
     indices are [indices]: affine in every dimension and mentioning only
     those indices; otherwise the whole array. *)
  let loc_of_access indices (a : string) (subs : Ast.expr list) : loc =
    let forms = List.map Affine.of_expr subs in
    if
      List.for_all
        (function
          | Some f -> List.for_all (fun v -> List.mem v indices) (Affine.vars f)
          | None -> false)
        forms
    then Cell (a, List.map Option.get forms)
    else Whole a

  let index_names loops = List.map (fun (l : Ast.loop) -> l.Ast.index) loops

  let rec expr_locs indices acc (e : Ast.expr) =
    match e with
    | Ast.Int _ -> acc
    | Ast.Var v -> Scalar v :: acc
    | Ast.Arr (a, subs) ->
        let acc = List.fold_left (expr_locs indices) acc subs in
        loc_of_access indices a subs :: acc
    | Ast.Bin (_, x, y) -> expr_locs indices (expr_locs indices acc x) y
    | Ast.Un (_, x) -> expr_locs indices acc x
    | Ast.Cond (c, x, y) ->
        expr_locs indices (expr_locs indices (expr_locs indices acc c) x) y

  let uses (g : t) (i : int) : loc list =
    let nd = g.nodes.(i) in
    let indices = index_names nd.loops in
    match nd.kind with
    | Entry | Exit | Header _ -> []
    | Branch c -> List.rev (expr_locs indices [] c)
    | Rotate rs -> List.map (fun r -> Scalar r) rs
    | Assign (lv, e) ->
        let acc = expr_locs indices [] e in
        let acc =
          match lv with
          | Ast.Lvar _ -> acc
          | Ast.Larr (_, subs) ->
              (* writing a cell reads its subscripts, not the cell *)
              List.fold_left (expr_locs indices) acc subs
        in
        List.rev acc

  let defs_at (g : t) (i : int) : loc list =
    let nd = g.nodes.(i) in
    let indices = index_names nd.loops in
    match nd.kind with
    | Entry | Exit | Branch _ -> []
    | Header l -> [ Scalar l.Ast.index ]
    | Rotate rs -> List.map (fun r -> Scalar r) rs
    | Assign (Ast.Lvar s, _) -> [ Scalar s ]
    | Assign (Ast.Larr (a, subs), _) -> [ loc_of_access indices a subs ]

  let solve (g : t) (spec : 'f spec) : 'f solution =
    let n = Array.length g.nodes in
    let before = Array.make n spec.init and after = Array.make n spec.init in
    let inq = Array.make n false in
    let q = Queue.create () in
    let push i =
      if not inq.(i) then begin
        inq.(i) <- true;
        Queue.push i q
      end
    in
    (match spec.dir with
    | Forward -> for i = 0 to n - 1 do push i done
    | Backward -> for i = n - 1 downto 0 do push i done);
    while not (Queue.is_empty q) do
      let i = Queue.pop q in
      inq.(i) <- false;
      match spec.dir with
      | Forward ->
          let inf =
            let base = if i = g.entry then spec.boundary else spec.init in
            List.fold_left (fun acc p -> spec.join acc after.(p)) base g.pred.(i)
          in
          before.(i) <- inf;
          let out = spec.transfer g.nodes.(i) inf in
          if not (spec.equal out after.(i)) then begin
            after.(i) <- out;
            List.iter push g.succ.(i)
          end
      | Backward ->
          let outf =
            let base = if i = g.exit_ then spec.boundary else spec.init in
            List.fold_left (fun acc s -> spec.join acc before.(s)) base g.succ.(i)
          in
          after.(i) <- outf;
          let inf = spec.transfer g.nodes.(i) outf in
          if not (spec.equal inf before.(i)) then begin
            before.(i) <- inf;
            List.iter push g.pred.(i)
          end
    done;
    { before; after }

  let is_const_cell = function
    | Cell (_, fs) -> List.for_all Affine.is_const fs
    | Scalar _ | Whole _ -> false

  (* A write to [d] provably overwrites location [l] (on any execution
     reaching the program point, regardless of iteration): scalars by
     name, cells only when both sides are the same all-constant cell. *)
  let strongly_overwrites (d : loc) (l : loc) =
    match d with
    | Scalar _ -> equal_loc d l
    | Cell _ -> is_const_cell d && equal_loc d l
    | Whole _ -> false

  let mentions_index (idx : string) = function
    | Scalar _ | Whole _ -> false
    | Cell (_, fs) -> List.exists (fun f -> List.mem idx (Affine.vars f)) fs

  (* ------------------------------------------------------------------ *)
  (* Reaching definitions: the oracle of [Check.Legality.foreign_hazard]
     and, with [must_init], of [Check.Uninit] *)

  (** One static definition site. A node makes one [def] per location it
      writes ([Rotate] makes several). *)
  type def = { d_id : int; d_node : int; d_loc : loc }

  module IntSet = Set.Make (Int)

  type reaching = {
    r_defs : def array;  (** every definition site, in node order *)
    r_sol : IntSet.t solution;  (** sets of [d_id]s *)
  }

  let def_sites (g : t) : def array =
    let acc = ref [] and next = ref 0 in
    Array.iter
      (fun nd ->
        List.iter
          (fun l ->
            acc := { d_id = !next; d_node = nd.id; d_loc = l } :: !acc;
            incr next)
          (defs_at g nd.id))
      g.nodes;
    Array.of_list (List.rev !acc)

  (** Forward may-analysis. A definition is strongly killed only by a
      write that provably overwrites it on every execution reaching
      here: a scalar write, or a write to a cell with all-constant
      subscripts. Writes to index-dependent cells kill nothing (an
      earlier iteration's instance may survive in another cell). *)
  let reaching (g : t) : reaching =
    let defs = def_sites g in
    let n = Array.length g.nodes in
    let gen = Array.make n IntSet.empty in
    Array.iter (fun d -> gen.(d.d_node) <- IntSet.add d.d_id gen.(d.d_node)) defs;
    (* kill at a node: every site whose location the node's writes
       strongly overwrite *)
    let kill = Array.make n IntSet.empty in
    Array.iteri
      (fun i _ ->
        let writes = defs_at g i in
        if writes <> [] then
          kill.(i) <-
            Array.fold_left
              (fun acc (d : def) ->
                if List.exists (fun w -> strongly_overwrites w d.d_loc) writes
                then IntSet.add d.d_id acc
                else acc)
              IntSet.empty defs)
      g.nodes;
    let spec =
      {
        dir = Forward;
        boundary = IntSet.empty;
        init = IntSet.empty;
        join = IntSet.union;
        equal = IntSet.equal;
        transfer = (fun nd f -> IntSet.union gen.(nd.id) (IntSet.diff f kill.(nd.id)));
      }
    in
    { r_defs = defs; r_sol = solve g spec }

  (** Definitions reaching the entry of node [node] that may alias [l]. *)
  let reaching_defs_of (r : reaching) (node : int) (l : loc) : def list =
    IntSet.fold
      (fun id acc ->
        let d = r.r_defs.(id) in
        if may_alias d.d_loc l then d :: acc else acc)
      r.r_sol.before.(node) []
    |> List.rev

  (* ------------------------------------------------------------------ *)
  (* Liveness *)

  let live (g : t) : LocSet.t solution =
    let boundary =
      List.fold_left
        (fun acc (a : Ast.array_decl) -> LocSet.add (Whole a.Ast.a_name) acc)
        LocSet.empty g.kernel.Ast.k_arrays
    in
    let transfer nd out =
      match nd.kind with
      | Header l ->
          (* The index changes here: cell facts that mention it name a
             different cell each iteration — widen them; the index itself
             is (re)defined. *)
          LocSet.fold
            (fun f acc ->
              if equal_loc f (Scalar l.Ast.index) then acc
              else if mentions_index l.Ast.index f then
                match f with
                | Cell (a, _) -> LocSet.add (Whole a) acc
                | _ -> LocSet.add f acc
              else LocSet.add f acc)
            out LocSet.empty
      | _ ->
          let writes = defs_at g nd.id in
          let killed =
            LocSet.filter
              (fun f ->
                not (List.exists (fun w -> strongly_overwrites w f) writes))
              out
          in
          (* a same-iteration exact cell write also kills its own fact:
             facts survive headers only as Whole, so an exact Cell fact
             here was generated in the same iteration *)
          let killed =
            LocSet.filter
              (fun f ->
                not
                  (List.exists
                     (fun w ->
                       match (w, f) with
                       | Cell _, Cell _ -> equal_loc w f
                       | _ -> false)
                     writes))
              killed
          in
          List.fold_left (fun acc u -> LocSet.add u acc) killed (uses g nd.id)
    in
    solve g
      {
        dir = Backward;
        boundary;
        init = LocSet.empty;
        join = LocSet.union;
        equal = LocSet.equal;
        transfer;
      }

  let live_at (s : LocSet.t) (l : loc) = LocSet.exists (fun f -> may_alias f l) s

  let opt_must_join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (LocSet.inter a b)

  let opt_equal a b =
    match (a, b) with
    | None, None -> true
    | Some a, Some b -> LocSet.equal a b
    | _ -> false

  let must_init (g : t) : LocSet.t option solution =
    let boundary =
      let s =
        List.fold_left
          (fun acc (a : Ast.array_decl) -> LocSet.add (Whole a.Ast.a_name) acc)
          LocSet.empty g.kernel.Ast.k_arrays
      in
      let s =
        List.fold_left
          (fun acc (d : Ast.scalar_decl) ->
            if d.Ast.s_kind = Ast.Param then LocSet.add (Scalar d.Ast.s_name) acc
            else acc)
          s g.kernel.Ast.k_scalars
      in
      Some s
    in
    let transfer nd f =
      match f with
      | None -> None
      | Some s -> (
          match nd.kind with
          | Header l ->
              let s = LocSet.filter (fun f -> not (mentions_index l.Ast.index f)) s in
              Some (LocSet.add (Scalar l.Ast.index) s)
          | _ ->
              let writes = defs_at g nd.id in
              Some
                (List.fold_left
                   (fun acc w ->
                     match w with
                     | Scalar _ -> LocSet.add w acc
                     | Cell _ -> LocSet.add w acc
                     | Whole _ -> acc (* writes one unknown cell *))
                   s writes))
    in
    solve g
      {
        dir = Forward;
        boundary;
        init = None;
        join = opt_must_join;
        equal = opt_equal;
        transfer;
      }

  let initialized_in (s : LocSet.t) (l : loc) =
    match l with
    | Scalar _ -> LocSet.mem l s
    | Cell (a, _) -> LocSet.mem l s || LocSet.mem (Whole a) s
    | Whole _ -> LocSet.mem l s

  (* ------------------------------------------------------------------ *)
  (* Anticipated overwrites *)

  let anticipated (g : t) : LocSet.t option solution =
    let transfer nd f =
      match f with
      | None -> None
      | Some s -> (
          match nd.kind with
          | Header l ->
              Some
                (LocSet.filter
                   (fun f ->
                     (not (mentions_index l.Ast.index f))
                     && not (equal_loc f (Scalar l.Ast.index)))
                   s)
          | _ ->
              (* before = (after ∪ must-writes) \ may-reads *)
              let writes = defs_at g nd.id in
              let s =
                List.fold_left
                  (fun acc w ->
                    match w with
                    | Scalar _ -> LocSet.add w acc
                    | Cell _ -> LocSet.add w acc (* exact cell, same iteration *)
                    | Whole _ -> acc)
                  s writes
              in
              let reads = uses g nd.id in
              Some
                (LocSet.filter
                   (fun f -> not (List.exists (fun u -> may_alias f u) reads))
                   s))
    in
    solve g
      {
        dir = Backward;
        boundary = Some LocSet.empty;
        init = None;
        join = opt_must_join;
        equal = opt_equal;
        transfer;
      }

  (* Use-before-def: the flow-graph classification the library's
     structural walk ([Check.Uninit.sites]) must agree with. *)
  type init_status = Initialized | Maybe_uninitialized | Uninitialized
  type use_site = { u_node : int; u_loc : loc; u_status : init_status }

  let use_before_def (g : t) : use_site list =
    let r = reaching g in
    let mi = must_init g in
    let sites = ref [] in
    Array.iter
      (fun nd ->
        if g.reachable.(nd.id) then
          List.iter
            (fun u ->
              let status =
                match mi.before.(nd.id) with
                | Some s when initialized_in s u -> Initialized
                | _ ->
                    if reaching_defs_of r nd.id u = [] then
                      (* nothing written in the kernel reaches; arrays and
                         Param scalars are host-initialised but those are
                         always must-init, so this is a genuine hole *)
                      Uninitialized
                    else Maybe_uninitialized
              in
              sites := { u_node = nd.id; u_loc = u; u_status = status } :: !sites)
            (uses g nd.id))
      g.nodes;
    List.rev !sites
end

module Footprint = struct
  open Analysis.Footprint

  let rec peval env (e : Ast.expr) : int option =
    match e with
    | Ast.Int n -> Some n
    | Ast.Var v -> Hashtbl.find_opt env v
    | Ast.Arr _ -> None
    | Ast.Un (op, a) -> (
        match peval env a with
        | None -> None
        | Some va -> (
            match op with
            | Ast.Neg -> Some (-va)
            | Ast.Not -> Some (if va = 0 then 1 else 0)
            | Ast.Bnot -> Some (lnot va)
            | Ast.Abs -> Some (abs va)))
    | Ast.Bin (op, a, b) -> (
        match (peval env a, peval env b) with
        | Some va, Some vb -> (
            let bool_ c = Some (if c then 1 else 0) in
            match op with
            | Ast.Add -> Some (va + vb)
            | Ast.Sub -> Some (va - vb)
            | Ast.Mul -> Some (va * vb)
            | Ast.Div -> if vb = 0 then None else Some (va / vb)
            | Ast.Mod -> if vb = 0 then None else Some (va mod vb)
            | Ast.Lt -> bool_ (va < vb)
            | Ast.Le -> bool_ (va <= vb)
            | Ast.Gt -> bool_ (va > vb)
            | Ast.Ge -> bool_ (va >= vb)
            | Ast.Eq -> bool_ (va = vb)
            | Ast.Ne -> bool_ (va <> vb)
            | Ast.And -> bool_ (va <> 0 && vb <> 0)
            | Ast.Or -> bool_ (va <> 0 || vb <> 0)
            | Ast.Band -> Some (va land vb)
            | Ast.Bor -> Some (va lor vb)
            | Ast.Bxor -> Some (va lxor vb)
            | Ast.Shl -> if vb < 0 || vb > 62 then None else Some (va lsl vb)
            | Ast.Shr -> if vb < 0 || vb > 62 then None else Some (va asr vb)
            | Ast.Min -> Some (min va vb)
            | Ast.Max -> Some (max va vb))
        | _ -> None)
    | Ast.Cond (c, t, e') -> (
        match peval env c with
        | Some vc -> peval env (if vc <> 0 then t else e')
        | None -> None)

  exception Skip_all of string

  (** Estimated statement executions, to refuse enormous nests upfront. *)
  let rec work_of_body body =
    List.fold_left
      (fun acc s ->
        acc
        +
        match s with
        | Ast.Assign _ | Ast.Rotate _ -> 1
        | Ast.If (_, t, e) -> 1 + work_of_body t + work_of_body e
        | Ast.For l ->
            let trip = if l.Ast.step <= 0 then 0 else Ast.loop_trip l in
            1 + (trip * work_of_body l.Ast.body))
      0 body

  let footprint ?(max_points = default_max_points) (k : Ast.kernel) : t =
    let fps = Hashtbl.create 8 in
    let skipped : (string, string) Hashtbl.t = Hashtbl.create 4 in
    let skip a reason =
      if not (Hashtbl.mem skipped a) then Hashtbl.add skipped a reason
    in
    (* An array's size as a float product, so that no extent product
       can wrap; a zero extent makes it empty whatever the others are. *)
    let too_large dims =
      (not (List.mem 0 dims))
      && (List.exists (fun d -> d < 0) dims
         || List.fold_left (fun n d -> n *. float_of_int d) 1. dims
            > float_of_int max_elements)
    in
    List.iter
      (fun (a : Ast.array_decl) ->
        if too_large a.Ast.a_dims then
          skip a.Ast.a_name (Printf.sprintf "more than %d elements" max_elements);
        Hashtbl.replace fps a.Ast.a_name
          (if too_large a.Ast.a_dims then None
           else
             let size = Ast.array_size a in
             Some
               ( a.Ast.a_dims,
                 {
                   size;
                   flags = Bytes.make size '\000';
                   oob_read = false;
                   oob_write = false;
                 } )))
      k.Ast.k_arrays;
    let env : (string, int) Hashtbl.t = Hashtbl.create 16 in
    (* Linearize row-major; [None] when a subscript is unevaluable, [Some
       (-1)] when evaluable but outside the declared box. *)
    let linear dims subs =
      let rec go acc dims subs =
        match (dims, subs) with
        | [], [] -> Some acc
        | d :: dims, s :: subs -> (
            match peval env s with
            | None -> None
            | Some v ->
                if v < 0 || v >= d then Some (-1)
                else go ((acc * d) + v) dims subs)
        | _ -> Some (-1) (* arity mismatch: treat as out of the box *)
      in
      go 0 dims subs
    in
    let touch ~write ~certain a subs =
      match Hashtbl.find_opt fps a with
      | None -> skip a "not declared"
      | Some None -> ()
      | Some (Some (dims, fp)) -> (
          match linear dims subs with
          | None -> skip a "unevaluable subscript"
          | Some idx ->
              if idx < 0 then
                if write then fp.oob_write <- true else fp.oob_read <- true
              else if write then begin
                add fp may_write idx;
                if certain then add fp must_write idx
              end
              else begin
                add fp may_read idx;
                if certain then add fp must_read idx
              end)
    in
    (* Record every array read inside an expression (subscripts first);
       a ternary branch may not run, so its reads are never certain. *)
    let rec reads_in ~certain e =
      match e with
      | Ast.Int _ | Ast.Var _ -> ()
      | Ast.Arr (a, subs) ->
          List.iter (reads_in ~certain) subs;
          touch ~write:false ~certain a subs
      | Ast.Bin (_, a, b) ->
          reads_in ~certain a;
          reads_in ~certain b
      | Ast.Un (_, a) -> reads_in ~certain a
      | Ast.Cond (c, t, e') ->
          reads_in ~certain c;
          reads_in ~certain:false t;
          reads_in ~certain:false e'
    in
    let budget = ref max_points in
    let spend () =
      decr budget;
      if !budget < 0 then raise (Skip_all "iteration budget exceeded")
    in
    let rec walk ~certain stmts = List.iter (stmt ~certain) stmts
    and stmt ~certain s =
      spend ();
      match s with
      | Ast.Assign (Ast.Lvar v, e) ->
          reads_in ~certain e;
          (match (certain, peval env e) with
          | true, Some n -> Hashtbl.replace env v n
          | _ -> Hashtbl.remove env v)
      | Ast.Assign (Ast.Larr (a, subs), e) ->
          List.iter (reads_in ~certain) subs;
          reads_in ~certain e;
          touch ~write:true ~certain a subs
      | Ast.If (c, t, e) -> (
          reads_in ~certain c;
          match peval env c with
          | Some vc -> walk ~certain (if vc <> 0 then t else e)
          | None ->
              walk ~certain:false t;
              walk ~certain:false e)
      | Ast.For l ->
          if l.Ast.step <= 0 then raise (Skip_all "non-positive loop stride");
          let i = ref l.Ast.lo in
          while !i < l.Ast.hi do
            Hashtbl.replace env l.Ast.index !i;
            walk ~certain l.Ast.body;
            i := !i + l.Ast.step
          done;
          Hashtbl.remove env l.Ast.index
      | Ast.Rotate rs ->
          (* Register values permute: forget anything we knew about them. *)
          List.iter (Hashtbl.remove env) rs
    in
    (* Known [Param]/[Temp] scalars have no compile-time value: only loop
       indices and scalars assigned evaluable expressions enter [env]. *)
    (try
       if work_of_body k.Ast.k_body > max_points then
         raise (Skip_all "iteration space exceeds the point budget");
       walk ~certain:true k.Ast.k_body
     with Skip_all reason ->
       List.iter
         (fun (a : Ast.array_decl) -> skip a.Ast.a_name reason)
         k.Ast.k_arrays);
    let arrays =
      Hashtbl.fold
        (fun name fp acc ->
          match fp with
          | Some (_, fp) when not (Hashtbl.mem skipped name) -> (name, fp) :: acc
          | _ -> acc)
        fps []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    let skipped =
      Hashtbl.fold (fun name reason acc -> (name, reason) :: acc) skipped []
      |> List.sort compare
    in
    { arrays; skipped }
end

(** [Transform.Simplify]'s canonicalization as it was before each result
    carried a summary of its affine form: at every affine node it
    re-derives the form with [Affine.of_expr] (a walk of the whole
    subtree), respells it with [Affine.to_expr] and compares the
    spelling structurally with the node; when a folding arm fires it
    refolds the result with [fold_expr] first. *)
module Simplify = struct
  open Ast

  (* [fold_expr] itself is unchanged; sharing it keeps the constant
     nodes it builds the same physical blocks on both sides. *)
  let fold_expr = Transform.Simplify.fold_expr

  (** Normalise an expression through its affine form when possible — the
      canonical shape later passes compare syntactically. Returns the
      input physically unchanged when it is already in canonical form. *)
  let canon_expr e =
    let e' = fold_expr e in
    match Affine.of_expr e' with
    | None -> e'
    | Some f ->
        let c = Affine.to_expr f in
        if c = e then e else c

  (* [fold_expr] restricted to the root: operands are assumed already
     folded, so only the node's own arms apply. Re-association arms
     recurse on the node they rebuild (depth bounded by the constant
     chain), never into operands. *)
  let rec fold1 (e : expr) : expr =
    match e with
    | Int _ | Var _ | Arr _ -> e
    | Un (op, a) -> (
        match (op, a) with
        | Neg, Int n -> Int (-n)
        | Not, Int n -> Int (if n = 0 then 1 else 0)
        | Bnot, Int n -> Int (lnot n)
        | Abs, Int n -> Int (abs n)
        | Neg, Un (Neg, x) -> x
        | _ -> e)
    | Cond (c, t, el) -> ( match c with Int 0 -> el | Int _ -> t | _ -> e)
    | Bin (op, a, b) -> (
        match (op, a, b) with
        | Add, Int x, Int y -> Int (x + y)
        | Sub, Int x, Int y -> Int (x - y)
        | Mul, Int x, Int y -> Int (x * y)
        | Div, Int x, Int y when y <> 0 -> Int (x / y)
        | Mod, Int x, Int y when y <> 0 -> Int (x mod y)
        | Lt, Int x, Int y -> Int (if x < y then 1 else 0)
        | Le, Int x, Int y -> Int (if x <= y then 1 else 0)
        | Gt, Int x, Int y -> Int (if x > y then 1 else 0)
        | Ge, Int x, Int y -> Int (if x >= y then 1 else 0)
        | Eq, Int x, Int y -> Int (if x = y then 1 else 0)
        | Ne, Int x, Int y -> Int (if x <> y then 1 else 0)
        | And, Int x, Int y -> Int (if x <> 0 && y <> 0 then 1 else 0)
        | Or, Int x, Int y -> Int (if x <> 0 || y <> 0 then 1 else 0)
        | Band, Int x, Int y -> Int (x land y)
        | Bor, Int x, Int y -> Int (x lor y)
        | Bxor, Int x, Int y -> Int (x lxor y)
        | Shl, Int x, Int y when y >= 0 -> Int (x lsl y)
        | Shr, Int x, Int y when y >= 0 -> Int (x asr y)
        | Min, Int x, Int y -> Int (min x y)
        | Max, Int x, Int y -> Int (max x y)
        | Add, x, Int 0 | Add, Int 0, x -> x
        | Sub, x, Int 0 -> x
        | Mul, _, Int 0 | Mul, Int 0, _ -> Int 0
        | Mul, x, Int 1 | Mul, Int 1, x -> x
        | Div, x, Int 1 -> x
        | And, x, Int n when n <> 0 -> x
        | And, Int n, x when n <> 0 -> x
        | And, _, Int 0 | And, Int 0, _ -> Int 0
        | Or, x, Int 0 | Or, Int 0, x -> x
        | Add, Bin (Add, x, Int c1), Int c2 -> fold1 (Bin (Add, x, Int (c1 + c2)))
        | Add, Bin (Sub, x, Int c1), Int c2 -> fold1 (Bin (Add, x, Int (c2 - c1)))
        | Sub, Bin (Add, x, Int c1), Int c2 -> fold1 (Bin (Add, x, Int (c1 - c2)))
        | Sub, Bin (Sub, x, Int c1), Int c2 -> fold1 (Bin (Sub, x, Int (c1 + c2)))
        | _ -> e)

  (** [map_expr canon_expr] applies {!canon_expr} at every node, and each
      application re-walks its whole subtree ([fold_expr] and
      [Affine.of_expr] both recurse) — quadratic on the long accumulation
      chains unrolling builds. [canon_rec] computes the same result in one
      bottom-up pass: operands are canonicalized exactly once, folding at
      a node assumes folded operands ({!fold1}), and the affine attempt is
      skipped outright when an operand is already known non-affine. The
      boolean tracks "may be affine" — exactly the shapes
      [Affine.of_expr] accepts — so it never skips a node the original
      would have normalised. *)
  let rec canon_rec (e0 : expr) : expr * bool =
    let e, cap =
      match e0 with
      | Int _ | Var _ -> (e0, true)
      | Arr (a, subs) ->
          let subs' = Ast.map_sharing (fun s -> fst (canon_rec s)) subs in
          ((if subs' == subs then e0 else Arr (a, subs')), false)
      | Un (op, a) ->
          let a', ca = canon_rec a in
          ((if a' == a then e0 else Un (op, a')), op = Neg && ca)
      | Bin (op, a, b) ->
          let a', ca = canon_rec a and b', cb = canon_rec b in
          ( (if a' == a && b' == b then e0 else Bin (op, a', b')),
            (match op with Add | Sub | Mul | Div -> ca && cb | _ -> false) )
      | Cond (c, t, el) ->
          let c', _ = canon_rec c
          and t', _ = canon_rec t
          and el', _ = canon_rec el in
          ( (if c' == c && t' == t && el' == el then e0
             else Cond (c', t', el')),
            false )
    in
    let e' = fold1 e in
    if e' == e then
      if not cap then (e, false)
      else
        match Affine.of_expr e with
        | None -> (e, false)
        | Some f ->
            let c = Affine.to_expr f in
            ((if c = e then e else c), true)
    else begin
      (* An arm fired: the result is a constant, an already-canonical
         operand, or a small rebuilt node — finish it the way [canon_expr]
         would, with walks bounded by that result. *)
      let r = fold_expr e' in
      match Affine.of_expr r with
      | None -> (r, false)
      | Some f ->
          let c = Affine.to_expr f in
          ((if c = e then e else c), true)
    end

  let canon_deep e = fst (canon_rec e)

  let rec simpl_stmt (s : stmt) : stmt list =
    match s with
    | Assign (lv, e) ->
        let lv' =
          match lv with
          | Lvar _ -> lv
          | Larr (a, subs) ->
              let subs' = Ast.map_sharing canon_expr subs in
              if subs' == subs then lv else Larr (a, subs')
        in
        let e' = canon_deep e in
        if lv' == lv && e' == e then [ s ] else [ Assign (lv', e') ]
    | If (c, t, el) -> (
        let c' = canon_deep c in
        let t' = simpl_body t and el' = simpl_body el in
        match c' with
        | Int 0 -> el'
        | Int _ -> t'
        | _ ->
            if t' = [] && el' = [] then []
            else if c' == c && t' == t && el' == el then [ s ]
            else [ If (c', t', el') ])
    | For l ->
        let trip = Ast.loop_trip l in
        if trip = 0 then []
        else if trip = 1 then
          (* Single-iteration loops are inlined so that analyses see their
             body's subscripts as constants in the index. *)
          simpl_body (Ast.subst_var l.index (Int l.lo) l.body)
        else
          let body' = simpl_body l.body in
          if body' == l.body then [ s ] else [ For { l with body = body' } ]
    | Rotate _ -> [ s ]

  and simpl_body body =
    match body with
    | [] -> []
    | s :: rest -> (
        let ss = simpl_stmt s in
        let rest' = simpl_body rest in
        match ss with
        | [ s' ] when s' == s && rest' == rest -> body
        | _ -> ss @ rest')

  let run (k : Ast.kernel) : Ast.kernel = { k with k_body = simpl_body k.k_body }
end

(** [Hls.Dfg]'s builder as it was before graphs were stored flat: a
    [node] record, a [kind] block and a [preds] list per node, kept in a
    growable node array, the loads since each array's last store as a
    consed list, and the subscripts of an access built by [List.map].
    Only the node types and [Desync] are shared with the library. *)
module Dfg = struct
  open Hls
  open Hls.Dfg
  module Access = Analysis.Access

  type t = { nodes : node array; len : int; fp : string }

  type cursor = { mutable rest : Access.t list }

  let cursor_of accesses = { rest = accesses }

  let pop_access cur array kind =
    match cur.rest with
    | a :: tl when a.Access.array = array && a.Access.kind = kind ->
        cur.rest <- tl;
        a
    | _ -> raise (Desync ("cursor out of step at " ^ array))

  let dummy_node = { id = -1; kind = Source (Const 0); preds = [] }

  (** Construction scratch for the blocks of one kernel: node storage,
      the per-block scalar and memory-order environments, and the
      kernel's declaration tables. The declaration tables matter as much
      as the storage: after scalar replacement of a heavily unrolled body,
      [k_scalars] holds thousands of compiler-introduced registers, and
      the [List.find_opt] behind {!Ast.expr_type} turns every width query
      quadratic. The scratch hashes the declarations once, when it is
      created for its kernel. *)
  type scratch = {
    mutable buf : node array;  (* first [count] slots of the current block live *)
    fp_buf : Buffer.t;  (* fingerprint of the current block, built as nodes land *)
    defs0 : (string, int) Hashtbl.t;  (* scalar -> defining node *)
    inputs : (string, int) Hashtbl.t;  (* scalar -> shared Source node *)
    last_store : (string, int) Hashtbl.t;  (* array -> last store node *)
    loads_since : (string, int list) Hashtbl.t;  (* array -> loads after it *)
    stypes : (string, Dtype.t) Hashtbl.t;  (* declared scalar element types *)
    atypes : (string, Dtype.t * int list) Hashtbl.t;  (* array -> elem, dims *)
  }

  let scratch (k : Ast.kernel) =
    let stypes = Hashtbl.create 64 and atypes = Hashtbl.create 8 in
    List.iter
      (fun (s : Ast.scalar_decl) -> Hashtbl.replace stypes s.s_name s.s_elem)
      k.Ast.k_scalars;
    List.iter
      (fun (d : Ast.array_decl) -> Hashtbl.replace atypes d.a_name (d.a_elem, d.a_dims))
      k.Ast.k_arrays;
    {
      buf = Array.make 256 dummy_node;
      fp_buf = Buffer.create 1024;
      defs0 = Hashtbl.create 64;
      inputs = Hashtbl.create 32;
      last_store = Hashtbl.create 8;
      loads_since = Hashtbl.create 8;
      stypes;
      atypes;
    }

  type builder = {
    a : scratch;
    mem_of : Access.t -> int;
    cur : cursor;
    mutable count : int;
    mutable defs : (string, int) Hashtbl.t;
        (* starts as [a.defs0]; the [If] merge snapshots/restores it with
           [Hashtbl.copy] (branches are rare; statements are not) *)
    mutable guards : (int * bool) list;  (* active predication context *)
    mutable ty : Dtype.t;  (* element type of the expression built last *)
  }

  (** Append one node's canonical encoding (see {!fingerprint}'s contract
      below) to the running fingerprint. *)
  let rec add_uvarint buf u =
    (* 7 bits per byte, least significant first; the high bit marks a
       continuation *)
    if u land lnot 0x7f = 0 then Buffer.add_uint8 buf u
    else begin
      Buffer.add_uint8 buf (u land 0x7f lor 0x80);
      add_uvarint buf (u lsr 7)
    end

  let add_varint buf n = add_uvarint buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

  let rec encode_fp buf id kind preds =
    (match kind with
    | Source _ -> Buffer.add_uint8 buf 0
    | Load { mem; width; _ } ->
        Buffer.add_uint8 buf 1;
        add_varint buf mem;
        add_varint buf width
    | Store { mem; width; _ } ->
        Buffer.add_uint8 buf 2;
        add_varint buf mem;
        add_varint buf width
    | Move _ -> Buffer.add_uint8 buf 3
    | Move_out _ -> Buffer.add_uint8 buf 4
    | Reg_write _ -> Buffer.add_uint8 buf 5
    | Op { cls; width; _ } ->
        Buffer.add_uint8 buf (16 + Op_model.class_index cls);
        add_varint buf width);
    add_varint buf (List.length preds);
    add_deltas buf id preds

  and add_deltas buf id = function
    | [] -> ()
    | p :: rest ->
        add_varint buf (id - p);
        add_deltas buf id rest

  let add b kind preds =
    let id = b.count in
    if id = Array.length b.a.buf then begin
      let bigger = Array.make (2 * id) dummy_node in
      Array.blit b.a.buf 0 bigger 0 id;
      b.a.buf <- bigger
    end;
    b.a.buf.(id) <- { id; kind; preds };
    b.count <- id + 1;
    encode_fp b.a.fp_buf id kind preds;
    id

  let scalar_input b v =
    match Hashtbl.find b.a.inputs v with
    | id -> id
    | exception Not_found ->
        let id = add b (Source (Scalar v)) [] in
        Hashtbl.replace b.a.inputs v id;
        id

  let is_pow2 n = n > 0 && n land (n - 1) = 0

  let classify_bin (op : Ast.binop) (a : Ast.expr) (c : Ast.expr) :
      Op_model.op_class =
    let const_operand =
      match (a, c) with Ast.Int n, _ | _, Ast.Int n -> Some n | _ -> None
    in
    match op with
    | Ast.Add | Ast.Sub -> Op_model.Add
    | Ast.Mul -> (
        match const_operand with
        | Some n when is_pow2 (abs n) -> Op_model.Shift_const
        | Some _ -> Op_model.Add (* shift-add decomposition *)
        | None -> Op_model.Mul)
    | Ast.Div | Ast.Mod -> (
        match const_operand with
        | Some n when is_pow2 (abs n) -> Op_model.Shift_const
        | _ -> Op_model.Div)
    | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne -> Op_model.Cmp
    | Ast.And | Ast.Or | Ast.Band | Ast.Bor | Ast.Bxor -> Op_model.Logic
    | Ast.Shl | Ast.Shr -> (
        match (a, c) with
        | _, Ast.Int _ -> Op_model.Shift_const
        | _ -> Op_model.Shift_var)
    | Ast.Min | Ast.Max -> Op_model.Min_max

  (* The lookups below run once or more per node, so they use
     [Hashtbl.find] and match [Not_found] rather than allocate an option. *)

  let scalar_type b v =
    match Hashtbl.find b.a.stypes v with ty -> ty | exception Not_found -> Dtype.int32

  let array_elem b name =
    match Hashtbl.find b.a.atypes name with
    | elem, _ -> elem
    | exception Not_found -> Dtype.int32

  let array_dims b name =
    match Hashtbl.find b.a.atypes name with
    | _, dims -> dims
    | exception Not_found -> [ 0 ]

  let array_width b name =
    match Hashtbl.find b.a.atypes name with
    | elem, _ -> Dtype.bits elem
    | exception Not_found -> 32

  let loads_since b array =
    match Hashtbl.find b.a.loads_since array with
    | l -> l
    | exception Not_found -> []

  let note_load b array id =
    Hashtbl.replace b.a.loads_since array (id :: loads_since b array)

  let order_preds_for_load b array =
    match Hashtbl.find b.a.last_store array with s -> [ s ] | exception Not_found -> []

  let order_preds_for_store b array =
    match Hashtbl.find b.a.last_store array with
    | s -> loads_since b array @ [ s ]
    | exception Not_found -> loads_since b array

  (* [build_expr] returns the expression's node and leaves its element
     type in [b.ty]. The type is exactly {!Ast.expr_type} of the subtree
     (operand join for intermediates), computed bottom-up in one pass
     instead of by re-walking the subtree — and the declaration lookups
     behind the leaves come from the scratch's hash tables. *)
  let rec build_expr b (e : Ast.expr) : int =
    match e with
    | Ast.Int n ->
        b.ty <- Dtype.int32;
        add b (Source (Const n)) []
    | Ast.Var v -> (
        b.ty <- scalar_type b v;
        match Hashtbl.find b.defs v with
        | id -> id
        | exception Not_found -> scalar_input b v)
    | Ast.Arr (array, subs) ->
        let addr = build_address b array subs in
        let access = pop_access b.cur array Access.Read in
        let width = array_width b array in
        let mem = b.mem_of access in
        let id =
          add b
            (Load { array; mem; width; addr })
            (addr :: order_preds_for_load b array)
        in
        note_load b array id;
        b.ty <- array_elem b array;
        id
    | Ast.Bin (op, x, y) ->
        let nx = build_expr b x in
        let tx = b.ty in
        let ny = build_expr b y in
        let t = Dtype.join tx b.ty in
        let cls = classify_bin op x y in
        b.ty <- t;
        add b (Op { sem = Sbin op; cls; width = Dtype.bits t }) [ nx; ny ]
    | Ast.Un (op, x) ->
        let nx = build_expr b x in
        let cls =
          match op with
          | Ast.Neg -> Op_model.Add
          | Ast.Not | Ast.Bnot -> Op_model.Logic
          | Ast.Abs -> Op_model.Abs_op
        in
        add b (Op { sem = Sun op; cls; width = Dtype.bits b.ty }) [ nx ]
    | Ast.Cond (c, t, el) ->
        let nc = build_expr b c in
        let nt = build_expr b t in
        let tt = b.ty in
        let ne = build_expr b el in
        let ty = Dtype.join tt b.ty in
        b.ty <- ty;
        add b (Op { sem = Smux; cls = Op_model.Mux; width = Dtype.bits ty }) [ nc; nt; ne ]

  (** Row-major address computation, Horner style:
      [((s0 * d1 + s1) * d2 + s2) ...] — one constant multiply (usually a
      shift or shift-add) and one add per extra dimension, matching what
      synthesis emits for a linearized array. Returns the node holding the
      flat index. *)
  and build_address b array subs : int =
    let dims = array_dims b array in
    let sub_nodes = List.map (build_expr b) subs in
    match (sub_nodes, dims) with
    | [ n ], _ -> n
    | [], _ -> add b (Source (Const 0)) []
    | first :: rest, _ :: rest_dims ->
        let rec go acc rest rest_dims =
          match (rest, rest_dims) with
          | [], _ | _, [] -> acc
          | n :: more, d :: more_dims ->
              let cd = add b (Source (Const d)) [] in
              let scaled =
                add b
                  (Op
                     {
                       sem = Sbin Ast.Mul;
                       cls =
                         (if is_pow2 d then Op_model.Shift_const else Op_model.Add);
                       width = 16;
                     })
                  [ acc; cd ]
              in
              let sum =
                add b
                  (Op { sem = Sbin Ast.Add; cls = Op_model.Add; width = 16 })
                  [ scaled; n ]
              in
              go sum more more_dims
        in
        go first rest rest_dims
    | _ :: _ :: _, [] -> add b (Source (Const 0)) []

  let rec build_stmt b (s : Ast.stmt) : unit =
    match s with
    | Ast.Assign (Ast.Lvar v, e) ->
        let n = build_expr b e in
        let w = add b (Reg_write { scalar = v; value = n }) [ n ] in
        Hashtbl.replace b.defs v w
    | Ast.Assign (Ast.Larr (array, subs), e) ->
        let n = build_expr b e in
        let addr = build_address b array subs in
        let access = pop_access b.cur array Access.Write in
        let width = array_width b array in
        let mem = b.mem_of access in
        let id =
          add b
            (Store { array; mem; width; addr; value = n; guards = b.guards })
            (n :: addr :: order_preds_for_store b array)
        in
        Hashtbl.replace b.a.last_store array id;
        Hashtbl.remove b.a.loads_since array
    | Ast.If (c, t, el) ->
        let nc = build_expr b c in
        let before = b.defs in
        let outer_guards = b.guards in
        b.defs <- Hashtbl.copy before;
        b.guards <- (nc, true) :: outer_guards;
        List.iter (build_stmt b) t;
        let after_then = b.defs in
        b.defs <- Hashtbl.copy before;
        b.guards <- (nc, false) :: outer_guards;
        List.iter (build_stmt b) el;
        b.guards <- outer_guards;
        let after_else = b.defs in
        (* Merge scalar definitions through muxes. Sorted, so the mux
           emission order (hence node numbering) is deterministic. *)
        let changed tbl =
          Hashtbl.fold
            (fun v id acc ->
              if Hashtbl.find_opt before v <> Some id then v :: acc else acc)
            tbl []
        in
        let assigned =
          List.sort_uniq compare (changed after_then @ changed after_else)
        in
        b.defs <- after_else;
        List.iter
          (fun v ->
            let old () =
              match Hashtbl.find_opt before v with
              | Some id -> id
              | None -> scalar_input b v
            in
            let th =
              match Hashtbl.find_opt after_then v with Some id -> id | None -> old ()
            in
            let el' =
              match Hashtbl.find_opt after_else v with Some id -> id | None -> old ()
            in
            if th <> el' then begin
              let w = Dtype.bits (scalar_type b v) in
              let m =
                add b
                  (Op { sem = Smux; cls = Op_model.Mux; width = w })
                  [ nc; th; el' ]
              in
              Hashtbl.replace b.defs v m
            end)
          assigned
    | Ast.Rotate rs ->
        let pre = List.map (fun r ->
            match Hashtbl.find_opt b.defs r with
            | Some id -> id
            | None -> scalar_input b r) rs
        in
        let mid = add b (Move { regs = rs; pre }) pre in
        List.iteri
          (fun i r ->
            let out = add b (Move_out { move = mid; index = i }) [ mid ] in
            Hashtbl.replace b.defs r out)
          rs
    | Ast.For _ -> invalid_arg "Dfg.of_block: loops must be factored out"

  let builder_of a ~mem_of ~cursor =
    Hashtbl.reset a.defs0;
    Hashtbl.reset a.inputs;
    Hashtbl.reset a.last_store;
    Hashtbl.reset a.loads_since;
    Buffer.clear a.fp_buf;
    { a; mem_of; cur = cursor; count = 0; defs = a.defs0; guards = []; ty = Dtype.int32 }

  (** A builder for the blocks of one kernel, sharing one scratch across
      them: declarations are hashed once and the node storage is reused.
      Each graph it returns is a view — [nodes] aliases the scratch's
      storage (slots at and beyond [len] are garbage) and is valid until
      the next call. *)
  let block_builder ~(kernel : Ast.kernel) ~(mem_of : Access.t -> int)
      ~(cursor : cursor) : Ast.stmt list -> t =
    let a = scratch kernel in
    fun stmts ->
      let b = builder_of a ~mem_of ~cursor in
      List.iter (build_stmt b) stmts;
      { nodes = a.buf; len = b.count; fp = Buffer.contents a.fp_buf }

  (** Build the DFG of a straight-line block. [cursor] advances past the
      block's accesses. The final scalar environment (scalar name -> node
      that holds its value at block exit) is returned alongside, for the
      simulator's write-back. The result owns its storage (safe to retain),
      unlike {!block_builder}'s views. *)
  let of_block_with_defs ~(kernel : Ast.kernel) ~(mem_of : Access.t -> int)
      ~(cursor : cursor) (stmts : Ast.stmt list) : t * (string * int) list =
    let a = scratch kernel in
    let b = builder_of a ~mem_of ~cursor in
    List.iter (build_stmt b) stmts;
    let defs =
      Hashtbl.fold (fun v id acc -> (v, id) :: acc) b.defs []
      |> List.sort compare
    in
    ( { nodes = Array.sub a.buf 0 b.count; len = b.count; fp = Buffer.contents a.fp_buf },
      defs )

  let of_block ~kernel ~mem_of ~cursor stmts =
    fst (of_block_with_defs ~kernel ~mem_of ~cursor stmts)

  let nodes (g : t) = Array.sub g.nodes 0 g.len
end

(** [Hls.Dfg]'s fingerprint as it was encoded in decimal text: per
    node, a kind letter ([o] followed by the operator class name, a
    colon and the width for an [Op]; memory id and width after [l] and
    [t]), every integer comma-terminated, then the predecessors'
    absolute ids, then a semicolon. *)
module Fingerprint = struct
  open Hls.Dfg

  let decimal (nodes : node array) : string =
    let buf = Buffer.create 1024 in
    let int n =
      Buffer.add_string buf (string_of_int n);
      Buffer.add_char buf ','
    in
    for i = 0 to Array.length nodes - 1 do
      let node = nodes.(i) in
      (match node.kind with
      | Source _ -> Buffer.add_char buf 's'
      | Op { cls; width; _ } ->
          Buffer.add_char buf 'o';
          Buffer.add_string buf (Hls.Op_model.class_name cls);
          Buffer.add_char buf ':';
          int width
      | Load { mem; width; _ } ->
          Buffer.add_char buf 'l';
          int mem;
          int width
      | Store { mem; width; _ } ->
          Buffer.add_char buf 't';
          int mem;
          int width
      | Move _ -> Buffer.add_char buf 'm'
      | Move_out _ -> Buffer.add_char buf 'x'
      | Reg_write _ -> Buffer.add_char buf 'r');
      List.iter int node.preds;
      Buffer.add_char buf ';'
    done;
    Buffer.contents buf
end

(** [Hls.Schedule]'s per-mode state as it was before it became flat
    arrays: busy memory cycles as a [(memory, cycle)]-keyed [Hashtbl]
    with a per-memory hint table, operator concurrency as a
    [(class, bucket, cycle)]-keyed count table folded into per-operator
    maxima and sorted by [finalize], and ready times folded over the
    predecessor list with [Float.max]. Only the [profile], [result] and
    [tri] types are shared with the library. *)
module Schedule = struct
  module G = Dfg
  open Hls
  open Hls.Schedule

  let eps = 1e-6

  type state = {
    use_mem : bool;
    use_comp : bool;
    finish : float array;
    busy : (int * int, unit) Hashtbl.t;
    hint : (int, int) Hashtbl.t;
    occupancy : (Op_model.op_class * int * int, int) Hashtbl.t;
    mutable bits : int;
    mutable reads : int;
    mutable writes : int;
  }

  let make_state ~(mode : mode) n =
    {
      use_mem = mode <> `Comp_only;
      use_comp = mode <> `Mem_only;
      finish = Array.make n 0.0;
      busy = Hashtbl.create 256;
      hint = Hashtbl.create 8;
      occupancy = Hashtbl.create 64;
      bits = 0;
      reads = 0;
      writes = 0;
    }

  let find_slot st memid c0 occ =
    let h = Option.value ~default:0 (Hashtbl.find_opt st.hint memid) in
    let free c =
      let rec go k = k >= occ || ((not (Hashtbl.mem st.busy (memid, c + k))) && go (k + 1)) in
      go 0
    in
    let rec search c = if free c then c else search (c + 1) in
    let c = search (max c0 h) in
    for k = 0 to occ - 1 do
      Hashtbl.replace st.busy (memid, c + k) ()
    done;
    if c = h then begin
      let rec bump c = if Hashtbl.mem st.busy (memid, c) then bump (c + 1) else c in
      Hashtbl.replace st.hint memid (bump h)
    end;
    c

  let occupy st cls bucket c0 c1 =
    for c = c0 to c1 do
      let key = (cls, bucket, c) in
      Hashtbl.replace st.occupancy key
        (1 + Option.value ~default:0 (Hashtbl.find_opt st.occupancy key))
    done

  let ready st preds =
    List.fold_left (fun acc p -> Float.max acc st.finish.(p)) 0.0 preds

  let boundary clk t =
    Float.of_int (int_of_float (Float.ceil ((t -. eps) /. clk))) *. clk

  let sched_op (p : profile) st id cls ~d ~bucket r =
    if not st.use_comp then st.finish.(id) <- r
    else begin
      let clk = p.device.Device.clock_ns in
      let free = d <= 1.0 in
      let start =
        if free then r
        else if not p.chaining then boundary clk r
        else if d >= clk then boundary clk r
        else begin
          let cyc_start = Float.of_int (int_of_float (r /. clk)) *. clk in
          if r +. d <= cyc_start +. clk +. eps then r else boundary clk r
        end
      in
      let f = start +. d in
      st.finish.(id) <- f;
      if d > 0.5 then begin
        let c0 = int_of_float (start /. clk) in
        let c1 = int_of_float ((f -. eps) /. clk) in
        occupy st cls bucket c0 (max c0 c1)
      end
    end

  let sched_mem (p : profile) st id ~mem ~width ~is_read r =
    let clk = p.device.Device.clock_ns in
    if is_read then st.reads <- st.reads + 1 else st.writes <- st.writes + 1;
    st.bits <- st.bits + width;
    if not st.use_mem then st.finish.(id) <- r
    else begin
      let occ, lat =
        if is_read then (p.mem.Memory_model.read_occupancy, p.mem.Memory_model.read_latency)
        else (p.mem.Memory_model.write_occupancy, p.mem.Memory_model.write_latency)
      in
      let c0 = int_of_float (Float.ceil ((r -. eps) /. clk)) in
      let c = find_slot st mem c0 occ in
      st.finish.(id) <- Float.of_int (c + lat) *. clk
    end

  let finalize (p : profile) st : result =
    let clk = p.device.Device.clock_ns in
    let max_finish = Array.fold_left Float.max 0.0 st.finish in
    let cycles = int_of_float (Float.ceil ((max_finish -. eps) /. clk)) in
    let usage : ((Op_model.op_class * int) * int) list =
      let tbl = Hashtbl.create 16 in
      Hashtbl.iter
        (fun (cls, bucket, _) count ->
          let key = (cls, bucket) in
          let cur = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
          Hashtbl.replace tbl key (max cur count))
        st.occupancy;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
    in
    { cycles = max cycles 0; bits_moved = st.bits; usage; reads = st.reads; writes = st.writes }

  let step (p : profile) st (node : Dfg.node) =
    let r = ready st node.preds in
    match node.kind with
    | Dfg.Source _ | Dfg.Move _ | Dfg.Move_out _ | Dfg.Reg_write _ ->
        st.finish.(node.id) <- r
    | Dfg.Op { cls; width; _ } ->
        sched_op p st node.id cls ~d:(Op_model.delay_ns cls ~width)
          ~bucket:(Op_model.width_bucket width) r
    | Dfg.Load { mem; width; _ } -> sched_mem p st node.id ~mem ~width ~is_read:true r
    | Dfg.Store { mem; width; _ } -> sched_mem p st node.id ~mem ~width ~is_read:false r

  let run ?(mode : mode = `Joint) (p : profile) (g : G.t) : result =
    let st = make_state ~mode g.G.len in
    for i = 0 to g.G.len - 1 do
      step p st g.G.nodes.(i)
    done;
    finalize p st

  let run_tri (p : profile) (g : G.t) : tri =
    {
      joint = run ~mode:`Joint p g;
      mem_only = run ~mode:`Mem_only p g;
      comp_only = run ~mode:`Comp_only p g;
    }
end

(** [Data_layout.Layout]'s bank-shape choice and memory binding as they
    were before each access's offsets were computed once: every score
    of a candidate shape re-derives each access's per-dimension offset
    through [List.nth] and [List.find_opt], the running best's score is
    recomputed at every comparison, and distinct virtual ids are
    counted with [List.sort_uniq]. *)
module Layout = struct
  module Access = Analysis.Access

  type t = {
    banks : (string * int) list;
    shapes : (string * int list) list;
    phys : ((string * int) * int) list;
    vid_tbl : (int, int) Hashtbl.t;
    mem_tbl : (string * int, int) Hashtbl.t;
  }

  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

  let dim_modulus (a : Access.t) (d : int) : int option =
    match List.nth a.affine d with
    | None -> None
    | Some f ->
        Some
          (List.fold_left
             (fun acc (l : Ast.loop) ->
               let c = Affine.coeff f l.index in
               if c = 0 then acc else gcd acc (c * l.step))
             0 a.loops)

  let dim_offset (a : Access.t) (d : int) : int =
    match List.nth a.affine d with
    | None -> 0
    | Some f ->
        let env v =
          match List.find_opt (fun (l : Ast.loop) -> l.index = v) a.loops with
          | Some l -> l.lo
          | None -> 0
        in
        Affine.eval ~env f

  let context_groups (of_array : Access.t list) : Access.t list list =
    let tbl : (string list, Access.t list) Hashtbl.t = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun (a : Access.t) ->
        let key = Access.indices a in
        (match Hashtbl.find_opt tbl key with
        | None -> order := key :: !order
        | Some _ -> ());
        Hashtbl.replace tbl key
          (a :: Option.value ~default:[] (Hashtbl.find_opt tbl key)))
      of_array;
    List.rev_map (fun k -> List.rev (Hashtbl.find tbl k)) !order

  let group_uniform (group : Access.t list) ~dims : bool =
    match group with
    | [] | [ _ ] -> true
    | first :: rest ->
        List.for_all
          (fun (a : Access.t) ->
            List.length a.affine = dims
            && List.for_all
                 (fun d ->
                   match (List.nth first.affine d, List.nth a.affine d) with
                   | Some f, Some g -> Affine.uniformly_generated f g
                   | _ -> false)
                 (List.init dims Fun.id))
          rest

  let shapes_for ~dims ~n : int list list =
    let opts = List.filter (fun b -> b <= n) [ 1; 2; 4; 8 ] in
    let rec go d =
      if d = 0 then [ [] ]
      else List.concat_map (fun tl -> List.map (fun b -> b :: tl) opts) (go (d - 1))
    in
    List.filter (fun s -> List.fold_left ( * ) 1 s <= n) (go dims)
    |> List.sort_uniq compare

  let shape_constant_ok (a : Access.t) (shape : int list) : bool =
    List.for_all2
      (fun b d ->
        b = 1
        ||
        match dim_modulus a d with
        | None -> false
        | Some 0 -> true
        | Some g -> g mod b = 0)
      shape
      (List.init (List.length shape) Fun.id)

  let vid_of ~shape (a : Access.t) : int =
    let rec go shape d acc =
      match shape with
      | [] -> acc
      | b :: rest ->
          let off = dim_offset a d in
          let r = ((off mod b) + b) mod b in
          go rest (d + 1) ((acc * b) + r)
    in
    go shape 0 0

  let choose_shape ~num_memories (decl : Ast.array_decl)
      (of_array : Access.t list) : int list =
    let dims = List.length decl.a_dims in
    let default = List.init dims (fun _ -> 1) in
    if List.exists (fun a -> not (Access.is_affine a)) of_array then default
    else begin
      let groups = context_groups of_array in
      let uniform = List.for_all (fun g -> group_uniform g ~dims) groups in
      let legal shape =
        uniform || List.for_all (fun a -> shape_constant_ok a shape) of_array
      in
      let score shape =
        List.fold_left
          (fun acc group ->
            acc
            + List.length
                (List.sort_uniq compare (List.map (vid_of ~shape) group)))
          0 groups
      in
      let candidates = List.filter legal (shapes_for ~dims ~n:num_memories) in
      match candidates with
      | [] -> default
      | c :: rest ->
          List.fold_left
            (fun best s ->
              let sb = score best and ss = score s in
              let pb = List.fold_left ( * ) 1 best
              and ps = List.fold_left ( * ) 1 s in
              if ss > sb || (ss = sb && ps < pb) then s else best)
            c rest
    end

  let assign ~num_memories (k : Ast.kernel) (accesses : Access.t list) : t =
    let arrays =
      List.sort_uniq String.compare
        (List.map (fun (a : Access.t) -> a.Access.array) accesses)
    in
    let shapes =
      List.map
        (fun ar ->
          match Ast.find_array k ar with
          | None -> (ar, [ 1 ])
          | Some decl ->
              let of_array =
                List.filter (fun (a : Access.t) -> a.array = ar) accesses
              in
              (ar, choose_shape ~num_memories decl of_array))
        arrays
    in
    let banks =
      List.map (fun (ar, s) -> (ar, List.fold_left ( * ) 1 s)) shapes
    in
    let vid_tbl = Hashtbl.create (List.length accesses) in
    List.iter
      (fun (a : Access.t) ->
        let shape = List.assoc a.array shapes in
        let vid =
          if List.length a.affine = List.length shape && Access.is_affine a
          then vid_of ~shape a
          else 0
        in
        Hashtbl.replace vid_tbl a.id vid)
      accesses;
    let phys = ref [] in
    let mem_tbl = Hashtbl.create 16 in
    let next = ref 0 in
    let bind (a : Access.t) =
      let vid = Hashtbl.find vid_tbl a.id in
      let key = (a.array, vid) in
      if not (Hashtbl.mem mem_tbl key) then begin
        let m = !next mod num_memories in
        phys := (key, m) :: !phys;
        Hashtbl.replace mem_tbl key m;
        incr next
      end
    in
    List.iter (fun a -> if Access.is_read a then bind a) accesses;
    List.iter (fun a -> if Access.is_write a then bind a) accesses;
    { banks; shapes; phys = List.rev !phys; vid_tbl; mem_tbl }

  let memory_of (t : t) (a : Access.t) : int =
    match Hashtbl.find_opt t.vid_tbl a.id with
    | None -> 0
    | Some vid -> (
        match Hashtbl.find_opt t.mem_tbl (a.array, vid) with
        | Some m -> m
        | None -> 0)
end


(** [Transform.Scalar_replace] as it was before its analysis side became
    linear, with the element-CSE refusal of subscripts naming an assigned
    scalar added, and subscripts naming a non-index scalar the nest
    assigns made ineligible for hoisting, banks, chains and element
    CSE's single-pattern check: every subscript's affine form re-derived
    bottom-up,
    uniformly generated sets keyed on decimal strings, a fresh access
    walk for every phase and for element CSE's single-pattern check,
    chain classes found by rebuilding the class list per member and a
    solver memo keyed on allocated lists. The report and config types
    are the library's. *)
module Scalar_replace = struct
  open Ast
  module Access = Analysis.Access

  let coeff (f : Affine.t) v = try List.assoc v f.terms with Not_found -> 0

  let rec of_expr (e : Ast.expr) : Affine.t option =
    match e with
    | Int n -> Some (Affine.const n)
    | Var v -> Some (Affine.var v)
    | Un (Neg, a) -> Option.map Affine.neg (of_expr a)
    | Bin (Add, a, b) -> map2 Affine.add a b
    | Bin (Sub, a, b) -> map2 Affine.sub a b
    | Bin (Mul, a, b) -> (
        match (of_expr a, of_expr b) with Some fa, Some fb -> Affine.mul fa fb | _ -> None)
    | Bin (Div, a, b) -> (
        match (of_expr a, of_expr b) with
        | Some fa, Some fb when Affine.is_const fb -> Affine.div fa fb.const
        | _ -> None)
    | _ -> None

  and map2 f a b =
    match (of_expr a, of_expr b) with Some fa, Some fb -> Some (f fa fb) | _ -> None

  let collect (body : stmt list) : Access.t list =
    let acc = ref [] in
    let next_id = ref 0 in
    let push ~loops ~guarded array kind subs =
      let affine = List.map of_expr subs in
      incr next_id;
      acc :=
        { Access.id = !next_id - 1; array; kind; subs; affine; loops = List.rev loops; guarded }
        :: !acc
    in
    let rec expr ~loops ~guarded (e : expr) =
      match e with
      | Int _ | Var _ -> ()
      | Arr (a, subs) ->
          List.iter (expr ~loops ~guarded) subs;
          push ~loops ~guarded a Access.Read subs
      | Bin (_, a, b) ->
          expr ~loops ~guarded a;
          expr ~loops ~guarded b
      | Un (_, a) -> expr ~loops ~guarded a
      | Cond (c, t, e') ->
          expr ~loops ~guarded c;
          expr ~loops ~guarded:true t;
          expr ~loops ~guarded:true e'
    in
    let rec stmt ~loops ~guarded (s : stmt) =
      match s with
      | Assign (lv, e) -> (
          expr ~loops ~guarded e;
          match lv with
          | Lvar _ -> ()
          | Larr (a, subs) ->
              List.iter (expr ~loops ~guarded) subs;
              push ~loops ~guarded a Access.Write subs)
      | If (c, t, e) ->
          expr ~loops ~guarded c;
          List.iter (stmt ~loops ~guarded:true) t;
          List.iter (stmt ~loops ~guarded:true) e
      | For l -> List.iter (stmt ~loops:(l :: loops) ~guarded) l.body
      | Rotate _ -> ()
    in
    List.iter (stmt ~loops:[] ~guarded:false) body;
    List.rev !acc

  let varies_with (a : Access.t) v =
    List.exists2
      (fun sub aff ->
        match aff with Some f -> coeff f v <> 0 | None -> Loop_nest.expr_uses_var v sub)
      a.subs a.affine

  let same_pattern indices (a : Access.t) (b : Access.t) =
    Access.is_affine a && Access.is_affine b
    && List.length a.affine = List.length b.affine
    && List.for_all2
         (fun fa fb ->
           match (fa, fb) with
           | Some fa, Some fb -> List.for_all (fun v -> coeff fa v = coeff fb v) indices
           | _ -> false)
         a.affine b.affine

  let pattern_key indices (a : Access.t) : string option =
    if not (Access.is_affine a) then None
    else
      Some
        (String.concat "|"
           (List.map
              (function
                | Some f -> String.concat "," (List.map (fun v -> string_of_int (coeff f v)) indices)
                | None -> "?")
              a.affine))

  let groups (body : stmt list) : Analysis.Reuse.group list =
    let indices = Loop_nest.spine_indices body in
    let tbl = Hashtbl.create 32 in
    let order = ref [] in
    let singles = ref [] in
    List.iter
      (fun (a : Access.t) ->
        match pattern_key indices a with
        | None ->
            singles :=
              { Analysis.Reuse.array = a.array; kind = a.kind; members = [ a ] } :: !singles
        | Some key -> (
            let k = (a.array, a.kind, key) in
            match Hashtbl.find_opt tbl k with
            | None ->
                order := k :: !order;
                Hashtbl.replace tbl k [ a ]
            | Some ms -> Hashtbl.replace tbl k (a :: ms)))
      (collect body);
    List.rev_map
      (fun ((array, kind, _) as k) ->
        { Analysis.Reuse.array; kind; members = List.rev (Hashtbl.find tbl k) })
      !order
    @ List.rev !singles

  type config = Transform.Scalar_replace.config = {
    across_loops : bool;
    chains : bool;
    max_chain_span : int;
    max_registers : int;
  }

  let default_config = Transform.Scalar_replace.default_config

  type report = Transform.Scalar_replace.report = {
    hoisted_members : int;
    banks : (string * int) list;
    chain_lengths : (string * int) list;
    cse_loads : int;
    registers : int;
    carriers : string list;
    innermost_peels : int;
  }

  let empty_report = Transform.Scalar_replace.empty_report

  (* ------------------------------------------------------------------ *)
  (* Tree-edit helpers, all keyed by spine-loop index *)

  let rec edit_loop_body ~index f body =
    Ast.map_sharing
      (fun s ->
        match s with
        | For l when l.index = index ->
            let b' = f l.body in
            if b' == l.body then s else For { l with body = b' }
        | For l ->
            let b' = edit_loop_body ~index f l.body in
            if b' == l.body then s else For { l with body = b' }
        | If (c, t, e) ->
            let t' = edit_loop_body ~index f t
            and e' = edit_loop_body ~index f e in
            if t' == t && e' == e then s else If (c, t', e')
        | Assign _ | Rotate _ -> s)
      body

  type edits = {
    repl : (string * expr list, replacement) Hashtbl.t;
    mutable inserts : (string option * stmt list * stmt list) list;
        (* (target loop index, [None] for the whole body; pre; post), in
            reverse application order *)
  }

  and replacement = {
    reg : string;
    scope : string option;
        (* replace only under a loop of this index; [None]: everywhere *)
    writes : bool;  (* also turn [A[subs] = e] into [reg = e] *)
  }

  let new_edits () = { repl = Hashtbl.create 64; inserts = [] }

  let apply_edits (body : stmt list) (ed : edits) : stmt list =
    let lookup stack a subs =
      match Hashtbl.find_opt ed.repl (a, subs) with
      | Some { scope = Some idx; _ } when not (List.mem idx stack) -> None
      | r -> r
    in
    (* Bottom-up ([Ast.map_expr]), so a key is looked up on its rewritten
       subscripts as the sequential replacements would have compared it. *)
    let rw_expr stack =
      Ast.map_expr (fun e ->
          match e with
          | Arr (a, subs) -> (
              match lookup stack a subs with Some r -> Var r.reg | None -> e)
          | _ -> e)
    in
    let rec rw_stmt stack s =
      match s with
      | Assign (lv, e) ->
          let lv' =
            match lv with
            | Lvar _ -> lv
            | Larr (a, subs) -> (
                let subs' = Ast.map_sharing (rw_expr stack) subs in
                match lookup stack a subs' with
                | Some { reg; writes = true; _ } -> Lvar reg
                | _ -> if subs' == subs then lv else Larr (a, subs'))
          in
          let e' = rw_expr stack e in
          if lv' == lv && e' == e then s else Assign (lv', e')
      | If (c, t, e) ->
          let c' = rw_expr stack c in
          let t' = Ast.map_sharing (rw_stmt stack) t in
          let e' = Ast.map_sharing (rw_stmt stack) e in
          if c' == c && t' == t && e' == e then s else If (c', t', e')
      | For l ->
          let body' = Ast.map_sharing (rw_stmt (l.index :: stack)) l.body in
          if body' == l.body then s else For { l with body = body' }
      | Rotate _ -> s
    in
    let body =
      if Hashtbl.length ed.repl = 0 then body else Ast.map_sharing (rw_stmt []) body
    in
    (* Stack the inserts per target: one applied after another puts its
       [pre] above and its [post] below the earlier ones. [ed.inserts] is
       in reverse application order, so the first entry seen is the last
       applied: its [pre] goes first and its [post] last. *)
    let ins_tbl : (string option, stmt list * stmt list) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (target, pre, post) ->
        let cur_pre, cur_post =
          Option.value ~default:([], []) (Hashtbl.find_opt ins_tbl target)
        in
        Hashtbl.replace ins_tbl target (cur_pre @ pre, post @ cur_post))
      ed.inserts;
    let rec ins_stmt s =
      match s with
      | For l -> (
          let body' = Ast.map_sharing ins_stmt l.body in
          match Hashtbl.find_opt ins_tbl (Some l.index) with
          | Some (pre, post) -> For { l with body = pre @ body' @ post }
          | None -> if body' == l.body then s else For { l with body = body' })
      | If (c, t, e) ->
          let t' = Ast.map_sharing ins_stmt t in
          let e' = Ast.map_sharing ins_stmt e in
          if t' == t && e' == e then s else If (c, t', e')
      | Assign _ | Rotate _ -> s
    in
    let body = if ed.inserts = [] then body else Ast.map_sharing ins_stmt body in
    match Hashtbl.find_opt ins_tbl None with
    | Some (pre, post) -> pre @ body @ post
    | None -> body

  (* ------------------------------------------------------------------ *)
  (* Pattern facts *)

  type pattern = {
    array : string;
    elem : Dtype.t;
    members : Access.t list;  (* distinct; execution order *)
    has_reads : bool;
    has_writes : bool;
    any_guarded : bool;
    varying : Ast.loop list;  (* spine loops the pattern varies with, outer first *)
    spine : Ast.loop list;
    spine_only : bool;
        (* every loop the members vary with is on the spine; off-spine
            variation (epilogue loops of a non-divisor unroll factor) makes
            the pattern ineligible for register promotion *)
    scalar_subs : bool;
        (* some member's subscript names a non-index scalar the nest
           assigns: ineligible for hoisting, banks and chains *)
  }

  (* The scalars [body] assigns or rotates, loop indices excluded. *)
  let assigned_non_index (body : stmt list) =
    let rec stmt acc = function
      | Assign (Lvar v, _) -> v :: acc
      | Assign (Larr _, _) -> acc
      | If (_, t, e) -> List.fold_left stmt (List.fold_left stmt acc t) e
      | For l -> List.fold_left stmt acc l.body
      | Rotate rs -> rs @ acc
    in
    List.fold_left stmt [] body

  let rec names_any vars (e : expr) =
    match e with
    | Var v -> List.mem v vars
    | Int _ -> false
    | Arr (_, subs) -> List.exists (names_any vars) subs
    | Bin (_, a, b) -> names_any vars a || names_any vars b
    | Un (_, a) -> names_any vars a
    | Cond (c, t, e) -> names_any vars c || names_any vars t || names_any vars e

  let patterns_of (k : kernel) : pattern list =
    let spine = Loop_nest.spine k.k_body in
    let assigned = assigned_non_index k.k_body in
    let groups = groups k.k_body in
    (* Merge the read group and write group of the same array+pattern so
       hoist/sink treats them together. *)
    let same_pat (a : Access.t) (b : Access.t) =
      a.array = b.array
      && same_pattern (List.map (fun (l : loop) -> l.index) spine) a b
    in
    let merged : Access.t list list =
      List.fold_left
        (fun acc (g : Analysis.Reuse.group) ->
          match g.members with
          | [] -> acc
          | m :: _ ->
              let rec insert = function
                | [] -> [ g.members ]
                | (n :: _ as grp) :: rest when same_pat m n ->
                    (grp @ g.members) :: rest
                | grp :: rest -> grp :: insert rest
              in
              insert acc)
        [] groups
    in
    List.filter_map
      (fun (members : Access.t list) ->
        match members with
        | [] -> None
        | m :: _ ->
            let elem =
              match Ast.find_array k m.array with
              | Some d -> d.a_elem
              | None -> Dtype.int32
            in
            let distinct =
              let seen = Hashtbl.create 16 in
              List.rev
                (List.fold_left
                   (fun acc (a : Access.t) ->
                     let key = (a.subs, a.kind) in
                     if Hashtbl.mem seen key then acc
                     else begin
                       Hashtbl.replace seen key ();
                       a :: acc
                     end)
                   [] members)
            in
            let varying =
              List.filter
                (fun (l : loop) ->
                  List.exists (fun a -> varies_with a l.index) members)
                spine
            in
            let spine_names = List.map (fun (l : loop) -> l.index) spine in
            let spine_only =
              List.for_all
                (fun (a : Access.t) ->
                  List.for_all
                    (fun idx ->
                      List.mem idx spine_names
                      || not (varies_with a idx))
                    (Access.indices a))
                members
            in
            Some
              {
                array = m.array;
                elem;
                members = distinct;
                has_reads = List.exists Access.is_read members;
                has_writes = List.exists Access.is_write members;
                any_guarded = List.exists (fun (a : Access.t) -> a.guarded) members;
                varying;
                spine;
                spine_only;
                scalar_subs =
                  List.exists
                    (fun (a : Access.t) -> List.exists (names_any assigned) a.subs)
                    members;
              })
      merged

  let may_alias (k : kernel) (p : pattern) (q : pattern) =
    let decl = Ast.find_array k p.array in
    List.exists
      (fun a ->
        List.exists
          (fun b ->
            match Analysis.Dependence.test ?decl a b with
            | Analysis.Dependence.Independent -> false
            | _ -> true)
          q.members)
      p.members

  (* ------------------------------------------------------------------ *)

  type state = {
    mutable kernel : kernel;
    mutable report : report;
    names : Transform.Names.t;
    mutable budget : int;
    mutable decls : scalar_decl list;
        (* registers declared so far, newest first; appended to the
            kernel's scalars once, when [run] returns *)
  }

  let declare st base elem =
    let name = Transform.Names.fresh st.names base in
    st.decls <- { s_name = name; s_elem = elem; s_kind = Register; s_span = None } :: st.decls;
    name

  let edit_body st ed = st.kernel <- { st.kernel with k_body = apply_edits st.kernel.k_body ed }

  (* ------------------------------------------------------------------ *)
  (* Case 1: hoist/sink *)

  let try_hoist (k : kernel) (st : state) (p : pattern) (others : pattern list) =
    let spine = p.spine in
    let innermost_spine =
      match List.rev spine with [] -> None | l :: _ -> Some l
    in
    let aliasing = List.exists (fun q -> may_alias k p q) others in
    let deepest_varying =
      (* position of the deepest spine loop the pattern varies with *)
      let rec go i best = function
        | [] -> best
        | (l : loop) :: rest ->
            go (i + 1) (if List.memq l p.varying then i else best) rest
      in
      go 0 (-1) spine
    in
    let applicable =
      spine <> [] && p.spine_only && (not p.scalar_subs)
      && (match innermost_spine with
         | Some l -> not (List.memq l p.varying)
         | None -> false)
      && (not p.any_guarded) && not aliasing
      && st.budget >= List.length p.members
    in
    if not applicable then ()
    else begin
      (* Hoist each distinct member to just inside the deepest varying
         loop (or outside the whole nest when invariant everywhere). *)
      let target =
        if deepest_varying < 0 then None else Some (List.nth spine deepest_varying).index
      in
      let ed = new_edits () in
      List.iter
        (fun (a : Access.t) ->
          let subs = a.Access.subs in
          if not (Hashtbl.mem ed.repl (p.array, subs)) then begin
            let r = declare st (String.lowercase_ascii p.array ^ "_r") p.elem in
            st.budget <- st.budget - 1;
            Hashtbl.replace ed.repl (p.array, subs) { reg = r; scope = None; writes = true };
            let load = Assign (Lvar r, Arr (p.array, subs)) in
            let store = Assign (Larr (p.array, subs), Var r) in
            let post = if p.has_writes then [ store ] else [] in
            ed.inserts <- (target, [ load ], post) :: ed.inserts;
            st.report <-
              {
                st.report with
                hoisted_members = st.report.hoisted_members + 1;
                registers = st.report.registers + 1;
              }
          end)
        p.members;
      edit_body st ed
    end

  (* ------------------------------------------------------------------ *)
  (* Case 2: register banks across an outer carrier loop *)

  let try_bank ~written (st : state) (p : pattern) =
    let spine = p.spine in
    (* Outermost spine loop the pattern is invariant to, with varying loops
       strictly inside it. *)
    let carrier =
      let rec go = function
        | [] -> None
        | (l : loop) :: rest ->
            if
              (not (List.memq l p.varying))
              && List.exists (fun v -> List.memq v rest) p.varying
            then Some l
            else go rest
      in
      go spine
    in
    match carrier with
    | None -> ()
    | Some carrier ->
        let inner_of_carrier =
          let rec drop = function
            | (l : loop) :: rest -> if l.index = carrier.index then rest else drop rest
            | [] -> []
          in
          drop spine
        in
        let varying_inside = List.filter (fun l -> List.memq l p.varying) inner_of_carrier in
        (* Varying loops must be contiguous on the spine below the carrier:
           a non-varying loop *between* two varying ones desynchronises the
           rotation count from the bank size. Non-varying loops below the
           deepest varying loop only repeat full cycles and are fine. *)
        let contiguous =
          let rec check seen_varying = function
            | [] -> true
            | (l : loop) :: rest ->
                let v = List.memq l p.varying in
                if v then check true rest
                else if not seen_varying then check false rest
                else
                  (* non-varying after a varying loop: legal only if no
                     varying loop follows *)
                  List.for_all (fun m -> not (List.memq m p.varying)) rest
          in
          check false inner_of_carrier
        in
        let bank_n =
          List.fold_left (fun acc l -> acc * Ast.loop_trip l) 1 varying_inside
        in
        let innermost_varying =
          match List.rev varying_inside with [] -> None | l :: _ -> Some l
        in
        let n_regs = bank_n * List.length p.members in
        let applicable =
          p.has_reads && (not p.has_writes) && p.spine_only && (not p.scalar_subs)
          && (not (List.mem p.array written))
          && (not p.any_guarded)
          && contiguous && bank_n > 1
          && innermost_varying <> None
          && st.budget >= n_regs
        in
        if not applicable then ()
        else begin
          let rot_loop = Option.get innermost_varying in
          let ed = new_edits () in
          List.iteri
            (fun mi (a : Access.t) ->
              let base =
                Printf.sprintf "%s_%d" (String.lowercase_ascii p.array) mi
              in
              let regs =
                List.init bank_n (fun j -> declare st (Printf.sprintf "%s_%d" base j) p.elem)
              in
              st.budget <- st.budget - bank_n;
              let r0 = List.hd regs in
              let load =
                If
                  ( Bin (Eq, Var carrier.index, Int carrier.lo),
                    [ Assign (Lvar r0, Arr (p.array, a.subs)) ],
                    [] )
              in
              (* Uses inside the carrier read the bank; the guarded load's
                 own read stays (inserts are never rewritten). *)
              Hashtbl.replace ed.repl (p.array, a.subs)
                { reg = r0; scope = Some carrier.index; writes = false };
              ed.inserts <- (Some rot_loop.index, [ load ], [ Rotate regs ]) :: ed.inserts;
              st.report <-
                {
                  st.report with
                  banks = (p.array, bank_n) :: st.report.banks;
                  registers = st.report.registers + bank_n;
                  carriers =
                    (if List.mem carrier.index st.report.carriers then
                       st.report.carriers
                     else carrier.index :: st.report.carriers);
                })
            p.members;
          edit_body st ed
        end

  (* ------------------------------------------------------------------ *)
  (* Case 3: chains along the innermost varying loop *)

  let chain_distance (inner : loop) (a : Access.t) (b : Access.t) : int option =
    match Analysis.Dependence.ug_distance_vector a b with
    | Analysis.Dependence.Distance entries ->
        let loops = Analysis.Dependence.common_loops a b in
        let rec go loops entries acc =
          match (loops, entries) with
          | [], [] -> acc
          | (l : loop) :: ls, e :: es -> (
              match e with
              | Analysis.Dependence.Exact d when l.index = inner.index ->
                  if acc = None then go ls es (Some d) else None
              | Analysis.Dependence.Exact 0 -> go ls es acc
              | Analysis.Dependence.Any -> go ls es acc
              | Analysis.Dependence.Exact _ | Analysis.Dependence.Coupled -> None)
          | _ -> None
        in
        go loops entries None
    | _ -> None

  (* Floor division (exact linearity in the divisor direction:
     [fdiv (x + d*g) g = fdiv x g + d] for any integers, which makes the
     residue below a canonical class key). *)
  let fdiv x y =
    let q = x / y and r = x mod y in
    if r <> 0 && r < 0 <> (y < 0) then q - 1 else q

  let chain_key (inner : loop) (a : Access.t) : (int list * int) option =
    if not (Access.is_affine a) then None
    else begin
      let affs = Access.affine_exn a in
      let g = List.map (fun f -> coeff f inner.index * inner.step) affs in
      let c = List.map Affine.const_part affs in
      let rec first_nz gs cs =
        match (gs, cs) with
        | gk :: _, ck :: _ when gk <> 0 -> Some (gk, ck)
        | _ :: gs, _ :: cs -> first_nz gs cs
        | _ -> None
      in
      match first_nz g c with
      | None -> None
      | Some (gk0, ck0) ->
          let idx = fdiv ck0 gk0 in
          Some (List.map2 (fun ck gk -> ck - (idx * gk)) c g, idx)
    end

  let partition_chains (inner : loop) (members : Access.t list) :
      (Access.t * int) list list =
    let shapes = Hashtbl.create 8 in
    let intern (a : Access.t) =
      if not (Access.is_affine a) then None
      else begin
        let affs = Access.affine_exn a in
        let shape =
          ( List.map (fun (l : loop) -> (l.index, l.lo, l.hi, l.step)) a.loops,
            List.map (fun (f : Affine.t) -> f.terms) affs )
        in
        let id =
          match Hashtbl.find_opt shapes shape with
          | Some id -> id
          | None ->
              let id = Hashtbl.length shapes in
              Hashtbl.replace shapes shape id;
              id
        in
        Some (id, List.map Affine.const_part affs)
      end
    in
    let memo = Hashtbl.create 64 in
    let distance (a, sa) (b, sb) =
      match (sa, sb) with
      | Some (ia, ca), Some (ib, cb) when List.compare_lengths ca cb = 0 -> (
          let key = (ia, ib, List.map2 ( - ) ca cb) in
          match Hashtbl.find_opt memo key with
          | Some d -> d
          | None ->
              let d = chain_distance inner a b in
              Hashtbl.replace memo key d;
              d)
      | _ -> chain_distance inner a b
    in
    let interned = List.map (fun a -> (a, intern a)) members in
    let slow () =
      let classes = ref [] in
      List.iter
        (fun a ->
          let rec insert = function
            | [] -> [ (a, [ a ]) ]
            | (m, cls) :: rest -> (
                match distance m a with
                | Some _ -> (m, a :: cls) :: rest
                | None -> (m, cls) :: insert rest)
          in
          classes := insert !classes)
        interned;
      List.map
        (fun (_, cls) ->
          match List.rev cls with
          | [] -> []
          | first :: _ as cls ->
              List.map
                (fun a -> (fst a, Option.value ~default:0 (distance first a)))
                cls)
        !classes
    in
    let trip = Ast.loop_trip inner in
    let keyed = List.map (fun ((a, _) as m) -> (m, chain_key inner a)) interned in
    if List.exists (fun (_, k) -> k = None) keyed then
      (* No inner variation (or a non-affine member): no pair admits a
         distance, every member is its own class. *)
      List.map (fun ((a, _), _) -> [ (a, 0) ]) keyed
    else begin
      (* Insertion scan as in [slow], with the O(1) key test standing in
         for the solver: same residue, and the distance realizable within
         the trip count (the solver's own admissibility cut). *)
      let classes = ref [] in
      List.iter
        (fun (m, key) ->
          let residue, idx = Option.get key in
          let rec insert = function
            | [] -> [ (residue, idx, [ (m, 0) ]) ]
            | (res, ridx, cls) :: rest ->
                if res = residue && abs (ridx - idx) < trip then
                  (res, ridx, (m, ridx - idx) :: cls) :: rest
                else (res, ridx, cls) :: insert rest
          in
          classes := insert !classes)
        keyed;
      let classes = List.map (fun (_, _, cls) -> List.rev cls) !classes in
      let verified =
        List.for_all
          (fun cls ->
            match cls with
            | [] | [ _ ] -> true
            | (first, _) :: rest ->
                List.for_all (fun (m, d) -> distance first m = Some d) rest)
          classes
      in
      if verified then List.map (List.map (fun ((a, _), d) -> (a, d))) classes
      else slow ()
    end

  let try_chains ~(config : config) ~written (st : state) (ed : edits)
      (p : pattern) =
    let innermost_varying =
      match List.rev p.varying with [] -> None | l :: _ -> Some l
    in
    let spine_innermost =
      match List.rev p.spine with [] -> None | l :: _ -> Some l
    in
    match (innermost_varying, spine_innermost) with
    | Some inner, Some spine_inner
      when inner.index = spine_inner.index
           && p.spine_only && (not p.scalar_subs)
           && p.has_reads && (not p.has_writes)
           && (not (List.mem p.array written))
           && not p.any_guarded ->
        let classes = partition_chains inner p.members in
        List.iter
          (fun cls ->
            match cls with
            | [] | [ _ ] -> () (* single member: CSE handles duplicates *)
            | _ ->
                (* Distance d of member m relative to the first member: m
                   touches the first member's element d iterations later.
                   The member with minimal d reads the *newest* data each
                   iteration and leads the chain; a member at delay k reads
                   what the lead read k iterations ago. *)
                let with_d = List.map (fun (a, d) -> (d, a)) cls in
                let with_d = List.sort (fun (x, _) (y, _) -> compare x y) with_d in
                let dmin = fst (List.hd with_d) in
                let dmax = fst (List.nth with_d (List.length with_d - 1)) in
                let span = dmax - dmin in
                let lead = snd (List.hd with_d) in
                let n_regs = span + 1 in
                if span <= 0 || span > config.max_chain_span || st.budget < n_regs
                then ()
                else begin
                  let base = String.lowercase_ascii p.array ^ "_h" in
                  let regs =
                    List.init n_regs (fun j ->
                        declare st (Printf.sprintf "%s%d" base j) p.elem)
                  in
                  st.budget <- st.budget - n_regs;
                  let reg j = List.nth regs j in
                  (* Loads at the top of the innermost body: lead first,
                     then guarded refills for trailing members. *)
                  let lead_load =
                    Assign (Lvar (reg span), Arr (p.array, lead.Access.subs))
                  in
                  let refills =
                    List.filter_map
                      (fun (d, (a : Access.t)) ->
                        let delay = d - dmin in
                        if delay = 0 then None
                        else
                          Some
                            (If
                               ( Bin
                                   ( Lt,
                                     Var inner.index,
                                     Int (inner.lo + (delay * inner.step)) ),
                                 [ Assign (Lvar (reg (span - delay)), Arr (p.array, a.subs)) ],
                                 [] )))
                      with_d
                  in
                  List.iter
                    (fun (d, (a : Access.t)) ->
                      let delay = d - dmin in
                      Hashtbl.replace ed.repl (p.array, a.Access.subs)
                        { reg = reg (span - delay); scope = Some inner.index; writes = false })
                    with_d;
                  ed.inserts <-
                    (Some inner.index, lead_load :: refills, [ Rotate regs ])
                    :: ed.inserts;
                  st.report <-
                    {
                      st.report with
                      chain_lengths = (p.array, n_regs) :: st.report.chain_lengths;
                      registers = st.report.registers + n_regs;
                      innermost_peels = max st.report.innermost_peels span;
                    }
                end)
          classes
    | _ -> ()

  (* ------------------------------------------------------------------ *)
  (* Case 4: element replacement within the innermost body.

     Accesses to one array element (same canonical subscripts) repeated in
     the innermost body collapse onto a register: read-only groups load
     once (the paper's loop-independent [S_0] of FIR); read-modify-write
     groups (an accumulator whose carrying loop was fully unrolled) load
     once, accumulate in the register, and store once at the end of the
     body — the within-body face of redundant-write elimination. *)

  let array_single_pattern (st : state) array =
    let accesses = collect st.kernel.k_body in
    let of_array = List.filter (fun (a : Access.t) -> a.Access.array = array) accesses in
    let indices =
      List.sort_uniq String.compare (List.concat_map Access.indices of_array)
    in
    let assigned = assigned_non_index st.kernel.k_body in
    match of_array with
    | [] -> true
    | first :: rest ->
        Access.is_affine first
        && List.for_all (fun a -> same_pattern indices first a) rest
        && not
             (List.exists
                (fun (a : Access.t) -> List.exists (names_any assigned) a.subs)
                of_array)

  let cse_loads (st : state) =
    let written = Transform.Licm.arrays_written_in st.kernel.k_body in
    let spine = Loop_nest.spine st.kernel.k_body in
    let loop_free =
      not
        (List.exists
           (function Ast.For _ -> true | _ -> false)
           st.kernel.k_body)
    in
    match (List.rev spine, loop_free) with
    | [], false -> ()
    | target, _ ->
        (* Scan the innermost body in document order, recording for each
           (array, subs) element: occurrence count, writes, whether the
           first occurrence is an unguarded write, guarded uses. *)
        let stats : (string * expr list, int * bool * bool * bool) Hashtbl.t =
          Hashtbl.create 16
        in
        let order : (string * expr list) list ref = ref [] in
        let note key ~write ~guarded =
          let count, has_w, first_w, any_g =
            Option.value ~default:(0, false, false, false) (Hashtbl.find_opt stats key)
          in
          if count = 0 then order := key :: !order;
          Hashtbl.replace stats key
            ( count + 1,
              has_w || write,
              (if count = 0 then write && not guarded else first_w),
              any_g || guarded )
        in
        let rec scan_expr guarded e =
          match e with
          | Arr (a, subs) ->
              List.iter (scan_expr guarded) subs;
              note (a, subs) ~write:false ~guarded
          | Bin (_, x, y) ->
              scan_expr guarded x;
              scan_expr guarded y
          | Un (_, x) -> scan_expr guarded x
          | Cond (c, t, e') ->
              scan_expr guarded c;
              scan_expr true t;
              scan_expr true e'
          | Int _ | Var _ -> ()
        in
        let rec scan_stmt guarded s =
          match s with
          | Assign (lv, e) -> (
              scan_expr guarded e;
              match lv with
              | Larr (a, subs) ->
                  List.iter (scan_expr guarded) subs;
                  note (a, subs) ~write:true ~guarded
              | Lvar _ -> ())
          | If (c, t, e) ->
              scan_expr guarded c;
              List.iter (scan_stmt true) t;
              List.iter (scan_stmt true) e
          | For _ -> ()
          | Rotate _ -> ()
        in
        let apply_inner f =
          st.kernel <-
            {
              st.kernel with
              k_body =
                (match target with
                | inner :: _ ->
                    edit_loop_body ~index:inner.Ast.index f st.kernel.k_body
                | [] -> f st.kernel.k_body (* loop-free kernel: one block *));
            }
        in
        (* Refuse elements whose subscripts name a scalar the body
           assigns or rotates (the one change from the former pass). *)
        let assigned = Hashtbl.create 8 in
        let rec note_assigned = function
          | Assign (Lvar v, _) -> Hashtbl.replace assigned v ()
          | Assign (Larr _, _) -> ()
          | If (_, t, e) ->
              List.iter note_assigned t;
              List.iter note_assigned e
          | For l ->
              Hashtbl.replace assigned l.index ();
              List.iter note_assigned l.body
          | Rotate rs -> List.iter (fun r -> Hashtbl.replace assigned r ()) rs
        in
        let rec mentions_assigned e =
          match e with
          | Var v -> Hashtbl.mem assigned v
          | Int _ -> false
          | Arr (_, subs) -> List.exists mentions_assigned subs
          | Bin (_, a, b) -> mentions_assigned a || mentions_assigned b
          | Un (_, a) -> mentions_assigned a
          | Cond (c, t, e) -> mentions_assigned c || mentions_assigned t || mentions_assigned e
        in
        apply_inner (fun body ->
            List.iter (scan_stmt false) body;
            List.iter note_assigned body;
            body);
        (* Decide all replacements first (caching the per-array pattern
           check), then rewrite the body in a single pass. *)
        let single_pattern_cache = Hashtbl.create 8 in
        let single_pattern a =
          match Hashtbl.find_opt single_pattern_cache a with
          | Some v -> v
          | None ->
              let v = array_single_pattern st a in
              Hashtbl.replace single_pattern_cache a v;
              v
        in
        let chosen : (string * expr list, string * bool * bool) Hashtbl.t =
          Hashtbl.create 16
        in
        let pre = ref [] and post = ref [] in
        List.iter
          (fun ((a, subs) as key) ->
            let count, has_w, first_is_write, _any_g = Hashtbl.find stats key in
            let worth = count > 1 && st.budget > 0 in
            let safe =
              (if has_w then single_pattern a else not (List.mem a written))
              && not (List.exists mentions_assigned subs)
            in
            if worth && safe then begin
              let elem =
                match Ast.find_array st.kernel a with
                | Some d -> d.a_elem
                | None -> Dtype.int32
              in
              let r = declare st (String.lowercase_ascii a ^ "_s") elem in
              st.budget <- st.budget - 1;
              Hashtbl.replace chosen key (r, has_w, first_is_write);
              if not first_is_write then
                pre := Assign (Lvar r, Arr (a, subs)) :: !pre;
              if has_w then post := Assign (Larr (a, subs), Var r) :: !post;
              st.report <-
                {
                  st.report with
                  cse_loads = st.report.cse_loads + 1;
                  registers = st.report.registers + 1;
                }
            end)
          (List.rev !order);
        if Hashtbl.length chosen > 0 then
          apply_inner (fun body ->
              let rw_read e =
                match e with
                | Arr (a, subs) -> (
                    match Hashtbl.find_opt chosen (a, subs) with
                    | Some (r, _, _) -> Var r
                    | None -> e)
                | e -> e
              in
              let rec rw_stmt s =
                match s with
                | Assign (Larr (a, subs), e) -> (
                    let subs = List.map (map_expr rw_read) subs in
                    let e = map_expr rw_read e in
                    match Hashtbl.find_opt chosen (a, subs) with
                    | Some (r, true, _) -> Assign (Lvar r, e)
                    | _ -> Assign (Larr (a, subs), e))
                | Assign (Lvar v, e) -> Assign (Lvar v, map_expr rw_read e)
                | If (c, t, e) ->
                    If (map_expr rw_read c, List.map rw_stmt t, List.map rw_stmt e)
                | For l -> For { l with body = List.map rw_stmt l.body }
                | Rotate rs -> Rotate rs
              in
              List.rev !pre @ List.map rw_stmt body @ List.rev !post)

  (* ------------------------------------------------------------------ *)

  let run ?(config = default_config) (k : kernel) : kernel * report =
    let st =
      {
        kernel = k;
        report = empty_report;
        names = Transform.Names.of_kernel k;
        budget = config.max_registers;
        decls = [];
      }
    in
    (* Each phase wants the pattern facts of the current kernel; a phase
       that made no edits leaves [st.kernel] physically unchanged, so the
       previous phase's patterns (and the access walk behind them) are
       still exact and can be reused. *)
    let cached : (kernel * pattern list) option ref = ref None in
    let patterns () =
      match !cached with
      | Some (k, ps) when k == st.kernel -> ps
      | _ ->
          let ps = patterns_of st.kernel in
          cached := Some (st.kernel, ps);
          ps
    in
    (* Hoist/sink first: it removes accumulator traffic and its aliasing
       checks see the original access set. *)
    let ps = patterns () in
    List.iter
      (fun p ->
        let others = List.filter (fun q -> q != p && q.array = p.array) ps in
        try_hoist k st p others)
      ps;
    if config.across_loops then begin
      let ps = patterns () in
      let written = Transform.Licm.arrays_written_in st.kernel.k_body in
      (* Smallest banks first, to fit more of them in the budget. *)
      let with_est =
        List.map
          (fun p ->
            let est =
              List.fold_left
                (fun acc (l : loop) ->
                  if List.memq l p.varying then acc * Ast.loop_trip l else acc)
                (List.length p.members)
                p.spine
            in
            (est, p))
          ps
      in
      List.iter
        (fun (_, p) -> try_bank ~written st p)
        (List.sort (fun (a, _) (b, _) -> compare a b) with_est)
    end;
    if config.chains then begin
      let ps = patterns () in
      let written = Transform.Licm.arrays_written_in st.kernel.k_body in
      let ed = new_edits () in
      List.iter (fun p -> try_chains ~config ~written st ed p) ps;
      if Hashtbl.length ed.repl > 0 then edit_body st ed
    end;
    cse_loads st;
    let k = st.kernel in
    let k =
      if st.decls = [] then k else { k with k_scalars = k.k_scalars @ List.rev st.decls }
    in
    (k, st.report)
end

(** The access walk [Transform.Scalar_replace] read before its plan
    covered every kernel: every access collected, grouped into uniformly
    generated patterns over the spine indices (reads and writes apart,
    then merged), the non-affine accesses last, one pattern each; each
    pattern's facts computed over its accesses; element CSE's
    single-pattern test over an array's accesses and the loops around
    them. The oracle of the plan's walks. *)
module Sr_walk = struct
  module SR = Transform.Scalar_replace
  module Access = Analysis.Access
  open Ast

  (* Every loop around [a] that [a] varies with is named in [spine]. *)
  let varies_on_spine_only spine_names (a : Access.t) =
    List.for_all
      (fun (l : loop) -> List.mem l.index spine_names || not (Access.varies_with a l.index))
      a.loops

  let assigned_scalars (body : stmt list) =
    let tbl = Hashtbl.create 8 in
    let rec stmt = function
      | Assign (Lvar v, _) -> Hashtbl.replace tbl v ()
      | Assign (Larr _, _) -> ()
      | If (_, t, e) ->
          List.iter stmt t;
          List.iter stmt e
      | For l -> List.iter stmt l.body
      | Rotate rs -> List.iter (fun r -> Hashtbl.replace tbl r ()) rs
    in
    List.iter stmt body;
    tbl

  let rec mentions tbl (e : expr) =
    match e with
    | Var v -> Hashtbl.mem tbl v
    | Int _ -> false
    | Arr (_, subs) -> List.exists (mentions tbl) subs
    | Bin (_, a, b) -> mentions tbl a || mentions tbl b
    | Un (_, a) -> mentions tbl a
    | Cond (c, t, e) -> mentions tbl c || mentions tbl t || mentions tbl e

  let rec reads_array (e : expr) =
    match e with
    | Arr _ -> true
    | Int _ | Var _ -> false
    | Bin (_, a, b) -> reads_array a || reads_array b
    | Un (_, a) -> reads_array a
    | Cond (c, t, e) -> reads_array c || reads_array t || reads_array e

  (** All accesses of [array] among [accesses] belong to one uniformly
      generated pattern over the loops around them, and none of their
      subscripts names a scalar in [assigned]. *)
  let single_pattern ~assigned (accesses : Access.t list) array =
    let of_array = List.filter (fun (a : Access.t) -> String.equal a.array array) accesses in
    let indices =
      List.sort_uniq compare
        (List.concat_map (fun (a : Access.t) -> List.map (fun (l : loop) -> l.index) a.loops) of_array)
    in
    match of_array with
    | [] -> true
    | first :: rest ->
        Access.is_affine first
        && List.for_all (fun a -> Scalar_replace.same_pattern indices first a) rest
        && not (List.exists (fun (a : Access.t) -> List.exists (mentions assigned) a.subs) of_array)

  (** The patterns of [k] and whether a subscript reads an array. *)
  let walk (k : kernel) : SR.pattern list * bool =
    let spine = Loop_nest.spine k.k_body in
    let spine_names = List.map (fun (l : loop) -> l.index) spine in
    let accesses = Access.collect k.k_body in
    let assigned = assigned_scalars k.k_body in
    (* groups keyed on (array, kind, pattern), then merged on (array,
       pattern): the first group's members, then the second's *)
    let groups = Hashtbl.create 16 and order = ref [] and singles = ref [] in
    List.iter
      (fun (a : Access.t) ->
        match Scalar_replace.pattern_key spine_names a with
        | None -> singles := ref [ a ] :: !singles
        | Some key -> (
            match Hashtbl.find_opt groups (a.array, a.kind, key) with
            | Some ms -> ms := !ms @ [ a ]
            | None ->
                let ms = ref [ a ] in
                Hashtbl.replace groups (a.array, a.kind, key) ms;
                order := (a.array, key, ms) :: !order))
      accesses;
    let merged = ref [] in
    List.iter
      (fun (array, key, ms) ->
        match List.find_opt (fun (array', key', _) -> array = array' && key = key') !merged with
        | Some (_, _, members) -> members := !members @ !ms
        | None -> merged := (array, key, ref !ms) :: !merged)
      (List.rev !order);
    let pattern (members : Access.t list) : SR.pattern =
      let m = List.hd members in
      let seen = Hashtbl.create 16 in
      let distinct =
        List.filter
          (fun (a : Access.t) ->
            if Hashtbl.mem seen (a.subs, a.kind) then false
            else begin
              Hashtbl.replace seen (a.subs, a.kind) ();
              true
            end)
          members
      in
      {
        SR.array = m.array;
        elem = (match Ast.find_array k m.array with Some d -> d.a_elem | None -> Dtype.int32);
        members = distinct;
        has_reads = List.exists Access.is_read members;
        has_writes = List.exists Access.is_write members;
        any_guarded = List.exists (fun (a : Access.t) -> a.guarded) members;
        varying =
          List.filter (fun (l : loop) -> List.exists (fun a -> Access.varies_with a l.index) members) spine;
        spine;
        spine_only = List.for_all (varies_on_spine_only spine_names) members;
        scalar_subs =
          List.exists (fun (a : Access.t) -> List.exists (mentions assigned) a.subs) members;
        uniform = single_pattern ~assigned members m.array;
      }
    in
    ( List.rev_map (fun (_, _, ms) -> pattern !ms) !merged
      @ List.rev_map (fun ms -> pattern !ms) !singles,
      List.exists (fun (a : Access.t) -> List.exists reads_array a.subs) accesses )

  (** Element CSE's single-pattern test of [a] on [k]. *)
  let single (k : kernel) a =
    single_pattern ~assigned:(assigned_scalars k.k_body) (Access.collect k.k_body) a
end

(** The flow-graph forms of [Check.Legality]'s two hazards, which its
    structural walks must agree with: the scalar jam hazard by liveness
    and the foreign-access verdict by reaching definitions. Then
    [Check.Legality.config_verdict] as it was before its kernel-only
    analyses moved out of the per-configuration call and before its
    canonicalization moved into [Engine.Backend.normalize_config]: every
    verdict recomputes the spine, the array dependence test and the
    graph's scalar hazard, and a legal configuration that is another
    spelling of a design carries its canonical spelling. The dependence
    test and [tiling_applicable] are the library's. *)
module Legality = struct
  module L = Check.Legality
  module F = Analysis.Flowgraph

  (* ---------------------------------------------------------------- *)
  (* The flow-graph hazards: oracles of [Check.Legality]'s walks *)

  let commutative_assoc = function
    | Ast.Add | Ast.Mul | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Min | Ast.Max ->
        true
    | _ -> false

  let count_var s e =
    Ast.fold_expr
      (fun n e -> match e with Ast.Var v when String.equal v s -> n + 1 | _ -> n)
      0 e

  let reduction_op s (rhs : Ast.expr) : Ast.binop option =
    match rhs with
    | Ast.Bin (op, a, b) when commutative_assoc op ->
        if a = Ast.Var s && count_var s b = 0 then Some op
        else if b = Ast.Var s && count_var s a = 0 then Some op
        else None
    | _ -> None

  (* Is every body occurrence of [s] part of one single-operator
     reduction? *)
  let reduction_only (g : F.t) (body : F.node list) (s : string) : bool =
    let ok = ref true and op = ref None in
    List.iter
      (fun (nd : F.node) ->
        if !ok then
          match nd.F.kind with
          | F.Assign (Ast.Lvar x, rhs) when String.equal x s -> (
              match reduction_op s rhs with
              | Some o -> (
                  match !op with
                  | None -> op := Some o
                  | Some o' -> if o <> o' then ok := false)
              | None -> ok := false)
          | F.Header _ -> ()
          | _ ->
              if
                List.exists
                  (fun u -> F.equal_loc u (F.Scalar s))
                  (Flow.uses g nd.F.id)
              then ok := false)
      body;
    !ok

  (** First [(loop index, scalar)] a jam would reorder: a scalar defined
      in the body of a reachable non-innermost loop, not one of its
      indices, live (by the graph's liveness) at the body's entry and
      not reduction-only. Loops in node order, scalars in [compare]
      order. *)
  let scalar_jam_hazard (g : F.t) : (string * string) option =
    let live = Flow.live g in
    let result = ref None in
    Array.iter
      (fun (hn : F.node) ->
        if !result = None && g.F.reachable.(hn.F.id) then
          match hn.F.kind with
          | F.Header l ->
              let body =
                Array.to_list g.F.nodes
                |> List.filter (fun (nd : F.node) ->
                       nd.F.id <> hn.F.id && List.memq l nd.F.loops)
              in
              let indices =
                l.Ast.index
                :: List.filter_map
                     (fun (nd : F.node) ->
                       match nd.F.kind with
                       | F.Header l' -> Some l'.Ast.index
                       | _ -> None)
                     body
              in
              let is_innermost =
                not
                  (List.exists
                     (fun (nd : F.node) ->
                       match nd.F.kind with F.Header _ -> true | _ -> false)
                     body)
              in
              if not is_innermost then begin
                let body_ids = List.map (fun (nd : F.node) -> nd.F.id) body in
                let entries =
                  List.filter (fun i -> List.mem i body_ids) g.F.succ.(hn.F.id)
                in
                let defined =
                  body
                  |> List.concat_map (fun (nd : F.node) -> Flow.defs_at g nd.F.id)
                  |> List.filter_map (function F.Scalar s -> Some s | _ -> None)
                  |> List.sort_uniq compare
                in
                List.iter
                  (fun s ->
                    if !result = None && not (List.mem s indices) then
                      let carried =
                        List.exists
                          (fun e -> F.LocSet.mem (F.Scalar s) live.F.before.(e))
                          entries
                      in
                      if carried && not (reduction_only g body s) then
                        result := Some (l.Ast.index, s))
                  defined
              end
          | _ -> ())
      g.F.nodes;
    !result

  let linear_parts (fs : Affine.t list) =
    List.map (fun (f : Affine.t) -> Affine.make f.Affine.terms 0) fs

  let same_linear fs gs =
    List.length fs = List.length gs && List.for_all2 Affine.equal fs gs

  (* [`Match] same array and subscript coefficients, [`Foreign] same
     array through another pattern, [`Both] a whole-array location. *)
  let classify ~array ~pattern (l : F.loc) =
    match l with
    | F.Scalar _ -> `Other
    | F.Whole a -> if String.equal a array then `Both else `Other
    | F.Cell (a, fs) ->
        if not (String.equal a array) then `Other
        else if same_linear (linear_parts fs) pattern then `Match
        else `Foreign

  let matches c = c = `Match || c = `Both
  let foreign c = c = `Foreign || c = `Both

  (** A foreign access the cached registers would miss, by reaching
      definitions: for a read set, a foreign write reaching one of the
      group's reads; for a write set, a member write reaching a foreign
      access (read or write). *)
  let foreign_hazard (g : F.t) (grp : Analysis.Reuse.group) : string option =
    match List.find_opt Analysis.Access.is_affine grp.Analysis.Reuse.members with
    | None -> None
    | Some rep ->
        let pattern = linear_parts (Analysis.Access.affine_exn rep) in
        let classify = classify ~array:grp.Analysis.Reuse.array ~pattern in
        let r = Flow.reaching g in
        (* some [pick]ed definition reaches a reachable node at which it
           may alias one of the [probe]d locations *)
        let reaches pick probe locs =
          let defs =
            Array.to_list r.Flow.r_defs
            |> List.filter (fun (d : Flow.def) -> pick (classify d.Flow.d_loc))
          in
          Array.exists
            (fun (nd : F.node) ->
              g.F.reachable.(nd.F.id)
              && List.exists
                   (fun l ->
                     probe (classify l)
                     && List.exists
                          (fun (d : Flow.def) ->
                            Flow.IntSet.mem d.Flow.d_id
                              r.Flow.r_sol.F.before.(nd.F.id)
                            && F.may_alias d.Flow.d_loc l)
                          defs)
                   (locs nd.F.id))
            g.F.nodes
        in
        match grp.Analysis.Reuse.kind with
        | Analysis.Access.Read ->
            if reaches foreign matches (Flow.uses g) then
              Some
                "a write through a different access pattern reaches the \
                 set's reads"
            else None
        | Analysis.Access.Write ->
            if
              reaches matches foreign (fun i -> Flow.uses g i @ Flow.defs_at g i)
            then Some "the set's writes reach an access through a different pattern"
            else None

  type config_verdict =
    | Config_legal
    | Config_redundant of Transform.Pipeline.config
    | Config_illegal of string

  let rec body_has_loop index body =
    List.exists
      (function
        | Ast.For l -> l.Ast.index = index || body_has_loop index l.Ast.body
        | Ast.If (_, t, e) -> body_has_loop index t || body_has_loop index e
        | Ast.Assign _ | Ast.Rotate _ -> false)
      body

  let spine_loop (k : Ast.kernel) index =
    List.find_opt
      (fun (l : Ast.loop) -> l.Ast.index = index)
      (Loop_nest.spine k.Ast.k_body)

  let wants_jam (k : Ast.kernel) (c : Transform.Pipeline.config) : bool =
    let spine = Loop_nest.spine k.Ast.k_body in
    let innermost =
      match List.rev spine with l :: _ -> Some l.Ast.index | [] -> None
    in
    List.exists
      (fun (index, factor) ->
        factor > 1 && Some index <> innermost && spine_loop k index <> None)
      c.Transform.Pipeline.vector

  let config_verdict (k : Ast.kernel) (c : Transform.Pipeline.config) :
      config_verdict =
    let illegal_tile =
      match c.Transform.Pipeline.tile with
      | Some (index, _) when not (body_has_loop index k.Ast.k_body) ->
          Some
            (Printf.sprintf "tile index '%s' names no loop of the kernel" index)
      | _ -> None
    in
    match illegal_tile with
    | Some why -> Config_illegal why
    | None ->
        if
          wants_jam k c
          && Transform.Unroll.jam_legal k
          && scalar_jam_hazard (F.build k) <> None
        then
          Config_illegal
            "unroll-and-jam at this vector reorders a loop-carried scalar \
             recurrence the dependence test cannot see"
        else begin
          let tile =
            match c.Transform.Pipeline.tile with
            | Some (index, t)
              when spine_loop k index <> None
                   && not (L.tiling_applicable k ~index ~tile:t) ->
                None
            | t -> t
          in
          let vector =
            match tile with
            | Some (ti, t) when L.tiling_applicable k ~index:ti ~tile:t ->
                List.map
                  (fun (i, u) -> if i = ti then (i, 1) else (i, u))
                  c.Transform.Pipeline.vector
            | _ -> c.Transform.Pipeline.vector
          in
          let peel =
            c.Transform.Pipeline.peel && c.Transform.Pipeline.scalar_replace
          in
          let canon = { c with Transform.Pipeline.tile; vector; peel } in
          if canon = c then Config_legal else Config_redundant canon
        end
end
