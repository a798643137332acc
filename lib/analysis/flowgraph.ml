(** See flowgraph.mli. *)

open Ir

(* ------------------------------------------------------------------ *)
(* Abstract locations *)

type loc = Scalar of string | Cell of string * Affine.t list | Whole of string

(* Scalars first, then cells, then whole arrays; by name within each
   kind, then by subscript forms. This is the order polymorphic
   [compare] gives, spelled out so that set operations do not pay for a
   generic traversal — and so that every [Cell] of one array sits in one
   contiguous run of a [LocSet], starting at [Cell (a, [])]. *)
let compare_loc (a : loc) (b : loc) =
  match (a, b) with
  | Scalar x, Scalar y | Whole x, Whole y -> String.compare x y
  | Cell (x, fs), Cell (y, gs) ->
      let c = String.compare x y in
      if c <> 0 then c else List.compare Affine.compare fs gs
  | Scalar _, (Cell _ | Whole _) | Cell _, Whole _ -> -1
  | (Cell _ | Whole _), Scalar _ | Whole _, Cell _ -> 1

let equal_loc a b = compare_loc a b = 0

let pp_loc fmt = function
  | Scalar s -> Format.pp_print_string fmt s
  | Cell (a, fs) ->
      Format.fprintf fmt "%s%s" a
        (String.concat ""
           (List.map (fun f -> "[" ^ Affine.to_string f ^ "]") fs))
  | Whole a -> Format.fprintf fmt "%s[*]" a

module LocSet = Set.Make (struct
  type t = loc

  let compare = compare_loc
end)

let may_alias (a : loc) (b : loc) =
  match (a, b) with
  | Scalar x, Scalar y -> String.equal x y
  | Scalar _, (Cell _ | Whole _) | (Cell _ | Whole _), Scalar _ -> false
  | (Cell (x, _) | Whole x), Whole y | Whole x, Cell (y, _) ->
      String.equal x y
  | Cell (x, fs), Cell (y, gs) ->
      String.equal x y
      && (List.length fs <> List.length gs
         || not
              (List.exists2
                 (fun f g ->
                   (* provably distinct cells across *all* iterations:
                      both subscripts constant and different *)
                   Affine.is_const f && Affine.is_const g
                   && Affine.const_part f <> Affine.const_part g)
                 fs gs))

(* The members of [s] that may alias [l]. Only facts naming [l]'s
   scalar or array can, so this visits [l]'s own scalar, or its array's
   [Whole] fact and contiguous run of [Cell] facts — never the rest of
   the set. *)
let aliases (s : LocSet.t) (l : loc) : loc Seq.t =
  match l with
  | Scalar _ -> if LocSet.mem l s then Seq.return l else Seq.empty
  | Cell (a, _) | Whole a ->
      let cells =
        LocSet.to_seq_from (Cell (a, [])) s
        |> Seq.take_while (function
             | Cell (b, _) -> String.equal a b
             | Scalar _ | Whole _ -> false)
        |> Seq.filter (fun f -> may_alias f l)
      in
      if LocSet.mem (Whole a) s then Seq.cons (Whole a) cells else cells

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

(* ------------------------------------------------------------------ *)
(* The graph *)

type kind =
  | Entry
  | Exit
  | Assign of Ast.lvalue * Ast.expr
  | Rotate of string list
  | Branch of Ast.expr
  | Header of Ast.loop

type node = {
  id : int;
  kind : kind;
  loops : Ast.loop list;
  span : Ast.span option;
}

type t = {
  kernel : Ast.kernel;
  nodes : node array;
  succ : int list array;
  pred : int list array;
  entry : int;
  exit_ : int;
  reachable : bool array;
  node_uses : loc list array;
  node_defs : loc list array;
}

let uses_of_node (nd : node) : loc list =
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

let defs_of_node (nd : node) : loc list =
  match nd.kind with
  | Entry | Exit | Branch _ -> []
  | Header l -> [ Scalar l.Ast.index ]
  | Rotate rs -> List.map (fun r -> Scalar r) rs
  | Assign (Ast.Lvar s, _) -> [ Scalar s ]
  | Assign (Ast.Larr (a, subs), _) ->
      [ loc_of_access (index_names nd.loops) a subs ]

let build (k : Ast.kernel) : t =
  let nodes = ref [] and count = ref 0 in
  let edges = ref [] in
  let add_node kind ~loops ~span =
    let id = !count in
    incr count;
    nodes := { id; kind; loops; span } :: !nodes;
    id
  in
  let connect froms dst = List.iter (fun f -> edges := (f, dst) :: !edges) froms in
  (* The frontier is the set of node ids whose (fall-through) successor
     is the next statement. An empty frontier builds unreachable nodes:
     they get ids and spans but no incoming edges. *)
  let rec go_stmts ~loops ~span frontier stmts =
    List.fold_left (fun fr s -> go_stmt ~loops ~span fr s) frontier stmts
  and go_stmt ~loops ~span frontier (s : Ast.stmt) =
    match s with
    | Ast.Assign (lv, e) ->
        let id = add_node (Assign (lv, e)) ~loops ~span in
        connect frontier id;
        [ id ]
    | Ast.Rotate rs ->
        let id = add_node (Rotate rs) ~loops ~span in
        connect frontier id;
        [ id ]
    | Ast.If (c, then_, else_) ->
        let b = add_node (Branch c) ~loops ~span in
        connect frontier b;
        let ft = go_stmts ~loops ~span [ b ] then_ in
        let fe = go_stmts ~loops ~span [ b ] else_ in
        List.sort_uniq compare (ft @ fe)
    | Ast.For l ->
        let span = match l.Ast.l_span with Some _ as s -> s | None -> span in
        let h = add_node (Header l) ~loops:(loops @ [ l ]) ~span in
        connect frontier h;
        let loops' = loops @ [ l ] in
        let trip =
          if l.Ast.step <= 0 then None (* ill-formed: be conservative *)
          else Some (Ast.loop_trip l)
        in
        (match trip with
        | Some 0 ->
            (* Body provably never runs: keep its nodes, connect nothing. *)
            ignore (go_stmts ~loops:loops' ~span [] l.Ast.body);
            [ h ]
        | Some _ ->
            (* At least one iteration: the continuation is only reachable
               through the body's tail. *)
            let tail = go_stmts ~loops:loops' ~span [ h ] l.Ast.body in
            connect tail h;
            tail
        | None ->
            let tail = go_stmts ~loops:loops' ~span [ h ] l.Ast.body in
            connect tail h;
            List.sort_uniq compare (h :: tail))
  in
  let entry = add_node Entry ~loops:[] ~span:None in
  let final = go_stmts ~loops:[] ~span:None [ entry ] k.Ast.k_body in
  let exit_ = add_node Exit ~loops:[] ~span:None in
  connect final exit_;
  let n = !count in
  let node_arr = Array.make n { id = 0; kind = Entry; loops = []; span = None } in
  List.iter (fun nd -> node_arr.(nd.id) <- nd) !nodes;
  let succ = Array.make n [] and pred = Array.make n [] in
  List.iter
    (fun (a, b) ->
      if not (List.mem b succ.(a)) then begin
        succ.(a) <- b :: succ.(a);
        pred.(b) <- a :: pred.(b)
      end)
    !edges;
  Array.iteri (fun i l -> succ.(i) <- List.sort compare l) succ;
  Array.iteri (fun i l -> pred.(i) <- List.sort compare l) pred;
  let reachable = Array.make n false in
  let rec dfs i =
    if not reachable.(i) then begin
      reachable.(i) <- true;
      List.iter dfs succ.(i)
    end
  in
  dfs entry;
  let node_uses = Array.map uses_of_node node_arr in
  let node_defs = Array.map defs_of_node node_arr in
  {
    kernel = k;
    nodes = node_arr;
    succ;
    pred;
    entry;
    exit_;
    reachable;
    node_uses;
    node_defs;
  }

let uses (g : t) (i : int) : loc list = g.node_uses.(i)
let defs_at (g : t) (i : int) : loc list = g.node_defs.(i)

(* ------------------------------------------------------------------ *)
(* The monotone framework *)

type direction = Forward | Backward

type 'f spec = {
  dir : direction;
  boundary : 'f;
  init : 'f;
  join : 'f -> 'f -> 'f;
  equal : 'f -> 'f -> bool;
  transfer : node -> 'f -> 'f;
}

type 'f solution = { before : 'f array; after : 'f array }

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
  (* A fact physically equal to the old one is unchanged without a
     structural comparison: a transfer that touches nothing, or a join
     over one neighbour, hands the same set back. *)
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
        if not (out == after.(i) || spec.equal out after.(i)) then begin
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
        if not (inf == before.(i) || spec.equal inf before.(i)) then begin
          before.(i) <- inf;
          List.iter push g.pred.(i)
        end
  done;
  { before; after }

let mentions_index (idx : string) = function
  | Scalar _ | Whole _ -> false
  | Cell (_, fs) -> List.exists (fun f -> List.mem idx (Affine.vars f)) fs

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
        (* A scalar write kills its own fact; so does an exact cell
           write, constant or not: facts survive headers only as Whole,
           so an exact Cell fact here was generated in the same
           iteration. *)
        let killed =
          List.fold_left
            (fun acc w ->
              match w with
              | Scalar _ | Cell _ -> LocSet.remove w acc
              | Whole _ -> acc)
            out g.node_defs.(nd.id)
        in
        List.fold_left (fun acc u -> LocSet.add u acc) killed g.node_uses.(nd.id)
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

let live_at (s : LocSet.t) (l : loc) = not (Seq.is_empty (aliases s l))

(* ------------------------------------------------------------------ *)
(* Anticipated overwrites *)

let opt_must_join a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (LocSet.inter a b)

let opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> LocSet.equal a b
  | _ -> false

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
            let s =
              List.fold_left
                (fun acc w ->
                  match w with
                  | Scalar _ -> LocSet.add w acc
                  | Cell _ -> LocSet.add w acc (* exact cell, same iteration *)
                  | Whole _ -> acc)
                s g.node_defs.(nd.id)
            in
            Some
              (List.fold_left
                 (fun s u -> Seq.fold_left (Fun.flip LocSet.remove) s (aliases s u))
                 s g.node_uses.(nd.id)))
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
