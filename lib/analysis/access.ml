(** Collection and affine classification of array accesses.

    Every analysis and the memory side of the estimator work on the list
    of array accesses of a (possibly transformed) loop body, each
    annotated with its affine subscript functions over the enclosing loop
    indices and with the loop context it appears in. *)

open Ir

type kind = Read | Write [@@deriving show { with_path = false }, eq, ord]

type t = {
  id : int;  (** unique within one [collect] result *)
  array : string;
  kind : kind;
  subs : Ast.expr list;  (** raw subscript expressions *)
  affine : Affine.t option list;  (** affine form per dimension, if any *)
  loops : Ast.loop list;  (** enclosing loops, outermost first *)
  guarded : bool;  (** syntactically under an [if] *)
}

let indices a = List.map (fun (l : Ast.loop) -> l.index) a.loops
let is_read a = a.kind = Read
let is_write a = a.kind = Write

(** All subscripts affine? *)
let is_affine a = List.for_all Option.is_some a.affine

let affine_exn a =
  List.map
    (function
      | Some f -> f
      | None -> invalid_arg "Access.affine_exn: non-affine subscript")
    a.affine

(** Collect accesses in execution order. Reads nested inside subscripts of
    other accesses are collected as their own accesses. The enclosing-loop
    list is built once per loop and shared by every access in that loop's
    own body, so accesses of one context have physically equal [loops]. *)
let collect (body : Ast.stmt list) : t list =
  let acc = ref [] in
  let next_id = ref 0 in
  (* The form of each variable met as a whole subscript: [v] and
     [v + c] subscripts share its term list. *)
  let units = ref [] in
  let rec unit v = function
    | [] ->
        let f = { Affine.terms = [ (v, 1) ]; const = 0 } in
        units := (v, f) :: !units;
        f
    | (w, f) :: rest -> if w == v || String.equal w v then f else unit v rest
  in
  let affine (sub : Ast.expr) =
    match sub with
    | Ast.Var v -> Some (unit v !units)
    | Ast.Bin (Ast.Add, Ast.Var v, Ast.Int c) -> Some { (unit v !units) with const = c }
    | Ast.Bin (Ast.Sub, Ast.Var v, Ast.Int c) -> Some { (unit v !units) with const = -c }
    | _ -> Affine.of_expr sub
  in
  let push ~loops ~guarded array kind subs =
    let affine = List.map affine subs in
    acc := { id = !next_id; array; kind; subs; affine; loops; guarded } :: !acc;
    incr next_id
  in
  let rec expr ~loops ~guarded (e : Ast.expr) =
    match e with
    | Ast.Int _ | Ast.Var _ -> ()
    | Ast.Arr (a, subs) ->
        exprs ~loops ~guarded subs;
        push ~loops ~guarded a Read subs
    | Ast.Bin (_, a, b) ->
        expr ~loops ~guarded a;
        expr ~loops ~guarded b
    | Ast.Un (_, a) -> expr ~loops ~guarded a
    | Ast.Cond (c, t, e') ->
        expr ~loops ~guarded c;
        expr ~loops ~guarded:true t;
        expr ~loops ~guarded:true e'
  and exprs ~loops ~guarded = function
    | [] -> ()
    | e :: rest ->
        expr ~loops ~guarded e;
        exprs ~loops ~guarded rest
  in
  (* [stack] is [loops] reversed: innermost first *)
  let rec stmts ~stack ~loops ~guarded = function
    | [] -> ()
    | s :: rest ->
        stmt ~stack ~loops ~guarded s;
        stmts ~stack ~loops ~guarded rest
  and stmt ~stack ~loops ~guarded (s : Ast.stmt) =
    match s with
    | Ast.Assign (lv, e) -> (
        expr ~loops ~guarded e;
        match lv with
        | Ast.Lvar _ -> ()
        | Ast.Larr (a, subs) ->
            exprs ~loops ~guarded subs;
            push ~loops ~guarded a Write subs)
    | Ast.If (c, t, e) ->
        expr ~loops ~guarded c;
        stmts ~stack ~loops ~guarded:true t;
        stmts ~stack ~loops ~guarded:true e
    | Ast.For l ->
        let stack = l :: stack in
        stmts ~stack ~loops:(List.rev stack) ~guarded l.body
    | Ast.Rotate _ -> ()
  in
  stmts ~stack:[] ~loops:[] ~guarded:false body;
  List.rev !acc

let reads accesses = List.filter is_read accesses
let writes accesses = List.filter is_write accesses
let to_array_map accesses =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun a ->
      let cur = try Hashtbl.find tbl a.array with Not_found -> [] in
      Hashtbl.replace tbl a.array (a :: cur))
    accesses;
  Hashtbl.fold (fun k v l -> (k, List.rev v) :: l) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(** Subscripts linearized into a single affine form using the array's
    row-major layout, e.g. [A[i][j]] with dims [[n; m]] becomes [m*i + j].
    [None] if any subscript is non-affine. *)
let linearized (decl : Ast.array_decl) (a : t) : Affine.t option =
  let rec go dims affs acc =
    match (dims, affs) with
    | [], [] -> Some acc
    | _ :: rest_dims, Some f :: rest ->
        let stride = List.fold_left ( * ) 1 rest_dims in
        go rest_dims rest (Affine.add acc (Affine.scale stride f))
    | _, None :: _ -> None
    | _ -> None
  in
  if List.length decl.a_dims <> List.length a.affine then None
  else go decl.a_dims a.affine Affine.zero

(** Does the access vary with loop index [v]? Exact for affine accesses,
    conservative (true) for non-affine ones that mention [v]. *)
let varies_with (a : t) v =
  let rec go v subs affs =
    match (subs, affs) with
    | sub :: subs, aff :: affs ->
        (match aff with
        | Some f -> Affine.coeff f v <> 0
        | None -> Loop_nest.expr_uses_var v sub)
        || go v subs affs
    | _ -> false
  in
  go v a.subs a.affine

(** Loop indices (from the access's own context) the access varies with. *)
let varying_indices a = List.filter (varies_with a) (indices a)

let pp fmt a =
  Format.fprintf fmt "%s %s%a"
    (match a.kind with Read -> "read" | Write -> "write")
    a.array
    (fun fmt subs ->
      List.iter (fun s -> Format.fprintf fmt "[%a]" Pretty.pp_expr s) subs)
    a.subs
