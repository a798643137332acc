(** Abstract syntax for the affine loop-nest language.

    This is the IR that every compiler pass operates on. It models the
    paper's input domain (Section 2.4): loop nests over scalar and array
    variables, no pointers, affine subscript expressions with a fixed
    stride, constant loop bounds, and structured control flow whose memory
    accesses the hardware performs conditionally.

    Two constructs exist only in *transformed* code, never in source
    programs: [Rotate], the register-bank rotation emitted by scalar
    replacement for reuse carried by an outer loop, and register scalars
    introduced by the compiler (tracked in {!kernel.k_scalars}). *)

(** Source location carried from the frontend onto declarations and
    loops. Spans are metadata only: they never participate in derived
    equality or comparison, so a parsed kernel and a programmatically
    built kernel with the same structure compare equal. *)
type span = { sp_line : int; sp_col : int }
[@@deriving show { with_path = false }, eq, ord]

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr
  | Min
  | Max
[@@deriving show { with_path = false }, eq, ord]

type unop = Neg | Not | Bnot | Abs [@@deriving show { with_path = false }, eq, ord]

type expr =
  | Int of int
  | Var of string
  | Arr of string * expr list  (** array read; one subscript per dimension *)
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Cond of expr * expr * expr  (** C ternary [c ? t : e] *)
[@@deriving show { with_path = false }, eq, ord]

type lvalue =
  | Lvar of string
  | Larr of string * expr list
[@@deriving show { with_path = false }, eq, ord]

type stmt =
  | Assign of lvalue * expr
  | If of expr * stmt list * stmt list
  | For of loop
  | Rotate of string list
      (** [Rotate [r0; ...; rn]] left-rotates a register bank: afterwards
          [r0] holds the old [r1], ..., [rn] holds the old [r0]. All
          transfers happen in parallel in hardware. *)

and loop = {
  index : string;
  lo : int;  (** inclusive lower bound *)
  hi : int;  (** exclusive upper bound; the loop runs while [index < hi] *)
  step : int;  (** positive stride *)
  body : stmt list;
  l_span : (span option[@equal fun _ _ -> true] [@compare fun _ _ -> 0]);
      (** where the [for] keyword appeared, when parsed from source *)
}
[@@deriving show { with_path = false }, eq, ord]

type array_decl = {
  a_name : string;
  a_elem : Dtype.t;
  a_dims : int list;  (** extent per dimension, outermost first *)
  a_span : (span option[@equal fun _ _ -> true] [@compare fun _ _ -> 0]);
}
[@@deriving show { with_path = false }, eq, ord]

(** How a scalar came to exist; the estimator charges register area for
    compiler-introduced registers but not for loop indices (which live in
    the controller), and code generation initialises [`Param] scalars from
    the host. *)
type scalar_kind = Param | Register | Temp
[@@deriving show { with_path = false }, eq, ord]

type scalar_decl = {
  s_name : string;
  s_elem : Dtype.t;
  s_kind : scalar_kind;
  s_span : (span option[@equal fun _ _ -> true] [@compare fun _ _ -> 0]);
}
[@@deriving show { with_path = false }, eq, ord]

type kernel = {
  k_name : string;
  k_arrays : array_decl list;
  k_scalars : scalar_decl list;
  k_body : stmt list;
}
[@@deriving show { with_path = false }, eq, ord]

let loop_trip { lo; hi; step; _ } =
  if step <= 0 then invalid_arg "Ast.loop_trip: nonpositive step";
  if hi <= lo then 0 else ((hi - lo) + step - 1) / step

let array_decl ?(elem = Dtype.int32) ?span name dims =
  { a_name = name; a_elem = elem; a_dims = dims; a_span = span }

let scalar_decl ?(elem = Dtype.int32) ?(kind = Temp) ?span name =
  { s_name = name; s_elem = elem; s_kind = kind; s_span = span }

let find_array k name = List.find_opt (fun a -> a.a_name = name) k.k_arrays

let find_scalar k name = List.find_opt (fun s -> s.s_name = name) k.k_scalars

let array_size a = List.fold_left ( * ) 1 a.a_dims

(** Element type of an expression, with declared element types looked
    up through [scalar] and [array] ([None] for an undeclared name).
    Intermediate expressions take the join of their operand types;
    comparisons and logical operators produce a 1-bit value that we widen
    back on use, so for area purposes we report the operand join. *)
let rec expr_type_in ~scalar ~array = function
  | Int _ -> Dtype.int32
  | Var v -> Option.value ~default:Dtype.int32 (scalar v)
  | Arr (a, _) -> Option.value ~default:Dtype.int32 (array a)
  | Bin (_, a, b) ->
      Dtype.join (expr_type_in ~scalar ~array a) (expr_type_in ~scalar ~array b)
  | Un (_, e) -> expr_type_in ~scalar ~array e
  | Cond (_, t, e) ->
      Dtype.join (expr_type_in ~scalar ~array t) (expr_type_in ~scalar ~array e)

(** Type wide enough to hold the *full* result of the expression without
    overflow — the width synthesis would give the wire. A register
    declared at this width behaves exactly like the unmaterialised
    expression, which is what lets LICM introduce temporaries without
    changing wrap-around behaviour. *)
let rec result_type_in ~scalar ~array e =
  let wide bits signed = Dtype.make ~bits:(min bits 64) ~signed in
  let rt = result_type_in ~scalar ~array in
  match e with
  | Int n ->
      let rec need b = if n >= -(1 lsl (b - 1)) && n < 1 lsl (b - 1) then b else need (b + 1) in
      wide (need 8) true
  | Var _ | Arr _ -> expr_type_in ~scalar ~array e
  | Un (Neg, a) ->
      let t = rt a in
      wide (Dtype.bits t + 1) true
  | Un ((Not | Bnot | Abs), a) -> rt a
  | Bin (Mul, a, b) ->
      let ta = rt a and tb = rt b in
      wide (Dtype.bits ta + Dtype.bits tb) (Dtype.is_signed ta || Dtype.is_signed tb)
  | Bin ((Add | Sub), a, b) ->
      let ta = rt a and tb = rt b in
      wide (max (Dtype.bits ta) (Dtype.bits tb) + 1) true
  | Bin (Shl, a, Int s) when s >= 0 && s < 32 ->
      let ta = rt a in
      wide (Dtype.bits ta + s) (Dtype.is_signed ta)
  | Bin ((Lt | Le | Gt | Ge | Eq | Ne | And | Or), _, _) ->
      Dtype.make ~bits:8 ~signed:false
  | Bin ((Div | Mod | Band | Bor | Bxor | Shr | Min | Max | Shl), a, b) ->
      let ta = rt a and tb = rt b in
      Dtype.join ta tb
  | Cond (_, t, e') -> Dtype.join (rt t) (rt e')

let scalar_elem k v = Option.map (fun s -> s.s_elem) (find_scalar k v)
let array_elem k a = Option.map (fun d -> d.a_elem) (find_array k a)
let expr_type k = expr_type_in ~scalar:(scalar_elem k) ~array:(array_elem k)
let result_type k = result_type_in ~scalar:(scalar_elem k) ~array:(array_elem k)

(* ------------------------------------------------------------------ *)
(* Traversals *)

let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Int _ | Var _ -> acc
  | Arr (_, subs) -> List.fold_left (fold_expr f) acc subs
  | Bin (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Un (_, a) -> fold_expr f acc a
  | Cond (c, t, e) -> fold_expr f (fold_expr f (fold_expr f acc c) t) e

let rec fold_stmt ~stmt ~expr acc s =
  let acc = stmt acc s in
  match s with
  | Assign (lv, e) ->
      let acc =
        match lv with
        | Lvar _ -> acc
        | Larr (_, subs) -> List.fold_left (fold_expr expr) acc subs
      in
      fold_expr expr acc e
  | If (c, t, e) ->
      let acc = fold_expr expr acc c in
      let acc = List.fold_left (fold_stmt ~stmt ~expr) acc t in
      List.fold_left (fold_stmt ~stmt ~expr) acc e
  | For l -> List.fold_left (fold_stmt ~stmt ~expr) acc l.body
  | Rotate _ -> acc

let fold_stmts ~stmt ~expr acc body =
  List.fold_left (fold_stmt ~stmt ~expr) acc body

(** [List.map] that returns the input list physically unchanged when [f]
    maps every element to itself (physically). Rewrites over large
    transformed bodies touch a small fraction of the tree; preserving
    sharing keeps them (and the GC) linear in the *changed* part. *)
let rec map_sharing f l =
  match l with
  | [] -> []
  | x :: rest ->
      let x' = f x in
      let rest' = map_sharing f rest in
      if x' == x && rest' == rest then l else x' :: rest'

(** Bottom-up expression rewriting; shares unchanged subtrees. *)
let map_expr f e =
  let rec go e =
    let e' =
      match e with
      | Int _ | Var _ -> e
      | Arr (a, subs) ->
          let subs' = map_sharing go subs in
          if subs' == subs then e else Arr (a, subs')
      | Bin (op, a, b) ->
          let a' = go a and b' = go b in
          if a' == a && b' == b then e else Bin (op, a', b')
      | Un (op, a) ->
          let a' = go a in
          if a' == a then e else Un (op, a')
      | Cond (c, t, el) ->
          let c' = go c and t' = go t and el' = go el in
          if c' == c && t' == t && el' == el then e else Cond (c', t', el')
    in
    f e'
  in
  go e

(** Rewrite every expression (including lvalue subscripts) in a
    statement; shares unchanged subtrees. *)
let rec map_stmt_exprs f s =
  match s with
  | Assign (lv, e) ->
      let lv' =
        match lv with
        | Lvar _ -> lv
        | Larr (a, subs) ->
            let subs' = map_sharing (map_expr f) subs in
            if subs' == subs then lv else Larr (a, subs')
      in
      let e' = map_expr f e in
      if lv' == lv && e' == e then s else Assign (lv', e')
  | If (c, t, e) ->
      let c' = map_expr f c in
      let t' = map_sharing (map_stmt_exprs f) t in
      let e' = map_sharing (map_stmt_exprs f) e in
      if c' == c && t' == t && e' == e then s else If (c', t', e')
  | For l ->
      let body' = map_sharing (map_stmt_exprs f) l.body in
      if body' == l.body then s else For { l with body = body' }
  | Rotate _ -> s

let map_body_exprs f body = map_sharing (map_stmt_exprs f) body

(** Substitute expression [by] for every occurrence of variable [v]. *)
let subst_var v by body =
  map_body_exprs (function Var x when x = v -> by | e -> e) body

(** All loop index names bound anywhere within [body]. *)
let bound_indices body =
  fold_stmts
    ~stmt:(fun acc s -> match s with For l -> l.index :: acc | _ -> acc)
    ~expr:(fun acc _ -> acc)
    [] body

(** Scalars read or written in [body] (excluding loop indices). *)
let scalars_used body =
  let add acc v = if List.mem v acc then acc else v :: acc in
  let acc =
    fold_stmts
      ~stmt:(fun acc s ->
        match s with
        | Assign (Lvar v, _) -> add acc v
        | Rotate rs -> List.fold_left add acc rs
        | _ -> acc)
      ~expr:(fun acc e -> match e with Var v -> add acc v | _ -> acc)
      [] body
  in
  let bound = bound_indices body in
  List.filter (fun v -> not (List.mem v bound)) acc

(** Arrays referenced (read or written) in [body]. *)
let arrays_used body =
  let add acc v = if List.mem v acc then acc else v :: acc in
  fold_stmts
    ~stmt:(fun acc s ->
      match s with Assign (Larr (a, _), _) -> add acc a | _ -> acc)
    ~expr:(fun acc e -> match e with Arr (a, _) -> add acc a | _ -> acc)
    [] body
