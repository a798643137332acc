(** Affine forms [c1*i1 + ... + cn*in + b] over loop index variables.

    The paper's input domain restricts array subscripts to affine
    expressions of the loop indices (Section 2.4); every analysis —
    dependence testing, uniformly generated sets, reuse, data layout —
    works on this normal form rather than on raw syntax. *)

type t = {
  terms : (string * int) list;
      (** coefficient per variable, sorted by name, coefficients nonzero *)
  const : int;
}
[@@deriving show { with_path = false }, eq, ord]

let normalize terms =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) terms in
  (* merge duplicate variables, then drop zero coefficients *)
  let rec merge_dups = function
    | (v1, c1) :: (v2, c2) :: rest when v1 = v2 -> merge_dups ((v1, c1 + c2) :: rest)
    | t :: rest -> t :: merge_dups rest
    | [] -> []
  in
  List.filter (fun (_, c) -> c <> 0) (merge_dups sorted)

let make terms const = { terms = normalize terms; const }
let const c = { terms = []; const = c }
let zero = const 0
let var ?(coeff = 1) v = make [ (v, coeff) ] 0
let is_const t = t.terms = []
let const_part t = t.const
let rec coeff_in v = function
  | [] -> 0
  | (w, c) :: rest -> if String.equal w v then c else coeff_in v rest

let coeff t v = coeff_in v t.terms
let vars t = List.map fst t.terms

(* Two normalized term lists merge into a sorted, duplicate-free list
   without a re-sort; only coefficients that cancel drop out. *)
let rec merge a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | ((va, ca) as ta) :: ra, ((vb, cb) as tb) :: rb ->
      let cmp = String.compare va vb in
      if cmp = 0 then
        let c = ca + cb in
        if c = 0 then merge ra rb else (va, c) :: merge ra rb
      else if cmp < 0 then ta :: merge ra b
      else tb :: merge a rb

let add a b = { terms = merge a.terms b.terms; const = a.const + b.const }

let neg a =
  { terms = List.map (fun (v, c) -> (v, -c)) a.terms; const = -a.const }

let sub a b = add a (neg b)

let scale k a =
  if k = 0 then zero
  else { terms = List.map (fun (v, c) -> (v, k * c)) a.terms; const = k * a.const }

(** Multiplication of affine forms is affine only when one side is
    constant. *)
let mul a b =
  if is_const a then Some (scale a.const b)
  else if is_const b then Some (scale b.const a)
  else None

(** Exact division by a constant: [None] unless [d] is nonzero and
    divides every coefficient and the constant. *)
let div a d =
  if d <> 0 && a.const mod d = 0 && List.for_all (fun (_, c) -> c mod d = 0) a.terms
  then Some { terms = List.map (fun (v, c) -> (v, c / d)) a.terms; const = a.const / d }
  else None

(* Bottom-up linearization: each operand's form first, then {!add},
   {!scale}, {!mul} or {!div}. Where a variable occurs more than once,
   the form keeps the name of the occurrence that [merge] keeps. *)
let rec of_expr_tree (e : Ast.expr) : t option =
  let open Ast in
  match e with
  | Int n -> Some (const n)
  | Var v -> Some (var v)
  | Un (Neg, a) -> Option.map neg (of_expr_tree a)
  | Bin (Add, a, b) -> map2 add a b
  | Bin (Sub, a, b) -> map2 sub a b
  | Bin (Mul, a, b) -> (
      match (of_expr_tree a, of_expr_tree b) with
      | Some fa, Some fb -> mul fa fb
      | _ -> None)
  | Bin (Div, a, b) -> (
      match (of_expr_tree a, of_expr_tree b) with
      | Some fa, Some fb when is_const fb -> div fa fb.const
      | _ -> None)
  | _ -> None

and map2 f a b =
  match (of_expr_tree a, of_expr_tree b) with
  | Some fa, Some fb -> Some (f fa fb)
  | _ -> None

exception Repeated

(* [c*v] added to a sorted term list that does not mention [v]. *)
let rec insert v c = function
  | [] -> [ (v, c) ]
  | ((w, _) as t) :: rest as l ->
      let cmp = String.compare v w in
      if cmp = 0 then raise_notrace Repeated
      else if cmp < 0 then (v, c) :: l
      else t :: insert v c rest

(* The constant part of [k*e]; [Exit] when [e] is not affine. *)
let rec const_of k (e : Ast.expr) =
  match e with
  | Int n -> k * n
  | Var _ -> 0
  | Un (Neg, a) -> const_of (-k) a
  | Bin (Add, a, b) -> const_of k a + const_of k b
  | Bin (Sub, a, b) -> const_of k a + const_of (-k) b
  | Bin (Mul, Int c, b) -> const_of (k * c) b
  | Bin (Mul, a, Int c) -> const_of (k * c) a
  | Bin ((Mul | Div), _, _) -> (
      match of_expr_tree e with Some f -> k * f.const | None -> raise_notrace Exit)
  | _ -> raise_notrace Exit

(* [acc] plus the terms of [k*e], for an affine [e]; [Repeated] when a
   variable occurs twice. *)
let rec terms_of k (e : Ast.expr) acc =
  match e with
  | Int _ -> acc
  | Var v -> if k = 0 then acc else insert v k acc
  | Un (Neg, a) -> terms_of (-k) a acc
  | Bin (Add, a, b) -> terms_of k b (terms_of k a acc)
  | Bin (Sub, a, b) -> terms_of (-k) b (terms_of k a acc)
  | Bin (Mul, Int c, b) -> terms_of (k * c) b acc
  | Bin (Mul, a, Int c) -> terms_of (k * c) a acc
  | _ -> (
      match of_expr_tree e with
      | Some f ->
          List.fold_left
            (fun acc (v, c) -> if k * c = 0 then acc else insert v (k * c) acc)
            acc f.terms
      | None -> acc)

(** Linearize an AST expression into an affine form over the variables it
    mentions. Returns [None] for non-affine expressions (products of
    variables, divisions by non-constants, modulus, array reads,
    conditionals...). Division by a constant is accepted only when it
    divides the form exactly (all coefficients and the constant), which
    keeps the result exact.

    Two walks, one for the constant and one for the terms, add [k*e]
    for each subexpression [e] at scale [k] straight into the result, so
    sums, negations and products by a literal build no intermediate
    form. A general product or a division, and an expression naming a
    variable twice, take the bottom-up path instead; without repeated
    variables both paths give the same form, variable names included. *)
let of_expr (e : Ast.expr) : t option =
  match const_of 1 e with
  | const -> (
      match terms_of 1 e [] with
      | terms -> Some { terms; const }
      | exception Repeated -> of_expr_tree e)
  | exception Exit -> None

(** [to_expr] of a form whose terms alone are spelled [terms] ([None]
    when it has none) and whose constant is [c]. *)
let with_const (terms : Ast.expr option) c : Ast.expr =
  match terms with
  | None -> Ast.Int c
  | Some e -> if c = 0 then e else if c > 0 then Ast.Bin (Add, e, Int c) else Ast.Bin (Sub, e, Int (-c))

(** Reconstruct a compact AST expression, e.g. [2*i + j - 3]. *)
let to_expr t : Ast.expr =
  let open Ast in
  let term (v, c) =
    if c = 1 then Var v
    else if c = -1 then Un (Neg, Var v)
    else Bin (Mul, Int c, Var v)
  in
  let combine acc (v, c) =
    match acc with
    | None -> Some (term (v, c))
    | Some e ->
        if c >= 0 then Some (Bin (Add, e, if c = 1 then Var v else Bin (Mul, Int c, Var v)))
        else Some (Bin (Sub, e, if c = -1 then Var v else Bin (Mul, Int (-c), Var v)))
  in
  with_const (List.fold_left combine None t.terms) t.const

let eval ~env t =
  List.fold_left (fun acc (v, c) -> acc + (c * env v)) t.const t.terms

(** Substitute affine form [by] for variable [v]. *)
let subst t v by =
  let c = coeff t v in
  if c = 0 then t
  else
    let without =
      { t with terms = List.filter (fun (x, _) -> x <> v) t.terms }
    in
    add without (scale c by)

(** Two forms are uniformly generated (Section 4 of the paper) when their
    variable coefficients agree; they then differ only by a constant. *)
let uniformly_generated a b =
  List.equal (fun (v, c) (w, d) -> String.equal v w && c = d) a.terms b.terms

(** Constant difference [b - a] of two uniformly generated forms. *)
let ug_distance a b =
  if uniformly_generated a b then Some (b.const - a.const) else None

let to_string t = Pretty.expr_to_string (to_expr t)
