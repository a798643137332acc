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
let coeff t v = try List.assoc v t.terms with Not_found -> 0
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

(** Linearize an AST expression into an affine form over the variables it
    mentions. Returns [None] for non-affine expressions (products of
    variables, divisions by non-constants, modulus, array reads,
    conditionals...). Division by a constant is accepted only when it
    divides the form exactly (all coefficients and the constant), which
    keeps the result exact. *)
let rec of_expr (e : Ast.expr) : t option =
  let open Ast in
  match e with
  | Int n -> Some (const n)
  | Var v -> Some (var v)
  | Un (Neg, a) -> Option.map neg (of_expr a)
  | Bin (Add, a, b) -> map2 add a b
  | Bin (Sub, a, b) -> map2 sub a b
  | Bin (Mul, a, b) -> (
      match (of_expr a, of_expr b) with
      | Some fa, Some fb -> mul fa fb
      | _ -> None)
  | Bin (Div, a, b) -> (
      match (of_expr a, of_expr b) with
      | Some fa, Some fb when is_const fb -> div fa fb.const
      | _ -> None)
  | _ -> None

and map2 f a b =
  match (of_expr a, of_expr b) with
  | Some fa, Some fb -> Some (f fa fb)
  | _ -> None

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
  match List.fold_left combine None t.terms with
  | None -> Int t.const
  | Some e ->
      if t.const = 0 then e
      else if t.const > 0 then Bin (Add, e, Int t.const)
      else Bin (Sub, e, Int (-t.const))

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
