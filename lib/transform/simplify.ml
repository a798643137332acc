(** Constant folding and algebraic simplification.

    Unrolling substitutes [i + k] into subscripts, producing shapes like
    [(i + 0)] and [2 * (i + 1)]; simplification restores the compact
    affine forms every later pass pattern-matches on. Branches with
    constant conditions (left behind by peeling) are folded away. *)

open Ir
open Ast

let rec fold_expr (e : expr) : expr =
  match e with
  | Int _ | Var _ -> e
  | Arr (a, subs) ->
      let subs' = Ast.map_sharing fold_expr subs in
      if subs' == subs then e else Arr (a, subs')
  | Un (op, a) -> (
      let a' = fold_expr a in
      match (op, a') with
      | Neg, Int n -> Int (-n)
      | Not, Int n -> Int (if n = 0 then 1 else 0)
      | Bnot, Int n -> Int (lnot n)
      | Abs, Int n -> Int (abs n)
      | Neg, Un (Neg, x) -> x
      | _ -> if a' == a then e else Un (op, a'))
  | Cond (c, t, el) -> (
      let c' = fold_expr c in
      match c' with
      | Int 0 -> fold_expr el
      | Int _ -> fold_expr t
      | _ ->
          let t' = fold_expr t and el' = fold_expr el in
          if c' == c && t' == t && el' == el then e else Cond (c', t', el'))
  | Bin (op, a0, b0) -> (
      let a = fold_expr a0 and b = fold_expr b0 in
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
      (* Re-associate constants: (x + c1) + c2 and (x + c1) - c2 etc. *)
      | Add, Bin (Add, x, Int c1), Int c2 -> fold_expr (Bin (Add, x, Int (c1 + c2)))
      | Add, Bin (Sub, x, Int c1), Int c2 -> fold_expr (Bin (Add, x, Int (c2 - c1)))
      | Sub, Bin (Add, x, Int c1), Int c2 -> fold_expr (Bin (Add, x, Int (c1 - c2)))
      | Sub, Bin (Sub, x, Int c1), Int c2 -> fold_expr (Bin (Sub, x, Int (c1 + c2)))
      | _ -> if a == a0 && b == b0 then e else Bin (op, a, b))

(* ------------------------------------------------------------------ *)
(* Canonical affine spellings *)

(* [terms_ok e ~bounded ~below] holds when [e] spells a nonempty term
   list the way [Affine.to_expr] does — first term [v], [-v] or [c*v]
   with [c] not in {-1, 0, 1}, then [+ v], [- v], [+ c*v] or [- c*v]
   with [c >= 2] — in strictly increasing variable order, every
   variable below [below] when [bounded]. Allocation-free. *)
let rec terms_ok e ~bounded ~below =
  match e with
  | Var v | Un (Neg, Var v) -> fits v ~bounded ~below
  | Bin (Mul, Int c, Var v) -> c <> 0 && c <> 1 && c <> -1 && fits v ~bounded ~below
  | Bin ((Add | Sub), p, Var v) ->
      fits v ~bounded ~below && terms_ok p ~bounded:true ~below:v
  | Bin ((Add | Sub), p, Bin (Mul, Int c, Var v)) ->
      c >= 2 && fits v ~bounded ~below && terms_ok p ~bounded:true ~below:v
  | _ -> false

and fits v ~bounded ~below = (not bounded) || String.compare v below < 0

(** [e] is spelled [Affine.to_expr] of its form. *)
let canonical e =
  match e with
  | Int _ -> true
  | Bin ((Add | Sub), p, Int c) -> c > 0 && terms_ok p ~bounded:false ~below:""
  | _ -> terms_ok e ~bounded:false ~below:""

(* The form of a canonical spelling, read off its left spine in one
   walk: the spine ends at the first term, so consing from the root
   yields the terms already sorted. *)
let decode (e : expr) : Affine.t =
  let rec terms e acc =
    match e with
    | Var v -> (v, 1) :: acc
    | Un (Neg, Var v) -> (v, -1) :: acc
    | Bin (Mul, Int c, Var v) -> (v, c) :: acc
    | Bin (Add, p, Var v) -> terms p ((v, 1) :: acc)
    | Bin (Add, p, Bin (Mul, Int c, Var v)) -> terms p ((v, c) :: acc)
    | Bin (Sub, p, Var v) -> terms p ((v, -1) :: acc)
    | Bin (Sub, p, Bin (Mul, Int c, Var v)) -> terms p ((v, -c) :: acc)
    | _ -> invalid_arg "Simplify.decode: not a canonical affine spelling"
  in
  match e with
  | Int n -> Affine.const n
  | Bin (Add, p, Int c) -> { Affine.terms = terms p []; const = c }
  | Bin (Sub, p, Int c) -> { Affine.terms = terms p []; const = -c }
  | _ -> { Affine.terms = terms e []; const = 0 }

(** Normalise an expression through its affine form when possible — the
    canonical shape later passes compare syntactically. Returns the
    input physically unchanged when it is already in canonical form. *)
let canon_expr e =
  let e' = fold_expr e in
  if e' == e && canonical e then e
  else
    match Affine.of_expr e' with
    | None -> e'
    | Some f ->
        let c = Affine.to_expr f in
        if c = e then e else c

(* ------------------------------------------------------------------ *)
(* Substitution into canonical spellings *)

type index_value = Shifted of int | Fixed of int

(* [Ast.subst_var] of [index + value] or [value], with every canonical
   affine subtree that mentions [index] respelled from its substituted
   form ([index + c] keeps the term spine and moves the constant):
   {!run} then finds those subtrees canonical. Stored-to subscripts are
   canonicalized only at their root ({!canon_expr}), so below a
   non-canonical one the substitution stays plain. *)
let subst_index index value body =
  let by = match value with Shifted c -> Bin (Add, Var index, Int c) | Fixed c -> Int c in
  let mentions =
    Ast.fold_expr
      (fun acc x -> acc || match x with Var v -> String.equal v index | _ -> false)
      false
  in
  let plain = Ast.map_expr (function Var x when String.equal x index -> by | e -> e) in
  let respell e =
    if not (mentions e) then e
    else
      let f = decode e in
      match value with
      | Shifted c ->
          let spine = match e with Bin ((Add | Sub), p, Int _) -> p | _ -> e in
          Affine.with_const (Some spine) (f.const + (List.assoc index f.terms * c))
      | Fixed c ->
          (* the plain substitution when it is already canonical: it
             keeps the subtrees that do not mention [index], as
             simplifying it would *)
          let p = plain e in
          if canonical p then p else Affine.to_expr (Affine.subst f index (Affine.const c))
  in
  let rec go e =
    if canonical e then respell e
    else
      match e with
      | Int _ | Var _ -> e
      | Arr (a, subs) ->
          let subs' = Ast.map_sharing go subs in
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
  let stored e = if canonical e then respell e else plain e in
  let rec stmt s =
    match s with
    | Assign (lv, e) ->
        let lv' =
          match lv with
          | Lvar _ -> lv
          | Larr (a, subs) ->
              let subs' = Ast.map_sharing stored subs in
              if subs' == subs then lv else Larr (a, subs')
        in
        let e' = go e in
        if lv' == lv && e' == e then s else Assign (lv', e')
    | If (c, t, el) ->
        let c' = go c and t' = Ast.map_sharing stmt t and el' = Ast.map_sharing stmt el in
        if c' == c && t' == t && el' == el then s else If (c', t', el')
    | For l ->
        let body' = Ast.map_sharing stmt l.body in
        if body' == l.body then s else For { l with body = body' }
    | Rotate _ -> s
  in
  Ast.map_sharing stmt body

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

(* ------------------------------------------------------------------ *)
(* One bottom-up canonicalization pass *)

(* What [canon] reports about the expression it returns, in place of a
   re-walk: whether it is affine (what [Affine.of_expr] accepts) and, if
   so, its constant part and whether it has variable terms, the last
   (greatest) of which is [last]. An affine result is always spelled
   [Affine.to_expr] of its form, so [aff] also means "canonical". One
   record serves a whole pass: each call overwrites it for its caller,
   which copies what it needs into locals before the next call. *)
type summary = {
  mutable aff : bool;
  mutable const : int;
  mutable has_terms : bool;
  mutable last : string;
}

let not_affine st e =
  st.aff <- false;
  e

let affine_const st n e =
  st.aff <- true;
  st.const <- n;
  st.has_terms <- false;
  e

let affine_terms st ~const ~last e =
  st.aff <- true;
  st.const <- const;
  st.has_terms <- true;
  st.last <- last;
  e

(* A fresh canonical spelling of [f]. *)
let finish st (f : Affine.t) =
  let rec last = function [ (v, _) ] -> v | _ :: tl -> last tl | [] -> "" in
  st.aff <- true;
  st.const <- f.const;
  st.has_terms <- f.terms <> [];
  st.last <- last f.terms;
  Affine.to_expr f

(* An [Add]/[Sub]/[Mul]/[Div] node over affine operands that is not
   already canonical, with a constant factor or divisor: respelled from
   its operands' forms, or left as it is when the division is inexact. *)
let arith_node st op a b e =
  match op with
  | Add -> finish st (Affine.add (decode a) (decode b))
  | Sub -> finish st (Affine.sub (decode a) (decode b))
  | Mul -> finish st (Option.get (Affine.mul (decode a) (decode b)))
  | Div -> (
      match Affine.div (decode a) (decode b).const with
      | Some f -> finish st f
      | None -> not_affine st e)
  | _ -> not_affine st e

(** [map_expr canon_expr] applies {!canon_expr} at every node, and each
    application re-walks its whole subtree ([fold_expr] and
    [Affine.of_expr] both recurse) — quadratic on the long accumulation
    chains unrolling builds. [canon] computes the same result in one
    bottom-up pass: operands are canonicalized exactly once, folding at
    a node assumes folded operands ({!fold1}), and each operand's
    {!summary} decides the node from its root alone.

    - An affine node whose operands are canonical is itself canonical
      exactly when its root continues their spelling: [p + v] or
      [p - v] with [p] constant-free and ending below [v], [p + c] or
      [p - c] with [c > 0] after a constant-free [p], [c*v] with [c]
      not in {-1, 0, 1}, [-v]. Such a node comes back physically
      unchanged, in O(1) and without allocating.
    - Any other affine node is respelled from its operands' forms,
      {!decode}d from their canonical spellings (one walk of each
      operand's term spine, never of a non-affine operand).
    - When a folding arm fires, an affine result is respelled fresh and
      a non-affine one returned as folded: the folded node is already a
      {!fold_expr} fixpoint, because its parts are.

    The result, its sharing included, is the one
    [canon_expr]-at-every-node gives. *)
let rec canon st (e0 : expr) : expr =
  match e0 with
  | Int n -> affine_const st n e0
  | Var v -> affine_terms st ~const:0 ~last:v e0
  | Arr (a, subs) ->
      let subs' = canon_list st subs in
      not_affine st (if subs' == subs then e0 else Arr (a, subs'))
  | Un (op, a0) -> (
      let a = canon st a0 in
      let aa = st.aff in
      let e = if a == a0 then e0 else Un (op, a) in
      match (op, a) with
      | Neg, Int n -> finish st (Affine.const (-n))
      | Not, Int n -> finish st (Affine.const (if n = 0 then 1 else 0))
      | Bnot, Int n -> finish st (Affine.const (lnot n))
      | Abs, Int n -> finish st (Affine.const (abs n))
      | Neg, Un (Neg, x) ->
          (* [x] is affine exactly when [a] is, and then a variable *)
          if aa then finish st (decode x) else not_affine st x
      | Neg, Var v -> affine_terms st ~const:0 ~last:v e
      | Neg, _ when aa -> finish st (Affine.neg (decode a))
      | _ -> not_affine st e)
  | Cond (c0, t0, el0) -> (
      let c = canon st c0 in
      let t = canon st t0 in
      let ta = st.aff in
      let el = canon st el0 in
      match c with
      | Int 0 -> if st.aff then finish st (decode el) else el
      | Int _ -> if ta then finish st (decode t) else not_affine st t
      | _ ->
          not_affine st
            (if c == c0 && t == t0 && el == el0 then e0 else Cond (c, t, el)))
  | Bin (op, a0, b0) ->
      let a = canon st a0 in
      let aa = st.aff and ac = st.const and at = st.has_terms and al = st.last in
      let b = canon st b0 in
      let ba = st.aff and bt = st.has_terms in
      let e = if a == a0 && b == b0 then e0 else Bin (op, a, b) in
      let e' = fold1 e in
      if e' != e then
        if e' == a then if aa then finish st (decode a) else not_affine st a
        else if e' == b then if ba then finish st (decode b) else not_affine st b
        else
          match e' with
          | Int n -> finish st (Affine.const n)
          | _ ->
              (* a re-associated constant chain [x + c1 + c2]: affine
                 exactly when [a = x + c1] is, with [a + b]'s form *)
              if aa && ba then arith_node st op a b e' else not_affine st e'
      else if not (aa && ba) then not_affine st e
      else begin
        match (op, a, b) with
        | (Add | Sub), _, Var v when ac = 0 && at && String.compare al v < 0 ->
            affine_terms st ~const:0 ~last:v e
        | (Add | Sub), _, Bin (Mul, Int c, Var v)
          when c >= 2 && ac = 0 && at && String.compare al v < 0 ->
            affine_terms st ~const:0 ~last:v e
        | Add, _, Int c when c > 0 && ac = 0 && at -> affine_terms st ~const:c ~last:al e
        | Sub, _, Int c when c > 0 && ac = 0 && at ->
            affine_terms st ~const:(-c) ~last:al e
        | Mul, Int c, Var v when c <> 0 && c <> 1 && c <> -1 ->
            affine_terms st ~const:0 ~last:v e
        | Mul, _, _ when at && bt -> not_affine st e
        | Div, _, _ when bt -> not_affine st e
        | _ -> arith_node st op a b e
      end

and canon_list st l =
  match l with
  | [] -> l
  | x :: rest ->
      let x' = canon st x in
      let rest' = canon_list st rest in
      if x' == x && rest' == rest then l else x' :: rest'

(* Statement results: [Same] keeps the statement, allocating nothing. *)
type change = Same | Changed of stmt list

let rec simpl_stmt st (s : stmt) : change =
  match s with
  | Assign (lv, e) ->
      let lv' =
        match lv with
        | Lvar _ -> lv
        | Larr (a, subs) ->
            let subs' = Ast.map_sharing canon_expr subs in
            if subs' == subs then lv else Larr (a, subs')
      in
      let e' = canon st e in
      if lv' == lv && e' == e then Same else Changed [ Assign (lv', e') ]
  | If (c, t, el) -> (
      let c' = canon st c in
      let t' = simpl_body_st st t and el' = simpl_body_st st el in
      match c' with
      | Int 0 -> Changed el'
      | Int _ -> Changed t'
      | _ ->
          if t' = [] && el' = [] then Changed []
          else if c' == c && t' == t && el' == el then Same
          else Changed [ If (c', t', el') ])
  | For l ->
      let trip = Ast.loop_trip l in
      if trip = 0 then Changed []
      else if trip = 1 then
        (* Single-iteration loops are inlined so that analyses see their
           body's subscripts as constants in the index. *)
        Changed (simpl_body_st st (subst_index l.index (Fixed l.lo) l.body))
      else
        let body' = simpl_body_st st l.body in
        if body' == l.body then Same else Changed [ For { l with body = body' } ]
  | Rotate _ -> Same

and simpl_body_st st body =
  match body with
  | [] -> []
  | s :: rest -> (
      let ss = simpl_stmt st s in
      let rest' = simpl_body_st st rest in
      match ss with
      | Same -> if rest' == rest then body else s :: rest'
      | Changed ss -> ss @ rest')

let fresh_summary () = { aff = false; const = 0; has_terms = false; last = "" }
let simpl_body body = simpl_body_st (fresh_summary ()) body
let run (k : Ast.kernel) : Ast.kernel = { k with k_body = simpl_body k.k_body }

(* ------------------------------------------------------------------ *)
(* Range-based folding *)

(** Fold comparisons between a loop index and a constant using the
    enclosing loop's bounds: with [i] in [lo, hi), [i < c] is true when
    [hi <= c] and false when [c <= lo], and so on. Peeling shifts loop
    bounds, which is what turns the first-iteration guards of scalar
    replacement ([i == lo], [i < lo + d]) into constants. *)
let fold_ranges (k : Ast.kernel) : Ast.kernel =
  let decide env v op c =
    match List.assoc_opt v env with
    | None -> None
    | Some (lo, hi) ->
        if hi <= lo then None
        else begin
          let last = hi - 1 in
          (* conservative: ignore stride, use [lo, hi) *)
          match op with
          | Lt -> if last < c then Some 1 else if lo >= c then Some 0 else None
          | Le -> if last <= c then Some 1 else if lo > c then Some 0 else None
          | Gt -> if lo > c then Some 1 else if last <= c then Some 0 else None
          | Ge -> if lo >= c then Some 1 else if last < c then Some 0 else None
          | Eq ->
              if c < lo || c > last then Some 0
              else if lo = last && c = lo then Some 1
              else None
          | Ne ->
              if c < lo || c > last then Some 1
              else if lo = last && c = lo then Some 0
              else None
          | _ -> None
        end
  in
  let flip = function
    | Lt -> Gt
    | Le -> Ge
    | Gt -> Lt
    | Ge -> Le
    | op -> op
  in
  let rec fold_e env e =
    match e with
    | Bin (((Lt | Le | Gt | Ge | Eq | Ne) as op), Var v, Int c) -> (
        match decide env v op c with Some r -> Int r | None -> e)
    | Bin (((Lt | Le | Gt | Ge | Eq | Ne) as op), Int c, Var v) -> (
        match decide env v (flip op) c with Some r -> Int r | None -> e)
    | Int _ | Var _ -> e
    | Arr (a, subs) ->
        let subs' = Ast.map_sharing (fold_e env) subs in
        if subs' == subs then e else Arr (a, subs')
    | Bin (op, a, b) ->
        let a' = fold_e env a and b' = fold_e env b in
        if a' == a && b' == b then e else Bin (op, a', b')
    | Un (op, a) ->
        let a' = fold_e env a in
        if a' == a then e else Un (op, a')
    | Cond (c, t, e') ->
        let c' = fold_e env c and t' = fold_e env t and e'' = fold_e env e' in
        if c' == c && t' == t && e'' == e' then e else Cond (c', t', e'')
  in
  let rec fold_s env s =
    match s with
    | Assign (Lvar v, e) ->
        let e' = fold_e env e in
        if e' == e then s else Assign (Lvar v, e')
    | Assign (Larr (a, subs), e) ->
        let subs' = Ast.map_sharing (fold_e env) subs in
        let e' = fold_e env e in
        if subs' == subs && e' == e then s else Assign (Larr (a, subs'), e')
    | If (c, t, e) ->
        let c' = fold_e env c in
        let t' = Ast.map_sharing (fold_s env) t in
        let e' = Ast.map_sharing (fold_s env) e in
        if c' == c && t' == t && e' == e then s else If (c', t', e')
    | For l ->
        let env' = (l.index, (l.lo, l.hi)) :: env in
        let body' = Ast.map_sharing (fold_s env') l.body in
        if body' == l.body then s else For { l with body = body' }
    | Rotate _ -> s
  in
  run { k with k_body = Ast.map_sharing (fold_s []) k.k_body }
