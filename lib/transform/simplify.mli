(** Constant folding and algebraic simplification.

    Unrolling substitutes [i + k] into subscripts, producing shapes like
    [(i + 0)] and [2 * (i + 1)]; simplification restores the compact
    affine forms later passes pattern-match on. Branches with constant
    conditions (left behind by peeling) are folded away; single-iteration
    loops are inlined. *)

open Ir

val fold_expr : Ast.expr -> Ast.expr

(** Canonicalise through the affine form when the expression is affine. *)
val canon_expr : Ast.expr -> Ast.expr

(** The value {!subst_index} substitutes for a loop index. *)
type index_value =
  | Shifted of int  (** [index := index + c]: an unrolled copy *)
  | Fixed of int  (** [index := c]: a peeled or single-iteration copy *)

(** [subst_index index value body] is [Ast.subst_var] of [value], except
    that every canonical affine subtree mentioning [index] is respelled
    with [Affine.to_expr] of its substituted form ([Shifted] keeps its
    term spine and changes the constant). Below a stored-to subscript
    that is not canonical, which {!run} canonicalizes only at its root,
    the substitution stays plain. {!run} gives the same result on both,
    without refolding the respelled subtrees. *)
val subst_index : string -> index_value -> Ast.stmt list -> Ast.stmt list

val simpl_body : Ast.stmt list -> Ast.stmt list
val run : Ast.kernel -> Ast.kernel

(** Fold comparisons between a loop index and a constant using the
    enclosing loop's bounds: with [i] in [lo, hi), [i < c] is true when
    [hi <= c] and false when [c <= lo], and so on. Peeling shifts loop
    bounds, which is what turns the first-iteration guards of scalar
    replacement into constants. Ends with a full [run]. *)
val fold_ranges : Ast.kernel -> Ast.kernel
