(** Affine forms [c1*i1 + ... + cn*in + b] over loop index variables.

    The paper's input domain restricts array subscripts to affine
    expressions of the loop indices (Section 2.4); every analysis —
    dependence testing, uniformly generated sets, reuse, data layout —
    works on this normal form rather than on raw syntax. *)

type t = {
  terms : (string * int) list;
      (** coefficient per variable: sorted by name, merged, nonzero *)
  const : int;
}

val pp : Format.formatter -> t -> unit
val show : t -> string
val equal : t -> t -> bool
val compare : t -> t -> int

(** [make terms const] normalises the term list (sorting, merging
    duplicate variables, dropping zero coefficients). *)
val make : (string * int) list -> int -> t

val const : int -> t
val zero : t
val var : ?coeff:int -> string -> t
val is_const : t -> bool
val const_part : t -> int

(** Coefficient of a variable; 0 when absent. *)
val coeff : t -> string -> int

(** Variables with nonzero coefficients, sorted. *)
val vars : t -> string list

val add : t -> t -> t
val neg : t -> t
val sub : t -> t -> t
val scale : int -> t -> t

(** Product, affine only when one side is constant. *)
val mul : t -> t -> t option

(** Exact division by a constant: [None] unless the divisor is nonzero
    and divides every coefficient and the constant. *)
val div : t -> int -> t option

(** Linearize an AST expression. [None] for non-affine expressions
    (products of variables, array reads, conditionals, inexact
    division). *)
val of_expr : Ast.expr -> t option

(** Reconstruct a compact AST expression, e.g. [2*i + j - 3]. *)
val to_expr : t -> Ast.expr

(** [with_const terms c] is {!to_expr} of a form with constant [c] whose
    terms alone are spelled [terms] ([None] when it has none): a
    spelling that shares [terms]. *)
val with_const : Ast.expr option -> int -> Ast.expr

val eval : env:(string -> int) -> t -> int

(** Substitute an affine form for a variable. *)
val subst : t -> string -> t -> t

(** Two forms are uniformly generated (Section 4 of the paper) when their
    variable coefficients agree; they then differ only by a constant. *)
val uniformly_generated : t -> t -> bool

(** Constant difference [b - a] of two uniformly generated forms. *)
val ug_distance : t -> t -> int option

val to_string : t -> string
