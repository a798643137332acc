(** Collection and affine classification of array accesses.

    Every analysis and the memory side of the estimator work on the list
    of array accesses of a (possibly transformed) loop body, each
    annotated with its affine subscript functions over the enclosing loop
    indices and with the loop context it appears in. *)

open Ir

type kind = Read | Write

val pp_kind : Format.formatter -> kind -> unit
val equal_kind : kind -> kind -> bool
val compare_kind : kind -> kind -> int

type t = {
  id : int;  (** unique within one [collect] result *)
  array : string;
  kind : kind;
  subs : Ast.expr list;  (** raw subscript expressions *)
  affine : Affine.t option list;  (** affine form per dimension, if any *)
  loops : Ast.loop list;  (** enclosing loops, outermost first *)
  guarded : bool;  (** syntactically under an [if] *)
}

val indices : t -> string list
val is_read : t -> bool
val is_write : t -> bool
val is_affine : t -> bool

(** Affine forms of all dimensions; raises [Invalid_argument] when a
    dimension is non-affine. *)
val affine_exn : t -> Affine.t list

(** Collect accesses in execution (document) order. Reads nested inside
    subscripts of other accesses are collected as accesses too. Accesses
    in the body of one loop (outside its inner loops) share one
    physical [loops] list. *)
val collect : Ast.stmt list -> t list

val reads : t list -> t list
val writes : t list -> t list

(** Accesses grouped per array, sorted by array name. *)
val to_array_map : t list -> (string * t list) list

(** Subscripts linearized into one affine form using the array's
    row-major layout, e.g. [A[i][j]] with dims [[n; m]] becomes
    [m*i + j]. [None] if any subscript is non-affine. *)
val linearized : Ast.array_decl -> t -> Affine.t option

(** Does the access vary with the loop index? Exact for affine accesses,
    conservative for non-affine ones. *)
val varies_with : t -> string -> bool

val varying_indices : t -> string list
val pp : Format.formatter -> t -> unit
