(** Abstract syntax for the affine loop-nest language.

    This is the IR every compiler pass operates on. It models the paper's
    input domain (Section 2.4): loop nests over scalar and array
    variables, no pointers, affine subscript expressions with a fixed
    stride, constant loop bounds, and structured control flow whose
    memory accesses the hardware performs conditionally.

    Two constructs exist only in *transformed* code, never in source
    programs: [Rotate], the register-bank rotation emitted by scalar
    replacement for reuse carried by an outer loop, and [Register]
    scalars introduced by the compiler. *)

(** Source location carried from the frontend onto declarations and
    loops. Spans are metadata only: they never participate in derived
    equality or comparison, so a parsed kernel and a programmatically
    built kernel with the same structure compare equal. *)
type span = { sp_line : int; sp_col : int }

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

type unop = Neg | Not | Bnot | Abs

type expr =
  | Int of int
  | Var of string
  | Arr of string * expr list  (** array read; one subscript per dimension *)
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Cond of expr * expr * expr  (** C ternary [c ? t : e] *)

type lvalue = Lvar of string | Larr of string * expr list

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
  l_span : span option;
      (** where the [for] keyword appeared, when parsed from source *)
}

type array_decl = {
  a_name : string;
  a_elem : Dtype.t;
  a_dims : int list;  (** extent per dimension, outermost first *)
  a_span : span option;
}

(** How a scalar came to exist; the estimator charges register area for
    compiler-introduced registers, and code generation initialises
    [Param] scalars from the host. *)
type scalar_kind = Param | Register | Temp

type scalar_decl = {
  s_name : string;
  s_elem : Dtype.t;
  s_kind : scalar_kind;
  s_span : span option;
}

type kernel = {
  k_name : string;
  k_arrays : array_decl list;
  k_scalars : scalar_decl list;
  k_body : stmt list;
}

(** Printers and equalities (ppx_deriving). *)

val pp_span : Format.formatter -> span -> unit
val show_span : span -> string
val equal_span : span -> span -> bool
val pp_binop : Format.formatter -> binop -> unit
val equal_binop : binop -> binop -> bool
val pp_unop : Format.formatter -> unop -> unit
val pp_expr : Format.formatter -> expr -> unit
val show_expr : expr -> string
val equal_expr : expr -> expr -> bool
val pp_stmt : Format.formatter -> stmt -> unit
val show_stmt : stmt -> string
val equal_stmt : stmt -> stmt -> bool
val pp_loop : Format.formatter -> loop -> unit
val pp_kernel : Format.formatter -> kernel -> unit
val show_kernel : kernel -> string
val equal_kernel : kernel -> kernel -> bool

(** Trip count of a loop: how many times its body executes. Raises
    [Invalid_argument] on a non-positive step. *)
val loop_trip : loop -> int

val array_decl : ?elem:Dtype.t -> ?span:span -> string -> int list -> array_decl

val scalar_decl :
  ?elem:Dtype.t -> ?kind:scalar_kind -> ?span:span -> string -> scalar_decl
val find_array : kernel -> string -> array_decl option
val find_scalar : kernel -> string -> scalar_decl option

(** Total element count. *)
val array_size : array_decl -> int

(** Element type of an expression under the kernel's declarations:
    operand join for intermediate expressions. *)
val expr_type : kernel -> expr -> Dtype.t

(** Type wide enough to hold the *full* result of the expression without
    overflow — the width synthesis would give the wire. A register
    declared at this width behaves exactly like the unmaterialised
    expression, which is what lets LICM introduce temporaries without
    changing wrap-around behaviour. *)
val result_type : kernel -> expr -> Dtype.t

(** {!expr_type} and {!result_type} with the declared element type of
    each scalar and array name looked up through [scalar] and [array]
    ([None] when undeclared), for callers that index a large kernel's
    declarations once instead of scanning them per name. *)
val expr_type_in :
  scalar:(string -> Dtype.t option) -> array:(string -> Dtype.t option) -> expr -> Dtype.t

val result_type_in :
  scalar:(string -> Dtype.t option) -> array:(string -> Dtype.t option) -> expr -> Dtype.t

(** Traversals. *)

val fold_expr : ('a -> expr -> 'a) -> 'a -> expr -> 'a

val fold_stmt :
  stmt:('a -> stmt -> 'a) -> expr:('a -> expr -> 'a) -> 'a -> stmt -> 'a

val fold_stmts :
  stmt:('a -> stmt -> 'a) -> expr:('a -> expr -> 'a) -> 'a -> stmt list -> 'a

(** [List.map] that returns the input list physically unchanged when the
    function maps every element to itself (physically); the building
    block of the sharing-preserving rewrites below. *)
val map_sharing : ('a -> 'a) -> 'a list -> 'a list

(** Bottom-up expression rewriting; returns physically equal subtrees
    where the function changes nothing. *)
val map_expr : (expr -> expr) -> expr -> expr

(** Rewrite every expression (including lvalue subscripts) in a statement. *)
val map_stmt_exprs : (expr -> expr) -> stmt -> stmt

val map_body_exprs : (expr -> expr) -> stmt list -> stmt list

(** Substitute an expression for every occurrence of a variable. *)
val subst_var : string -> expr -> stmt list -> stmt list

(** All loop index names bound anywhere within the body. *)
val bound_indices : stmt list -> string list

(** Scalars read or written (excluding loop indices). *)
val scalars_used : stmt list -> string list

(** Arrays referenced (read or written). *)
val arrays_used : stmt list -> string list
