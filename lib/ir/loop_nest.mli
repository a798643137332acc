(** Utilities over loop nests: nest extraction, trip counts, iteration
    enumeration, and structural validation. *)

(** Loops of a *perfect* nest (each level contains exactly one statement,
    a [For]), outermost first, with the innermost straight-line body. *)
val perfect_nest : Ast.stmt list -> Ast.loop list * Ast.stmt list

(** The loop spine: at each level, descend into the unique [For] among
    the statements (imperfect levels allowed). Empty as soon as a level
    has zero or several loops. *)
val spine : Ast.stmt list -> Ast.loop list

val nest_depth : Ast.stmt list -> int
val spine_indices : Ast.stmt list -> string list

(** Some loop of the body, spine or not, at any depth and under any
    guard, has this index: what a tile request must name. *)
val has_loop : string -> Ast.stmt list -> bool
val trip : Ast.loop -> int

(** Product of the spine loops' trip counts. *)
val total_iterations : Ast.stmt list -> int

(** Iteration vectors of a loop list in lexicographic execution order;
    intended for small test nests (fully materialised). *)
val iteration_vectors : Ast.loop list -> int list list

val expr_uses_var : string -> Ast.expr -> bool

(** Is the expression invariant with respect to the index? Exact for the
    subscript/scalar expressions it is used on. *)
val invariant_in : string -> Ast.expr -> bool

(** Rename a loop's index (binder and uses). *)
val rename_index : Ast.loop -> string -> Ast.loop

(** Replace the innermost body of a perfect nest. *)
val with_innermost : Ast.stmt list -> (Ast.stmt list -> Ast.stmt list) -> Ast.stmt list

(** Check structural invariants (positive steps); raises
    [Invalid_argument] and otherwise returns the kernel unchanged. *)
val validate : Ast.kernel -> Ast.kernel
