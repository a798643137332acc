(** Fresh-name generation that avoids every identifier already present in
    a kernel (arrays, scalars, loop indices). *)

type t

val of_kernel : Ir.Ast.kernel -> t
val reserve : t -> string -> unit

(** [fresh t base] returns [base] if unused, otherwise [base_0],
    [base_1], ... The result is reserved. The scan resumes where the
    previous [fresh] of the same base stopped, so repeated calls on one
    base cost O(1) each. *)
val fresh : t -> string -> string
