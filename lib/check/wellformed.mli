(** Structural well-formedness: declared-before-use scalars and arrays,
    subscript arity vs. declared rank, loop-index shadowing and
    assignment, positive strides, loops not nested under conditionals,
    plus advisory findings for zero-trip loops and narrowing stores.
    Pure — never raises. *)

open Ir

(** Every finding at [min_severity] (default [Info]) or above; the
    advisory checks below it are skipped, not filtered. *)
val check : ?min_severity:Diag.severity -> Ast.kernel -> Diag.t list
