(** Array footprints: per array, the elements a kernel may read, must
    read, may write and must write — the image of its iteration domain
    under its array accesses. Translation validation compares the
    footprints of a stage's input and output; the tier-1 memory floor
    counts the must-sets of the source. *)

open Ir

type array_fp = {
  size : int;  (** linearized element count *)
  may_read : Bytes.t;
  must_read : Bytes.t;
      (** read on every execution: outside undecided guards and ternary
          branches *)
  may_write : Bytes.t;
  must_write : Bytes.t;  (** written on every execution *)
  mutable oob_read : bool;  (** some read resolved outside the box *)
  mutable oob_write : bool;
}

type t = {
  arrays : (string * array_fp) list;  (** enumerable arrays, sorted *)
  skipped : (string * string) list;  (** array name, reason *)
}

(** Default budget on statement executions, 2{^24}. *)
val default_max_points : int

(** Arrays declared with more elements than this (2{^24}) are skipped
    and never allocate their sets. *)
val max_elements : int

(** The footprint of [k]. Only scalars that reach a subscript or a
    guard are tracked, and a loop whose sliced body only accesses arrays
    is solved per access in closed form; the result equals statement by
    statement enumeration. Undeclared arrays, arrays with an unevaluable
    subscript or more than {!max_elements} elements, and every array of
    a kernel past [max_points] statement executions or with a
    non-positive stride are [skipped]. *)
val footprint : ?max_points:int -> Ast.kernel -> t
