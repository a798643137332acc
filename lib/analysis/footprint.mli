(** Array footprints: per array, the elements a kernel may read, must
    read, may write and must write — the image of its iteration domain
    under its array accesses. Translation validation compares the
    footprints of a stage's input and output; the tier-1 memory floor
    counts the must-sets of the source. *)

open Ir

type array_fp = {
  size : int;  (** linearized element count *)
  flags : Bytes.t;
      (** one byte per element: the bits of the {!sets} it is in *)
  mutable oob_read : bool;  (** some read resolved outside the box *)
  mutable oob_write : bool;
}

(** A union of the four sets, one bit each. *)
type sets = int

val may_read : sets

(** Read on every execution: outside undecided guards and ternary
    branches. *)
val must_read : sets

val may_write : sets

(** Written on every execution. *)
val must_write : sets

(** [mem fp s i]: element [i] is in some set of [s]. *)
val mem : array_fp -> sets -> int -> bool

(** Puts element [i] into every set of [s]. *)
val add : array_fp -> sets -> int -> unit

(** The elements in some set of [s]. *)
val count : array_fp -> sets -> int

(** [not_covered (a, sa) (b, sb)]: the elements of [a] in some set of
    [sa] and in no set of [sb] of [b], an array of the same size; their
    count and the first one, [-1] when there is none. *)
val not_covered : array_fp * sets -> array_fp * sets -> int * int

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
