(** Post-hoc translation validation of the transformation pipeline:
    after every executed stage the output kernel is structurally
    re-verified and its array-access footprint compared against the
    pre-stage kernel (reads(post) ⊆ reads(pre) ∪ writes(pre),
    writes(post) ⊆ writes(pre), must-writes(pre) ⊆ writes(post)).
    Violations are Error diagnostics carrying the stage tag. *)

open Ir

type array_fp = {
  size : int;  (** linearized element count *)
  may_read : Bytes.t;
  may_write : Bytes.t;
  must_write : Bytes.t;
  mutable oob_read : bool;  (** some read resolved outside the box *)
  mutable oob_write : bool;
}

type t = {
  arrays : (string * array_fp) list;  (** enumerable arrays, sorted *)
  skipped : (string * string) list;  (** array name, reason *)
}

val default_max_points : int

(** Per-array element footprint of a kernel, by enumeration with a
    partial evaluator (loop indices and compile-time-known scalars).
    Names are resolved once, before enumeration: variables to slots of
    an array environment, arrays to their footprint records.
    Arrays with unevaluable subscripts, and every array of a kernel
    whose iteration space exceeds [max_points], land in [skipped]. *)
val footprint : ?max_points:int -> Ast.kernel -> t

val compare_footprints : stage:string -> pre:t -> post:t -> Diag.t list

type outcome = {
  result : Transform.Pipeline.result option;
      (** [None] when the pipeline itself failed; the failure is then an
          error diagnostic *)
  diags : Diag.t list;
}

(** Error-severity findings only. *)
val violations : outcome -> Diag.t list

(** Apply the pipeline with per-stage validation. The transformed result
    is bit-identical to [Transform.Pipeline.apply options k].
    [source_footprint], when given, must be [footprint ?max_points k]:
    a caller validating many configurations of one kernel computes it
    once instead of once per run. *)
val run :
  ?options:Transform.Pipeline.options ->
  ?max_points:int ->
  ?source_footprint:t ->
  Ast.kernel ->
  outcome
