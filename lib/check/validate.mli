(** Post-hoc translation validation of the transformation pipeline:
    after every executed stage the output kernel is structurally
    re-verified and its array-access footprint compared against the
    pre-stage kernel (reads(post) ⊆ reads(pre) ∪ writes(pre),
    writes(post) ⊆ writes(pre), must-writes(pre) ⊆ writes(post)); a
    stage whose output equals its input reuses its input's footprint
    and findings. Violations are Error diagnostics carrying the stage
    tag. *)

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
    Only scalars that reach a subscript or a guard are tracked, and
    names are resolved once, before enumeration: variables to slots of
    an array environment, arrays to their footprint records. A loop
    whose body, so sliced, only accesses arrays is solved per access in
    closed form where its subscripts are affine; the result equals
    statement-by-statement enumeration. Arrays with unevaluable
    subscripts, and every array of a kernel whose statement executions
    exceed [max_points], land in [skipped]. *)
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

(** The validated front of one configuration:
    {!Transform.Pipeline.front} run under the validator, with the
    findings of its stages. It also remembers the verdict of each
    finishing transition validated from it, so a configuration that
    goes through a transition the front has seen reuses that verdict.
    Like the pipeline's front, it is not safe to share across domains. *)
type front

(** [front ~options ?max_points ?source_footprint k] builds and
    validates the first three pipeline stages (tile, unroll-and-jam,
    scalar replacement). A stage failure is recorded, not raised: every
    {!run} from this front then reports it. *)
val front :
  ?options:Transform.Pipeline.options ->
  ?max_points:int ->
  ?source_footprint:t ->
  Ast.kernel ->
  front

(** Apply the pipeline with per-stage validation. The transformed result
    is bit-identical to [Transform.Pipeline.apply options k].
    [source_footprint], when given, must be [footprint ?max_points k]:
    a caller validating many configurations of one kernel computes it
    once instead of once per run. Without [front] nothing is memoized.

    With [front] (from {!front} with the same [k] and [max_points]), the
    stages after the front finish through the pipeline's finishing memo,
    and a transition the front has validated before reuses its verdict
    instead of being validated again. The outcome, diagnostics included
    (in the same order, Info skips too), equals the run without [front].
    A front built for another tile, vector or scalar-replacement setting
    raises [Invalid_argument]. *)
val run :
  ?options:Transform.Pipeline.options ->
  ?max_points:int ->
  ?source_footprint:t ->
  ?front:front ->
  Ast.kernel ->
  outcome
