(** Post-hoc translation validation of the transformation pipeline:
    after every executed stage the output kernel is structurally
    re-verified and its array-access footprint compared against the
    pre-stage kernel (reads(post) ⊆ reads(pre) ∪ writes(pre),
    writes(post) ⊆ writes(pre), must-writes(pre) ⊆ writes(post)); a
    stage whose output equals its input reuses its input's footprint
    and findings. Footprints come from {!Analysis.Footprint}; the
    arrays it skips are reported as Info findings. Violations are Error
    diagnostics carrying the stage tag. *)

open Ir

(** Error findings for [post]'s footprint against [pre]'s, array by
    array over the arrays both enumerate. *)
val compare_footprints :
  stage:string ->
  pre:Analysis.Footprint.t ->
  post:Analysis.Footprint.t ->
  Diag.t list

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
  ?source_footprint:Analysis.Footprint.t ->
  Ast.kernel ->
  front

(** Apply the pipeline with per-stage validation. The transformed result
    is bit-identical to [Transform.Pipeline.apply options k].
    [source_footprint], when given, must be
    [Analysis.Footprint.footprint ?max_points k]:
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
  ?source_footprint:Analysis.Footprint.t ->
  ?front:front ->
  Ast.kernel ->
  outcome
