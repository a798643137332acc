(** Driver: run every checker pass over a kernel and render findings.
    Shared by [defacto check], CI and the verified explorer. *)

open Ir

type config = {
  options : Transform.Pipeline.options option;
      (** legality/validation against these concrete pipeline options *)
  validate : bool;  (** run the (more expensive) pipeline validation *)
  max_points : int option;  (** footprint enumeration budget *)
}

val default : config

(** The passes a configuration runs, in order: wellformed, bounds,
    uninit, deadstore, legality, and — when [config.validate] —
    validate. (Well-formedness errors short-circuit the rest at run
    time.) *)
val pass_names : config -> string list

(** Wellformed, then (unless well-formedness errored) bounds, the
    dataflow passes (uninit, deadstore), legality and — when
    [config.validate] — pipeline validation. The result is sorted
    deterministically by (span, pass, stage, severity, message). *)
val all : ?config:config -> Ast.kernel -> Diag.t list

(** Deterministic diagnostic order (the sort {!all} applies). *)
val compare_diag : Diag.t -> Diag.t -> int

(** 0 clean (at most Info), 1 warnings, 2 errors. [~fail_on:Warning]
    tightens the threshold: warnings exit 2 as well. *)
val exit_code : ?fail_on:Diag.severity -> Diag.t list -> int

val render_human : ?file:string -> kernel:string -> Diag.t list -> string

(** One kernel's findings as a JSON object (kernel, counts, exit_code,
    diagnostics array). [passes] adds a ["passes"] array tagging which
    passes ran; [fail_on] is reflected in the ["exit_code"] field. *)
val render_json :
  ?file:string ->
  ?fail_on:Diag.severity ->
  ?passes:string list ->
  kernel:string ->
  Diag.t list ->
  string
