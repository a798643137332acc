(** Dead- and redundant-store detection: scalar stores never read again
    (liveness) and array-cell stores provably overwritten before any
    read (anticipated overwrites). All findings are warnings. *)

open Ir

(** [check k] builds the kernel's flow graph (or reuses [graph]) and
    reports dead and redundant stores. *)
val check :
  ?graph:Analysis.Flowgraph.t ->
  Ast.kernel ->
  Diag.t list
