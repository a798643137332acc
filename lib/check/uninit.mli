(** Uninitialized-read detection: one structural walk over the kernel
    classifies every scalar read, with the {!Bounds} severity
    discipline. A read no definition reaches is a provable hole and an
    error; a read that some but not all paths initialize is a warning.
    [Param] scalars and arrays are host-initialized, so only [Temp] and
    [Register] scalars (and undeclared names, which {!Wellformed}
    already rejects) can be flagged. Reads made by a register bank
    rotation cap at warning: a rotation only moves lane values, so an
    unassigned source lane is a defect only if a later real read
    consumes it. Reads inside zero-trip loop bodies never execute and
    are not reported. No flow graph is built. *)

open Ir

type status =
  | Maybe_uninitialized  (** a definition reaches, but not on every path *)
  | Uninitialized  (** no definition reaches this read *)

(** One scalar read that is not initialized on every path. *)
type site = {
  node : int;
      (** the {!Analysis.Flowgraph.build} node id of the reading
          statement: entry is 0, then statements in preorder *)
  name : string;
  status : status;
  rotation : bool;  (** read by a register bank rotation *)
  span : Ast.span option;  (** the innermost enclosing loop's span *)
}

(** The trip count the structural walks go by: [0] when the body never
    runs, [-1] for a non-positive step (it may run any number of times,
    zero included), otherwise the positive count of a body that surely
    runs. *)
val trip : Ast.loop -> int

(** The sites in node order, one per node and name. *)
val sites : Ast.kernel -> site list

(** The number of error sites of {!check}, without formatting any
    message. *)
val errors : Ast.kernel -> int

(** The sites as diagnostics. [graph] is accepted and unused: the walk
    needs no flow graph. *)
val check : ?graph:Analysis.Flowgraph.t -> Ast.kernel -> Diag.t list
