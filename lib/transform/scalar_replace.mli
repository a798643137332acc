(** Scalar replacement (Section 4 of the paper), extended as the paper
    describes relative to Carr-Kennedy: redundant memory writes on output
    dependences are eliminated (store sinking), and reuse is exploited
    across *all* loops of the nest via rotating register banks loaded on
    the first iteration of the carrier loop.

    Four cooperating replacements, in order:

    + {b Hoist/sink} — a pattern invariant with respect to every loop
      deeper than level L loads into a register on entry to level L+1 and
      (if written) stores back on exit (FIR's [D[j]] accumulator);
    + {b Register banks} — a read-only pattern invariant with respect to
      an outer loop but varying inside it gets a bank holding one sweep's
      data, loaded under a [carrier == lo] guard that peeling later
      specialises, rotated once per inner iteration (FIR's [C]);
    + {b Chains} — members at a consistent dependence distance [d] along
      the innermost loop share a rotating chain of [d+1] registers, with
      guarded refills for the first [d] iterations of each sweep (JAC's
      row neighbours);
    + {b Element CSE} — repeated accesses to one element in a body
      collapse onto a register; read-modify-write groups (an accumulator
      whose loop was fully unrolled) load once and store once.

    Patterns without a consistent distance (the coupled [S[i+j]] reads of
    FIR) keep their memory accesses, exactly as in the paper. *)

open Ir

type config = {
  across_loops : bool;  (** banks across outer loops; on in the paper *)
  chains : bool;
  max_chain_span : int;
      (** longest reuse distance a chain may bridge; longer-spanning
          classes keep their memory accesses *)
  max_registers : int;  (** budget for introduced registers *)
}

val default_config : config

type report = {
  hoisted_members : int;
  banks : (string * int) list;  (** array, bank size per member group *)
  chain_lengths : (string * int) list;
  cse_loads : int;
  registers : int;  (** total registers introduced *)
  carriers : string list;  (** loops whose first iteration should be peeled *)
  innermost_peels : int;
      (** leading innermost iterations to peel for chain refills *)
}

val empty_report : report

(** The analysis side of scalar replacement for one source nest (the
    kernel after tiling, before unroll-and-jam): its uniformly generated
    patterns with their coefficient rows and source member offsets.
    Derived once, it is instantiated for each unrolled kernel in closed
    form. It covers perfect nests whose loops run two or more
    iterations around assignments with loop-index affine subscripts and
    no conditional; on any other kernel it instantiates nothing. *)
type plan

val plan : Ast.kernel -> plan

(** [run ~plan:(p, v) k], where [k] is the source of plan [p] unrolled
    and jammed by [v], reads patterns instantiated from the plan; without
    it, or where the plan does not cover [k], it walks [k]'s accesses.
    The result is the same. *)
val run :
  ?config:config -> ?plan:plan * Unroll.vector -> Ast.kernel -> Ast.kernel * report

(** {2 Exposed for tests} *)

(** One uniformly generated pattern of an array, with its distinct
    subscript-expression members. *)
type pattern = {
  array : string;
  elem : Dtype.t;
  members : Analysis.Access.t list;  (** distinct; execution order *)
  has_reads : bool;
  has_writes : bool;
  any_guarded : bool;
  varying : Ast.loop list;  (** spine loops the pattern varies with, outer first *)
  spine : Ast.loop list;
  spine_only : bool;  (** every loop the members vary with is on the spine *)
  scalar_subs : bool;  (** some subscript names a scalar the nest assigns *)
}

(** One access walk of a kernel: its patterns and where they came from. *)
type walk = {
  walked : Ast.kernel;
  patterns : pattern list;
  indirect : bool;  (** some subscript reads an array *)
  origin : origin;
}

and origin =
  | Walked of Analysis.Access.t list  (** every access of [walked], collected *)
  | Planned of { per_copy : int; copies : int; sources : (pattern * int list) list }
      (** instantiated from a plan *)
  | Rehoisted  (** derived from a planned walk after hoisting *)

(** The walk of a kernel's accesses: the fallback of a plan and its
    oracle. *)
val walk : Ast.kernel -> walk

(** The walks one {!run} reads, in order. *)
val walks : ?config:config -> ?plan:plan * Unroll.vector -> Ast.kernel -> walk list

(** [single w k a]: element CSE's test that every access of array [a] in
    [k], whose written arrays' accesses [w] found, is in one affine
    pattern with no assigned scalar in a subscript. *)
val single : walk -> Ast.kernel -> string -> bool

(** Exposed for tests. [partition_chains inner members] splits a
    pattern's members into chain classes along loop [inner], each member
    paired with its distance (in iterations of [inner]) from its class's
    first member; the classes the pairwise dependence-solver scan finds. *)
val partition_chains :
  Ast.loop -> Analysis.Access.t list -> (Analysis.Access.t * int) list list

(** Exposed for tests. [planned_chains inner p]: the classes of two or
    more members that [partition_chains inner p.members] finds, in its
    order, computed in closed form for a pattern of a planned or
    rehoisted walk (every member shares the coefficient rows over
    [p.spine], so one reduced matrix and each member's residue decide
    them); [None] when the members do not share them. *)
val planned_chains : Ast.loop -> pattern -> (Analysis.Access.t * int) list list option
