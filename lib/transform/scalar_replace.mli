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

(** The analysis side of scalar replacement for one kernel: its
    accesses, each with its loops, guard, spine coefficient rows and
    the flags that make its pattern ineligible (a subscript that is not
    affine, names an assigned scalar or reads an array), and the
    uniformly generated patterns they form. A plan of a source nest
    (the kernel after tiling, before unroll-and-jam) is derived once
    and instantiated for each unrolled kernel in closed form when the
    source is a perfect nest whose loops run two or more iterations
    around assignments with loop-index affine subscripts and no
    conditional; any other kernel is read off its own plan, with no
    loop unrolled. *)
type plan

val plan : Ast.kernel -> plan

(** [run ~plan:(p, v) k], where [k] is the source of plan [p] unrolled
    and jammed by [v], reads patterns instantiated from the plan where
    the closed form covers [k]; otherwise, and without [plan], it reads
    them off [k]'s own plan. The result is the same. *)
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
  uniform : bool;
      (** every access is affine, names no assigned scalar and shares
          the others' coefficients on every loop index around them *)
}

(** One access walk of a kernel: its patterns and where they came from. *)
type walk = {
  walked : Ast.kernel;
  patterns : pattern list;
  indirect : bool;  (** some subscript reads an array *)
  origin : origin;
}

and origin =
  | Planned of {
      per_copy : int;
      copies : int;
      sources : (pattern * int list) list;
      perfect : bool;
    }
      (** instantiated from a plan: in closed form from a source nest's,
          or with no loop unrolled from the walked kernel's own *)
  | Rehoisted  (** derived from a planned walk after hoisting *)

(** The walks one {!run} reads, in order. *)
val walks : ?config:config -> ?plan:plan * Unroll.vector -> Ast.kernel -> walk list

(** [single w a]: element CSE's test that every access of array [a],
    among the written arrays' accesses [w] found, is in one pattern
    whose distinct members address distinct elements. *)
val single : walk -> string -> bool

(** [chain_classes inner p]: the chain classes of two or more members of
    [p] along [inner], the innermost loop of [p.spine], each member
    paired with its distance (in iterations of [inner]) from its class's
    first member, in the order of their first members; a member joins
    the first class whose first member it has a consistent dependence
    distance from. Computed in closed form from each shape's one
    reduced dependence matrix, on a pattern chains may read
    ([spine_only], no assigned scalar in a subscript). *)
val chain_classes : Ast.loop -> pattern -> (Analysis.Access.t * int) list list
