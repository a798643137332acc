(** Data-flow graph construction for one straight-line block.

    Nodes carry a {e timing} facet (operator class and width, for the
    {!Schedule} ASAP scheduler) and a {e semantic} facet (which
    operation, which operands, which array element, for the {!Sim}
    datapath simulator). Conditionals are predicated: both branches
    build, scalar targets merge through muxes, loads issue
    unconditionally (the paper's conditional memory accesses), stores
    carry their guard conditions. Register rotation is a free parallel
    transfer; subscripts linearize into explicit address nodes. *)

open Ir
module Access = Analysis.Access

type source = Const of int | Scalar of string

type op_sem = Sbin of Ast.binop | Sun of Ast.unop | Smux

type node_kind =
  | Source of source  (** block input: ready at t = 0 *)
  | Op of { sem : op_sem; cls : Op_model.op_class; width : int }
  | Load of { array : string; mem : int; width : int; addr : int }
      (** [addr]: node computing the flat (row-major) element index *)
  | Store of {
      array : string;
      mem : int;
      width : int;
      addr : int;
      value : int;
      guards : (int * bool) list;
          (** all must evaluate to the given polarity for the write to
              commit; the schedule slot is occupied either way *)
    }
  | Move of { regs : string list; pre : int list }
      (** parallel left rotation; free in the datapath *)
  | Move_out of { move : int; index : int }
      (** value of register [index] after rotation [move] fires *)
  | Reg_write of { scalar : string; value : int }
      (** scalar commit: truncates to the declared width; free *)

type node = { id : int; kind : node_kind; preds : int list }

(** A built graph: the live nodes are [nodes.(0 .. len - 1)] (ids are
    topological), and [fp] is the structural fingerprint, computed as the
    nodes were emitted (see {!fingerprint}). Results of {!of_block} /
    {!of_block_with_defs} own their storage and satisfy
    [Array.length nodes = len]; results of a {!block_builder} are views
    whose [nodes] array may be longer than [len] and is reused by the
    builder's next call. *)
type t = { nodes : node array; len : int; fp : string }

(** Cursor over the kernel-wide access list (from [Access.collect] on the
    full body, in document order); the builder consumes accesses in the
    same order it encounters [Arr] occurrences, so the memory assignment
    of {!Data_layout.Layout} lines up. *)
type cursor

val cursor_of : Access.t list -> cursor

(** The cursor and the block disagree — a bug in the caller's region
    walk. *)
exception Desync of string

(** [block_builder ~kernel ~mem_of ~cursor] builds the blocks of one
    kernel, in cursor order, over one shared construction scratch: the
    kernel's declarations are hashed once and the node storage is
    reused, so one estimation allocates little beyond the nodes. Each
    returned graph is a view (see {!t}), valid until the next call. *)
val block_builder :
  kernel:Ast.kernel ->
  mem_of:(Access.t -> int) ->
  cursor:cursor ->
  Ast.stmt list ->
  t

(** Build the DFG of a straight-line block ([For] raises
    [Invalid_argument]); the cursor advances past the block's accesses.
    The [_with_defs] variant also returns the scalar environment at block
    exit (scalar -> node), for the simulator's write-back. *)
val of_block_with_defs :
  kernel:Ast.kernel ->
  mem_of:(Access.t -> int) ->
  cursor:cursor ->
  Ast.stmt list ->
  t * (string * int) list

val of_block :
  kernel:Ast.kernel ->
  mem_of:(Access.t -> int) ->
  cursor:cursor ->
  Ast.stmt list ->
  t

(** Canonical structural fingerprint of a graph: encodes exactly the
    schedule-relevant projection (node kind, operator class/width,
    memory id/width, predecessor ids) and nothing else. Invariant under
    scalar/array renaming and constant shifts, so iteration-shifted
    copies of one block collide; injective on the projection, so two
    graphs with the same fingerprint produce bit-identical
    {!Schedule.run_tri} results under any profile. *)
val fingerprint : t -> string

val n_loads : t -> int
val n_stores : t -> int
