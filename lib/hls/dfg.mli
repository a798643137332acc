(** Data-flow graph construction for one straight-line block.

    Nodes carry a {e timing} facet (operator class and width, for the
    {!Schedule} ASAP scheduler) and a {e semantic} facet (which
    operation, which operands, which array element, for the {!Sim}
    datapath simulator). Conditionals are predicated: both branches
    build, scalar targets merge through muxes, loads issue
    unconditionally (the paper's conditional memory accesses), stores
    carry their guard conditions. Register rotation is a free parallel
    transfer; subscripts linearize into explicit address nodes.

    A graph is stored flat, one array per field, so that building one
    allocates nothing per node; {!node} decodes one node into the
    record form below for the consumers that want it. *)

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

(** One node, decoded. *)
type node = { id : int; kind : node_kind; preds : int list }

(** The kind of a stored node. *)
type tag =
  | K_const
  | K_scalar
  | K_op
  | K_load
  | K_store
  | K_move
  | K_move_out
  | K_reg_write

(** A built graph: nodes [0 .. len - 1] (ids are topological), one array
    per field, of which only the first [len] slots are meaningful.

    - [cls] and [width] hold an [Op]'s class and width; [width] also
      a [Load]'s or [Store]'s element width, and [mem] their memory.
    - [payload] holds a [Const]'s value, an [Op]'s semantic operation
      (see {!node}), a [Store]'s guard context and a [Move_out]'s
      register index.
    - [name] holds a [Scalar] source's or [Reg_write]'s scalar, a
      [Load]'s or [Store]'s array and a [Move_out]'s register.
    - Node [i]'s predecessors are [preds.(pred_off.(i))] up to
      [preds.(pred_off.(i + 1) - 1)], in the order {!node} lists them:
      a [Load]'s address first, a [Store]'s value then address, a
      [Move]'s pre-rotation values (its registers are the names of the
      [Move_out] nodes that follow it).
    - Guard context [c] is the condition node [guard_cond.(c) / 2],
      taken when its truth equals [guard_cond.(c) mod 2 = 1], inside
      the context [guard_up.(c)]; [-1] is no guard.

    [fp] is the structural fingerprint (see {!fingerprint}).

    {b Lifetime.} A graph returned by a {!block_builder} is a view of
    its scratch's storage: it is valid until the next block built on
    that scratch, so the estimator's views last until the next block
    built on the same domain. {!of_block} and {!of_block_with_defs}
    return owned copies, safe to retain. *)
type t = {
  len : int;
  fp : string;
  tag : tag array;
  cls : Op_model.op_class array;
  width : int array;
  mem : int array;
  payload : int array;
  name : string array;
  pred_off : int array;
  preds : int array;
  guard_up : int array;
  guard_cond : int array;
}

(** Node [i] of a graph, decoded. *)
val node : t -> int -> node

(** Every node of a graph, decoded. *)
val nodes : t -> node array

(** An owned copy of a graph, its node arrays trimmed to [len]. *)
val copy : t -> t

(** Cursor over the kernel-wide access list (from [Access.collect] on the
    full body, in document order); the builder consumes accesses in the
    same order it encounters [Arr] occurrences, so the memory assignment
    of {!Data_layout.Layout} lines up. *)
type cursor

val cursor_of : Access.t list -> cursor

(** The cursor and the block disagree — a bug in the caller's region
    walk. *)
exception Desync of string

(** Construction storage: the node arrays, the per-block environments
    and the declaration tables of the kernel last built from. It only
    grows. One scratch serves one domain; the estimator keeps one per
    domain for every block it builds. *)
type scratch

val scratch : unit -> scratch

(** [block_builder ~scratch ~kernel ~mem_of ~cursor] builds the blocks
    of one kernel, in cursor order, on [scratch]: the kernel's
    declarations are hashed once per kernel and the node storage is
    reused, so a block allocates little beyond its fingerprint. Each
    returned graph is a view (see {!t}). *)
val block_builder :
  scratch:scratch ->
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
