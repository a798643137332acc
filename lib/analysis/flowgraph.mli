(** Control-flow graph over {!Ast.kernel} bodies and a generic monotone
    dataflow framework on top of it.

    The graph has one node per statement or loop header plus synthetic
    entry/exit nodes, with structured-control edges. Loop edges are
    trip-count aware: a loop whose constant bounds give a positive trip
    count must execute its body at least once, so the only path to the
    loop's continuation goes through the body. A zero-trip loop keeps
    its body nodes in the graph (spans and all) but leaves them
    unreachable.

    Analyses are instances of the monotone framework: a {!spec} supplies
    direction, lattice operations and a transfer function, and {!solve}
    iterates a worklist to fixpoint. Two reusable analyses are
    provided — {!live} and {!anticipated} — for the dead-store check.
    Both track scalars and individual array cells; array cells are keyed
    by their affine subscript forms ({!Affine.t}), degrading
    conservatively to whole-array facts for non-affine subscripts or
    forms that mention non-index variables. The uninitialized-read check
    ({!Check.Uninit}) and the legality hazards ({!Check.Legality}) build
    no graph: they walk the syntax, with this graph's trip-count rules.
    Reaching definitions, their oracle, live with the test suite. *)

open Ir

(** {1 Abstract memory locations} *)

(** What a dataflow fact talks about. A [Cell] carries one affine form
    per dimension and is only used when every form is affine over the
    node's enclosing loop indices; anything else widens to [Whole]
    array. *)
type loc =
  | Scalar of string
  | Cell of string * Affine.t list
  | Whole of string  (** some unknown cell(s) of the array *)

(** Scalars before cells before whole arrays; by name within a kind,
    then by subscript forms (the order of polymorphic [compare]). *)
val compare_loc : loc -> loc -> int
val equal_loc : loc -> loc -> bool
val pp_loc : Format.formatter -> loc -> unit

module LocSet : Set.S with type elt = loc

(** Conservative: can the two locations denote the same memory? Two
    [Cell]s of one array are disjoint only when some dimension has two
    distinct constant subscripts. *)
val may_alias : loc -> loc -> bool

(** {1 The graph} *)

type kind =
  | Entry
  | Exit
  | Assign of Ast.lvalue * Ast.expr
  | Rotate of string list
  | Branch of Ast.expr  (** an [If] condition; both branches succeed it *)
  | Header of Ast.loop  (** loop header; defines the index variable *)

type node = {
  id : int;
  kind : kind;
  loops : Ast.loop list;
      (** enclosing loops, outermost first; a [Header]'s own loop is
          included (it is the innermost entry) *)
  span : Ast.span option;
      (** nearest enclosing source location (the [Header]'s own span
          when it has one) *)
}

type t = {
  kernel : Ast.kernel;
  nodes : node array;  (** indexed by [id]; entry is 0, exit is last *)
  succ : int list array;
  pred : int list array;
  entry : int;
  exit_ : int;
  reachable : bool array;
      (** reachable from entry; zero-trip loop bodies are not *)
  node_uses : loc list array;  (** {!uses} of each node, by [id] *)
  node_defs : loc list array;  (** {!defs_at} of each node, by [id] *)
}

(** Build the CFG of a kernel. Nodes are allocated in a documented
    order — entry first (id 0), then the statements in preorder (a
    loop's header before its body), exit last — so tests can align
    nodes with the AST positionally. Total on any well-typed kernel;
    a non-positive loop step (which {!Check.Wellformed} rejects) is
    treated conservatively as "may run zero or more times". Each node's
    uses and definitions are resolved to locations here, once, so the
    analyses never re-linearize a subscript. *)
val build : Ast.kernel -> t

(** Locations possibly read by a node ([Branch] conditions, RHS and
    subscript reads, [Rotate] sources). *)
val uses : t -> int -> loc list

(** Locations written by a node ([Assign] targets, [Rotate] members,
    the index at a [Header]). *)
val defs_at : t -> int -> loc list

(** {1 The monotone framework} *)

type direction = Forward | Backward

type 'f spec = {
  dir : direction;
  boundary : 'f;  (** fact at entry (forward) or exit (backward) *)
  init : 'f;  (** optimistic initial fact everywhere else *)
  join : 'f -> 'f -> 'f;
  equal : 'f -> 'f -> bool;
  transfer : node -> 'f -> 'f;
}

(** Facts in {e program order} for both directions: [before.(n)] holds
    on entry to node [n], [after.(n)] on exit. For a forward analysis
    [after = transfer before]; for a backward one [before = transfer
    after]. *)
type 'f solution = { before : 'f array; after : 'f array }

val solve : t -> 'f spec -> 'f solution

(** {1 Liveness} *)

(** Backward may-analysis. Boundary at exit: every array is live (the
    host reads results back); no scalar is. Facts about cells that
    mention a loop's index widen to [Whole] at that loop's header —
    the index changes there, so the cell identity does. *)
val live : t -> LocSet.t solution

(** Is a write to [loc] at program point observed by any later read?
    (Membership up to {!may_alias}.) *)
val live_at : LocSet.t -> loc -> bool

(** {1 Anticipated (redundant-making) overwrites} *)

(** Backward must-analysis over an option lattice: [loc] is in the set
    at a point when every path from the point overwrites [loc] before
    any possible read of it. A store whose target is anticipated right
    after it is redundant. *)
val anticipated : t -> LocSet.t option solution
