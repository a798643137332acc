(** Per-transform legality predicates, checked before the rewrite:
    unroll-and-jam dependence preservation, scalar-replacement reuse
    preconditions, tiling applicability.

    The array dependence test ({!Transform.Unroll.jam_legal},
    {!replaceable_group_dependence}) cannot see two hazards, which
    structural walks over the syntax find: a scalar recurrence a jam
    would reorder, and a foreign access that would bypass a register-
    cached set. The walks follow the flow graph's trip-count rules, and
    the test suite checks them against flow-graph oracles. *)

open Ir

(** First scalar whose carried dependence chain unroll-and-jam would
    reorder, as [(loop index, scalar name)]: the first non-innermost
    loop in program order whose body runs and assigns a scalar that is
    not an index of it or of its inner loops, is live at the body's
    entry, and is not a single-operator commutative/associative
    reduction; the first such scalar by name. *)
val scalar_jam_hazard : Ast.kernel -> (string * string) option

(** Every pair of members of the uniformly generated set has a
    consistent (exact or unconstrained) dependence distance. *)
val replaceable_group_dependence : Ast.kernel -> Analysis.Reuse.group -> bool

(** Why registers caching the set would miss an access, if they would:
    a write through a different access pattern reaches one of a read
    set's reads, or a write set's write reaches an access through a
    different pattern. Only a write to an all-constant cell surely
    overwrites an earlier one, and two cells are disjoint only when some
    dimension has two distinct constant subscripts. [None] for a set
    with no affine member. *)
val foreign_hazard : Ast.kernel -> Analysis.Reuse.group -> string option

(** [index] names a spine loop and [tile] is a proper fraction of its
    trip count. *)
val tiling_applicable : Ast.kernel -> index:string -> tile:int -> bool

(** Pre-enumeration verdict on one transform configuration — the
    sweep's pruner. It says only whether the configuration may be
    evaluated; which design it denotes is
    [Engine.Backend.normalize_config]'s to say. *)
type config_verdict =
  | Config_legal
  | Config_illegal of string
      (** force-evaluating it raises [Transform.Pipeline.Stage_error]
          (tile index naming no loop) or silently changes results (a
          jam reordering a non-reduction scalar recurrence) *)

(** [config_verdict k] is the verdict function for [k]'s
    configurations, applied to the configuration as enumerated, before
    any transform runs. The kernel-only analyses it needs (the array
    dependence test and the scalar-hazard walk) run once, when the
    function is made. *)
val config_verdict :
  Ast.kernel -> Transform.Pipeline.config -> config_verdict

(** Diagnostics for the kernel, optionally against the concrete pipeline
    options of a design point (unroll vector, tile request). *)
val check : ?options:Transform.Pipeline.options -> Ast.kernel -> Diag.t list
