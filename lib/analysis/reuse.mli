(** Reuse analysis: uniformly generated sets and the reuse each carries.

    Scalar replacement consumes this analysis to decide, per set, whether
    the data can live in on-chip registers (and in how many); the
    saturation point computation consumes the set counts R and W
    (Section 5.1 of the paper). *)

open Ir

type group = {
  array : string;
  kind : Access.kind;
  members : Access.t list;  (** in execution order *)
}

(** Partition accesses into uniformly generated sets, reads and writes
    separately (linear time, bucketed on a hash of the coefficient
    vectors over the spine indices). Groups are in the order of their
    first member, then the non-affine accesses, each in a singleton
    group. *)
val groups : Ast.stmt list -> group list

val read_sets : Ast.stmt list -> group list

(** R and W of the saturation-point formula. *)
val set_counts : Ast.stmt list -> int * int

(** Members with distinct subscript expressions (one load serves all
    duplicates). *)
val distinct_members : group -> Access.t list

(** Loops of the group's nest that its subscripts do not vary with:
    temporal reuse is carried by each. *)
val invariant_loops : group -> Ast.loop list

(** Registers needed to exploit reuse carried by [carrier]: the product
    of inner varying trip counts times the distinct member count
    (Section 5.4 bounds this with tiling). *)
val bank_size : group -> carrier:Ast.loop -> int
