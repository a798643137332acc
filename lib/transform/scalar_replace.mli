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
val run : ?config:config -> Ast.kernel -> Ast.kernel * report

(** Exposed for tests. [partition_chains inner members] splits a
    pattern's members into chain classes along loop [inner], each member
    paired with its distance (in iterations of [inner]) from its class's
    first member; the classes the pairwise dependence-solver scan finds. *)
val partition_chains :
  Ast.loop -> Analysis.Access.t list -> (Analysis.Access.t * int) list list
