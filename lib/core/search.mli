(** The design space exploration algorithm — Figure 2 of the paper.

    Starting from a saturation point chosen with dependence information
    (Section 5.3), the search walks the unroll-factor space guided by the
    balance metric's monotonicity (Observation 3): while compute bound it
    doubles the unroll product; once a memory-bound or over-capacity
    design appears it bisects between the last fitting compute-bound
    design and the current one, on products that are multiples of the
    saturation product. Space-constrained initial designs fall back to
    the largest design that fits ([FindLargestFit]). *)

type config = {
  balance_tolerance : float;
      (** |B - 1| within this counts as balanced (the paper tests B = 1
          exactly, which floating-point estimates never hit) *)
  max_steps : int;  (** hard cap on evaluated designs *)
}

val default_config : config

type step = {
  point : Design.point;
  verdict : string;
      (** "compute-bound", "memory-bound", "balanced", "over-capacity",
          "fit-probe" or "selected" *)
}

type result = {
  selected : Design.point;
  steps : step list;  (** every synthesized design, in search order *)
  sat : Saturation.t;
  uinit : (string * int) list;
  stats : Design.stats;
      (** evaluation counters for this run only: synthesis runs, cache
          hits, transform/estimate wall time. On a fresh context,
          [stats.evaluations] equals {!designs_evaluated}. *)
}

(** Per-loop desirability for unrolling: infinite for loops carrying no
    dependence, otherwise the minimum carried distance. *)
val loop_weights : Ir.Ast.kernel -> (string * float) list

(** Initial point: Sat_i of a dependence-free loop when one exists,
    otherwise the saturation vector weighted by carried distances; a
    vector [legal] rejects does not qualify (the base vector is the last
    resort). *)
val choose_uinit :
  legal:((string * int) list -> bool) ->
  Design.context ->
  Saturation.t ->
  (string * int) list

val run : ?config:config -> Design.context -> result

(** Distinct designs synthesized during the search. *)
val designs_evaluated : result -> int
