(** Behavioral synthesis estimation: area (slices) and performance
    (cycles) for a transformed kernel, plus the fetch/consumption rates
    behind the balance metric — the system's stand-in for the Monet
    estimator the paper invokes once per candidate design.

    The kernel decomposes into a region tree (straight-line blocks and
    loops); each block is scheduled jointly, memory-only and
    compute-only; loops multiply their children by the trip count plus
    one control cycle per iteration. Operator allocation takes the
    per-class maximum concurrency over all blocks — behavioral synthesis
    reuses operators across the peeled and main bodies, which is why
    peeling does not double the datapath. *)

open Ir

type profile = {
  device : Device.t;
  mem : Memory_model.t;
  chaining : bool;  (** see {!Schedule.profile} *)
}

val default_profile : ?pipelined:bool -> ?chaining:bool -> unit -> profile

(** Version tag of the estimator's observable behaviour, bumped whenever
    the scheduler, DFG builder, data layout, operator/memory models or
    the area/cycle accounting change what {!estimate} can return.
    Persistent evaluation stores include it in their key hash so a cache
    written by an older estimator is never read. *)
val version : string

type t = {
  cycles : int;  (** total execution cycles of the nest *)
  mem_only_cycles : int;
      (** cycles if only memory ports/latencies constrained the design *)
  comp_only_cycles : int;
      (** cycles if only operator delays and loop control constrained it *)
  slices : int;  (** estimated area *)
  register_bits : int;
  bits_moved : int;  (** total data bits transferred to/from memories *)
  fetch_rate : float;  (** F: bits per cycle the memories can provide *)
  consumption_rate : float;  (** C: bits per cycle the datapath consumes *)
  balance : float;  (** B = F / C (Section 3 of the paper) *)
  states : int;  (** FSM states (static schedule length) *)
  memories_used : int;
  usage : ((Op_model.op_class * int) * int) list;  (** allocated operators *)
  reads : int;  (** static read sites *)
  writes : int;
  time_ns : float;
}

(** Control cycles charged per loop iteration (FSM back edge). *)
val loop_overhead_cycles : int

(** Per-stage accounting for one or more {!estimate} calls: wall time
    in DFG construction, scheduling and data layout, plus how many
    blocks were served from the tri-schedule memo. The caller owns the
    record and may accumulate across calls. *)
type stage_timers = {
  mutable dfg_seconds : float;
  mutable schedule_seconds : float;
  mutable layout_seconds : float;
  mutable sched_memo_hits : int;
}

val fresh_timers : unit -> stage_timers

(** Estimate a transformed kernel. With [sched_memo], each block's
    tri-schedule is looked up by {!Dfg.fingerprint} before scheduling —
    the memo is exact (same fingerprint, bit-identical schedule), so the
    result is field-for-field identical with and without it; an unrolled
    nest then schedules each distinct block shape once. The blocks of
    one call share one {!Dfg.block_builder}. With [timers], per-stage
    wall time and memo hits are accumulated into the record. *)
val estimate :
  ?sched_memo:Schedule.memo ->
  ?timers:stage_timers ->
  profile ->
  Ast.kernel ->
  t

val pp : Format.formatter -> t -> unit
