(** As-Soon-As-Possible scheduling of one block's DFG under memory-port
    and clock-period constraints — the estimator's stand-in for Monet's
    scheduler (the paper names Monet's algorithm ASAP, Section 5.2).

    Memory operations issue at cycle boundaries, at most one per memory
    per occupancy window. Two relaxed modes serve the balance metric:
    [`Mem_only] ignores computation (the rate at which the memories could
    supply data), [`Comp_only] ignores memory constraints (the rate at
    which the datapath could consume it). *)

type mode = [ `Joint | `Mem_only | `Comp_only ]

type profile = {
  device : Device.t;
  mem : Memory_model.t;
  chaining : bool;
      (** allow dependent operators to share a clock cycle when their
          delays fit the period. Monet-generation tools scheduled one
          operation level per control step, so the paper-faithful default
          used throughout is [false]. *)
}

type result = {
  cycles : int;
  bits_moved : int;
  usage : ((Op_model.op_class * int) * int) list;
      (** operator class/width-bucket -> max per-cycle concurrency: the
          allocation a behavioral-synthesis binder would need *)
  reads : int;
  writes : int;
}

val run : ?mode:mode -> profile -> Dfg.t -> result

type tri = { joint : result; mem_only : result; comp_only : result }

(** Scheduling state: flat arrays that only grow, reset for each block.
    One scratch serves one domain; the estimator keeps one per domain
    for every block it schedules. *)
type scratch

val scratch : unit -> scratch

val run_tri : ?scratch:scratch -> profile -> Dfg.t -> tri
(** All three schedules of one graph in a single walk over the node
    array: the node kind is matched and the operator delay looked up
    once per node, then each mode advances on its own state. With
    [scratch], the states are that scratch's, reset first; without, a
    fresh one. The per-node path allocates nothing. Shares the
    per-node scheduling helpers with {!run}, so
    [run_tri p g = {joint = run ~mode:`Joint p g;
                    mem_only = run ~mode:`Mem_only p g;
                    comp_only = run ~mode:`Comp_only p g}]
    exactly — the estimator calls this once per block instead of [run]
    three times. *)

(** Content-addressed tri-schedule table keyed on {!Dfg.fingerprint}.
    Because the fingerprint is injective on the schedule-relevant
    projection of a graph and {!run_tri} reads nothing else, the table
    is exact: a hit returns bit-identically what a fresh run would
    compute. One table must only ever serve one {!profile} (the owning
    context fixes it); use {!memo_copy}/{!memo_absorb} to fork a private
    copy per domain and merge it back — never share a table across
    domains.

    A persisted table can be attached with {!memo_attach}; it is read
    and merged in (entries already present win) only when the memo is
    first consulted, copied, absorbed or listed. *)
type memo

(** The persisted form of a memo: fingerprint -> tri-schedule. *)
type table = (string, tri) Hashtbl.t

val memo_create : unit -> memo

(** Attach a persisted table, read by the given function on first need
    ([None] reads as empty). The read runs on the domain that first
    consults the memo; {!memo_copy} and {!memo_absorb} run it before
    copying, so forks never share a pending read. *)
val memo_attach : memo -> (unit -> table option) -> unit

val memo_copy : memo -> memo

(** Number of distinct block shapes in memory: an attached table not
    yet read counts nothing. *)
val memo_size : memo -> int

(** Shapes the attached table brought in when it was read. *)
val memo_loaded : memo -> int

(** Shapes beyond those the attached table brought in: scheduled by
    this process or absorbed from its forks. [0] means the memo holds
    nothing its persisted form lacks. *)
val memo_added : memo -> int

(** The memo's entries, attached table merged in. *)
val memo_table : memo -> table

(** Merge a fork's entries into [into] (existing entries win). *)
val memo_absorb : into:memo -> memo -> unit

(** Memoized {!run_tri}: the stored record on a fingerprint hit, a fresh
    (and then stored) run on [scratch] otherwise. The flag is [true] on
    a hit. *)
val run_tri_cached : scratch:scratch -> memo -> profile -> Dfg.t -> tri * bool
