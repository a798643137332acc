(** Behavioral synthesis estimation: area (slices) and performance
    (cycles) for a transformed kernel, plus the fetch/consumption rates
    behind the balance metric. This module is the system's stand-in for
    the Monet estimator the paper invokes (Section 6.2): the compiler
    calls it once per candidate design point.

    The kernel is decomposed into a region tree (straight-line blocks and
    loops); each block is scheduled under all three modes (jointly,
    memory-only, compute-only) in one fused {!Schedule.run_tri} pass;
    loop regions multiply their children's cycles by the trip count plus
    one control cycle per iteration. Operator allocation
    takes the per-class maximum concurrency over all blocks — behavioral
    synthesis reuses operators across the peeled and main bodies, which
    is why peeling does not double the datapath (Section 4). *)

open Ir
module Access = Analysis.Access
module Layout = Data_layout.Layout

type profile = {
  device : Device.t;
  mem : Memory_model.t;
  chaining : bool;  (** operator chaining within a cycle; see {!Schedule.profile} *)
}

let default_profile ?(pipelined = true) ?(chaining = false) () =
  { device = Device.default; mem = Memory_model.of_flag ~pipelined; chaining }

(* Bump whenever the estimator's observable output can change — the
   scheduler, the DFG builder, the data layout, the operator or memory
   models, or this module's area/cycle accounting. Persistent evaluation
   stores are keyed on it, so a stale bump silently serves wrong
   estimates while a missed bump only costs a cold start: when in doubt,
   bump. *)
let version = "2"

type t = {
  cycles : int;  (** total execution cycles of the whole nest *)
  mem_only_cycles : int;
      (** cycles if only memory ports/latencies constrained the design *)
  comp_only_cycles : int;
      (** cycles if only operator delays and loop control constrained it *)
  slices : int;  (** estimated area *)
  register_bits : int;
  bits_moved : int;  (** total data bits transferred to/from memories *)
  fetch_rate : float;  (** F: bits per cycle the memories can provide *)
  consumption_rate : float;  (** C: bits per cycle the datapath consumes *)
  balance : float;  (** B = F / C *)
  states : int;  (** FSM states (static schedule length) *)
  memories_used : int;
  usage : ((Op_model.op_class * int) * int) list;  (** allocated operators *)
  reads : int;  (** static read sites *)
  writes : int;
  time_ns : float;
}

let loop_overhead_cycles = 1

(** Per-stage accounting for one or more [estimate] calls: wall time
    spent building DFGs, scheduling them (memo hits cost only the
    fingerprint), and assigning the data layout, plus how many blocks
    were served from the tri-schedule memo. The caller owns the record
    and may accumulate across calls. *)
type stage_timers = {
  mutable dfg_seconds : float;
  mutable schedule_seconds : float;
  mutable layout_seconds : float;
  mutable sched_memo_hits : int;
}

let fresh_timers () =
  {
    dfg_seconds = 0.0;
    schedule_seconds = 0.0;
    layout_seconds = 0.0;
    sched_memo_hits = 0;
  }

(* Region walk: returns (joint, mem_only, comp_only, bits) as executed
   totals; mutates [usage], [states], [loops]. *)
type acc = {
  usage : (Op_model.op_class * int, int) Hashtbl.t;
  mutable states : int;
  mutable loops : int;
}

(* The construction and scheduling storage of one domain, shared by every
   estimate it runs: both only grow, so after the first large block an
   estimate allocates no storage at all. *)
type scratch = { dfg : Dfg.scratch; sched : Schedule.scratch }

let scratch_key =
  Domain.DLS.new_key (fun () -> { dfg = Dfg.scratch (); sched = Schedule.scratch () })

let merge_usage acc u =
  List.iter
    (fun (key, n) ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt acc.usage key) in
      Hashtbl.replace acc.usage key (max cur n))
    u

let estimate ?(sched_memo : Schedule.memo option)
    ?(timers : stage_timers option) (p : profile) (kernel : Ast.kernel) : t =
  let sched_profile = { Schedule.device = p.device; mem = p.mem; chaining = p.chaining } in
  let accesses = Access.collect kernel.k_body in
  let t0 = Clock.now () in
  let layout =
    Layout.assign ~num_memories:p.device.Device.num_memories kernel accesses
  in
  (match timers with
  | Some ts -> ts.layout_seconds <- ts.layout_seconds +. (Clock.now () -. t0)
  | None -> ());
  let mem_of a = Layout.memory_of layout a in
  let { dfg; sched = scratch } = Domain.DLS.get scratch_key in
  let build = Dfg.block_builder ~scratch:dfg ~kernel ~mem_of ~cursor:(Dfg.cursor_of accesses) in
  let acc = { usage = Hashtbl.create 16; states = 0; loops = 0 } in
  let rec walk (body : Ast.stmt list) : int * int * int * int =
    (* Split into maximal straight-line chunks and loops. *)
    let flush chunk (j, m, c, b) =
      match List.rev chunk with
      | [] -> (j, m, c, b)
      | stmts ->
          let t0 = Clock.now () in
          let g = build stmts in
          let t1 = Clock.now () in
          let { Schedule.joint; mem_only = mem_res; comp_only = comp }, hit =
            match sched_memo with
            | Some memo -> Schedule.run_tri_cached ~scratch memo sched_profile g
            | None -> (Schedule.run_tri ~scratch sched_profile g, false)
          in
          (match timers with
          | Some ts ->
              ts.dfg_seconds <- ts.dfg_seconds +. (t1 -. t0);
              ts.schedule_seconds <- ts.schedule_seconds +. (Clock.now () -. t1);
              if hit then ts.sched_memo_hits <- ts.sched_memo_hits + 1
          | None -> ());
          merge_usage acc joint.Schedule.usage;
          acc.states <- acc.states + joint.Schedule.cycles;
          ( j + joint.Schedule.cycles,
            m + mem_res.Schedule.cycles,
            c + comp.Schedule.cycles,
            b + joint.Schedule.bits_moved )
    in
    let rec go chunk totals = function
      | [] -> flush chunk totals
      | Ast.For l :: rest ->
          let totals = flush chunk totals in
          acc.loops <- acc.loops + 1;
          let trip = Ast.loop_trip l in
          let jl, ml, cl, bl = walk l.body in
          let j, m, c, b = totals in
          let totals =
            ( j + (trip * (jl + loop_overhead_cycles)),
              m + (trip * ml),
              c + (trip * (cl + loop_overhead_cycles)),
              b + (trip * bl) )
          in
          go [] totals rest
      | s :: rest -> go (s :: chunk) totals rest
    in
    go [] (0, 0, 0, 0) body
  in
  let cycles, mem_only, comp_only, bits = walk kernel.k_body in
  (* Static read/write sites (after transformation). *)
  let rec count r w = function
    | [] -> (r, w)
    | a :: rest -> if Access.is_read a then count (r + 1) w rest else count r (w + 1) rest
  in
  let reads, writes = count 0 0 accesses in
  (* Area. *)
  let usage =
    Hashtbl.fold (fun k v l -> (k, v) :: l) acc.usage [] |> List.sort compare
  in
  let op_slices =
    List.fold_left
      (fun s ((cls, bucket), n) -> s + (n * Op_model.area cls ~width:bucket))
      0 usage
  in
  let register_bits =
    List.fold_left
      (fun s (d : Ast.scalar_decl) -> s + Dtype.bits d.s_elem)
      0 kernel.k_scalars
    + (16 * acc.loops) (* loop counters *)
  in
  let reg_slices = (register_bits + p.device.Device.ffs_per_slice - 1) / p.device.Device.ffs_per_slice in
  let memories_used =
    List.sort_uniq compare (List.map snd layout.Layout.phys) |> List.length
  in
  let mem_if_slices = 18 * max 1 memories_used in
  let fsm_slices = 4 + (acc.states / 3) + (2 * acc.loops) in
  let slices = op_slices + reg_slices + mem_if_slices + fsm_slices in
  let fetch_rate =
    if mem_only = 0 then Float.infinity else float_of_int bits /. float_of_int mem_only
  in
  let consumption_rate =
    if comp_only = 0 then Float.infinity
    else float_of_int bits /. float_of_int comp_only
  in
  let balance =
    if bits = 0 then Float.infinity
    else if mem_only = 0 then Float.infinity
    else float_of_int comp_only /. float_of_int mem_only
  in
  {
    cycles;
    mem_only_cycles = mem_only;
    comp_only_cycles = comp_only;
    slices;
    register_bits;
    bits_moved = bits;
    fetch_rate;
    consumption_rate;
    balance;
    states = acc.states;
    memories_used;
    usage;
    reads;
    writes;
    time_ns = float_of_int cycles *. p.device.Device.clock_ns;
  }

let pp fmt (t : t) =
  Format.fprintf fmt
    "cycles=%d (mem %d, comp %d) slices=%d regs=%db balance=%.3f F=%.2f C=%.2f states=%d mems=%d"
    t.cycles t.mem_only_cycles t.comp_only_cycles t.slices t.register_bits
    t.balance t.fetch_rate t.consumption_rate t.states t.memories_used
