(** As-Soon-As-Possible scheduling of one block's DFG under memory-port
    and clock-period constraints — the estimator's stand-in for Monet's
    scheduler (the paper names Monet's algorithm ASAP, Section 5.2).

    Operations chain combinationally within the 40 ns cycle as long as
    their accumulated delay fits; memory operations are issued at cycle
    boundaries, at most one unposted access per memory per occupancy
    window. Two relaxed modes serve the balance metric: [`Mem_only]
    ignores computation (the rate at which the memories could supply
    data) and [`Comp_only] ignores memory constraints (the rate at which
    the datapath could consume it).

    The estimator needs all three schedules of every block; {!run_tri}
    produces them in a single walk over the node array (one traversal,
    one operator-class/delay lookup per node) instead of three separate
    {!run} calls. Both entry points share the same per-node scheduling
    helpers, so their results are identical by construction. *)

type mode = [ `Joint | `Mem_only | `Comp_only ]

type profile = {
  device : Device.t;
  mem : Memory_model.t;
  chaining : bool;
      (** allow several dependent operators to share one clock cycle when
          their delays fit the period. Monet-generation tools scheduled
          essentially one operation level per control step, so the
          paper-faithful default is [false]; modern HLS chains freely. *)
}

type result = {
  cycles : int;
  bits_moved : int;
  usage : ((Op_model.op_class * int) * int) list;
      (** operator class/width-bucket -> max per-cycle concurrency;
          the allocation a behavioral synthesis binder would need *)
  reads : int;
  writes : int;
}

let eps = 1e-6

(* One mode's scheduling state: finish times plus the memory-occupancy
   and operator-concurrency tables its constraints need. The three modes
   never share state, which is what lets [run_tri] advance all of them
   through a single node-array walk. *)
type state = {
  use_mem : bool;
  use_comp : bool;
  finish : float array;
  (* Memory occupancy as a busy-cycle set per memory, with a per-memory
     hint for the earliest cycle that may still be free (keeps the
     all-ready-at-zero relaxed schedules linear). *)
  busy : (int * int, unit) Hashtbl.t;
  hint : (int, int) Hashtbl.t;
  (* Operator concurrency per cycle. *)
  occupancy : (Op_model.op_class * int * int, int) Hashtbl.t;
  mutable bits : int;
  mutable reads : int;
  mutable writes : int;
}

let make_state ~(mode : mode) n =
  {
    use_mem = mode <> `Comp_only;
    use_comp = mode <> `Mem_only;
    finish = Array.make n 0.0;
    busy = Hashtbl.create 256;
    hint = Hashtbl.create 8;
    occupancy = Hashtbl.create 64;
    bits = 0;
    reads = 0;
    writes = 0;
  }

let find_slot st memid c0 occ =
  let h = Option.value ~default:0 (Hashtbl.find_opt st.hint memid) in
  let free c =
    let rec go k = k >= occ || ((not (Hashtbl.mem st.busy (memid, c + k))) && go (k + 1)) in
    go 0
  in
  let rec search c = if free c then c else search (c + 1) in
  let c = search (max c0 h) in
  for k = 0 to occ - 1 do
    Hashtbl.replace st.busy (memid, c + k) ()
  done;
  (* advance the hint past any now-full prefix when this fill touched it *)
  if c = h then begin
    let rec bump c = if Hashtbl.mem st.busy (memid, c) then bump (c + 1) else c in
    Hashtbl.replace st.hint memid (bump h)
  end;
  c

let occupy st cls bucket c0 c1 =
  for c = c0 to c1 do
    let key = (cls, bucket, c) in
    Hashtbl.replace st.occupancy key
      (1 + Option.value ~default:0 (Hashtbl.find_opt st.occupancy key))
  done

let ready st preds =
  List.fold_left (fun acc p -> Float.max acc st.finish.(p)) 0.0 preds

let boundary clk t =
  Float.of_int (int_of_float (Float.ceil ((t -. eps) /. clk))) *. clk

(* Per-node scheduling of one mode, shared verbatim by [run] and
   [run_tri]. Each takes the node's ready time [r] under that mode. *)

let sched_op (p : profile) st id cls ~d ~bucket r =
  if not st.use_comp then st.finish.(id) <- r
  else begin
    let clk = p.device.Device.clock_ns in
    let free = d <= 1.0 in
    (* free operations (constant shifts, wiring) always chain *)
    let start =
      if free then r
      else if not p.chaining then boundary clk r
      else if d >= clk then boundary clk r
      else begin
        (* chain within the current cycle if the delay fits *)
        let cyc_start = Float.of_int (int_of_float (r /. clk)) *. clk in
        if r +. d <= cyc_start +. clk +. eps then r else boundary clk r
      end
    in
    let f = start +. d in
    st.finish.(id) <- f;
    if d > 0.5 then begin
      let c0 = int_of_float (start /. clk) in
      let c1 = int_of_float ((f -. eps) /. clk) in
      occupy st cls bucket c0 (max c0 c1)
    end
  end

let sched_mem (p : profile) st id ~mem ~width ~is_read r =
  let clk = p.device.Device.clock_ns in
  if is_read then st.reads <- st.reads + 1 else st.writes <- st.writes + 1;
  st.bits <- st.bits + width;
  if not st.use_mem then st.finish.(id) <- r
  else begin
    let occ, lat =
      if is_read then (p.mem.Memory_model.read_occupancy, p.mem.Memory_model.read_latency)
      else (p.mem.Memory_model.write_occupancy, p.mem.Memory_model.write_latency)
    in
    let c0 = int_of_float (Float.ceil ((r -. eps) /. clk)) in
    let c = find_slot st mem c0 occ in
    st.finish.(id) <- Float.of_int (c + lat) *. clk
  end

let finalize (p : profile) st : result =
  let clk = p.device.Device.clock_ns in
  let max_finish = Array.fold_left Float.max 0.0 st.finish in
  let cycles = int_of_float (Float.ceil ((max_finish -. eps) /. clk)) in
  (* Fold per-cycle occupancy into per-operator maxima. *)
  let usage : ((Op_model.op_class * int) * int) list =
    let tbl = Hashtbl.create 16 in
    Hashtbl.iter
      (fun (cls, bucket, _) count ->
        let key = (cls, bucket) in
        let cur = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
        Hashtbl.replace tbl key (max cur count))
      st.occupancy;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort compare
  in
  { cycles = max cycles 0; bits_moved = st.bits; usage; reads = st.reads; writes = st.writes }

let step (p : profile) st (node : Dfg.node) =
  let r = ready st node.preds in
  match node.kind with
  | Dfg.Source _ | Dfg.Move _ | Dfg.Move_out _ | Dfg.Reg_write _ ->
      st.finish.(node.id) <- r
  | Dfg.Op { cls; width; _ } ->
      sched_op p st node.id cls ~d:(Op_model.delay_ns cls ~width)
        ~bucket:(Op_model.width_bucket width) r
  | Dfg.Load { mem; width; _ } -> sched_mem p st node.id ~mem ~width ~is_read:true r
  | Dfg.Store { mem; width; _ } -> sched_mem p st node.id ~mem ~width ~is_read:false r

let run ?(mode : mode = `Joint) (p : profile) (g : Dfg.t) : result =
  let st = make_state ~mode g.Dfg.len in
  for i = 0 to g.Dfg.len - 1 do
    step p st g.Dfg.nodes.(i)
  done;
  finalize p st

type tri = { joint : result; mem_only : result; comp_only : result }

(* ------------------------------------------------------------------ *)
(* Content-addressed tri-schedule memo.

   [run_tri] is a pure function of the graph's schedule-relevant
   projection and the profile; {!Dfg.fingerprint} is injective on that
   projection, so a fingerprint -> tri table keyed by it is an *exact*
   memo: a hit returns the very record a fresh run would compute.

   One table serves one profile (the {!Design} context that owns it
   fixes the profile for its lifetime); tables are copied into domain
   forks and merged back with {!memo_absorb}, never shared across
   domains.

   A persisted table is attached unread ([pending]) and merged in only
   when the memo is first consulted, copied or absorbed, so a run that
   schedules nothing never reads it. [loaded] counts the shapes that
   merge brought in; every other entry was scheduled (or absorbed) by
   this process. *)

type table = (string, tri) Hashtbl.t

type memo = {
  table : table;
  mutable pending : (unit -> table option) option;
  mutable loaded : int;
}

let memo_create () : memo =
  { table = Hashtbl.create 256; pending = None; loaded = 0 }

let merge_into (into : table) (from : table) : int =
  Hashtbl.fold
    (fun fp tri n ->
      if Hashtbl.mem into fp then n
      else begin
        Hashtbl.replace into fp tri;
        n + 1
      end)
    from 0

let force (m : memo) =
  match m.pending with
  | None -> ()
  | Some read ->
      m.pending <- None;
      Option.iter (fun t -> m.loaded <- m.loaded + merge_into m.table t) (read ())

let memo_attach (m : memo) read =
  force m;
  m.pending <- Some read

let memo_copy (m : memo) : memo =
  force m;
  { table = Hashtbl.copy m.table; pending = None; loaded = m.loaded }

let memo_size (m : memo) : int = Hashtbl.length m.table
let memo_loaded (m : memo) : int = m.loaded
let memo_added (m : memo) : int = Hashtbl.length m.table - m.loaded

let memo_table (m : memo) : table =
  force m;
  m.table

let memo_absorb ~(into : memo) (forked : memo) : unit =
  force into;
  force forked;
  ignore (merge_into into.table forked.table)

(* Advance all three modes over node [i] of [g]. One walk: the node kind
   is matched and the operator delay/bucket looked up once, then each
   mode advances on its own state (ready times genuinely differ per
   mode, so they are computed per state). *)
let tri_step (p : profile) j m c (node : Dfg.node) =
  match node.kind with
  | Dfg.Source _ | Dfg.Move _ | Dfg.Move_out _ | Dfg.Reg_write _ ->
      j.finish.(node.id) <- ready j node.preds;
      m.finish.(node.id) <- ready m node.preds;
      c.finish.(node.id) <- ready c node.preds
  | Dfg.Op { cls; width; _ } ->
      let d = Op_model.delay_ns cls ~width in
      let bucket = Op_model.width_bucket width in
      sched_op p j node.id cls ~d ~bucket (ready j node.preds);
      m.finish.(node.id) <- ready m node.preds;
      sched_op p c node.id cls ~d ~bucket (ready c node.preds)
  | Dfg.Load { mem; width; _ } ->
      sched_mem p j node.id ~mem ~width ~is_read:true (ready j node.preds);
      sched_mem p m node.id ~mem ~width ~is_read:true (ready m node.preds);
      sched_mem p c node.id ~mem ~width ~is_read:true (ready c node.preds)
  | Dfg.Store { mem; width; _ } ->
      sched_mem p j node.id ~mem ~width ~is_read:false (ready j node.preds);
      sched_mem p m node.id ~mem ~width ~is_read:false (ready m node.preds);
      sched_mem p c node.id ~mem ~width ~is_read:false (ready c node.preds)

let run_tri (p : profile) (g : Dfg.t) : tri =
  let n = g.Dfg.len in
  let j = make_state ~mode:`Joint n in
  let m = make_state ~mode:`Mem_only n in
  let c = make_state ~mode:`Comp_only n in
  for i = 0 to n - 1 do
    tri_step p j m c g.Dfg.nodes.(i)
  done;
  { joint = finalize p j; mem_only = finalize p m; comp_only = finalize p c }

(** Memoized {!run_tri}: the stored record on a fingerprint hit, a
    fresh (and then stored) run otherwise. The flag reports the hit. *)
let run_tri_cached (memo : memo) (p : profile) (g : Dfg.t) : tri * bool =
  force memo;
  let fp = Dfg.fingerprint g in
  match Hashtbl.find_opt memo.table fp with
  | Some tri -> (tri, true)
  | None ->
      let tri = run_tri p g in
      Hashtbl.replace memo.table fp tri;
      (tri, false)
