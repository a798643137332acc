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
    produces them in a single walk over the graph's arrays (one traversal,
    one operator-class/delay lookup per node) instead of three separate
    {!run} calls. Both entry points share the same per-node scheduling
    helpers, so their results are identical by construction.

    The per-node path allocates nothing. Each mode's state is flat
    arrays (finish times, busy cycles per memory, operator counts per
    cycle and slot) kept in a {!scratch} that the estimator reuses for
    every block its domain schedules and resets between them. Times stay float
    nanoseconds, compared with the same [eps]; the helpers that take or
    return them are marked [@inline], so no float is boxed (without
    flambda, OCaml boxes every float that crosses a call it does not
    inline). *)

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

(* Operator slots: one per operator class and width bucket, numbered in
   the order [compare] sorts [(class, bucket)] keys, so [finalize] lists
   [usage] by walking the slots upwards. *)
let n_buckets = Array.length Op_model.buckets
let n_slots = Array.length Op_model.classes * n_buckets
let slot cls width = (Op_model.class_index cls * n_buckets) + Op_model.bucket_index width

(* One mode's scheduling state: finish times plus the memory-occupancy
   and operator-concurrency tables its constraints need. The three modes
   never share state, which is what lets [run_tri] advance all of them
   through a single node-array walk. Every table is a flat array that
   only grows; [reset] clears the part the previous block used, so a
   state serves every block of a kernel.

   - [busy.(m)] holds one byte per cycle, 1 when memory [m] is taken;
     [busy_hi.(m)] is one past the last cycle set since [reset], and
     [hint.(m)] the earliest cycle that may still be free (keeps the
     all-ready-at-zero relaxed schedules linear). Memory ids are
     non-negative.
   - [occupancy.(s)] counts slot [s]'s operators busy in each cycle,
     up to [occ_hi.(s)]; [peak.(s)] is the largest count so far, which
     is all [finalize] needs. *)
type state = {
  use_mem : bool;
  use_comp : bool;
  mutable finish : float array;
  mutable busy : Bytes.t array;
  mutable busy_hi : int array;
  mutable hint : int array;
  occupancy : int array array;
  occ_hi : int array;
  peak : int array;
  mutable bits : int;
  mutable reads : int;
  mutable writes : int;
}

let make_state ~(mode : mode) =
  {
    use_mem = mode <> `Comp_only;
    use_comp = mode <> `Mem_only;
    finish = [||];
    busy = [||];
    busy_hi = [||];
    hint = [||];
    occupancy = Array.make n_slots [||];
    occ_hi = Array.make n_slots 0;
    peak = Array.make n_slots 0;
    bits = 0;
    reads = 0;
    writes = 0;
  }

(* Ready [st] for a block of [n] nodes. *)
let reset st n =
  if Array.length st.finish < n then
    st.finish <- Array.make (max n (2 * Array.length st.finish)) 0.0;
  for m = 0 to Array.length st.busy - 1 do
    Bytes.fill st.busy.(m) 0 st.busy_hi.(m) '\000';
    st.busy_hi.(m) <- 0;
    st.hint.(m) <- 0
  done;
  for s = 0 to n_slots - 1 do
    Array.fill st.occupancy.(s) 0 st.occ_hi.(s) 0;
    st.occ_hi.(s) <- 0;
    st.peak.(s) <- 0
  done;
  st.bits <- 0;
  st.reads <- 0;
  st.writes <- 0

(* Make room for memory [m]'s cycles below [hi]. *)
let grow_busy st m hi =
  let mems = Array.length st.busy in
  if m >= mems then begin
    let n = max (m + 1) (2 * mems) in
    let extend a x = Array.append a (Array.make (n - mems) x) in
    st.busy <- extend st.busy Bytes.empty;
    st.busy_hi <- extend st.busy_hi 0;
    st.hint <- extend st.hint 0
  end;
  let b = st.busy.(m) in
  if Bytes.length b < hi then begin
    let bigger = Bytes.make (max hi (2 * Bytes.length b)) '\000' in
    Bytes.blit b 0 bigger 0 (Bytes.length b);
    st.busy.(m) <- bigger
  end

(* Are cycles [c, c + occ) of a busy table all free? Cycles past its end
   are. *)
let rec is_free b c occ =
  occ <= 0
  || ((c >= Bytes.length b || Bytes.get b c = '\000') && is_free b (c + 1) (occ - 1))

let find_slot st m c0 occ =
  grow_busy st m 0;
  let h = st.hint.(m) in
  let c = ref (max c0 h) in
  while not (is_free st.busy.(m) !c occ) do
    incr c
  done;
  let c = !c in
  grow_busy st m (c + occ);
  let b = st.busy.(m) in
  Bytes.fill b c occ '\001';
  if c + occ > st.busy_hi.(m) then st.busy_hi.(m) <- c + occ;
  (* advance the hint past any now-full prefix when this fill touched it *)
  if c = h then begin
    let h = ref h in
    while !h < Bytes.length b && Bytes.get b !h <> '\000' do
      incr h
    done;
    st.hint.(m) <- !h
  end;
  c

let occupy st s c0 c1 =
  let a = st.occupancy.(s) in
  let a =
    if Array.length a > c1 then a
    else begin
      let bigger = Array.make (max (c1 + 1) (2 * Array.length a)) 0 in
      Array.blit a 0 bigger 0 (Array.length a);
      st.occupancy.(s) <- bigger;
      bigger
    end
  in
  for c = c0 to c1 do
    let n = a.(c) + 1 in
    a.(c) <- n;
    if n > st.peak.(s) then st.peak.(s) <- n
  done;
  if c1 >= st.occ_hi.(s) then st.occ_hi.(s) <- c1 + 1

(* The latest finish among node [i]'s predecessors in [g]; 0 for none.
   Finish times are never NaN, so [>] picks what [Float.max] would. *)
let[@inline] ready (finish : float array) (g : Dfg.t) i =
  let r = ref 0.0 in
  for k = g.Dfg.pred_off.(i) to g.Dfg.pred_off.(i + 1) - 1 do
    let f = finish.(g.Dfg.preds.(k)) in
    if f > !r then r := f
  done;
  !r

let[@inline] boundary clk t =
  Float.of_int (int_of_float (Float.ceil ((t -. eps) /. clk))) *. clk

(* Per-node scheduling of one mode, shared verbatim by [run] and
   [run_tri]. Each takes the node's ready time [r] under that mode. *)

let[@inline] sched_op (p : profile) st id ~slot ~d r =
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
      occupy st slot c0 (max c0 c1)
    end
  end

let[@inline] sched_mem (p : profile) st id ~mem ~width ~is_read r =
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

(* The result of the block of [n] nodes [st] has scheduled. *)
let finalize (p : profile) st n : result =
  let clk = p.device.Device.clock_ns in
  let max_finish = ref 0.0 in
  for i = 0 to n - 1 do
    let f = st.finish.(i) in
    if f > !max_finish then max_finish := f
  done;
  let cycles = int_of_float (Float.ceil ((!max_finish -. eps) /. clk)) in
  let usage = ref [] in
  for s = n_slots - 1 downto 0 do
    if st.peak.(s) > 0 then
      let cls = Op_model.classes.(s / n_buckets) in
      usage := ((cls, Op_model.buckets.(s mod n_buckets)), st.peak.(s)) :: !usage
  done;
  {
    cycles = max cycles 0;
    bits_moved = st.bits;
    usage = !usage;
    reads = st.reads;
    writes = st.writes;
  }

(* Operator delays by class and width up to 64 bits (every width
   [Dtype] allows), read from a flat float array so that no delay comes
   back boxed per node. Built by the first scratch, so a process that
   schedules nothing pays nothing; domains that race to build it build
   equal tables, so whichever one is kept is right. *)
let max_table_width = 64

let delay_table : float array Atomic.t = Atomic.make [||]

let delays () =
  match Atomic.get delay_table with
  | [||] ->
      let t =
        Array.init
          (Array.length Op_model.classes * (max_table_width + 1))
          (fun i ->
            Op_model.delay_ns Op_model.classes.(i / (max_table_width + 1))
              ~width:(i mod (max_table_width + 1)))
      in
      Atomic.set delay_table t;
      t
  | t -> t

(** Scheduling scratch, reused from block to block: the three modes'
    states and the delay table. *)
type scratch = { j : state; m : state; c : state; delays : float array }

let scratch () =
  {
    j = make_state ~mode:`Joint;
    m = make_state ~mode:`Mem_only;
    c = make_state ~mode:`Comp_only;
    delays = delays ();
  }

let[@inline] delay sc cls width =
  if width < 0 || width > max_table_width then Op_model.delay_ns cls ~width
  else sc.delays.((Op_model.class_index cls * (max_table_width + 1)) + width)

let step (p : profile) sc st (g : Dfg.t) id =
  let r = ready st.finish g id in
  match g.Dfg.tag.(id) with
  | Dfg.K_op ->
      let cls = g.Dfg.cls.(id) and width = g.Dfg.width.(id) in
      sched_op p st id ~slot:(slot cls width) ~d:(delay sc cls width) r
  | Dfg.K_load ->
      sched_mem p st id ~mem:g.Dfg.mem.(id) ~width:g.Dfg.width.(id) ~is_read:true r
  | Dfg.K_store ->
      sched_mem p st id ~mem:g.Dfg.mem.(id) ~width:g.Dfg.width.(id) ~is_read:false r
  | Dfg.K_const | Dfg.K_scalar | Dfg.K_move | Dfg.K_move_out | Dfg.K_reg_write ->
      st.finish.(id) <- r

let run ?(mode : mode = `Joint) (p : profile) (g : Dfg.t) : result =
  let sc = scratch () in
  let st = match mode with `Joint -> sc.j | `Mem_only -> sc.m | `Comp_only -> sc.c in
  reset st g.Dfg.len;
  for i = 0 to g.Dfg.len - 1 do
    step p sc st g i
  done;
  finalize p st g.Dfg.len

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

(* Advance all three modes over one node. One walk: the node kind is
   matched and the operator delay/slot looked up once, then each mode
   advances on its own state (ready times genuinely differ per mode, so
   they are computed per state). *)
let tri_step (p : profile) sc (g : Dfg.t) id =
  let { j; m; c; _ } = sc in
  match g.Dfg.tag.(id) with
  | Dfg.K_op ->
      let cls = g.Dfg.cls.(id) and width = g.Dfg.width.(id) in
      let d = delay sc cls width in
      let slot = slot cls width in
      sched_op p j id ~slot ~d (ready j.finish g id);
      m.finish.(id) <- ready m.finish g id;
      sched_op p c id ~slot ~d (ready c.finish g id)
  | Dfg.K_load ->
      let mem = g.Dfg.mem.(id) and width = g.Dfg.width.(id) in
      sched_mem p j id ~mem ~width ~is_read:true (ready j.finish g id);
      sched_mem p m id ~mem ~width ~is_read:true (ready m.finish g id);
      sched_mem p c id ~mem ~width ~is_read:true (ready c.finish g id)
  | Dfg.K_store ->
      let mem = g.Dfg.mem.(id) and width = g.Dfg.width.(id) in
      sched_mem p j id ~mem ~width ~is_read:false (ready j.finish g id);
      sched_mem p m id ~mem ~width ~is_read:false (ready m.finish g id);
      sched_mem p c id ~mem ~width ~is_read:false (ready c.finish g id)
  | Dfg.K_const | Dfg.K_scalar | Dfg.K_move | Dfg.K_move_out | Dfg.K_reg_write ->
      j.finish.(id) <- ready j.finish g id;
      m.finish.(id) <- ready m.finish g id;
      c.finish.(id) <- ready c.finish g id

let run_tri ?scratch:sc (p : profile) (g : Dfg.t) : tri =
  let sc = match sc with Some sc -> sc | None -> scratch () in
  let n = g.Dfg.len in
  reset sc.j n;
  reset sc.m n;
  reset sc.c n;
  for i = 0 to n - 1 do
    tri_step p sc g i
  done;
  {
    joint = finalize p sc.j n;
    mem_only = finalize p sc.m n;
    comp_only = finalize p sc.c n;
  }

(** Memoized {!run_tri}: the stored record on a fingerprint hit, a
    fresh (and then stored) run otherwise. The flag reports the hit. *)
let run_tri_cached ~scratch (memo : memo) (p : profile) (g : Dfg.t) : tri * bool =
  force memo;
  let fp = Dfg.fingerprint g in
  match Hashtbl.find_opt memo.table fp with
  | Some tri -> (tri, true)
  | None ->
      let tri = run_tri ~scratch p g in
      Hashtbl.replace memo.table fp tri;
      (tri, false)
