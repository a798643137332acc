(** Tier-1 analytical pre-estimator: closed-form lower bounds on a
    design point's cycles and slices computed directly from the *source*
    kernel — no transform pipeline, no DFG, no scheduling.

    The bounds are *admissible*: for every unroll vector they never
    exceed what the full Generate;Synthesize estimate would report, so
    the search and the sweep may skip full synthesis of any point whose
    lower bound already disqualifies it (cannot fit the device, or
    cannot beat the incumbent) without ever changing which design they
    select. Three sources of cost survive every transformation the
    pipeline can apply:

    - {b Memory traffic.} Each distinct element of a never-written array
      that an unguarded read touches must be fetched from memory at
      least once (scalar replacement can remove re-loads, never the
      first load), and each distinct element an unguarded write touches
      must be stored at least once. Every such access occupies a memory
      port for its occupancy window, and ports are serialized per
      memory, so [total occupancy / num_memories] cycles is a floor on
      both the joint and the memory-only schedules. The footprint is a
      property of the source kernel alone — unrolling does not change
      it — so it is computed once per kernel, in {!facts}. It is
      counted per access: each access enumerates only the loops its
      subscripts mention and marks its elements in a bitset over the
      array's declared extents.

    - {b Loop control.} The estimator charges one control cycle per
      executed iteration of every surviving loop. Unrolling by [u]
      divides a loop's trip count by [u]; peeling can strip at most the
      four innermost-chain refill iterations (wherever they land after
      cascading) plus one carrier iteration per loop per execution, and
      a loop whose residual trip reaches one is folded away — hence the
      per-loop slack of 6 in {!bound}. Loops none of whose subtree
      accesses vary with their index are granted no overhead at all
      (their bodies can in principle be hoisted empty).

    - {b Structural area.} The memory interface (18 slices), the FSM
      floor (4), the registers for the kernel's declared scalars (no
      pass removes a declaration), and one instance of each operator
      class that appears with both operands data-dependent (such an
      operation can be widened or shared but never constant-folded
      away; it is charged at the narrowest width bucket).

    Guarded accesses, accesses whose subscripts cannot be evaluated at
    compile time, and anything under a conditional contribute nothing —
    dropping work only loosens a lower bound. The one care is dead
    code: a read whose value is never used could in principle be
    removed by a cleverer pipeline than ours; none of our passes drops
    loads, so the traffic bound holds for the estimator as built. *)

open Ir
module Access = Analysis.Access

type t = {
  cycles_lb : int;  (** lower bound on [Estimate.cycles] *)
  mem_cycles_lb : int;  (** lower bound on [Estimate.mem_only_cycles] *)
  comp_cycles_lb : int;  (** lower bound on [Estimate.comp_only_cycles] *)
  slices_lb : int;  (** lower bound on [Estimate.slices] *)
  balance_trend : float;
      (** [comp_cycles_lb / mem_cycles_lb] — same shape as the balance
          metric, usable to anticipate which side saturates first *)
}

(* Loop-control skeleton of the source kernel: one node per loop not
   nested under a conditional, [live] when some unguarded access in its
   subtree varies with the index. *)
type ctl = { index : string; trip : int; live : bool; inner : ctl list }

type facts = {
  device : Device.t;
  mem : Memory_model.t;
  min_port_cycles : int;
      (** total memory-port occupancy cycles of the mandatory footprint *)
  struct_slices : int;
      (** memory interface + FSM floor + operator floor (no registers) *)
  scalar_bits : int;  (** register bits of the declared scalars *)
  ctl : ctl list;
}

(* ------------------------------------------------------------------ *)
(* Footprint counting *)

exception Out_of_budget

(* The iteration spaces of the paper's kernels are a few thousand
   points per access; anything far beyond that stops early and keeps
   the partial footprint, which is still a valid lower bound. *)
let footprint_budget = 200_000

(* Arrays declared larger than this many elements are counted in the
   hashed set only, so a huge declaration never allocates its bitset. *)
let bitset_limit = 1 lsl 24

(* Elements of a bitset over [dims]; 0 (no bitset) beyond the limit or
   when an extent is not positive. *)
let bitset_size dims =
  List.fold_left
    (fun n d -> if n > 0 && d > 0 && n <= bitset_limit / d then n * d else 0)
    1 dims

(* An enclosing loop of an access, bound to the [env] slot of its depth. *)
type slot_loop = { slot : int; lo : int; hi : int; step : int }

(* Where one array's distinct touched elements are counted: a bitset
   over the declared extents (allocated at the first mark), and a hashed
   set for tuples outside them or of an undeclared array. [loads] tells
   which total a new element adds to: arrays the kernel writes count
   stores, the others loads, never both. *)
type target = {
  dims : int array;  (** declared extents; empty if undeclared *)
  size : int;  (** bits of [bits] once allocated; 0 for no bitset *)
  mutable bits : Bytes.t;
  outside : (int list, unit) Hashtbl.t;
  loads : bool;
}

(* A mandatory access compiled against its loop nest: the enclosing
   loops its subscripts mention, outermost first, and one evaluator per
   subscript over the loop slots. *)
type access = {
  target : target;
  enum : slot_loop list;
  subs : (int array -> int) array;
}

(* Compile-time evaluator of a subscript over the slots of the loops in
   [nest] (index name to loop, innermost first), marking the slots it
   reads in [used]; [None] for anything data-dependent. The evaluator raises
   [Exit] where the subscript has no value at the current iteration
   (division by zero, shift out of range): that iteration of the access
   is skipped. *)
let rec compile nest used (e : Ast.expr) : (int array -> int) option =
  match e with
  | Ast.Int n -> Some (fun _ -> n)
  | Ast.Var v -> (
      match List.assoc_opt v nest with
      | Some { slot; _ } ->
          used.(slot) <- true;
          Some (fun env -> Array.unsafe_get env slot)
      | None -> None)
  | Ast.Arr _ | Ast.Cond _ -> None
  | Ast.Un (op, x) -> (
      match (op, compile nest used x) with
      | Ast.Neg, Some f -> Some (fun env -> -f env)
      | Ast.Abs, Some f -> Some (fun env -> abs (f env))
      | _ -> None)
  | Ast.Bin (op, x, y) -> (
      match (compile nest used x, compile nest used y) with
      | Some f, Some g -> (
          let shift sh env =
            let b = g env in
            if b < 0 || b > 62 then raise Exit else sh (f env) b
          in
          match op with
          | Ast.Add -> Some (fun env -> f env + g env)
          | Ast.Sub -> Some (fun env -> f env - g env)
          | Ast.Mul -> Some (fun env -> f env * g env)
          | Ast.Div ->
              Some
                (fun env ->
                  let b = g env in
                  if b = 0 then raise Exit else f env / b)
          | Ast.Mod ->
              Some
                (fun env ->
                  let b = g env in
                  if b = 0 then raise Exit else f env mod b)
          | Ast.Min -> Some (fun env -> min (f env) (g env))
          | Ast.Max -> Some (fun env -> max (f env) (g env))
          | Ast.Shl -> Some (shift ( lsl ))
          | Ast.Shr -> Some (shift ( asr ))
          | _ -> None)
      | _ -> None)

(* Arrays written anywhere in the body, guarded writes included. *)
let written_arrays (body : Ast.stmt list) : (string, unit) Hashtbl.t =
  let written = Hashtbl.create 8 in
  let rec walk (s : Ast.stmt) =
    match s with
    | Ast.Assign (Ast.Larr (name, _), _) -> Hashtbl.replace written name ()
    | Ast.Assign (Ast.Lvar _, _) | Ast.Rotate _ -> ()
    | Ast.If (_, t, e) ->
        List.iter walk t;
        List.iter walk e
    | Ast.For l -> List.iter walk l.Ast.body
  in
  List.iter walk body;
  written

(* The mandatory accesses of [k] in document order: reads of arrays the
   kernel never writes, and all unguarded writes, including reads nested
   inside subscripts. Conditional branches contribute nothing, nor does
   an access whose subscripts are data-dependent, nor one under a loop
   that runs no iteration. A loop with a non-positive stride never
   terminates; it counts as running none, which only loosens the
   bound. *)
let compile_accesses (k : Ast.kernel) : access list =
  let written = written_arrays k.Ast.k_body in
  let targets : (string, target) Hashtbl.t = Hashtbl.create 8 in
  let target name =
    match Hashtbl.find_opt targets name with
    | Some t -> t
    | None ->
        let dims =
          match Ast.find_array k name with Some d -> d.Ast.a_dims | None -> []
        in
        let t =
          {
            dims = Array.of_list dims;
            size = bitset_size dims;
            bits = Bytes.empty;
            outside = Hashtbl.create 8;
            loads = not (Hashtbl.mem written name);
          }
        in
        Hashtbl.replace targets name t;
        t
  in
  let accesses = ref [] in
  let add nest name subs =
    let used = Array.make (List.length nest) false in
    let compiled = List.map (compile nest used) subs in
    if List.for_all Option.is_some compiled then
      accesses :=
        {
          target = target name;
          enum =
            List.rev
              (List.filter_map
                 (fun (_, l) -> if used.(l.slot) then Some l else None)
                 nest);
          subs = Array.of_list (List.map Option.get compiled);
        }
        :: !accesses
  in
  let rec expr_reads nest (e : Ast.expr) =
    match e with
    | Ast.Int _ | Ast.Var _ -> ()
    | Ast.Arr (name, subs) ->
        List.iter (expr_reads nest) subs;
        if not (Hashtbl.mem written name) then add nest name subs
    | Ast.Bin (_, a, b) ->
        expr_reads nest a;
        expr_reads nest b
    | Ast.Un (_, a) -> expr_reads nest a
    | Ast.Cond (c, _, _) -> expr_reads nest c
  in
  let rec walk nest (s : Ast.stmt) =
    match s with
    | Ast.Assign (lv, e) -> (
        expr_reads nest e;
        match lv with
        | Ast.Lvar _ -> ()
        | Ast.Larr (name, subs) ->
            List.iter (expr_reads nest) subs;
            add nest name subs)
    | Ast.If (c, _, _) -> expr_reads nest c
    | Ast.Rotate _ -> ()
    | Ast.For l ->
        if l.Ast.step > 0 && l.Ast.lo < l.Ast.hi then
          let loop =
            { slot = List.length nest; lo = l.Ast.lo; hi = l.Ast.hi; step = l.Ast.step }
          in
          List.iter (walk ((l.Ast.index, loop) :: nest)) l.Ast.body
  in
  List.iter (walk []) k.Ast.k_body;
  List.rev !accesses

(* Distinct elements touched by the mandatory accesses, as (loads,
   stores). Each access enumerates only the loops its subscripts
   mention and marks its evaluated tuples in its array's target. *)
let footprint (k : Ast.kernel) : int * int =
  let accesses = compile_accesses k in
  let depth =
    List.fold_left
      (fun d a -> List.fold_left (fun d l -> max d (l.slot + 1)) d a.enum)
      0 accesses
  in
  let env = Array.make depth 0 in
  let loads = ref 0 and stores = ref 0 in
  let fresh t = if t.loads then incr loads else incr stores in
  let budget = ref footprint_budget in
  let mark a vals =
    let t = a.target in
    let n = Array.length vals in
    let rec linear i acc =
      if i = n then acc
      else
        let v = Array.unsafe_get vals i and d = t.dims.(i) in
        if v < 0 || v >= d then -1 else linear (i + 1) ((acc * d) + v)
    in
    let idx = if t.size > 0 && n = Array.length t.dims then linear 0 0 else -1 in
    if idx >= 0 then begin
      if Bytes.length t.bits = 0 then t.bits <- Bytes.make ((t.size + 7) / 8) '\000';
      let byte = Char.code (Bytes.unsafe_get t.bits (idx lsr 3)) in
      let bit = 1 lsl (idx land 7) in
      if byte land bit = 0 then begin
        Bytes.unsafe_set t.bits (idx lsr 3) (Char.unsafe_chr (byte lor bit));
        fresh t
      end
    end
    else
      let key = Array.to_list vals in
      if not (Hashtbl.mem t.outside key) then begin
        Hashtbl.replace t.outside key ();
        fresh t
      end
  in
  let point a vals =
    decr budget;
    if !budget < 0 then raise Out_of_budget;
    match
      for i = 0 to Array.length vals - 1 do
        Array.unsafe_set vals i (a.subs.(i) env)
      done
    with
    | () -> mark a vals
    | exception Exit -> ()
  in
  let rec enumerate a vals = function
    | [] -> point a vals
    | l :: rest ->
        let v = ref l.lo in
        while !v < l.hi do
          Array.unsafe_set env l.slot !v;
          enumerate a vals rest;
          v := !v + l.step
        done
  in
  (try
     List.iter
       (fun a -> enumerate a (Array.make (Array.length a.subs) 0) a.enum)
       accesses
   with Out_of_budget -> ());
  (!loads, !stores)

(* ------------------------------------------------------------------ *)
(* Area floor *)

let classify_bin (op : Ast.binop) : Op_model.op_class option =
  match op with
  | Ast.Add | Ast.Sub -> Some Op_model.Add
  | Ast.Mul -> Some Op_model.Mul
  | Ast.Div | Ast.Mod -> Some Op_model.Div
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne -> Some Op_model.Cmp
  | Ast.And | Ast.Or | Ast.Band | Ast.Bor | Ast.Bxor -> Some Op_model.Logic
  | Ast.Shl | Ast.Shr -> Some Op_model.Shift_var
  | Ast.Min | Ast.Max -> Some Op_model.Min_max

let rec mentions_array (e : Ast.expr) =
  match e with
  | Ast.Arr _ -> true
  | Ast.Int _ | Ast.Var _ -> false
  | Ast.Bin (_, a, b) -> mentions_array a || mentions_array b
  | Ast.Un (_, a) -> mentions_array a
  | Ast.Cond (a, b, c) ->
      mentions_array a || mentions_array b || mentions_array c

(* One operator instance per class that appears with both operands
   data-dependent in unconditional code. Such an operation survives
   every pass (an operand holding an array value never folds to a
   constant, so the class is stable under unrolling and replacement),
   though CSE may share instances and temporaries may widen it — hence
   one unit per class, charged at the narrowest width bucket. *)
let op_floor (k : Ast.kernel) : int =
  let classes : (Op_model.op_class, unit) Hashtbl.t = Hashtbl.create 8 in
  let rec expr_ops (e : Ast.expr) =
    match e with
    | Ast.Int _ | Ast.Var _ -> ()
    | Ast.Arr (_, subs) -> List.iter expr_ops subs
    | Ast.Un (_, a) -> expr_ops a
    | Ast.Cond (c, _, _) -> expr_ops c
    | Ast.Bin (op, a, b) ->
        expr_ops a;
        expr_ops b;
        if mentions_array a && mentions_array b then
          Option.iter
            (fun cls ->
              if Op_model.delay_ns cls ~width:8 > 0.5 then
                Hashtbl.replace classes cls ())
            (classify_bin op)
  in
  let rec walk (s : Ast.stmt) =
    match s with
    | Ast.Assign (lv, e) -> (
        expr_ops e;
        match lv with
        | Ast.Lvar _ -> ()
        | Ast.Larr (_, subs) -> List.iter expr_ops subs)
    | Ast.If (c, _, _) -> expr_ops c
    | Ast.Rotate _ -> ()
    | Ast.For l -> List.iter walk l.Ast.body
  in
  List.iter walk k.Ast.k_body;
  Hashtbl.fold (fun cls () s -> s + Op_model.area cls ~width:8) classes 0

(* ------------------------------------------------------------------ *)
(* Facts *)

let facts ~(device : Device.t) ~(mem : Memory_model.t) (k : Ast.kernel) :
    facts =
  let accesses = Access.collect k.Ast.k_body in
  let live : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (a : Access.t) ->
      if not a.Access.guarded then
        List.iter
          (fun idx -> Hashtbl.replace live idx ())
          (Access.varying_indices a))
    accesses;
  let rec ctl_of (body : Ast.stmt list) : ctl list =
    List.filter_map
      (function
        | Ast.For l ->
            Some
              {
                index = l.Ast.index;
                trip = Ast.loop_trip l;
                live = Hashtbl.mem live l.Ast.index;
                inner = ctl_of l.Ast.body;
              }
        | _ -> None)
      body
  in
  let loads, stores = footprint k in
  let min_port_cycles =
    (loads * mem.Memory_model.read_occupancy)
    + (stores * mem.Memory_model.write_occupancy)
  in
  let scalar_bits =
    List.fold_left
      (fun s (d : Ast.scalar_decl) -> s + Dtype.bits d.Ast.s_elem)
      0 k.Ast.k_scalars
  in
  let struct_slices = 18 + 4 + op_floor k in
  {
    device;
    mem;
    min_port_cycles;
    struct_slices;
    scalar_bits;
    ctl = ctl_of k.Ast.k_body;
  }

(* ------------------------------------------------------------------ *)
(* Bounds at a vector *)

(* Peeling strips at most 4 innermost-chain iterations (wherever the
   cascade lands them) plus one carrier iteration per loop per
   execution, and a residual trip of 1 folds the loop away: overhead is
   safe only beyond 5 + 1 stripped iterations. *)
let peel_slack = 5

let bound (f : facts) ~(vector : (string * int) list) : t =
  let factor idx =
    match List.assoc_opt idx vector with Some u when u > 1 -> u | _ -> 1
  in
  (* Control cycles: the body structure of a loop executes [trip']
     times whether unrolled, jammed or peeled; only surviving
     iterations pay the control cycle. Ceiling division stays below
     the divisor-clamped trip the unroller actually uses. *)
  let rec control nodes =
    List.fold_left
      (fun s n ->
        let u = factor n.index in
        let trip' = (n.trip + u - 1) / u in
        s + (trip' * control n.inner)
        + (if n.live then max 0 (trip' - 1 - peel_slack) else 0))
      0 nodes
  in
  let comp_cycles_lb = control f.ctl in
  let mem_cycles_lb =
    let m = max 1 f.device.Device.num_memories in
    (f.min_port_cycles + m - 1) / m
  in
  let balance_trend =
    if mem_cycles_lb = 0 then Float.infinity
    else float_of_int comp_cycles_lb /. float_of_int mem_cycles_lb
  in
  (* Register-pressure term: every live loop whose residual trip cannot
     be peeled or folded away survives as a loop of the generated code,
     and the estimator charges each surviving loop a 16-bit counter
     register plus two FSM slices. The survival condition mirrors the
     control slack above: [trip' - 1 - peel_slack >= 1] leaves at least
     two iterations after every peel the pipeline can perform, so the
     loop is never folded. Facts computed from a strip-mined source see
     both the tile and the intra-tile loop here — the tile-aware part
     of the area bound. *)
  let rec surviving nodes =
    List.fold_left
      (fun n node ->
        let u = factor node.index in
        let trip' = (node.trip + u - 1) / u in
        n
        + (if node.live && trip' - 1 - peel_slack >= 1 then 1 else 0)
        + surviving node.inner)
      0 nodes
  in
  let loops = surviving f.ctl in
  let reg_slices =
    (f.scalar_bits + (16 * loops) + f.device.Device.ffs_per_slice - 1)
    / f.device.Device.ffs_per_slice
  in
  {
    cycles_lb = max comp_cycles_lb mem_cycles_lb;
    mem_cycles_lb;
    comp_cycles_lb;
    slices_lb = f.struct_slices + reg_slices + (2 * loops);
    balance_trend;
  }

let pp fmt (t : t) =
  Format.fprintf fmt "cycles>=%d (mem>=%d, comp>=%d) slices>=%d trend=%.3f"
    t.cycles_lb t.mem_cycles_lb t.comp_cycles_lb t.slices_lb t.balance_trend
