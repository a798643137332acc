(** Tier-1 analytical pre-estimator: closed-form lower bounds on a
    design point's cycles and slices computed directly from the *source*
    kernel — no transform pipeline, no DFG, no scheduling.

    The bounds are *admissible*: for every configuration they never
    exceed what the full Generate;Synthesize estimate would report, so
    the search and the sweep may skip full synthesis of any point whose
    lower bound already disqualifies it (cannot fit the device, or
    cannot beat the incumbent) without ever changing which design they
    select. These sources of cost survive every transformation the
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

    - {b Unreplaced traffic.} With scalar replacement off, nothing
      removes an access: load CSE is part of replacement. LICM hoists a
      read out of a loop only while it sits directly in that loop's
      body, does not vary with the loop and the loop writes no element
      of its array, and it never hoists a write. So each unguarded
      affine access runs once per iteration of the loops its subscripts
      mention and once per unrolled-body instance of the loops around
      the innermost surviving loop that keeps it in place. Identical
      hoisted reads share one temporary, so of one array's hoisted
      reads only the busiest counts. This floor applies to [sr-]
      configurations, where it is usually far above the footprint.

    - {b Loop control.} The estimator charges one control cycle per
      executed iteration of every surviving loop. Unrolling by [u]
      divides a loop's trip count by [u]; peeling can strip at most the
      four innermost-chain refill iterations (wherever they land after
      cascading) plus one carrier iteration per loop per execution, and
      a loop whose residual trip reaches one is folded away — hence the
      per-loop slack of 6 in {!bound} when scalar replacement and
      peeling are both on (peeling follows replacement only), and of 1
      otherwise. Loops none of whose subtree
      accesses vary with their index are granted no overhead at all
      (their bodies can in principle be hoisted empty).

    - {b Compute critical path.} An operator whose operands both read
      arrays never folds to a constant. Each innermost body's longest
      chain of such operators, each rounded to whole cycles as
      {!Schedule} rounds it (or, under chaining, the summed delay over
      the clock), runs once per executed instance of the unrolled body
      of every loop it varies with — LICM cannot hoist it out of those.
      An accumulation [x = x op e] chains its unrolled copies along a
      loop [x] does not vary with. Peeling may merge up to five
      iterations of a loop whose inner loops fold away into one block,
      so with scalar replacement and peeling on, such a loop keeps
      [max 1 (trip' - 5)] instances. Sums that repeat a term are
      skipped: scalar replacement turns their reads into registers and
      simplification may then merge or cancel the repeats.

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

(* One critical path of an innermost loop body, over operators that
   vary with every loop of [varies] (the innermost loop included): LICM
   cannot hoist such an operator out of any of those loops, so the path
   runs once per executed instance of the unrolled body of each. Its
   length is [base] cycles, plus [step] per unrolled copy of its
   longest-unrolled carrier loop for an accumulation; both are whole
   cycles without chaining and fractions of a cycle with it, rounded up
   once per path. *)
type path = {
  nest : (string * int) list;  (** enclosing loops and trips, innermost first *)
  varies : string list;
  base : float;
  carriers : string list;
  step : float;
}

(* An enclosing loop of an access that scalar replacement would leave
   in place: whether the access's subscripts vary with it, and whether
   it keeps LICM from hoisting the access (a write, or a read of an
   array the loop writes). *)
type level = { loop : string; loop_trip : int; mentioned : bool; blocks : bool }

type unreplaced = {
  array : string;
  read : bool;
  occupancy : int;
  levels : level list;  (** innermost first *)
}

type facts = {
  device : Device.t;
  mem : Memory_model.t;
  min_port_cycles : int;
      (** total memory-port occupancy cycles of the mandatory footprint *)
  unreplaced : unreplaced list;
      (** the accesses whose traffic bounds a point without scalar
          replacement *)
  paths : path list list;
      (** per innermost body with a positive trip, its critical paths *)
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
   data-dependent in unconditional code under loops that run (a loop
   of no iteration is deleted with its body). Such an operation survives
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
    | Ast.For l ->
        if l.Ast.step > 0 && l.Ast.lo < l.Ast.hi then List.iter walk l.Ast.body
  in
  List.iter walk k.Ast.k_body;
  Hashtbl.fold (fun cls () s -> s + Op_model.area cls ~width:8) classes 0

(* ------------------------------------------------------------------ *)
(* Compute critical path *)

(* Enclosing loop indices an expression's value varies with: the
   nonzero-coefficient variables of its affine form when it has one (the
   form simplification would leave), else the union over its operands.
   Only what varies with a loop keeps LICM from hoisting it out. *)
let rec varies_in nest (e : Ast.expr) : string list =
  match Affine.of_expr e with
  | Some f -> List.filter (fun v -> List.mem_assoc v nest) (Affine.vars f)
  | None -> (
      let union a b = List.sort_uniq compare (a @ b) in
      match e with
      | Ast.Int _ | Ast.Var _ -> []
      | Ast.Arr (_, subs) ->
          List.fold_left (fun acc s -> union acc (varies_in nest s)) [] subs
      | Ast.Un (_, a) -> varies_in nest a
      | Ast.Bin (_, a, b) -> union (varies_in nest a) (varies_in nest b)
      | Ast.Cond (c, t, el) ->
          union (varies_in nest c)
            (union (varies_in nest t) (varies_in nest el)))

(* Affine-shaped once scalar replacement turns its array reads into
   registers: simplification may then re-associate the whole subtree
   through its affine form, merging or cancelling repeated terms. Array
   reads are leaves; a product or quotient is affine-shaped when one
   side is a constant. *)
let rec affine_shaped (e : Ast.expr) =
  let rec constant (e : Ast.expr) =
    match e with
    | Ast.Int _ -> true
    | Ast.Un (Ast.Neg, a) -> constant a
    | Ast.Bin ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), a, b) ->
        constant a && constant b
    | _ -> false
  in
  match e with
  | Ast.Int _ | Ast.Var _ | Ast.Arr _ -> true
  | Ast.Un (Ast.Neg, a) -> affine_shaped a
  | Ast.Bin ((Ast.Add | Ast.Sub), a, b) -> affine_shaped a && affine_shaped b
  | Ast.Bin ((Ast.Mul | Ast.Div), a, b) ->
      (constant a && affine_shaped b) || (affine_shaped a && constant b)
  | _ -> false

(* Whether an affine-shaped subtree reads one term twice: a scalar, or
   an array element whose subscripts have the same affine form. *)
let repeats_term (e : Ast.expr) =
  let key (s : Ast.expr) =
    match Affine.of_expr s with Some f -> Affine.to_expr f | None -> s
  in
  let rec leaves acc (e : Ast.expr) =
    match e with
    | Ast.Int _ -> acc
    | Ast.Var _ -> e :: acc
    | Ast.Arr (a, subs) -> Ast.Arr (a, List.map key subs) :: acc
    | Ast.Un (_, a) -> leaves acc a
    | Ast.Bin (_, a, b) -> leaves (leaves acc a) b
    | Ast.Cond _ -> acc
  in
  let l = leaves [] e in
  List.length (List.sort_uniq compare l) < List.length l

(* Cycles the scheduler charges an operator of delay [d] ns on a path:
   without chaining each one starts at a cycle boundary, so it costs its
   delay rounded up to whole cycles ([Schedule]'s rounding); with
   chaining only the summed delay counts, rounded once per path. *)
let eps = 1e-6

let whole_cycles x = int_of_float (Float.ceil (x -. eps))

let op_cycles ~clk ~chaining d =
  if chaining then d /. clk else float_of_int (whole_cycles (d /. clk))

(* The critical paths of the innermost body [body] under [nest] (index
   to trip, innermost first). An operator counts when both operands are
   data-dependent ({!op_floor}'s test), the operands differ, it sits
   outside any affine-shaped subtree that repeats a term, and its value
   varies with the innermost loop. For each set of loops such an
   operator varies with, the path counts the operators varying with all
   of them. Operators are charged at the narrowest width: a pass may
   re-associate a sum and narrow its intermediate joins.

   An accumulation [x = x op e] (the body's only assignment to [x]) adds
   a path whose last operator repeats once per unrolled copy of a
   carrier loop, one [x] does not vary with: the copies are separate
   assignments to [x], each waiting for the one before it. *)
let body_paths ~clk ~chaining nest (body : Ast.stmt list) : path list =
  let inner = match nest with (idx, _) :: _ -> idx | [] -> "" in
  let exprs =
    List.concat_map
      (function
        | Ast.Assign (Ast.Lvar _, e) -> [ e ]
        | Ast.Assign (Ast.Larr (_, subs), e) -> e :: subs
        | Ast.If (c, _, _) -> [ c ]
        | Ast.For _ | Ast.Rotate _ -> [])
      body
  in
  (* Counted operators with their cost in cycles and the loops each
     varies with; [dup] marks a subtree inside an affine-shaped one that
     repeats a term. *)
  let counted = Hashtbl.create 16 in
  let rec mark ~dup (e : Ast.expr) =
    let dup = dup || (affine_shaped e && repeats_term e) in
    match e with
    | Ast.Int _ | Ast.Var _ -> ()
    | Ast.Arr (_, subs) -> List.iter (mark ~dup) subs
    | Ast.Un (_, a) -> mark ~dup a
    | Ast.Cond (c, _, _) -> mark ~dup c
    | Ast.Bin (op, a, b) ->
        mark ~dup a;
        mark ~dup b;
        if (not dup) && a <> b && mentions_array a && mentions_array b then
          Option.iter
            (fun cls ->
              let d = Op_model.delay_ns cls ~width:1 in
              let v = varies_in nest e in
              if d > 1.0 && List.mem inner v then
                Hashtbl.replace counted e (op_cycles ~clk ~chaining d, v))
            (classify_bin op)
  in
  List.iter (mark ~dup:false) exprs;
  (* Longest path over the operators varying with every loop of [set]. *)
  let rec longest set (e : Ast.expr) : float =
    let children =
      match e with
      | Ast.Int _ | Ast.Var _ -> []
      | Ast.Arr (_, subs) -> subs
      | Ast.Un (_, a) -> [ a ]
      | Ast.Cond (c, _, _) -> [ c ]
      | Ast.Bin (_, a, b) -> [ a; b ]
    in
    let below = longest_of set children in
    match Hashtbl.find_opt counted e with
    | Some (c, v) when List.for_all (fun i -> List.mem i v) set -> below +. c
    | _ -> below
  and longest_of set es =
    List.fold_left (fun m x -> Float.max m (longest set x)) 0.0 es
  in
  let path ?(carriers = []) ?(step = 0.0) set base =
    { nest; varies = set; base; carriers; step }
  in
  let plain =
    Hashtbl.fold (fun _ (_, v) acc -> v :: acc) counted []
    |> List.sort_uniq compare
    |> List.map (fun set -> path set (longest_of set exprs))
  in
  (* Accumulations: the target's only assignment in the body is
     [x = x op e] (either operand order) with [op] a counted operator. *)
  let assigns_to (lv : Ast.lvalue) =
    List.length
      (List.filter
         (function
           | Ast.Assign (Ast.Lvar v, _) -> lv = Ast.Lvar v
           | Ast.Assign (Ast.Larr (a, _), _) -> (
               match lv with Ast.Larr (a', _) -> a = a' | Ast.Lvar _ -> false)
           | _ -> false)
         body)
  in
  let accumulations =
    List.filter_map
      (function
        | Ast.Assign (lv, (Ast.Bin (_, a, b) as top)) -> (
            let target =
              match lv with
              | Ast.Lvar v -> Ast.Var v
              | Ast.Larr (x, subs) -> Ast.Arr (x, subs)
            in
            let e =
              if a = target then Some b else if b = target then Some a else None
            in
            match (e, Hashtbl.find_opt counted top) with
            | Some e, Some (d, set) when assigns_to lv = 1 ->
                let fixed = varies_in nest target in
                let carriers =
                  List.filter
                    (fun idx -> not (List.mem idx fixed))
                    (List.map fst nest)
                in
                if carriers = [] then None
                else Some (path ~carriers ~step:d set (longest set e))
            | _ -> None)
        | _ -> None)
      body
  in
  plain @ accumulations

(* The critical paths of every innermost loop body of [k] not nested
   under a conditional and whose enclosing loops all run. *)
let innermost_paths ~clk ~chaining (k : Ast.kernel) : path list list =
  let rec walk nest acc (s : Ast.stmt) =
    match s with
    | Ast.For l ->
        let trip = if l.Ast.step > 0 then Ast.loop_trip l else 0 in
        if trip = 0 then acc
        else
          let nest = (l.Ast.index, trip) :: nest in
          let has_loop =
            List.exists (function Ast.For _ -> true | _ -> false) l.Ast.body
          in
          if has_loop then List.fold_left (walk nest) acc l.Ast.body
          else body_paths ~clk ~chaining nest l.Ast.body :: acc
    | Ast.Assign _ | Ast.If _ | Ast.Rotate _ -> acc
  in
  List.rev (List.fold_left (walk []) [] k.Ast.k_body)
  |> List.filter (fun ps -> ps <> [])

(* ------------------------------------------------------------------ *)
(* Memory traffic without scalar replacement *)

(* Every unguarded access whose subscripts are all affine, with its
   port occupancy and its enclosing loops, innermost first. With scalar
   replacement off nothing removes an access (load CSE is part of
   replacement). LICM hoists a read out of a loop only while it sits
   directly in that loop's body, does not vary with the loop and the
   loop writes no element of its array; a write is never hoisted. So
   an access stays in the innermost surviving loop that blocks it, runs
   on each iteration of that loop and every loop around it, and is
   copied once per iteration of each loop inside it that its subscripts
   mention. *)
let unreplaced_accesses ~(mem : Memory_model.t) (accesses : Access.t list) :
    unreplaced list =
  List.filter_map
    (fun (a : Access.t) ->
      let forms = a.Access.affine in
      if a.Access.guarded || List.exists Option.is_none forms then None
      else
        Some
          {
            array = a.Access.array;
            read = Access.is_read a;
            occupancy =
              (if Access.is_read a then mem.Memory_model.read_occupancy
               else mem.Memory_model.write_occupancy);
            levels =
              List.map
                (fun (l : Ast.loop) ->
                  {
                    loop = l.Ast.index;
                    loop_trip = (if l.Ast.step > 0 then Ast.loop_trip l else 0);
                    mentioned =
                      List.exists
                        (function
                          | Some f -> Affine.coeff f l.Ast.index <> 0
                          | None -> false)
                        forms;
                    blocks =
                      Access.is_write a
                      || Hashtbl.mem (written_arrays l.Ast.body) a.Access.array;
                  })
                (List.rev a.Access.loops);
          })
    accesses

(* ------------------------------------------------------------------ *)
(* Facts *)

let facts ~(device : Device.t) ~(mem : Memory_model.t) ?(chaining = true)
    (k : Ast.kernel) : facts =
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
    unreplaced = unreplaced_accesses ~mem accesses;
    paths = innermost_paths ~clk:device.Device.clock_ns ~chaining k;
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

let bound ?(scalar_replace = true) ?(peel = true) (f : facts)
    ~(vector : (string * int) list) : t =
  let factor idx =
    match List.assoc_opt idx vector with Some u when u > 1 -> u | _ -> 1
  in
  let peeled = scalar_replace && peel in
  (* Control cycles: the body structure of a loop executes [trip']
     times whether unrolled, jammed or peeled; only surviving
     iterations pay the control cycle. Ceiling division stays below
     the divisor-clamped trip the unroller actually uses, less one.
     Peeling (which follows scalar replacement only, and only when
     enabled) strips up to [peel_slack] more. *)
  let slack = if peeled then 1 + peel_slack else 1 in
  let rec control nodes =
    List.fold_left
      (fun s n ->
        let u = factor n.index in
        let trip' = (n.trip + u - 1) / u in
        s + (trip' * control n.inner)
        + (if n.live then max 0 (trip' - slack) else 0))
      0 nodes
  in
  (* Critical paths: each runs once per executed instance of the
     unrolled body of every loop it varies with. Peeling may pull up to
     [peel_slack] iterations of a loop into straight-line copies that
     share one block, so such a loop keeps at least one instance beyond
     them. Only a loop whose inner loops all fold away under peeling can
     lose instances: a peeled iteration of any other loop still holds
     its inner loop. An accumulation chains its copies along a carrier
     unrolled by a divisor of its trip (a remainder would leave a
     shorter epilogue copy). *)
  let path_cycles p =
    let copies =
      List.fold_left
        (fun best idx ->
          let u = factor idx in
          if List.assoc idx p.nest mod u = 0 then max best u else best)
        1 p.carriers
    in
    let per_instance =
      whole_cycles (p.base +. (float_of_int copies *. p.step))
    in
    let rec instances n folds = function
      | [] -> n
      | (idx, trip) :: outer ->
          let trip' = (trip + factor idx - 1) / factor idx in
          let kept =
            if peeled && folds then max 1 (trip' - peel_slack) else trip'
          in
          instances
            (if List.mem idx p.varies then n * kept else n)
            (folds && trip' <= peel_slack + 1)
            outer
    in
    instances per_instance true p.nest
  in
  (* Executions of an access without scalar replacement: once per
     iteration of each loop its subscripts mention, and once per
     executed instance of the unrolled body of every other loop from the
     innermost surviving loop (two whole unrolled iterations or more)
     that keeps LICM from hoisting it outward. Identical copies of the
     access in one unrolled body count once. The flag tells whether
     LICM may hoist the access out of the innermost loop that survives
     unrolling. *)
  let executions levels =
    let rec go n anchored hoisted = function
      | [] -> (n, hoisted)
      | l :: _ when l.loop_trip = 0 -> (0, hoisted)
      | l :: outer ->
          let u = factor l.loop in
          let survives = l.loop_trip / u >= 2 in
          let keeps = survives && (l.mentioned || l.blocks) in
          let hoisted = hoisted || (survives && not (anchored || keeps)) in
          let anchored = anchored || keeps in
          let copies =
            if l.mentioned then l.loop_trip
            else if anchored then (l.loop_trip + u - 1) / u
            else 1
          in
          go (n * copies) anchored hoisted outer
    in
    go 1 false false levels
  in
  (* LICM hoists identical expressions into one temporary, so of the
     hoisted reads of one array only the busiest one is sure to stay
     distinct; every other access keeps its own traffic. *)
  let unreplaced_cycles () =
    let kept, hoisted =
      List.fold_left
        (fun (kept, hoisted) a ->
          let n, h = executions a.levels in
          let c = a.occupancy * n in
          if h && a.read then
            let best =
              Option.value ~default:0 (List.assoc_opt a.array hoisted)
            in
            (kept, (a.array, max best c) :: List.remove_assoc a.array hoisted)
          else (kept + c, hoisted))
        (0, []) f.unreplaced
    in
    List.fold_left (fun s (_, c) -> s + c) kept hoisted
  in
  let compute =
    List.fold_left
      (fun s paths ->
        s + List.fold_left (fun best p -> max best (path_cycles p)) 0 paths)
      0 f.paths
  in
  let comp_cycles_lb = control f.ctl + compute in
  let mem_cycles_lb =
    let m = max 1 f.device.Device.num_memories in
    let ports =
      if scalar_replace then f.min_port_cycles
      else max f.min_port_cycles (unreplaced_cycles ())
    in
    (ports + m - 1) / m
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
