(** Cycle-faithful datapath simulation of the synthesized design.

    Where the reference interpreter ({!Ir.Eval}) executes the *IR*, this
    module executes the *hardware*: the very data-flow graphs the
    scheduler timed — predicated stores, unconditionally-issued loads,
    register banks rotating on clock edges, finite-width register
    commits, and the memory banking chosen by the data layout. Agreement
    between the two (checked in the test suite for every kernel and many
    unroll vectors) validates that the structures the estimator prices
    really do compute the source program.

    Semantics notes, mirroring predicated hardware:
    - loads on a not-taken path are still issued (the paper's conditional
      memory accesses); their addresses are clamped into the array so the
      dead value is representable, then discarded by the merge mux;
    - division by zero on a not-taken path yields 0 rather than trapping;
    - [&&]/[||] evaluate both operands (no short circuit) — identical
      results on all defined executions. *)

open Ir
module Access = Analysis.Access
module Layout = Data_layout.Layout

type result = {
  arrays : (string * int array) list;  (** final contents, declaration order *)
  cycles : int;  (** same static accounting as {!Estimate} *)
  dynamic_loads : int;  (** loads issued, counting every iteration *)
  dynamic_stores : int;  (** stores issued (committed or suppressed) *)
  stores_suppressed : int;  (** predicated stores whose guard was false *)
}

(* Static structure: blocks with prebuilt graphs and schedule lengths. *)
type region =
  | Block of {
      nodes : Dfg.node array;  (** the block's graph, decoded once *)
      defs : (string * int) list;  (** scalar -> node at block exit *)
      len : int;  (** joint schedule length in cycles *)
    }
  | Loop of Ast.loop * region list

let build_regions (p : Estimate.profile) (kernel : Ast.kernel) : region list =
  let sched_profile =
    { Schedule.device = p.Estimate.device; mem = p.Estimate.mem;
      chaining = p.Estimate.chaining }
  in
  let accesses = Access.collect kernel.k_body in
  let layout =
    Layout.assign ~num_memories:p.Estimate.device.Device.num_memories kernel
      accesses
  in
  let mem_of a = Layout.memory_of layout a in
  let cursor = Dfg.cursor_of accesses in
  let rec walk (body : Ast.stmt list) : region list =
    let flush chunk acc =
      match List.rev chunk with
      | [] -> acc
      | stmts ->
          let graph, defs =
            Dfg.of_block_with_defs ~kernel ~mem_of ~cursor stmts
          in
          let len = (Schedule.run ~mode:`Joint sched_profile graph).Schedule.cycles in
          Block { nodes = Dfg.nodes graph; defs; len } :: acc
    in
    let rec go chunk acc = function
      | [] -> List.rev (flush chunk acc)
      | Ast.For l :: rest ->
          let acc = flush chunk acc in
          let inner = walk l.body in
          go [] (Loop (l, inner) :: acc) rest
      | s :: rest -> go (s :: chunk) acc rest
    in
    go [] [] body
  in
  walk kernel.k_body

(* ------------------------------------------------------------------ *)

type state = {
  kernel : Ast.kernel;
  arrays : (string, int array) Hashtbl.t;
  scalars : (string, int) Hashtbl.t;
  mutable cycles : int;
  mutable loads : int;
  mutable stores : int;
  mutable suppressed : int;
}

let scalar_type st v =
  match Ast.find_scalar st.kernel v with
  | Some s -> s.Ast.s_elem
  | None -> Dtype.int32

let bool_of v = v <> 0
let b2i b = if b then 1 else 0

let eval_bin (op : Ast.binop) a b =
  match op with
  | Ast.Add -> a + b
  | Ast.Sub -> a - b
  | Ast.Mul -> a * b
  | Ast.Div -> if b = 0 then 0 else a / b
  | Ast.Mod -> if b = 0 then 0 else a mod b
  | Ast.Lt -> b2i (a < b)
  | Ast.Le -> b2i (a <= b)
  | Ast.Gt -> b2i (a > b)
  | Ast.Ge -> b2i (a >= b)
  | Ast.Eq -> b2i (a = b)
  | Ast.Ne -> b2i (a <> b)
  | Ast.And -> b2i (bool_of a && bool_of b)
  | Ast.Or -> b2i (bool_of a || bool_of b)
  | Ast.Band -> a land b
  | Ast.Bor -> a lor b
  | Ast.Bxor -> a lxor b
  | Ast.Shl -> a lsl max 0 b
  | Ast.Shr -> a asr max 0 b
  | Ast.Min -> min a b
  | Ast.Max -> max a b

let eval_un (op : Ast.unop) a =
  match op with
  | Ast.Neg -> -a
  | Ast.Not -> b2i (a = 0)
  | Ast.Bnot -> lnot a
  | Ast.Abs -> abs a

(** Execute one block instance under the current state. *)
let exec_block st (nodes : Dfg.node array) (defs : (string * int) list) =
  let n = Array.length nodes in
  let values = Array.make (max n 1) 0 in
  for node_i = 0 to n - 1 do
    (fun (node : Dfg.node) ->
      let v =
        match node.Dfg.kind with
        | Dfg.Source (Dfg.Const c) -> c
        | Dfg.Source (Dfg.Scalar s) ->
            Option.value ~default:0 (Hashtbl.find_opt st.scalars s)
        | Dfg.Op { sem = Dfg.Sbin op; _ } -> (
            match node.preds with
            | a :: b :: _ -> eval_bin op values.(a) values.(b)
            | _ -> 0)
        | Dfg.Op { sem = Dfg.Sun op; _ } -> (
            match node.preds with a :: _ -> eval_un op values.(a) | _ -> 0)
        | Dfg.Op { sem = Dfg.Smux; _ } -> (
            match node.preds with
            | c :: t :: e :: _ -> if bool_of values.(c) then values.(t) else values.(e)
            | _ -> 0)
        | Dfg.Load { array; addr; _ } -> (
            st.loads <- st.loads + 1;
            match Hashtbl.find_opt st.arrays array with
            | Some data when Array.length data > 0 ->
                let a = values.(addr) in
                let a = if a < 0 then 0 else if a >= Array.length data then Array.length data - 1 else a in
                data.(a)
            | _ -> 0)
        | Dfg.Store { array; addr; value; guards; _ } -> (
            st.stores <- st.stores + 1;
            let taken =
              List.for_all (fun (g, pol) -> bool_of values.(g) = pol) guards
            in
            if not taken then begin
              st.suppressed <- st.suppressed + 1;
              0
            end
            else
              match Hashtbl.find_opt st.arrays array with
              | Some data when Array.length data > 0 ->
                  let a = values.(addr) in
                  if a >= 0 && a < Array.length data then begin
                    let elem =
                      match Ast.find_array st.kernel array with
                      | Some d -> d.Ast.a_elem
                      | None -> Dtype.int32
                    in
                    data.(a) <- Dtype.wrap elem values.(value)
                  end;
                  0
              | _ -> 0)
        | Dfg.Move _ -> 0
        | Dfg.Move_out { move; index } -> (
            match nodes.(move).Dfg.kind with
            | Dfg.Move { pre; _ } ->
                let m = List.length pre in
                values.(List.nth pre ((index + 1) mod m))
            | _ -> 0)
        | Dfg.Reg_write { scalar; value } ->
            Dtype.wrap (scalar_type st scalar) values.(value)
      in
      values.(node.Dfg.id) <- v)
      nodes.(node_i)
  done;
  (* Commit scalar state at block exit. *)
  List.iter (fun (v, node) -> Hashtbl.replace st.scalars v values.(node)) defs

let rec exec_regions st rs =
  List.iter
    (fun r ->
      match r with
      | Block { nodes; defs; len } ->
          st.cycles <- st.cycles + len;
          exec_block st nodes defs
      | Loop (l, inner) ->
          let i = ref l.Ast.lo in
          while !i < l.Ast.hi do
            Hashtbl.replace st.scalars l.Ast.index !i;
            st.cycles <- st.cycles + Estimate.loop_overhead_cycles;
            exec_regions st inner;
            i := !i + l.Ast.step
          done)
    rs

(** Simulate a transformed kernel on the given inputs. *)
let run ?(inputs = []) (p : Estimate.profile) (kernel : Ast.kernel) : result =
  let regions = build_regions p kernel in
  let arrays = Hashtbl.create 16 in
  List.iter
    (fun (a : Ast.array_decl) ->
      Hashtbl.replace arrays a.a_name (Array.make (Ast.array_size a) 0))
    kernel.k_arrays;
  List.iter
    (fun (name, data) ->
      match Ast.find_array kernel name with
      | Some a ->
          Hashtbl.replace arrays name (Array.map (Dtype.wrap a.a_elem) data)
      | None -> ())
    inputs;
  let st =
    {
      kernel;
      arrays;
      scalars = Hashtbl.create 16;
      cycles = 0;
      loads = 0;
      stores = 0;
      suppressed = 0;
    }
  in
  exec_regions st regions;
  {
    arrays =
      List.map
        (fun (a : Ast.array_decl) ->
          (a.a_name, Array.copy (Hashtbl.find arrays a.a_name)))
        kernel.k_arrays;
    cycles = st.cycles;
    dynamic_loads = st.loads;
    dynamic_stores = st.stores;
    stores_suppressed = st.suppressed;
  }
