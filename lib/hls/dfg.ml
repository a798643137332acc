(** Data-flow graph construction for one straight-line block (a loop body
    or pre/post region with the inner loops factored out).

    Nodes carry two independent facets:

    - a {e timing} facet (operator class and width) consumed by the
      {!Schedule} ASAP scheduler, and
    - a {e semantic} facet (which operation, which operands, which array
      element) consumed by the {!Sim} datapath simulator, which executes
      the scheduled graph and must reproduce the reference interpreter's
      results bit for bit.

    Conditionals are predicated, the way behavioral synthesis schedules
    them for a static FSM: both branches' operations are built, scalar
    targets merge through a multiplexer, loads are issued unconditionally
    (the paper's "the generated code always performs conditional memory
    accesses"), and stores carry their guard conditions so the datapath
    suppresses the write when the path is not taken. Register rotation is
    a free parallel register transfer. Subscript arithmetic is linearized
    into explicit address-computation nodes feeding the memory
    operation.

    The estimator builds a graph per block per design point, so the
    graph is stored flat: one array per node field, a single pool of
    predecessor ids, and a table of guard contexts, all kept in a
    {!scratch} that only grows. Building a node writes array slots and
    allocates nothing; the record form ({!node}) is decoded on demand
    for the simulator and the tests. *)

open Ir
module Access = Analysis.Access

type source = Const of int | Scalar of string

(** Semantic operation of an [Op] node, aligned with its predecessors:
    binary operators take the first two preds, the mux takes
    (condition, then, else). *)
type op_sem = Sbin of Ast.binop | Sun of Ast.unop | Smux

type node_kind =
  | Source of source  (** block input: ready at t = 0 *)
  | Op of { sem : op_sem; cls : Op_model.op_class; width : int }
  | Load of { array : string; mem : int; width : int; addr : int }
      (** [addr]: node computing the flat (row-major) element index *)
  | Store of {
      array : string;
      mem : int;
      width : int;
      addr : int;
      value : int;
      guards : (int * bool) list;
          (** all must evaluate to the given polarity for the write to
              commit; timing-wise the slot is always occupied *)
    }
  | Move of { regs : string list; pre : int list }
      (** parallel left rotation of [regs], whose pre-rotation values are
          the nodes [pre]; costs nothing in the datapath *)
  | Move_out of { move : int; index : int }
      (** the value of register [index] of rotation [move] after it fires *)
  | Reg_write of { scalar : string; value : int }
      (** commit of a scalar assignment: the register truncates the value
          to the scalar's declared width (hardware registers are finite);
          free in the schedule — the write happens on the clock edge *)

type node = { id : int; kind : node_kind; preds : int list }

type tag =
  | K_const
  | K_scalar
  | K_op
  | K_load
  | K_store
  | K_move
  | K_move_out
  | K_reg_write

type t = {
  len : int;
  fp : string;
  tag : tag array;
  cls : Op_model.op_class array;
  width : int array;
  mem : int array;
  payload : int array;
  name : string array;
  pred_off : int array;
  preds : int array;
  guard_up : int array;
  guard_cond : int array;
}

let fingerprint (g : t) : string = g.fp

(* ------------------------------------------------------------------ *)
(* Semantic operations as payload codes: binary operators at their
   declaration index, unary ones after them, the mux last. *)

let binops =
  Ast.
    [|
      Add; Sub; Mul; Div; Mod; Lt; Le; Gt; Ge; Eq; Ne; And; Or; Band; Bor; Bxor;
      Shl; Shr; Min; Max;
    |]

let unops = Ast.[| Neg; Not; Bnot; Abs |]

let binop_code : Ast.binop -> int = function
  | Ast.Add -> 0
  | Ast.Sub -> 1
  | Ast.Mul -> 2
  | Ast.Div -> 3
  | Ast.Mod -> 4
  | Ast.Lt -> 5
  | Ast.Le -> 6
  | Ast.Gt -> 7
  | Ast.Ge -> 8
  | Ast.Eq -> 9
  | Ast.Ne -> 10
  | Ast.And -> 11
  | Ast.Or -> 12
  | Ast.Band -> 13
  | Ast.Bor -> 14
  | Ast.Bxor -> 15
  | Ast.Shl -> 16
  | Ast.Shr -> 17
  | Ast.Min -> 18
  | Ast.Max -> 19

let unop_code : Ast.unop -> int = function
  | Ast.Neg -> 20
  | Ast.Not -> 21
  | Ast.Bnot -> 22
  | Ast.Abs -> 23

let mux_code = 24

let sem_of_code c =
  if c = mux_code then Smux
  else if c >= Array.length binops then Sun unops.(c - Array.length binops)
  else Sbin binops.(c)

(* ------------------------------------------------------------------ *)
(* Decoding *)

let preds_of (g : t) i =
  let rec go k acc = if k < g.pred_off.(i) then acc else go (k - 1) (g.preds.(k) :: acc) in
  go (g.pred_off.(i + 1) - 1) []

let pred (g : t) i k = g.preds.(g.pred_off.(i) + k)

let rec guards_of (g : t) c =
  if c < 0 then []
  else
    let cond = g.guard_cond.(c) in
    (cond lsr 1, cond land 1 = 1) :: guards_of g g.guard_up.(c)

let node (g : t) i : node =
  if i < 0 || i >= g.len then invalid_arg "Dfg.node";
  let kind =
    match g.tag.(i) with
    | K_const -> Source (Const g.payload.(i))
    | K_scalar -> Source (Scalar g.name.(i))
    | K_op -> Op { sem = sem_of_code g.payload.(i); cls = g.cls.(i); width = g.width.(i) }
    | K_load -> Load { array = g.name.(i); mem = g.mem.(i); width = g.width.(i); addr = pred g i 0 }
    | K_store ->
        Store
          {
            array = g.name.(i);
            mem = g.mem.(i);
            width = g.width.(i);
            addr = pred g i 1;
            value = pred g i 0;
            guards = guards_of g g.payload.(i);
          }
    | K_move ->
        let n = g.pred_off.(i + 1) - g.pred_off.(i) in
        Move { regs = List.init n (fun k -> g.name.(i + 1 + k)); pre = preds_of g i }
    | K_move_out -> Move_out { move = pred g i 0; index = g.payload.(i) }
    | K_reg_write -> Reg_write { scalar = g.name.(i); value = pred g i 0 }
  in
  { id = i; kind; preds = preds_of g i }

let nodes (g : t) = Array.init g.len (node g)

let copy (g : t) : t =
  let n = g.len and np = g.pred_off.(g.len) in
  {
    len = n;
    fp = g.fp;
    tag = Array.sub g.tag 0 n;
    cls = Array.sub g.cls 0 n;
    width = Array.sub g.width 0 n;
    mem = Array.sub g.mem 0 n;
    payload = Array.sub g.payload 0 n;
    name = Array.sub g.name 0 n;
    pred_off = Array.sub g.pred_off 0 (n + 1);
    preds = Array.sub g.preds 0 np;
    guard_up = Array.copy g.guard_up;
    guard_cond = Array.copy g.guard_cond;
  }

(* ------------------------------------------------------------------ *)
(* Construction *)

(** Cursor over the kernel-wide access list (from [Access.collect] on the
    full body, in document order); the builder consumes accesses in the
    same order it encounters the corresponding [Arr] occurrences, so the
    memory assignment computed by {!Data_layout.Layout} lines up. *)
type cursor = { mutable rest : Access.t list }

let cursor_of accesses = { rest = accesses }

exception Desync of string

let pop_access cur array kind =
  match cur.rest with
  | a :: tl when a.Access.array = array && a.Access.kind = kind ->
      cur.rest <- tl;
      a
  | a :: _ ->
      raise
        (Desync
           (Printf.sprintf "expected %s of %s, cursor at %s of %s"
              (match kind with Access.Read -> "read" | Access.Write -> "write")
              array
              (match a.Access.kind with
              | Access.Read -> "read"
              | Access.Write -> "write")
              a.Access.array))
  | [] -> raise (Desync ("cursor exhausted at " ^ array))

let no_kernel = { Ast.k_name = ""; k_arrays = []; k_scalars = []; k_body = [] }

(** Construction storage. The node arrays are those of {!t}; the rest
    is what building needs and no graph keeps:

    - [prev_load.(i)]: for a load, the load of the same array issued
      before it since that array's last store, or [-1], so a store's
      memory-order predecessors are a walk down this chain from
      [last_load] instead of a list consed per load;
    - [subs]: a stack of subscript nodes, so an address's subscripts
      are built before its linearization without a list per access;
    - the per-block scalar environments and the per-array last store and
      last load, by array number;
    - the declaration tables of the kernel [decls]: scalar widths by
      name, array numbers by name, and each array's element width and
      dimensions by number. After scalar replacement of a heavily
      unrolled body the kernel declares thousands of registers, and the
      [List.find_opt] behind {!Ast.expr_type} would turn every width
      query quadratic; the tables are filled once per kernel. *)
type scratch = {
  mutable tag_a : tag array;
  mutable cls_a : Op_model.op_class array;
  mutable width_a : int array;
  mutable mem_a : int array;
  mutable payload_a : int array;
  mutable name_a : string array;
  mutable prev_load : int array;
  mutable pred_off_a : int array;  (* one slot more than the node arrays *)
  mutable preds_a : int array;
  mutable npreds : int;
  mutable guard_up_a : int array;
  mutable guard_cond_a : int array;
  mutable nguards : int;
  mutable subs : int array;
  mutable nsubs : int;
  fp_buf : Buffer.t;  (* fingerprint of the current block, built as nodes land *)
  defs0 : (string, int) Hashtbl.t;  (* scalar -> defining node *)
  inputs : (string, int) Hashtbl.t;  (* scalar -> shared Source node *)
  mutable decls : Ast.kernel;
  scalar_bits : (string, int) Hashtbl.t;
  array_ids : (string, int) Hashtbl.t;
  mutable n_arrays : int;
  mutable elem_bits : int array;
  mutable dims : int list array;
  mutable last_store : int array;
  mutable last_load : int array;
}

let scratch () =
  let n = 256 in
  {
    tag_a = Array.make n K_const;
    cls_a = Array.make n Op_model.Add;
    width_a = Array.make n 0;
    mem_a = Array.make n 0;
    payload_a = Array.make n 0;
    name_a = Array.make n "";
    prev_load = Array.make n (-1);
    pred_off_a = Array.make (n + 1) 0;
    preds_a = Array.make (2 * n) 0;
    npreds = 0;
    guard_up_a = Array.make 8 (-1);
    guard_cond_a = Array.make 8 0;
    nguards = 0;
    subs = Array.make 8 0;
    nsubs = 0;
    fp_buf = Buffer.create 1024;
    defs0 = Hashtbl.create 64;
    inputs = Hashtbl.create 32;
    decls = no_kernel;
    scalar_bits = Hashtbl.create 64;
    array_ids = Hashtbl.create 8;
    n_arrays = 0;
    elem_bits = Array.make 8 32;
    dims = Array.make 8 [ 0 ];
    last_store = Array.make 8 (-1);
    last_load = Array.make 8 (-1);
  }

let grow a n x =
  let bigger = Array.make (max n (2 * Array.length a)) x in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

(* Number a new array, with the defaults an undeclared array gets: a
   32-bit element and one dimension. *)
let new_array a name =
  let id = a.n_arrays in
  if id = Array.length a.elem_bits then begin
    a.elem_bits <- grow a.elem_bits (id + 1) 32;
    a.dims <- grow a.dims (id + 1) [ 0 ];
    a.last_store <- grow a.last_store (id + 1) (-1);
    a.last_load <- grow a.last_load (id + 1) (-1)
  end;
  a.elem_bits.(id) <- 32;
  a.dims.(id) <- [ 0 ];
  a.last_store.(id) <- -1;
  a.last_load.(id) <- -1;
  Hashtbl.replace a.array_ids name id;
  a.n_arrays <- id + 1;
  id

(* Fill the declaration tables for [k], unless they already describe it.
   Later declarations of one name win, as they did in the former
   [Hashtbl.replace]-filled tables. *)
let load_decls a (k : Ast.kernel) =
  if a.decls != k then begin
    a.decls <- k;
    Hashtbl.clear a.scalar_bits;
    Hashtbl.clear a.array_ids;
    a.n_arrays <- 0;
    List.iter
      (fun (s : Ast.scalar_decl) -> Hashtbl.replace a.scalar_bits s.s_name (Dtype.bits s.s_elem))
      k.Ast.k_scalars;
    List.iter
      (fun (d : Ast.array_decl) ->
        let id =
          match Hashtbl.find a.array_ids d.a_name with
          | id -> id
          | exception Not_found -> new_array a d.a_name
        in
        a.elem_bits.(id) <- Dtype.bits d.a_elem;
        a.dims.(id) <- d.a_dims)
      k.Ast.k_arrays
  end

type builder = {
  a : scratch;
  mem_of : Access.t -> int;
  cur : cursor;
  mutable count : int;
  mutable defs : (string, int) Hashtbl.t;
      (* starts as [a.defs0]; the [If] merge snapshots/restores it with
         [Hashtbl.copy] (branches are rare; statements are not) *)
  mutable guard : int;  (* active guard context, [-1] for none *)
  mutable bits : int;  (* element width of the expression built last *)
}

(** Append one node's canonical encoding (see {!fingerprint}'s contract
    below) to the running fingerprint. *)
let rec add_uvarint buf u =
  (* 7 bits per byte, least significant first; the high bit marks a
     continuation *)
  if u land lnot 0x7f = 0 then Buffer.add_uint8 buf u
  else begin
    Buffer.add_uint8 buf (u land 0x7f lor 0x80);
    add_uvarint buf (u lsr 7)
  end

let add_varint buf n = add_uvarint buf ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let encode_fp a id =
  let buf = a.fp_buf in
  (match a.tag_a.(id) with
  | K_const | K_scalar -> Buffer.add_uint8 buf 0
  | K_load ->
      Buffer.add_uint8 buf 1;
      add_varint buf a.mem_a.(id);
      add_varint buf a.width_a.(id)
  | K_store ->
      Buffer.add_uint8 buf 2;
      add_varint buf a.mem_a.(id);
      add_varint buf a.width_a.(id)
  | K_move -> Buffer.add_uint8 buf 3
  | K_move_out -> Buffer.add_uint8 buf 4
  | K_reg_write -> Buffer.add_uint8 buf 5
  | K_op ->
      Buffer.add_uint8 buf (16 + Op_model.class_index a.cls_a.(id));
      add_varint buf a.width_a.(id));
  let lo = a.pred_off_a.(id) and hi = a.pred_off_a.(id + 1) in
  add_varint buf (hi - lo);
  for k = lo to hi - 1 do
    add_varint buf (id - a.preds_a.(k))
  done

(* A node is built in two steps: its predecessors are pushed onto the
   pool, then [emit] writes its fields and closes its predecessor range.
   Every operand is built before the first push, so the pushes of one
   node are never interleaved with another node's. *)
let push b p =
  let a = b.a in
  if a.npreds = Array.length a.preds_a then a.preds_a <- grow a.preds_a (a.npreds + 1) 0;
  a.preds_a.(a.npreds) <- p;
  a.npreds <- a.npreds + 1

let emit b tag ~cls ~width ~mem ~payload ~name =
  let a = b.a in
  let id = b.count in
  if id = Array.length a.tag_a then begin
    let n = id + 1 in
    a.tag_a <- grow a.tag_a n K_const;
    a.cls_a <- grow a.cls_a n Op_model.Add;
    a.width_a <- grow a.width_a n 0;
    a.mem_a <- grow a.mem_a n 0;
    a.payload_a <- grow a.payload_a n 0;
    a.name_a <- grow a.name_a n "";
    a.prev_load <- grow a.prev_load n (-1);
    a.pred_off_a <- grow a.pred_off_a (Array.length a.tag_a + 1) 0
  end;
  a.tag_a.(id) <- tag;
  a.cls_a.(id) <- cls;
  a.width_a.(id) <- width;
  a.mem_a.(id) <- mem;
  a.payload_a.(id) <- payload;
  a.name_a.(id) <- name;
  a.pred_off_a.(id + 1) <- a.npreds;
  b.count <- id + 1;
  encode_fp a id;
  id

let const b n = emit b K_const ~cls:Op_model.Add ~width:0 ~mem:0 ~payload:n ~name:""

let emit_op b code cls width = emit b K_op ~cls ~width ~mem:0 ~payload:code ~name:""

let push_guard b ~up cond polarity =
  let a = b.a in
  let c = a.nguards in
  if c = Array.length a.guard_up_a then begin
    a.guard_up_a <- grow a.guard_up_a (c + 1) (-1);
    a.guard_cond_a <- grow a.guard_cond_a (c + 1) 0
  end;
  a.guard_up_a.(c) <- up;
  a.guard_cond_a.(c) <- (2 * cond) + if polarity then 1 else 0;
  a.nguards <- c + 1;
  c

let scalar_input b v =
  match Hashtbl.find b.a.inputs v with
  | id -> id
  | exception Not_found ->
      let id = emit b K_scalar ~cls:Op_model.Add ~width:0 ~mem:0 ~payload:0 ~name:v in
      Hashtbl.replace b.a.inputs v id;
      id

let def_of b v =
  match Hashtbl.find b.defs v with id -> id | exception Not_found -> scalar_input b v

let is_pow2 n = n > 0 && n land (n - 1) = 0

let classify_bin (op : Ast.binop) (a : Ast.expr) (c : Ast.expr) :
    Op_model.op_class =
  match op with
  | Ast.Add | Ast.Sub -> Op_model.Add
  | Ast.Mul -> (
      match (a, c) with
      | Ast.Int n, _ | _, Ast.Int n ->
          (* a constant multiplier is a shift, or a shift-add
             decomposition *)
          if is_pow2 (abs n) then Op_model.Shift_const else Op_model.Add
      | _ -> Op_model.Mul)
  | Ast.Div | Ast.Mod -> (
      match (a, c) with
      | Ast.Int n, _ | _, Ast.Int n ->
          if is_pow2 (abs n) then Op_model.Shift_const else Op_model.Div
      | _ -> Op_model.Div)
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne -> Op_model.Cmp
  | Ast.And | Ast.Or | Ast.Band | Ast.Bor | Ast.Bxor -> Op_model.Logic
  | Ast.Shl | Ast.Shr -> (
      match (a, c) with
      | _, Ast.Int _ -> Op_model.Shift_const
      | _ -> Op_model.Shift_var)
  | Ast.Min | Ast.Max -> Op_model.Min_max

(* The lookups below run once or more per node, so they use
   [Hashtbl.find] and match [Not_found] rather than allocate an option. *)

let scalar_bits b v =
  match Hashtbl.find b.a.scalar_bits v with w -> w | exception Not_found -> 32

let array_id b name =
  match Hashtbl.find b.a.array_ids name with
  | id -> id
  | exception Not_found -> new_array b.a name

(* [build_expr] returns the expression's node and leaves its element
   width in [b.bits]: the width of {!Ast.expr_type} of the subtree
   (operand join for intermediates), computed bottom-up in one pass
   instead of by re-walking the subtree — and the declaration lookups
   behind the leaves come from the scratch's hash tables. *)
let rec build_expr b (e : Ast.expr) : int =
  match e with
  | Ast.Int n ->
      b.bits <- 32;
      const b n
  | Ast.Var v ->
      b.bits <- scalar_bits b v;
      def_of b v
  | Ast.Arr (array, subs) ->
      let addr = build_address b array subs in
      let access = pop_access b.cur array Access.Read in
      let a = b.a and ai = array_id b array in
      let mem = b.mem_of access in
      push b addr;
      let s = a.last_store.(ai) in
      if s >= 0 then push b s;
      let width = a.elem_bits.(ai) in
      let id = emit b K_load ~cls:Op_model.Add ~width ~mem ~payload:0 ~name:array in
      a.prev_load.(id) <- a.last_load.(ai);
      a.last_load.(ai) <- id;
      b.bits <- width;
      id
  | Ast.Bin (op, x, y) ->
      let nx = build_expr b x in
      let wx = b.bits in
      let ny = build_expr b y in
      let w = max wx b.bits in
      b.bits <- w;
      push b nx;
      push b ny;
      emit_op b (binop_code op) (classify_bin op x y) w
  | Ast.Un (o, x) ->
      let nx = build_expr b x in
      let cls =
        match o with
        | Ast.Neg -> Op_model.Add
        | Ast.Not | Ast.Bnot -> Op_model.Logic
        | Ast.Abs -> Op_model.Abs_op
      in
      push b nx;
      emit_op b (unop_code o) cls b.bits
  | Ast.Cond (c, t, el) ->
      let nc = build_expr b c in
      let nt = build_expr b t in
      let wt = b.bits in
      let ne = build_expr b el in
      let w = max wt b.bits in
      b.bits <- w;
      push b nc;
      push b nt;
      push b ne;
      emit_op b mux_code Op_model.Mux w

(** Row-major address computation, Horner style:
    [((s0 * d1 + s1) * d2 + s2) ...] — one constant multiply (usually a
    shift or shift-add) and one add per extra dimension, matching what
    synthesis emits for a linearized array. Every subscript is built
    first, onto the scratch's subscript stack, then linearized. Returns
    the node holding the flat index. *)
and build_address b array subs : int =
  let a = b.a in
  let base = a.nsubs in
  build_subs b subs;
  let n_subs = a.nsubs - base in
  let result =
    if n_subs = 1 then a.subs.(base)
    else if n_subs = 0 then const b 0
    else
      match a.dims.(array_id b array) with
      | [] -> const b 0
      | _ :: rest_dims -> horner b base n_subs a.subs.(base) 1 rest_dims
  in
  a.nsubs <- base;
  result

(* Build each subscript onto the subscript stack. *)
and build_subs b = function
  | [] -> ()
  | s :: rest ->
      let n = build_expr b s in
      let a = b.a in
      let top = a.nsubs in
      if top = Array.length a.subs then a.subs <- grow a.subs (top + 1) 0;
      a.subs.(top) <- n;
      a.nsubs <- top + 1;
      build_subs b rest

(* Fold subscripts [k ..] of the stack into [acc], one dimension each,
   while both last. *)
and horner b base n_subs acc k dims =
  match dims with
  | d :: more when k < n_subs ->
      let cd = const b d in
      push b acc;
      push b cd;
      let scaled =
        emit_op b (binop_code Ast.Mul)
          (if is_pow2 d then Op_model.Shift_const else Op_model.Add)
          16
      in
      push b scaled;
      push b b.a.subs.(base + k);
      horner b base n_subs (emit_op b (binop_code Ast.Add) Op_model.Add 16) (k + 1) more
  | _ -> acc

let rec build_stmt b (s : Ast.stmt) : unit =
  match s with
  | Ast.Assign (Ast.Lvar v, e) ->
      let n = build_expr b e in
      push b n;
      let w = emit b K_reg_write ~cls:Op_model.Add ~width:0 ~mem:0 ~payload:0 ~name:v in
      Hashtbl.replace b.defs v w
  | Ast.Assign (Ast.Larr (array, subs), e) ->
      let n = build_expr b e in
      let addr = build_address b array subs in
      let access = pop_access b.cur array Access.Write in
      let a = b.a and ai = array_id b array in
      let mem = b.mem_of access in
      push b n;
      push b addr;
      (* memory order: every load of the array since its last store,
         latest first, then that store *)
      let l = ref a.last_load.(ai) in
      while !l >= 0 do
        push b !l;
        l := a.prev_load.(!l)
      done;
      let s = a.last_store.(ai) in
      if s >= 0 then push b s;
      let id =
        emit b K_store ~cls:Op_model.Add ~width:a.elem_bits.(ai) ~mem ~payload:b.guard
          ~name:array
      in
      a.last_store.(ai) <- id;
      a.last_load.(ai) <- -1
  | Ast.If (c, t, el) ->
      let nc = build_expr b c in
      let before = b.defs in
      let outer = b.guard in
      b.defs <- Hashtbl.copy before;
      b.guard <- push_guard b ~up:outer nc true;
      List.iter (build_stmt b) t;
      let after_then = b.defs in
      b.defs <- Hashtbl.copy before;
      b.guard <- push_guard b ~up:outer nc false;
      List.iter (build_stmt b) el;
      b.guard <- outer;
      let after_else = b.defs in
      (* Merge scalar definitions through muxes. Sorted, so the mux
         emission order (hence node numbering) is deterministic. *)
      let changed tbl =
        Hashtbl.fold
          (fun v id acc ->
            if Hashtbl.find_opt before v <> Some id then v :: acc else acc)
          tbl []
      in
      let assigned =
        List.sort_uniq compare (changed after_then @ changed after_else)
      in
      b.defs <- after_else;
      List.iter
        (fun v ->
          let old () =
            match Hashtbl.find_opt before v with
            | Some id -> id
            | None -> scalar_input b v
          in
          let th =
            match Hashtbl.find_opt after_then v with Some id -> id | None -> old ()
          in
          let el' =
            match Hashtbl.find_opt after_else v with Some id -> id | None -> old ()
          in
          if th <> el' then begin
            push b nc;
            push b th;
            push b el';
            Hashtbl.replace b.defs v (emit_op b mux_code Op_model.Mux (scalar_bits b v))
          end)
        assigned
  | Ast.Rotate rs ->
      (* every register's value first: a missing one is a new input *)
      List.iter (fun r -> ignore (def_of b r)) rs;
      List.iter (fun r -> push b (def_of b r)) rs;
      let mid = emit b K_move ~cls:Op_model.Add ~width:0 ~mem:0 ~payload:0 ~name:"" in
      List.iteri
        (fun i r ->
          push b mid;
          let out = emit b K_move_out ~cls:Op_model.Add ~width:0 ~mem:0 ~payload:i ~name:r in
          Hashtbl.replace b.defs r out)
        rs
  | Ast.For _ -> invalid_arg "Dfg.of_block: loops must be factored out"

let builder_of a ~kernel ~mem_of ~cursor =
  load_decls a kernel;
  Hashtbl.clear a.defs0;
  Hashtbl.clear a.inputs;
  Array.fill a.last_store 0 a.n_arrays (-1);
  Array.fill a.last_load 0 a.n_arrays (-1);
  Buffer.clear a.fp_buf;
  a.pred_off_a.(0) <- 0;
  a.npreds <- 0;
  a.nguards <- 0;
  a.nsubs <- 0;
  { a; mem_of; cur = cursor; count = 0; defs = a.defs0; guard = -1; bits = 32 }

let view b =
  let a = b.a in
  {
    len = b.count;
    fp = Buffer.contents a.fp_buf;
    tag = a.tag_a;
    cls = a.cls_a;
    width = a.width_a;
    mem = a.mem_a;
    payload = a.payload_a;
    name = a.name_a;
    pred_off = a.pred_off_a;
    preds = a.preds_a;
    guard_up = a.guard_up_a;
    guard_cond = a.guard_cond_a;
  }

let build a ~kernel ~mem_of ~cursor stmts =
  let b = builder_of a ~kernel ~mem_of ~cursor in
  List.iter (build_stmt b) stmts;
  b

(** A builder for the blocks of one kernel on [scratch]. Each graph it
    returns is a view — its arrays alias the scratch's storage (slots at
    and beyond [len] are garbage) and are valid until the next block
    built on the scratch. *)
let block_builder ~(scratch : scratch) ~(kernel : Ast.kernel) ~(mem_of : Access.t -> int)
    ~(cursor : cursor) : Ast.stmt list -> t =
 fun stmts -> view (build scratch ~kernel ~mem_of ~cursor stmts)

(** Build the DFG of a straight-line block. [cursor] advances past the
    block's accesses. The final scalar environment (scalar name -> node
    that holds its value at block exit) is returned alongside, for the
    simulator's write-back. The result owns its storage (safe to retain),
    unlike {!block_builder}'s views. *)
let of_block_with_defs ~(kernel : Ast.kernel) ~(mem_of : Access.t -> int)
    ~(cursor : cursor) (stmts : Ast.stmt list) : t * (string * int) list =
  let b = build (scratch ()) ~kernel ~mem_of ~cursor stmts in
  let defs =
    Hashtbl.fold (fun v id acc -> (v, id) :: acc) b.defs []
    |> List.sort compare
  in
  (copy (view b), defs)

let of_block ~kernel ~mem_of ~cursor stmts =
  fst (of_block_with_defs ~kernel ~mem_of ~cursor stmts)

(* The fingerprint contract (realised incrementally by {!encode_fp}):
   a compact, unambiguous binary encoding of exactly the
   schedule-relevant projection of every node — the kind tag, operator
   class and width for [Op], memory id and width for [Load]/[Store],
   and the predecessors. Scalar and array names, constant values,
   semantic operations and store guard polarities are deliberately
   excluded (the {!Schedule} walker never reads them), so copies of a
   block differing only by scalar renaming or by iteration-shifted
   address constants collide, while two graphs with the same
   fingerprint schedule identically under every profile.

   Each node is one tag byte (the kind, with the operator class folded
   into [Op]'s), its integer fields as zigzag varints, then the number
   of predecessors and each one as the varint delta [id - pred]. The
   tag fixes how many fields follow, a varint's last byte is the one
   without the high bit, and a node's id is its position, so the
   encoding is injective on the projection: two blocks share a
   fingerprint exactly when they would have shared the former decimal
   one ([test/test_fingerprint.ml] checks this on every block of the
   built-in sweeps). *)

let count_tag (g : t) tag =
  let acc = ref 0 in
  for i = 0 to g.len - 1 do
    if g.tag.(i) = tag then incr acc
  done;
  !acc

let n_loads g = count_tag g K_load
let n_stores g = count_tag g K_store
