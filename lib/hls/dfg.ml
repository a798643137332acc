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
    operation. *)

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

type t = { nodes : node array; len : int; fp : string }

let fingerprint (g : t) : string = g.fp

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

let dummy_node = { id = -1; kind = Source (Const 0); preds = [] }

(** Construction scratch for the blocks of one kernel: node storage,
    the per-block scalar and memory-order environments, and the
    kernel's declaration tables. The declaration tables matter as much
    as the storage: after scalar replacement of a heavily unrolled body,
    [k_scalars] holds thousands of compiler-introduced registers, and
    the [List.find_opt] behind {!Ast.expr_type} turns every width query
    quadratic. The scratch hashes the declarations once, when it is
    created for its kernel. *)
type scratch = {
  mutable buf : node array;  (* first [count] slots of the current block live *)
  fp_buf : Buffer.t;  (* fingerprint of the current block, built as nodes land *)
  defs0 : (string, int) Hashtbl.t;  (* scalar -> defining node *)
  inputs : (string, int) Hashtbl.t;  (* scalar -> shared Source node *)
  last_store : (string, int) Hashtbl.t;  (* array -> last store node *)
  loads_since : (string, int list) Hashtbl.t;  (* array -> loads after it *)
  stypes : (string, Dtype.t) Hashtbl.t;  (* declared scalar element types *)
  atypes : (string, Dtype.t * int list) Hashtbl.t;  (* array -> elem, dims *)
}

let scratch (k : Ast.kernel) =
  let stypes = Hashtbl.create 64 and atypes = Hashtbl.create 8 in
  List.iter
    (fun (s : Ast.scalar_decl) -> Hashtbl.replace stypes s.s_name s.s_elem)
    k.Ast.k_scalars;
  List.iter
    (fun (d : Ast.array_decl) -> Hashtbl.replace atypes d.a_name (d.a_elem, d.a_dims))
    k.Ast.k_arrays;
  {
    buf = Array.make 256 dummy_node;
    fp_buf = Buffer.create 1024;
    defs0 = Hashtbl.create 64;
    inputs = Hashtbl.create 32;
    last_store = Hashtbl.create 8;
    loads_since = Hashtbl.create 8;
    stypes;
    atypes;
  }

type builder = {
  a : scratch;
  mem_of : Access.t -> int;
  cur : cursor;
  mutable count : int;
  mutable defs : (string, int) Hashtbl.t;
      (* starts as [a.defs0]; the [If] merge snapshots/restores it with
         [Hashtbl.copy] (branches are rare; statements are not) *)
  mutable guards : (int * bool) list;  (* active predication context *)
}

(** Append one node's canonical encoding (see {!fingerprint}'s contract
    below) to the running fingerprint. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let encode_fp buf kind preds =
  (* decimal digits written directly: [string_of_int] would allocate a
     string per predecessor of every node of every block *)
  let int n =
    if n < 0 then begin
      Buffer.add_char buf '-';
      add_digits buf (-n)
    end
    else add_digits buf n;
    Buffer.add_char buf ','
  in
  (match kind with
  | Source _ -> Buffer.add_char buf 's'
  | Op { cls; width; _ } ->
      Buffer.add_char buf 'o';
      Buffer.add_string buf (Op_model.class_name cls);
      Buffer.add_char buf ':';
      int width
  | Load { mem; width; _ } ->
      Buffer.add_char buf 'l';
      int mem;
      int width
  | Store { mem; width; _ } ->
      Buffer.add_char buf 't';
      int mem;
      int width
  | Move _ -> Buffer.add_char buf 'm'
  | Move_out _ -> Buffer.add_char buf 'x'
  | Reg_write _ -> Buffer.add_char buf 'r');
  List.iter int preds;
  Buffer.add_char buf ';'

let add b kind preds =
  let id = b.count in
  if id = Array.length b.a.buf then begin
    let bigger = Array.make (2 * id) dummy_node in
    Array.blit b.a.buf 0 bigger 0 id;
    b.a.buf <- bigger
  end;
  b.a.buf.(id) <- { id; kind; preds };
  b.count <- id + 1;
  encode_fp b.a.fp_buf kind preds;
  id

let scalar_input b v =
  match Hashtbl.find_opt b.a.inputs v with
  | Some id -> id
  | None ->
      let id = add b (Source (Scalar v)) [] in
      Hashtbl.replace b.a.inputs v id;
      id

let is_pow2 n = n > 0 && n land (n - 1) = 0

let classify_bin (op : Ast.binop) (a : Ast.expr) (c : Ast.expr) :
    Op_model.op_class =
  let const_operand =
    match (a, c) with Ast.Int n, _ | _, Ast.Int n -> Some n | _ -> None
  in
  match op with
  | Ast.Add | Ast.Sub -> Op_model.Add
  | Ast.Mul -> (
      match const_operand with
      | Some n when is_pow2 (abs n) -> Op_model.Shift_const
      | Some _ -> Op_model.Add (* shift-add decomposition *)
      | None -> Op_model.Mul)
  | Ast.Div | Ast.Mod -> (
      match const_operand with
      | Some n when is_pow2 (abs n) -> Op_model.Shift_const
      | _ -> Op_model.Div)
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne -> Op_model.Cmp
  | Ast.And | Ast.Or | Ast.Band | Ast.Bor | Ast.Bxor -> Op_model.Logic
  | Ast.Shl | Ast.Shr -> (
      match (a, c) with
      | _, Ast.Int _ -> Op_model.Shift_const
      | _ -> Op_model.Shift_var)
  | Ast.Min | Ast.Max -> Op_model.Min_max

let scalar_type b v =
  match Hashtbl.find_opt b.a.stypes v with
  | Some ty -> ty
  | None -> Dtype.int32

let array_info b name =
  match Hashtbl.find_opt b.a.atypes name with
  | Some (elem, dims) -> (Dtype.bits elem, dims)
  | None -> (32, [ 0 ])

let array_elem b name =
  match Hashtbl.find_opt b.a.atypes name with
  | Some (elem, _) -> elem
  | None -> Dtype.int32

let note_load b array id =
  let cur =
    Option.value ~default:[] (Hashtbl.find_opt b.a.loads_since array)
  in
  Hashtbl.replace b.a.loads_since array (id :: cur)

let order_preds_for_load b array =
  match Hashtbl.find_opt b.a.last_store array with Some s -> [ s ] | None -> []

let order_preds_for_store b array =
  let loads =
    Option.value ~default:[] (Hashtbl.find_opt b.a.loads_since array)
  in
  let st =
    match Hashtbl.find_opt b.a.last_store array with
    | Some s -> [ s ]
    | None -> []
  in
  loads @ st

(* [build_expr] threads the expression's element type up alongside the
   node id. The type is exactly {!Ast.expr_type} of the subtree (operand
   join for intermediates), computed bottom-up in one pass instead of by
   re-walking the subtree — and the declaration lookups behind the leaves
   come from the scratch's hash tables. *)
let rec build_expr b (e : Ast.expr) : int * Dtype.t =
  match e with
  | Ast.Int n -> (add b (Source (Const n)) [], Dtype.int32)
  | Ast.Var v -> (
      let ty = scalar_type b v in
      match Hashtbl.find_opt b.defs v with
      | Some id -> (id, ty)
      | None -> (scalar_input b v, ty))
  | Ast.Arr (array, subs) ->
      let addr = build_address b array subs in
      let access = pop_access b.cur array Access.Read in
      let width, _ = array_info b array in
      let mem = b.mem_of access in
      let id =
        add b
          (Load { array; mem; width; addr })
          (addr :: order_preds_for_load b array)
      in
      note_load b array id;
      (id, array_elem b array)
  | Ast.Bin (op, x, y) ->
      let nx, tx = build_expr b x in
      let ny, ty = build_expr b y in
      let t = Dtype.join tx ty in
      let cls = classify_bin op x y in
      (add b (Op { sem = Sbin op; cls; width = Dtype.bits t }) [ nx; ny ], t)
  | Ast.Un (op, x) ->
      let nx, t = build_expr b x in
      let cls =
        match op with
        | Ast.Neg -> Op_model.Add
        | Ast.Not | Ast.Bnot -> Op_model.Logic
        | Ast.Abs -> Op_model.Abs_op
      in
      (add b (Op { sem = Sun op; cls; width = Dtype.bits t }) [ nx ], t)
  | Ast.Cond (c, t, el) ->
      let nc, _ = build_expr b c in
      let nt, tt = build_expr b t in
      let ne, te = build_expr b el in
      let ty = Dtype.join tt te in
      ( add b
          (Op { sem = Smux; cls = Op_model.Mux; width = Dtype.bits ty })
          [ nc; nt; ne ],
        ty )

(** Row-major address computation, Horner style:
    [((s0 * d1 + s1) * d2 + s2) ...] — one constant multiply (usually a
    shift or shift-add) and one add per extra dimension, matching what
    synthesis emits for a linearized array. Returns the node holding the
    flat index. *)
and build_address b array subs : int =
  let _, dims = array_info b array in
  let sub_nodes = List.map (fun s -> (s, fst (build_expr b s))) subs in
  match (sub_nodes, dims) with
  | [ (_, n) ], _ -> n
  | [], _ -> add b (Source (Const 0)) []
  | (_, first) :: rest, _ :: rest_dims ->
      let rec go acc rest rest_dims =
        match (rest, rest_dims) with
        | [], _ | _, [] -> acc
        | (_, n) :: more, d :: more_dims ->
            let cd = add b (Source (Const d)) [] in
            let scaled =
              add b
                (Op
                   {
                     sem = Sbin Ast.Mul;
                     cls =
                       (if is_pow2 d then Op_model.Shift_const else Op_model.Add);
                     width = 16;
                   })
                [ acc; cd ]
            in
            let sum =
              add b
                (Op { sem = Sbin Ast.Add; cls = Op_model.Add; width = 16 })
                [ scaled; n ]
            in
            go sum more more_dims
      in
      go first rest rest_dims
  | _ :: _ :: _, [] -> add b (Source (Const 0)) []

let rec build_stmt b (s : Ast.stmt) : unit =
  match s with
  | Ast.Assign (Ast.Lvar v, e) ->
      let n, _ = build_expr b e in
      let w = add b (Reg_write { scalar = v; value = n }) [ n ] in
      Hashtbl.replace b.defs v w
  | Ast.Assign (Ast.Larr (array, subs), e) ->
      let n, _ = build_expr b e in
      let addr = build_address b array subs in
      let access = pop_access b.cur array Access.Write in
      let width, _ = array_info b array in
      let mem = b.mem_of access in
      let id =
        add b
          (Store { array; mem; width; addr; value = n; guards = b.guards })
          (n :: addr :: order_preds_for_store b array)
      in
      Hashtbl.replace b.a.last_store array id;
      Hashtbl.remove b.a.loads_since array
  | Ast.If (c, t, el) ->
      let nc, _ = build_expr b c in
      let before = b.defs in
      let outer_guards = b.guards in
      b.defs <- Hashtbl.copy before;
      b.guards <- (nc, true) :: outer_guards;
      List.iter (build_stmt b) t;
      let after_then = b.defs in
      b.defs <- Hashtbl.copy before;
      b.guards <- (nc, false) :: outer_guards;
      List.iter (build_stmt b) el;
      b.guards <- outer_guards;
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
            let w = Dtype.bits (scalar_type b v) in
            let m =
              add b
                (Op { sem = Smux; cls = Op_model.Mux; width = w })
                [ nc; th; el' ]
            in
            Hashtbl.replace b.defs v m
          end)
        assigned
  | Ast.Rotate rs ->
      let pre = List.map (fun r ->
          match Hashtbl.find_opt b.defs r with
          | Some id -> id
          | None -> scalar_input b r) rs
      in
      let mid = add b (Move { regs = rs; pre }) pre in
      List.iteri
        (fun i r ->
          let out = add b (Move_out { move = mid; index = i }) [ mid ] in
          Hashtbl.replace b.defs r out)
        rs
  | Ast.For _ -> invalid_arg "Dfg.of_block: loops must be factored out"

let builder_of a ~mem_of ~cursor =
  Hashtbl.reset a.defs0;
  Hashtbl.reset a.inputs;
  Hashtbl.reset a.last_store;
  Hashtbl.reset a.loads_since;
  Buffer.clear a.fp_buf;
  { a; mem_of; cur = cursor; count = 0; defs = a.defs0; guards = [] }

(** A builder for the blocks of one kernel, sharing one scratch across
    them: declarations are hashed once and the node storage is reused.
    Each graph it returns is a view — [nodes] aliases the scratch's
    storage (slots at and beyond [len] are garbage) and is valid until
    the next call. *)
let block_builder ~(kernel : Ast.kernel) ~(mem_of : Access.t -> int)
    ~(cursor : cursor) : Ast.stmt list -> t =
  let a = scratch kernel in
  fun stmts ->
    let b = builder_of a ~mem_of ~cursor in
    List.iter (build_stmt b) stmts;
    { nodes = a.buf; len = b.count; fp = Buffer.contents a.fp_buf }

(** Build the DFG of a straight-line block. [cursor] advances past the
    block's accesses. The final scalar environment (scalar name -> node
    that holds its value at block exit) is returned alongside, for the
    simulator's write-back. The result owns its storage (safe to retain),
    unlike {!block_builder}'s views. *)
let of_block_with_defs ~(kernel : Ast.kernel) ~(mem_of : Access.t -> int)
    ~(cursor : cursor) (stmts : Ast.stmt list) : t * (string * int) list =
  let a = scratch kernel in
  let b = builder_of a ~mem_of ~cursor in
  List.iter (build_stmt b) stmts;
  let defs =
    Hashtbl.fold (fun v id acc -> (v, id) :: acc) b.defs []
    |> List.sort compare
  in
  ( { nodes = Array.sub a.buf 0 b.count; len = b.count; fp = Buffer.contents a.fp_buf },
    defs )

let of_block ~kernel ~mem_of ~cursor stmts =
  fst (of_block_with_defs ~kernel ~mem_of ~cursor stmts)

(* The fingerprint contract (kept bit-compatible with the former
   after-the-fact encoder, and realised incrementally by {!encode_fp}):
   a compact, unambiguous encoding of exactly the schedule-relevant
   projection of every node — the kind tag, operator class and width for
   [Op], memory id and width for [Load]/[Store], and the predecessor
   ids. Scalar and array names, constant values, semantic operations and
   store guard polarities are deliberately excluded (the {!Schedule}
   walker never reads them), so copies of a block differing only by
   scalar renaming or by iteration-shifted address constants collide,
   while two graphs with the same fingerprint schedule identically under
   every profile. Every integer field is comma-terminated and fields
   occupy fixed positions after the kind tag, so the encoding is
   injective on the projection. *)

let n_loads (g : t) =
  let acc = ref 0 in
  for i = 0 to g.len - 1 do
    match g.nodes.(i).kind with Load _ -> incr acc | _ -> ()
  done;
  !acc

let n_stores (g : t) =
  let acc = ref 0 in
  for i = 0 to g.len - 1 do
    match g.nodes.(i).kind with Store _ -> incr acc | _ -> ()
  done;
  !acc
