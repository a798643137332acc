(** Custom data layout (Section 4 of the paper): array renaming followed
    by memory mapping.

    {b Array renaming} distributes each array cyclically over a number of
    virtual memories — cyclic in at least one dimension, possibly more —
    and gives every array access expression a virtual memory id. For a
    bank shape [(b_1, ..., b_n)] (one factor per dimension, product at
    most the number of physical memories), the element at subscripts
    [(s_1, ..., s_n)] lives in bank [(s_1 mod b_1, ..., s_n mod b_n)].

    Whether an access's bank is usable at schedule time follows the
    paper's two regimes:

    - {e constant residue}: the per-dimension strides of the access are
      multiples of [b_d], so the access always touches the same bank;
    - {e steady state} (Section 5.2): all of the array's accesses in one
      loop context are uniformly generated, so their banks rotate in
      lockstep from iteration to iteration and conflicts depend only on
      the constant offsets. Peeled copies live in different contexts and
      are never co-scheduled with the main body, so each context is
      checked separately.

    The bank shape is chosen to maximise the number of distinct banks
    among co-scheduled accesses. Arrays that fit neither regime keep a
    single memory, as the paper prescribes for non-uniformly generated
    accesses.

    {b Memory mapping} binds (array, virtual id) pairs to physical
    memories in first-read order, round-robin, so that the reads of the
    unrolled body spread across the memories; writes are bound next, the
    paper's read-order-first policy. *)

open Ir
module Access = Analysis.Access

type t = {
  num_memories : int;
  banks : (string * int) list;  (** array -> total number of virtual banks *)
  shapes : (string * int list) list;  (** array -> per-dimension factors *)
  phys : ((string * int) * int) list;  (** (array, vid) -> physical memory *)
  memory : int array;
      (** access id -> physical memory: {!memory_of} runs once per
          load/store node of every DFG build, so it is one array read *)
}

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(** Per-dimension stride moduli of an access, one per subscript: gcd
    of [coefficient * step] over its enclosing loops. A bank factor
    dividing this keeps the access's bank constant in that dimension.
    [Some 0] for a constant subscript, [None] for a non-affine one. *)
let moduli (a : Access.t) : int option array =
  Array.of_list
    (List.map
       (Option.map (fun f ->
            List.fold_left
              (fun acc (l : Ast.loop) ->
                let c = Affine.coeff f l.index in
                if c = 0 then acc else gcd acc (c * l.step))
              0 a.loops))
       a.affine)

(* Lower bound of loop index [v] among [loops]; 0 if none binds it. *)
let rec lo_of v = function
  | [] -> 0
  | (l : Ast.loop) :: rest -> if l.index = v then l.lo else lo_of v rest

(* [acc] plus the terms of an affine form at the loops' lower bounds. *)
let rec at_lower_bounds loops acc = function
  | [] -> acc
  | (v, c) :: rest -> at_lower_bounds loops (acc + (c * lo_of v loops)) rest

(** Per-dimension constant offsets (subscripts at the loop lower
    bounds; 0 for a non-affine one), one per subscript. Computed once
    per access: every candidate shape's virtual ids derive from them. *)
let offsets (a : Access.t) : int array =
  Array.of_list
    (List.map
       (function
         | None -> 0
         | Some (f : Affine.t) -> at_lower_bounds a.loops f.const f.terms)
       a.affine)

(** Accesses (with their offsets) grouped by loop context, the indices
    of the loops around them: only same-context accesses can be
    co-scheduled in one block. Groups are in first-appearance order.
    Accesses of one loop body share one physical loop list
    ({!Access.collect}), so an access usually finds its group by
    physical equality with the newest group's list. *)
let context_groups (of_array : (Access.t * int array) list) :
    (Access.t * int array) list list =
  let rec same_indices (a : Ast.loop list) (b : Ast.loop list) =
    a == b
    ||
    match (a, b) with
    | [], [] -> true
    | x :: a, y :: b -> String.equal x.index y.index && same_indices a b
    | _ -> false
  in
  let rec find loops = function
    | [] -> None
    | ((l, _) as g) :: rest -> if same_indices l loops then Some g else find loops rest
  in
  let groups = ref [] in
  List.iter
    (fun ((a : Access.t), _ as e) ->
      match !groups with
      | (l, members) :: _ when l == a.loops -> members := e :: !members
      | gs -> (
          match find a.loops gs with
          | Some (_, members) -> members := e :: !members
          | None -> groups := (a.loops, ref [ e ]) :: gs))
    of_array;
  List.rev_map (fun (_, members) -> List.rev !members) !groups

(** Uniform generation within a context, per dimension. *)
let group_uniform (group : (Access.t * int array) list) ~dims : bool =
  match group with
  | [] | [ _ ] -> true
  | (first, _) :: rest ->
      (* the first [dims] subscripts pairwise uniformly generated *)
      let rec same d fs gs =
        d = dims
        ||
        match (fs, gs) with
        | Some f :: fs, Some g :: gs ->
            Affine.uniformly_generated f g && same (d + 1) fs gs
        | _ -> false
      in
      List.for_all
        (fun ((a : Access.t), _) ->
          List.length a.affine = dims && same 0 first.affine a.affine)
        rest

(** Candidate per-dimension bank shapes (powers of two per dimension)
    with product at most [n]. *)
let shapes_for ~dims ~n : int list list =
  let opts = List.filter (fun b -> b <= n) [ 1; 2; 4; 8 ] in
  let rec go d =
    if d = 0 then [ [] ]
    else List.concat_map (fun tl -> List.map (fun b -> b :: tl) opts) (go (d - 1))
  in
  List.filter (fun s -> List.fold_left ( * ) 1 s <= n) (go dims)
  |> List.sort_uniq compare

(** A shape is legal for an access with stride moduli [m] when each
    dimension is either constant residue ([b_d] divides the stride
    modulus) or covered by the steady-state regime (checked per context
    by the caller). *)
let shape_constant_ok (m : int option array) (shape : int list) : bool =
  let rec go d = function
    | [] -> true
    | b :: rest ->
        (b = 1
        ||
        match m.(d) with
        | None -> false
        | Some 0 -> true (* constant subscript in this dimension *)
        | Some g -> g mod b = 0)
        && go (d + 1) rest
  in
  go 0 shape

(** Virtual id of an access with offsets [offs] under a bank shape. *)
let vid_of shape (offs : int array) : int =
  let rec go shape d acc =
    match shape with
    | [] -> acc
    | b :: rest ->
        let r = ((offs.(d) mod b) + b) mod b in
        go rest (d + 1) ((acc * b) + r)
  in
  go shape 0 0

let product shape = List.fold_left ( * ) 1 shape

(** Choose the bank shape of one array from its accesses, each paired
    with its {!offsets}: among legal shapes, maximise the number of
    distinct virtual ids among co-scheduled accesses (summed over
    contexts), preferring fewer banks on ties. [seen] marks the ids of
    one context (they lie below the shape's product, at most
    [num_memories]) and is cleared after it. *)
let choose_shape ~num_memories (decl : Ast.array_decl)
    (of_array : (Access.t * int array) list) : int list =
  let dims = List.length decl.a_dims in
  let default = List.init dims (fun _ -> 1) in
  if List.exists (fun (a, _) -> not (Access.is_affine a)) of_array then default
  else begin
    let groups = context_groups of_array in
    let uniform = List.for_all (fun g -> group_uniform g ~dims) groups in
    let legal =
      if uniform then fun _ -> true
      else
        let m = List.map (fun (a, _) -> moduli a) of_array in
        fun shape -> List.for_all (fun m -> shape_constant_ok m shape) m
    in
    let seen = Bytes.make (max 1 num_memories) '\000' in
    let score shape =
      List.fold_left
        (fun acc group ->
          let distinct =
            List.fold_left
              (fun n (_, offs) ->
                let v = vid_of shape offs in
                if Bytes.get seen v <> '\000' then n
                else begin
                  Bytes.set seen v '\001';
                  n + 1
                end)
              0 group
          in
          Bytes.fill seen 0 (product shape) '\000';
          acc + distinct)
        0 groups
    in
    match List.filter legal (shapes_for ~dims ~n:num_memories) with
    | [] -> default
    | [ c ] -> c
    | c :: rest ->
        (* each candidate scored once; ties keep fewer banks, then the
           earlier candidate *)
        let best, _, _ =
          List.fold_left
            (fun ((_, sb, pb) as best) s ->
              let ss = score s and ps = product s in
              if ss > sb || (ss = sb && ps < pb) then (s, ss, ps) else best)
            (c, score c, product c)
            rest
        in
        best
  end

(** Compute the full layout for a kernel given its collected accesses
    (use the same [Access.collect] result the scheduler consumes, so the
    access ids agree). *)
let assign ~num_memories (k : Ast.kernel) (accesses : Access.t list) : t =
  (* each array's accesses with their offsets, in collection order *)
  let by_array = Hashtbl.create 8 in
  List.iter
    (fun (a : Access.t) ->
      let rest = try Hashtbl.find by_array a.array with Not_found -> [] in
      Hashtbl.replace by_array a.array ((a, offsets a) :: rest))
    accesses;
  let arrays =
    List.sort String.compare (Hashtbl.fold (fun ar _ l -> ar :: l) by_array [])
  in
  let shapes =
    List.map
      (fun ar ->
        match Ast.find_array k ar with
        | None -> (ar, [ 1 ])
        | Some decl ->
            let of_array = List.rev (Hashtbl.find by_array ar) in
            (ar, choose_shape ~num_memories decl of_array))
      arrays
  in
  let banks = List.map (fun (ar, s) -> (ar, product s)) shapes in
  let ids = 1 + List.fold_left (fun m (a : Access.t) -> max m a.id) (-1) accesses in
  let vids = Array.make ids 0 in
  List.iter
    (fun (ar, shape) ->
      List.iter
        (fun ((a : Access.t), offs) ->
          if List.length a.affine = List.length shape && Access.is_affine a then
            vids.(a.id) <- vid_of shape offs)
        (Hashtbl.find by_array ar))
    shapes;
  (* Physical binding: distinct (array, vid) pairs in first-read order,
     then first-write order, round-robin over the memories. [bound] maps
     each array's vids (below its bank count) to their memory, -1 while
     unbound. *)
  let phys = ref [] in
  let bound = Hashtbl.create 8 in
  List.iter (fun (ar, banks) -> Hashtbl.replace bound ar (Array.make banks (-1))) banks;
  let n_bound = ref 0 in
  let memory = Array.make ids 0 in
  let bind (a : Access.t) =
    let of_array = Hashtbl.find bound a.array and vid = vids.(a.id) in
    if of_array.(vid) < 0 then begin
      of_array.(vid) <- !n_bound mod num_memories;
      incr n_bound;
      phys := ((a.array, vid), of_array.(vid)) :: !phys
    end;
    memory.(a.id) <- of_array.(vid)
  in
  List.iter (fun a -> if Access.is_read a then bind a) accesses;
  List.iter (fun a -> if Access.is_write a then bind a) accesses;
  { num_memories; banks; shapes; phys = List.rev !phys; memory }

(** Physical memory of an access (by its id from the shared collection). *)
let memory_of (t : t) (a : Access.t) : int =
  if a.id >= 0 && a.id < Array.length t.memory then t.memory.(a.id) else 0

let pp fmt (t : t) =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (ar, shape) ->
      Format.fprintf fmt "array %s: banks (%s)@," ar
        (String.concat " x " (List.map string_of_int shape)))
    t.shapes;
  List.iter
    (fun ((ar, vid), m) -> Format.fprintf fmt "%s#%d -> mem%d@," ar vid m)
    t.phys;
  Format.fprintf fmt "@]"
