(** Post-hoc translation validation of the transformation pipeline.

    {!run} re-applies {!Transform.Pipeline.apply} through its [observe]
    hook and, after every executed stage (tile, unroll, scalar replace,
    peel, LICM, simplify), re-verifies the output kernel structurally
    and compares its array-access *footprint* — the per-array sets of
    elements that may be read, may be written, and must be written —
    against the pre-stage kernel:

    - reads(post) ⊆ reads(pre) ∪ writes(pre): a stage may drop reads
      (register reuse) and may re-load an element it wrote (scalar
      replacement's refill of a write-only bank), but must never read
      data the input kernel did not touch;
    - writes(post) ⊆ writes(pre): no stage invents a store;
    - must-writes(pre) ⊆ writes(post): no store the input definitely
      performed disappears (store sinking may coalesce, not drop).

    Footprints are computed by enumerating the loop nests with a partial
    evaluator that tracks loop indices and compile-time-known scalars
    (so LICM temporaries in subscripts resolve); guards whose condition
    is undecidable contribute to the may-sets of both branches. Arrays
    whose subscripts stay unevaluable, and kernels whose iteration space
    exceeds the point budget, are skipped with an Info finding — never
    silently. Violations carry the stage tag. *)

open Ir

let pass = "validate"

let diagf ?stage sev fmt = Diag.diagf ?stage sev ~pass fmt

(* ------------------------------------------------------------------ *)
(* Footprints *)

type array_fp = {
  size : int;  (** linearized element count *)
  may_read : Bytes.t;
  may_write : Bytes.t;
  must_write : Bytes.t;
  mutable oob_read : bool;  (** some read resolved outside the box *)
  mutable oob_write : bool;
}

type t = {
  arrays : (string * array_fp) list;  (** enumerable arrays, sorted *)
  skipped : (string * string) list;  (** array name, reason *)
}

(** Default budget on statement executions during enumeration; one mm
    lattice point costs ~1.3e5, so this admits every kernel in the repo
    with two orders of magnitude to spare. *)
let default_max_points = 1 lsl 24

exception Skip_all of string

(** Estimated statement executions, to refuse enormous nests upfront. *)
let rec work_of_body body =
  List.fold_left
    (fun acc s ->
      acc
      +
      match s with
      | Ast.Assign _ | Ast.Rotate _ -> 1
      | Ast.If (_, t, e) -> 1 + work_of_body t + work_of_body e
      | Ast.For l ->
          let trip = if l.Ast.step <= 0 then 0 else Ast.loop_trip l in
          1 + (trip * work_of_body l.Ast.body))
    0 body

(* ------------------------------------------------------------------ *)
(* Slot-compiled kernels

   The enumerator executes the body once per iteration point, so every
   name is resolved before enumeration starts: a variable to an int
   slot of the environment (a value plus a known flag), an array to its
   footprint record. Partial evaluation tracks loop indices and
   compile-time-known scalars; it raises [Unknown] where the value is
   not known. *)

exception Unknown

type cexpr =
  | C_int of int
  | C_var of int  (** slot *)
  | C_read  (** an array element: never known *)
  | C_un of Ast.unop * cexpr
  | C_bin of Ast.binop * cexpr * cexpr
  | C_cond of cexpr * cexpr * cexpr

type target =
  | Declared of string * int list * array_fp  (** name, extents, footprint *)
  | Undeclared of string

(** One array access: where it lands and its subscripts. *)
type access = { target : target; subs : cexpr list }

(* Each statement carries the array reads it performs, in evaluation
   order (subscripts before the element they index). *)
type cstmt =
  | C_set of access list * int * cexpr  (** scalar store to a slot *)
  | C_store of access list * access  (** array store *)
  | C_if of access list * cexpr * cstmt list * cstmt list
  | C_for of int * Ast.loop * cstmt list  (** index slot *)
  | C_rotate of int list

let rec eval vals known (e : cexpr) : int =
  match e with
  | C_int n -> n
  | C_var s -> if known.(s) then vals.(s) else raise Unknown
  | C_read -> raise Unknown
  | C_un (op, a) -> (
      let va = eval vals known a in
      match op with
      | Ast.Neg -> -va
      | Ast.Not -> if va = 0 then 1 else 0
      | Ast.Bnot -> lnot va
      | Ast.Abs -> abs va)
  | C_bin (op, a, b) -> (
      let va = eval vals known a in
      let vb = eval vals known b in
      let bool_ c = if c then 1 else 0 in
      match op with
      | Ast.Add -> va + vb
      | Ast.Sub -> va - vb
      | Ast.Mul -> va * vb
      | Ast.Div -> if vb = 0 then raise Unknown else va / vb
      | Ast.Mod -> if vb = 0 then raise Unknown else va mod vb
      | Ast.Lt -> bool_ (va < vb)
      | Ast.Le -> bool_ (va <= vb)
      | Ast.Gt -> bool_ (va > vb)
      | Ast.Ge -> bool_ (va >= vb)
      | Ast.Eq -> bool_ (va = vb)
      | Ast.Ne -> bool_ (va <> vb)
      | Ast.And -> bool_ (va <> 0 && vb <> 0)
      | Ast.Or -> bool_ (va <> 0 || vb <> 0)
      | Ast.Band -> va land vb
      | Ast.Bor -> va lor vb
      | Ast.Bxor -> va lxor vb
      | Ast.Shl -> if vb < 0 || vb > 62 then raise Unknown else va lsl vb
      | Ast.Shr -> if vb < 0 || vb > 62 then raise Unknown else va asr vb
      | Ast.Min -> min va vb
      | Ast.Max -> max va vb)
  | C_cond (c, t, e') ->
      eval vals known (if eval vals known c <> 0 then t else e')

(* Compile [k]'s body against fresh footprint records; returns the
   compiled body, the slot count and the records by name (the last of
   duplicate declarations wins). *)
let compile (k : Ast.kernel) =
  let fps = Hashtbl.create 8 in
  List.iter
    (fun (a : Ast.array_decl) ->
      let size = Ast.array_size a in
      Hashtbl.replace fps a.Ast.a_name
        ( a.Ast.a_dims,
          {
            size;
            may_read = Bytes.make size '\000';
            may_write = Bytes.make size '\000';
            must_write = Bytes.make size '\000';
            oob_read = false;
            oob_write = false;
          } ))
    k.Ast.k_arrays;
  let slots = Hashtbl.create 64 in
  let slot v =
    match Hashtbl.find_opt slots v with
    | Some s -> s
    | None ->
        let s = Hashtbl.length slots in
        Hashtbl.add slots v s;
        s
  in
  let rec cexpr (e : Ast.expr) =
    match e with
    | Ast.Int n -> C_int n
    | Ast.Var v -> C_var (slot v)
    | Ast.Arr _ -> C_read
    | Ast.Un (op, a) -> C_un (op, cexpr a)
    | Ast.Bin (op, a, b) -> C_bin (op, cexpr a, cexpr b)
    | Ast.Cond (c, t, e') -> C_cond (cexpr c, cexpr t, cexpr e')
  in
  let access a subs =
    let target =
      match Hashtbl.find_opt fps a with
      | Some (dims, fp) -> Declared (a, dims, fp)
      | None -> Undeclared a
    in
    { target; subs = List.map cexpr subs }
  in
  (* Array reads inside an expression, in evaluation order, prepended
     to [acc] reversed. *)
  let rec reads acc (e : Ast.expr) =
    match e with
    | Ast.Int _ | Ast.Var _ -> acc
    | Ast.Arr (a, subs) -> access a subs :: List.fold_left reads acc subs
    | Ast.Bin (_, a, b) -> reads (reads acc a) b
    | Ast.Un (_, a) -> reads acc a
    | Ast.Cond (c, t, e') -> reads (reads (reads acc c) t) e'
  in
  let reads_of es = List.rev (List.fold_left reads [] es) in
  let rec cstmt (s : Ast.stmt) =
    match s with
    | Ast.Assign (Ast.Lvar v, e) -> C_set (reads_of [ e ], slot v, cexpr e)
    | Ast.Assign (Ast.Larr (a, subs), e) ->
        C_store (reads_of (subs @ [ e ]), access a subs)
    | Ast.If (c, t, e) ->
        C_if (reads_of [ c ], cexpr c, List.map cstmt t, List.map cstmt e)
    | Ast.For l -> C_for (slot l.Ast.index, l, List.map cstmt l.Ast.body)
    | Ast.Rotate rs -> C_rotate (List.map slot rs)
  in
  let body = List.map cstmt k.Ast.k_body in
  (body, Hashtbl.length slots, fps)

let footprint ?(max_points = default_max_points) (k : Ast.kernel) : t =
  let body, nslots, fps = compile k in
  let skipped : (string, string) Hashtbl.t = Hashtbl.create 4 in
  let skip a reason =
    if not (Hashtbl.mem skipped a) then Hashtbl.add skipped a reason
  in
  let vals = Array.make nslots 0 and known = Array.make nslots false in
  (* Linearize row-major; raises [Unknown] when a subscript is
     unevaluable, [-1] when evaluable but outside the declared box. *)
  let rec linear acc dims subs =
    match (dims, subs) with
    | [], [] -> acc
    | d :: dims, s :: subs ->
        let v = eval vals known s in
        if v < 0 || v >= d then -1 else linear ((acc * d) + v) dims subs
    | _ -> -1 (* arity mismatch: treat as out of the box *)
  in
  let touch ~write ~certain { target; subs } =
    match target with
    | Undeclared a -> skip a "not declared"
    | Declared (a, dims, fp) -> (
        match linear 0 dims subs with
        | exception Unknown -> skip a "unevaluable subscript"
        | idx ->
            if idx < 0 then
              if write then fp.oob_write <- true else fp.oob_read <- true
            else if write then begin
              Bytes.set fp.may_write idx '\001';
              if certain then Bytes.set fp.must_write idx '\001'
            end
            else Bytes.set fp.may_read idx '\001')
  in
  let read acc = touch ~write:false ~certain:false acc in
  let budget = ref max_points in
  let spend () =
    decr budget;
    if !budget < 0 then raise (Skip_all "iteration budget exceeded")
  in
  let rec walk ~certain = function
    | [] -> ()
    | s :: rest ->
        stmt ~certain s;
        walk ~certain rest
  and stmt ~certain s =
    spend ();
    match s with
    | C_set (rs, v, e) ->
        List.iter read rs;
        if not certain then known.(v) <- false
        else begin
          match eval vals known e with
          | n ->
              vals.(v) <- n;
              known.(v) <- true
          | exception Unknown -> known.(v) <- false
        end
    | C_store (rs, w) ->
        List.iter read rs;
        touch ~write:true ~certain w
    | C_if (rs, c, t, e) -> (
        List.iter read rs;
        match eval vals known c with
        | vc -> walk ~certain (if vc <> 0 then t else e)
        | exception Unknown ->
            walk ~certain:false t;
            walk ~certain:false e)
    | C_for (i, l, body) ->
        if l.Ast.step <= 0 then raise (Skip_all "non-positive loop stride");
        let v = ref l.Ast.lo in
        while !v < l.Ast.hi do
          vals.(i) <- !v;
          known.(i) <- true;
          walk ~certain body;
          v := !v + l.Ast.step
        done;
        known.(i) <- false
    | C_rotate rs ->
        (* Register values permute: forget anything we knew about them. *)
        List.iter (fun r -> known.(r) <- false) rs
  in
  (* Known [Param]/[Temp] scalars have no compile-time value: only loop
     indices and scalars assigned evaluable expressions are known. *)
  (try
     if work_of_body k.Ast.k_body > max_points then
       raise (Skip_all "iteration space exceeds the point budget");
     walk ~certain:true body
   with Skip_all reason ->
     List.iter
       (fun (a : Ast.array_decl) -> skip a.Ast.a_name reason)
       k.Ast.k_arrays);
  let arrays =
    Hashtbl.fold
      (fun name (_, fp) acc ->
        if Hashtbl.mem skipped name then acc else (name, fp) :: acc)
      fps []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let skipped =
    Hashtbl.fold (fun name reason acc -> (name, reason) :: acc) skipped []
    |> List.sort compare
  in
  { arrays; skipped }

(* ------------------------------------------------------------------ *)
(* Footprint comparison *)

(** Elements set in [a] but in neither [b] nor [c]: count and first
    offending linear index. *)
let not_covered a b c =
  let n = Bytes.length a in
  let count = ref 0 and first = ref (-1) in
  for i = 0 to n - 1 do
    if
      Bytes.get a i <> '\000'
      && Bytes.get b i = '\000'
      && (match c with None -> true | Some c -> Bytes.get c i = '\000')
    then begin
      incr count;
      if !first < 0 then first := i
    end
  done;
  (!count, !first)

let compare_footprints ~stage ~(pre : t) ~(post : t) : Diag.t list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  List.iter
    (fun (name, fp_post) ->
      match List.assoc_opt name pre.arrays with
      | None -> ()  (* unenumerable on the pre side: reported as skipped *)
      | Some fp_pre ->
          if fp_pre.size <> fp_post.size then
            add
              (diagf Error ~stage
                 "array '%s' changed size across the stage (%d -> %d elements)"
                 name fp_pre.size fp_post.size)
          else begin
            let n, first =
              not_covered fp_post.may_read fp_pre.may_read
                (Some fp_pre.may_write)
            in
            if n > 0 then
              add
                (diagf Error ~stage
                   "stage reads %d element(s) of '%s' the input kernel never \
                    touches (first at linear index %d)"
                   n name first);
            let n, first = not_covered fp_post.may_write fp_pre.may_write None in
            if n > 0 then
              add
                (diagf Error ~stage
                   "stage writes %d element(s) of '%s' the input kernel never \
                    writes (first at linear index %d)"
                   n name first);
            let n, first = not_covered fp_pre.must_write fp_post.may_write None in
            if n > 0 then
              add
                (diagf Error ~stage
                   "stage drops %d write(s) to '%s' the input kernel always \
                    performs (first at linear index %d)"
                   n name first);
            if fp_post.oob_read && not fp_pre.oob_read then
              add
                (diagf Error ~stage
                   "stage introduces an out-of-bounds read of '%s'" name);
            if fp_post.oob_write && not fp_pre.oob_write then
              add
                (diagf Error ~stage
                   "stage introduces an out-of-bounds write of '%s'" name)
          end)
    post.arrays;
  List.rev !diags

(* ------------------------------------------------------------------ *)
(* Pipeline instrumentation *)

type outcome = {
  result : Transform.Pipeline.result option;
      (** [None] when the pipeline itself failed; the failure is then an
          error diagnostic *)
  diags : Diag.t list;
}

let violations (o : outcome) = Diag.errors o.diags

(* One validation run's state. The pipeline threads each stage's output
   into the next stage, so the [before] kernel is physically the
   previous [after]: [last] caches one footprint to halve the
   enumeration work. The first stage's [before] is the source kernel,
   whose footprint the caller may supply. *)
type session = {
  max_points : int option;
  mutable diags : Diag.t list;  (* newest first *)
  skip_reported : (string, unit) Hashtbl.t;
      (* arrays whose Info skip is already reported: once per run *)
  mutable last : (Ast.kernel * t) option;
}

let add_diag s d = s.diags <- d :: s.diags

let observe s stage ~before ~after =
  let sname = Transform.Pipeline.stage_name stage in
  let report_skips (fp : t) =
    List.iter
      (fun (name, reason) ->
        if not (Hashtbl.mem s.skip_reported name) then begin
          Hashtbl.add s.skip_reported name ();
          add_diag s
            (diagf Info ~stage:sname "array '%s' not validated: %s" name
               reason)
        end)
      fp.skipped
  in
  (* Structural re-verification of the stage output. *)
  List.iter
    (fun (d : Diag.t) ->
      if d.Diag.severity = Diag.Error then
        add_diag s { d with Diag.pass; stage = Some sname })
    (Wellformed.check ~min_severity:Diag.Error after);
  let fp_of kk =
    match s.last with
    | Some (prev, fp) when prev == kk -> fp
    | _ -> footprint ?max_points:s.max_points kk
  in
  let pre = fp_of before in
  let post = footprint ?max_points:s.max_points after in
  s.last <- Some (after, post);
  report_skips pre;
  report_skips post;
  List.iter (add_diag s) (compare_footprints ~stage:sname ~pre ~post)

let stage_failed s ~stage ~kernel message =
  add_diag s (Diag.of_stage_error ~stage ~kernel message)

type front = {
  built : Transform.Pipeline.front option;
      (* [None] when a front stage raised; [state.diags] then ends with
         the failure *)
  state : session;  (* never mutated once the front is built *)
}

let front ?(options = Transform.Pipeline.default) ?max_points
    ?source_footprint (k : Ast.kernel) : front =
  let state =
    {
      max_points;
      diags = [];
      skip_reported = Hashtbl.create 4;
      last = Option.map (fun fp -> (k, fp)) source_footprint;
    }
  in
  match Transform.Pipeline.front ~observe:(observe state) options k with
  | f -> { built = Some f; state }
  | exception Transform.Pipeline.Stage_error { stage; kernel; message } ->
      stage_failed state ~stage ~kernel message;
      { built = None; state }

let run ?(options = Transform.Pipeline.default) ?max_points ?source_footprint
    ?front:shared (k : Ast.kernel) : outcome =
  let f =
    match shared with
    | Some f -> f
    | None -> front ~options ?max_points ?source_footprint k
  in
  match f.built with
  | None -> { result = None; diags = List.rev f.state.diags }
  | Some pf -> (
      (* A private copy of the front's state: the front serves every
         configuration that shares it. *)
      let s =
        { f.state with skip_reported = Hashtbl.copy f.state.skip_reported }
      in
      match
        Transform.Pipeline.apply ~observe:(observe s) ~front:pf options k
      with
      | r -> { result = Some r; diags = List.rev s.diags }
      | exception Transform.Pipeline.Stage_error { stage; kernel; message } ->
          stage_failed s ~stage ~kernel message;
          { result = None; diags = List.rev s.diags })
