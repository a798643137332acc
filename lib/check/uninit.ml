(** Uninitialized-read detection by one structural walk over the kernel.

    The walk carries two scalar sets, as bits of each scalar's state.
    [must] holds the scalars assigned on every path to the current
    point: [Param] scalars start in it, a loop header adds its index,
    and an [If] keeps what both branches assigned. [may] holds the
    scalars some definition reaches:
    a loop adds its index and every definition of its reachable body up
    front, which is what its back edge makes reach the body's first
    statement, and an [If] joins what either branch assigned. A read in
    [must] is initialized, one in [may] only some paths initialize (a
    warning), one in neither no definition reaches (an error). Reads
    made by a register bank rotation cap at warning. A loop with a
    positive trip count runs its body, so what the body assigns is
    assigned after it; a non-positive step may run it zero or more
    times; a zero-trip body never runs and is not reported.

    The walk numbers statements as {!Analysis.Flowgraph.build} numbers
    its nodes (entry 0, then preorder), so each site names the flow-graph
    node of the reading statement. *)

open Ir

let pass = "uninit"

type status = Maybe_uninitialized | Uninitialized

type site = {
  node : int;
  name : string;
  status : status;
  rotation : bool;
  span : Ast.span option;
}

let trip (l : Ast.loop) = if l.Ast.step <= 0 then -1 else Ast.loop_trip l

let rec count_nodes stmts =
  List.fold_left
    (fun n (s : Ast.stmt) ->
      match s with
      | Ast.Assign _ | Ast.Rotate _ -> n + 1
      | Ast.If (_, t, e) -> n + 1 + count_nodes t + count_nodes e
      | Ast.For l -> n + 1 + count_nodes l.Ast.body)
    0 stmts

(* A scalar's state: the [must], [may] and [mark] bits, and above them
   the last node that reported it. *)
let must = 1
let may = 2
let mark = 4

(* Calls [report node name status ~rotation span] on every read that is
   not initialized, once per node and name, in node order. *)
let scan (k : Ast.kernel) report =
  let st = Hashtbl.create 64 in
  let get v = try Hashtbl.find st v with Not_found -> 0 in
  let clear bit v = Hashtbl.replace st v (get v land lnot bit) in
  (* Each trail lists the scalars whose bit was set since a point the
     walk returns to: an [If]'s else branch, and the end of a body that
     may not run. *)
  let must_trail = ref [] and may_trail = ref [] in
  let set bit trail v =
    let x = get v in
    if x land bit = 0 then begin
      Hashtbl.replace st v (x lor bit);
      trail := v :: !trail
    end
  in
  let rec undo bit trail stop =
    if !trail != stop then
      match !trail with
      | v :: rest ->
          clear bit v;
          trail := rest;
          undo bit trail stop
      | [] -> ()
  in
  let rec iter_since f stop l =
    if l != stop then
      match l with
      | v :: rest ->
          f v;
          iter_since f stop rest
      | [] -> ()
  in
  (* An [If]'s join: [must] keeps the else branch's scalars that the
     then branch set too (marked); [may] gets the then branch's back. *)
  let mark_on v = Hashtbl.replace st v (get v lor mark) and mark_off = clear mark in
  let keep v = if get v land mark = 0 then clear must v else must_trail := v :: !must_trail in
  let redo = set may may_trail in
  let def v =
    set must must_trail v;
    set may may_trail v
  in
  List.iter
    (fun (d : Ast.scalar_decl) ->
      if d.Ast.s_kind = Ast.Param then set must (ref []) d.Ast.s_name)
    k.Ast.k_scalars;
  (* [may] is saturated inside a loop that runs: its first visit added
     every definition of the body, so nested statements add none. *)
  let rec may_defs (s : Ast.stmt) =
    match s with
    | Ast.Assign (Ast.Lvar v, _) -> redo v
    | Ast.Assign (Ast.Larr _, _) -> ()
    | Ast.Rotate rs -> List.iter redo rs
    | Ast.If (_, t, e) ->
        List.iter may_defs t;
        List.iter may_defs e
    | Ast.For l ->
        redo l.Ast.index;
        if trip l <> 0 then List.iter may_defs l.Ast.body
  in
  let use node span rotation v =
    let x = get v in
    if x land must = 0 && x lsr 3 <> node then begin
      Hashtbl.replace st v ((node lsl 3) lor (x land 7));
      report node v
        (if x land may = 0 then Uninitialized else Maybe_uninitialized)
        ~rotation span
    end
  in
  let rec uses node span (e : Ast.expr) =
    match e with
    | Ast.Int _ -> ()
    | Ast.Var v -> use node span false v
    | Ast.Arr (_, subs) -> uses_list node span subs
    | Ast.Bin (_, x, y) ->
        uses node span x;
        uses node span y
    | Ast.Un (_, x) -> uses node span x
    | Ast.Cond (c, x, y) ->
        uses node span c;
        uses node span x;
        uses node span y
  and uses_list node span = function
    | [] -> ()
    | e :: rest ->
        uses node span e;
        uses_list node span rest
  in
  let next = ref 1 in
  let rec stmts in_loop span = function
    | [] -> ()
    | s :: rest ->
        stmt in_loop span s;
        stmts in_loop span rest
  and stmt in_loop span (s : Ast.stmt) =
    let node = !next in
    incr next;
    match s with
    | Ast.Assign (lv, e) -> (
        uses node span e;
        match lv with
        | Ast.Lvar v -> def v
        | Ast.Larr (_, subs) -> uses_list node span subs)
    | Ast.Rotate rs ->
        List.iter (use node span true) rs;
        List.iter def rs
    | Ast.If (c, t, e) ->
        uses node span c;
        let must0 = !must_trail and may0 = !may_trail in
        stmts in_loop span t;
        let must_t = !must_trail and may_t = !may_trail in
        undo must must_trail must0;
        undo may may_trail may0;
        stmts in_loop span e;
        let must_e = !must_trail in
        iter_since mark_on must0 must_t;
        must_trail := must0;
        iter_since keep must0 must_e;
        iter_since mark_off must0 must_t;
        iter_since redo may0 may_t
    | Ast.For l ->
        let span = match l.Ast.l_span with Some _ as sp -> sp | None -> span in
        def l.Ast.index;
        let t = trip l in
        if t = 0 then next := !next + count_nodes l.Ast.body
        else begin
          if not in_loop then List.iter may_defs l.Ast.body;
          let must0 = !must_trail in
          stmts true span l.Ast.body;
          if t < 0 then undo must must_trail must0
        end
  in
  stmts false None k.Ast.k_body

let sites (k : Ast.kernel) : site list =
  let acc = ref [] in
  scan k (fun node name status ~rotation span ->
      acc := { node; name; status; rotation; span } :: !acc);
  List.rev !acc

let errors (k : Ast.kernel) : int =
  let n = ref 0 in
  scan k (fun _ _ status ~rotation _ ->
      if status = Uninitialized && not rotation then incr n);
  !n

let diagf ?span sev fmt = Diag.diagf ?span sev ~pass fmt

let check ?graph:_ (k : Ast.kernel) : Diag.t list =
  List.map
    (fun { name; status; rotation; span; _ } ->
      match status with
      | Uninitialized when rotation ->
          (* a rotation moves lane values without consuming them: an
             unassigned source lane is only a defect if a later real
             read uses what it rotated in, which the rotation's own
             definition of the destination hides — so this cannot be
             called provable *)
          diagf ?span Diag.Warning
            "register bank rotation reads lane '%s', which is never \
             assigned before this point"
            name
      | Uninitialized ->
          diagf ?span Diag.Error
            "scalar '%s' is read but never assigned before this use" name
      | Maybe_uninitialized ->
          diagf ?span Diag.Warning
            "scalar '%s' may be read before it is assigned (not initialised \
             on every path to this read)"
            name)
    (sites k)
