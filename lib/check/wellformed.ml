(** Structural well-formedness of a kernel.

    These are the paper's input-domain invariants (Section 2.4) plus the
    internal conventions every later pass relies on: all scalars and
    arrays declared before use, subscript arity matching the declared
    rank, no loop-index shadowing or assignment, positive strides, loops
    not nested under conditionals, and (as advisory findings) zero-trip
    loops and narrowing assignments. The pass is pure: it never raises,
    it returns diagnostics. *)

open Ir

let pass = "wellformed"

let diagf ?stage ?span sev fmt = Diag.diagf ?stage ?span sev ~pass fmt

type env = {
  kernel : Ast.kernel;
  scalars : (string, Ast.scalar_decl) Hashtbl.t;
  arrays : (string, Ast.array_decl) Hashtbl.t;
      (** declarations by name, hashed once per check: a transformed
          kernel declares thousands of registers, and every variable use
          looks one up. The first of duplicate declarations wins, as in
          {!Ast.find_scalar}/{!Ast.find_array}. *)
  min_severity : Diag.severity;  (** findings below it are never built *)
  mutable diags : Diag.t list;
  mutable bound : string list;  (** loop indices in scope, innermost first *)
}

let add env d = env.diags <- d :: env.diags
let wants env sev = Diag.compare_severity sev env.min_severity >= 0

let index_first name decls =
  let t = Hashtbl.create (List.length decls) in
  List.iter
    (fun d -> if not (Hashtbl.mem t (name d)) then Hashtbl.add t (name d) d)
    decls;
  t

let make_env ~min_severity (k : Ast.kernel) =
  {
    kernel = k;
    min_severity;
    scalars = index_first (fun (s : Ast.scalar_decl) -> s.s_name) k.Ast.k_scalars;
    arrays = index_first (fun (a : Ast.array_decl) -> a.a_name) k.Ast.k_arrays;
    diags = [];
    bound = [];
  }

let scalar_declared env v = Hashtbl.mem env.scalars v
let find_scalar env v = Hashtbl.find_opt env.scalars v
let find_array env a = Hashtbl.find_opt env.arrays a

let result_type env e =
  Ast.result_type_in
    ~scalar:(fun v -> Option.map (fun (d : Ast.scalar_decl) -> d.s_elem) (find_scalar env v))
    ~array:(fun a -> Option.map (fun (d : Ast.array_decl) -> d.a_elem) (find_array env a))
    e

(* ------------------------------------------------------------------ *)
(* Declarations *)

let check_decls env =
  let k = env.kernel in
  (* Positive extents. *)
  List.iter
    (fun (a : Ast.array_decl) ->
      if a.a_dims = [] then
        add env
          (diagf Error ?span:a.a_span "array '%s' declared with no dimensions"
             a.a_name);
      List.iter
        (fun d ->
          if d <= 0 then
            add env
              (diagf Error ?span:a.a_span
                 "array '%s' has non-positive extent %d" a.a_name d))
        a.a_dims)
    k.Ast.k_arrays;
  (* Duplicate names across both namespaces. *)
  let names =
    List.map (fun (a : Ast.array_decl) -> (a.a_name, a.a_span)) k.Ast.k_arrays
    @ List.map (fun (s : Ast.scalar_decl) -> (s.s_name, s.s_span)) k.Ast.k_scalars
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (name, span) ->
      if Hashtbl.mem seen name then
        add env (diagf Error ?span "duplicate declaration of '%s'" name)
      else Hashtbl.add seen name ())
    names

(* ------------------------------------------------------------------ *)
(* Expressions and statements *)

let rec check_expr env ?span (e : Ast.expr) =
  match e with
  | Ast.Int _ -> ()
  | Ast.Var v ->
      if not (List.mem v env.bound || scalar_declared env v) then
        add env (diagf Error ?span "use of undeclared variable '%s'" v)
  | Ast.Arr (a, subs) ->
      (match find_array env a with
      | None -> add env (diagf Error ?span "use of undeclared array '%s'" a)
      | Some d ->
          let rank = List.length d.Ast.a_dims in
          let arity = List.length subs in
          if arity <> rank then
            let span =
              match span with Some _ -> span | None -> d.Ast.a_span
            in
            add env
              (diagf Error ?span
                 "array '%s' has rank %d but is subscripted with %d index(es)"
                 a rank arity));
      List.iter (check_expr env ?span) subs
  | Ast.Bin (_, a, b) ->
      check_expr env ?span a;
      check_expr env ?span b
  | Ast.Un (_, a) -> check_expr env ?span a
  | Ast.Cond (c, t, e) ->
      check_expr env ?span c;
      check_expr env ?span t;
      check_expr env ?span e

let rec check_stmt env ~under_if ?span (s : Ast.stmt) =
  match s with
  | Ast.Assign (Ast.Lvar v, e) ->
      if List.mem v env.bound then
        add env (diagf Error ?span "assignment to loop index '%s'" v);
      if (not (List.mem v env.bound)) && not (scalar_declared env v) then
        add env (diagf Error ?span "assignment to undeclared scalar '%s'" v);
      check_expr env ?span e;
      (* Type consistency: flag narrowing stores as advisory findings
         only — accumulations routinely produce intermediate results
         wider than the stored element. *)
      (match find_scalar env v with
      | Some d when wants env Info ->
          let bits = Dtype.bits (result_type env e) in
          if bits > Dtype.bits d.Ast.s_elem then
            add env
              (diagf Info ?span
                 "store to '%s' narrows a %d-bit value to %d bits" v bits
                 (Dtype.bits d.Ast.s_elem))
      | Some _ | None -> ())
  | Ast.Assign (Ast.Larr (a, subs), e) ->
      check_expr env ?span (Ast.Arr (a, subs));
      check_expr env ?span e;
      (match find_array env a with
      | Some d when wants env Info ->
          let bits = Dtype.bits (result_type env e) in
          if bits > Dtype.bits d.Ast.a_elem then
            add env
              (diagf Info ?span
                 "store to '%s' narrows a %d-bit value to %d bits" a bits
                 (Dtype.bits d.Ast.a_elem))
      | Some _ | None -> ())
  | Ast.If (c, t, e) ->
      check_expr env ?span c;
      List.iter (check_stmt env ~under_if:true ?span) t;
      List.iter (check_stmt env ~under_if:true ?span) e
  | Ast.For l ->
      let span = match l.Ast.l_span with Some _ as sp -> sp | None -> span in
      if under_if then
        add env
          (diagf Error ?span
             "loop over '%s' nested under a conditional (outside the input \
              domain)"
             l.Ast.index);
      if l.Ast.step <= 0 then
        add env
          (diagf Error ?span "loop over '%s' has non-positive stride %d"
             l.Ast.index l.Ast.step)
      else if wants env Warning && Ast.loop_trip l = 0 then
        add env
          (diagf Warning ?span "loop over '%s' has zero iterations (%d..%d)"
             l.Ast.index l.Ast.lo l.Ast.hi);
      if List.mem l.Ast.index env.bound then
        add env
          (diagf Error ?span "loop index '%s' shadows an enclosing index"
             l.Ast.index)
      else if wants env Warning && scalar_declared env l.Ast.index then
        add env
          (diagf Warning ?span
             "loop index '%s' shadows a declared scalar" l.Ast.index);
      let saved = env.bound in
      env.bound <- l.Ast.index :: env.bound;
      List.iter (check_stmt env ~under_if:false ?span) l.Ast.body;
      env.bound <- saved
  | Ast.Rotate rs ->
      List.iter
        (fun r ->
          if not (scalar_declared env r) then
            add env
              (diagf Error ?span "rotate_registers over undeclared scalar '%s'"
                 r))
        rs

let check ?(min_severity = Diag.Info) (k : Ast.kernel) : Diag.t list =
  let env = make_env ~min_severity k in
  check_decls env;
  List.iter (check_stmt env ~under_if:false) k.Ast.k_body;
  List.rev env.diags
