(** Utilities over loop nests: nest extraction, trip counts, index
    environments, and classification of where statements sit relative to
    the nest. *)

open Ast

(** The chain of loops from outermost to innermost along the *unique* loop
    spine of a statement list, together with the innermost body. A nest is
    perfect when every loop body on the spine contains exactly one
    statement, a [For]; the paper's transformed code is imperfect (loads
    before / stores after the inner loop), so we also expose the spine of
    an imperfect nest: at each level we follow the single [For] statement
    if there is exactly one. *)
let rec perfect_nest (body : stmt list) : loop list * stmt list =
  match body with
  | [ For l ] ->
      let inner, innermost = perfect_nest l.body in
      (l :: inner, innermost)
  | other -> ([], other)

(** Follow the loop spine even through imperfect levels: at each level,
    descend into the unique [For] among the statements. Returns the loops
    outermost-first. *)
let rec spine (body : stmt list) : loop list =
  let fors = List.filter_map (function For l -> Some l | _ -> None) body in
  match fors with [ l ] -> l :: spine l.body | _ -> []

let nest_depth body = List.length (spine body)

(** Indices of the spine loops, outermost first. *)
let spine_indices body = List.map (fun l -> l.index) (spine body)

(** Does some loop of [body], at any depth and under any guard, have
    index [index]? *)
let rec has_loop index (body : stmt list) =
  List.exists
    (function
      | For l -> l.index = index || has_loop index l.body
      | If (_, t, e) -> has_loop index t || has_loop index e
      | Assign _ | Rotate _ -> false)
    body

let trip = loop_trip

(** Total iteration count of a perfect nest. *)
let total_iterations body =
  List.fold_left (fun acc l -> acc * trip l) 1 (spine body)

(** Iteration vectors of a loop list, outermost-first, in lexicographic
    execution order. Intended for small test nests — the list is
    materialised eagerly. *)
let iteration_vectors (loops : loop list) : int list list =
  let rec go = function
    | [] -> [ [] ]
    | l :: rest ->
        let tails = go rest in
        let rec values v acc = if v >= l.hi then List.rev acc else values (v + l.step) (v :: acc) in
        let vs = values l.lo [] in
        List.concat_map (fun v -> List.map (fun t -> v :: t) tails) vs
  in
  go loops

(** Does the expression depend on the given index variable? *)
let expr_uses_var v e =
  fold_expr (fun acc x -> acc || x = Var v) false e

(** Is the expression invariant with respect to loop index [v]?
    Conservative: any array read makes it variant unless its subscripts
    avoid [v] — reads may still alias writes inside the loop, but
    invariance here is used only on subscript expressions and scalars,
    which is exact. *)
let invariant_in v e = not (expr_uses_var v e)

(** Rename a loop index throughout a loop (binder and uses). *)
let rename_index (l : loop) fresh : loop =
  let body = subst_var l.index (Var fresh) l.body in
  { l with index = fresh; body }

(** Replace the innermost body of a perfect nest. *)
let rec with_innermost (body : stmt list) (f : stmt list -> stmt list) : stmt list =
  match body with
  | [ For l ] -> [ For { l with body = with_innermost l.body f } ]
  | other -> f other

(** Validate structural invariants used throughout the pipeline: positive
    steps, and no loop nested under a conditional — a conditionally
    executed loop has no static schedule, which puts it outside the
    paper's input domain (Section 2.4) and outside what the estimator,
    simulator and code generator model. Raises [Invalid_argument]. *)
let validate (k : kernel) =
  let check_loop l =
    if l.step <= 0 then
      invalid_arg
        (Printf.sprintf "loop %s has nonpositive step %d" l.index l.step)
  in
  let rec go ~under_if s =
    match s with
    | For l ->
        if under_if then
          invalid_arg
            (Printf.sprintf
               "loop %s is nested under a conditional, which is outside the \
                supported domain"
               l.index);
        check_loop l;
        List.iter (go ~under_if) l.body
    | If (_, t, e) ->
        List.iter (go ~under_if:true) t;
        List.iter (go ~under_if:true) e
    | Assign _ | Rotate _ -> ()
  in
  List.iter (go ~under_if:false) k.k_body;
  k
