(** Loop peeling.

    Scalar replacement emits register-bank loads guarded by
    [if (c == lo)] on the first iteration of the carrier loop
    (Figure 1(c) of the paper). Peeling the first iteration specialises
    those guards away, so every remaining iteration has the same number
    of memory accesses and high-level synthesis can schedule them
    uniformly (Figure 1(d) and the paper's discussion of peeling). *)

open Ir
open Ast

(** Peel the first iteration of the loop with index [index] (searched on
    the nest spine): emits the body with [index := lo], followed by the
    loop starting at [lo + step]. Guards of the form [index == lo] inside
    the remaining loop are folded to false — the index is strictly
    greater than [lo] there. *)
let peel_first ~index (body : stmt list) : stmt list =
  (* Sharing-preserving: subtrees without the target loop come back
     physically unchanged, so peeling one loop of a large unrolled body
     copies only the peeled loop and its ancestors. *)
  let rec go (body : stmt list) =
    let changed = ref false in
    let body' =
      List.concat_map
        (fun s ->
          match s with
          | For l when l.index = index ->
              if Ast.loop_trip l = 0 then [ s ]
              else begin
                changed := true;
                let first = Simplify.subst_index l.index (Fixed l.lo) l.body in
                let rest =
                  if l.lo + l.step >= l.hi then []
                  else
                    let kill_guard e =
                      match e with
                      | Bin (Eq, Var v, Int c) when v = l.index && c = l.lo -> Int 0
                      | Bin (Eq, Int c, Var v) when v = l.index && c = l.lo -> Int 0
                      | e -> e
                    in
                    [ For { l with lo = l.lo + l.step;
                            body = Ast.map_body_exprs kill_guard l.body } ]
                in
                first @ rest
              end
          | For l ->
              let b' = go l.body in
              if b' == l.body then [ s ]
              else begin
                changed := true;
                [ For { l with body = b' } ]
              end
          | If (c, t, e) ->
              let t' = go t and e' = go e in
              if t' == t && e' == e then [ s ]
              else begin
                changed := true;
                [ If (c, t', e') ]
              end
          | Assign _ | Rotate _ -> [ s ])
        body
    in
    if !changed then body' else body
  in
  go body

(** Peel the last iteration instead; useful for sinking epilogue stores. *)
let peel_last ~index (body : stmt list) : stmt list =
  let rec go body =
    let changed = ref false in
    let body' =
      List.concat_map
        (fun s ->
          match s with
          | For l when l.index = index ->
              let trip = Ast.loop_trip l in
              if trip = 0 then [ s ]
              else begin
                changed := true;
                let last_val = l.lo + ((trip - 1) * l.step) in
                let last = Ast.subst_var l.index (Int last_val) l.body in
                let rest =
                  if trip = 1 then [] else [ For { l with hi = last_val } ]
                in
                rest @ last
              end
          | For l ->
              let b' = go l.body in
              if b' == l.body then [ s ]
              else begin
                changed := true;
                [ For { l with body = b' } ]
              end
          | If (c, t, e) ->
              let t' = go t and e' = go e in
              if t' == t && e' == e then [ s ]
              else begin
                changed := true;
                [ If (c, t', e') ]
              end
          | Assign _ | Rotate _ -> [ s ])
        body
    in
    if !changed then body' else body
  in
  go body
