(** Dead- and redundant-store detection on the flow graph.

    A scalar store whose target is not live afterwards is dead: nothing
    ever reads the value. An array-cell store whose target is provably
    overwritten before any possible read (the {!Analysis.Flowgraph.anticipated}
    must-analysis) is redundant. Both are warnings — the code is
    correct, just wasteful — but a dead store to a compiler-introduced
    [Register] scalar gets its own message: the transform pipeline must
    never emit one, and the test suite cross-checks that scalar
    replacement does not (see test_flowgraph.ml).

    [Rotate] is not a store candidate: its register bank is live by
    construction of the reuse chain it implements, and flagging it would
    second-guess {!Transform.Scalar_replace}'s own accounting. Stores in
    zero-trip loop bodies never execute and are not reported. *)

open Ir
module Flowgraph = Analysis.Flowgraph

let pass = "deadstore"

let diagf ?span sev fmt = Diag.diagf ?span sev ~pass fmt

let check ?graph (k : Ast.kernel) : Diag.t list =
  let g =
    match graph with Some g -> g | None -> Flowgraph.build k
  in
  let live = Flowgraph.live g in
  let ant = Flowgraph.anticipated g in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  Array.iter
    (fun (nd : Flowgraph.node) ->
      if g.Flowgraph.reachable.(nd.Flowgraph.id) then
        match nd.Flowgraph.kind with
        | Flowgraph.Assign (Ast.Lvar s, _) ->
            let l = Flowgraph.Scalar s in
            if not (Flowgraph.live_at live.Flowgraph.after.(nd.Flowgraph.id) l)
            then
              let register =
                match Ast.find_scalar k s with
                | Some d -> d.Ast.s_kind = Ast.Register
                | None -> false
              in
              let msg =
                if register then
                  Printf.sprintf
                    "dead store to compiler-introduced register '%s': the \
                     value is never read"
                    s
                else
                  Printf.sprintf
                    "dead store: scalar '%s' is never read after this \
                     assignment"
                    s
              in
              add (Diag.make ?span:nd.Flowgraph.span Diag.Warning ~pass msg)
        | Flowgraph.Assign (Ast.Larr (_, _), _) -> (
            match Flowgraph.defs_at g nd.Flowgraph.id with
            | [ (Flowgraph.Cell (a, _) as l) ] -> (
                match ant.Flowgraph.after.(nd.Flowgraph.id) with
                | Some s when Flowgraph.LocSet.mem l s ->
                    add
                      (diagf ?span:nd.Flowgraph.span Diag.Warning
                         "redundant store: this cell of '%s' is overwritten \
                          before any read"
                         a)
                | _ -> ())
            | _ -> () (* non-affine target: no claim *))
        | _ -> ())
    g.Flowgraph.nodes;
  List.rev !diags
