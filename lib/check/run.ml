(** Driver: run every pass over a kernel and render the findings.

    The CLI ([defacto check]), CI and the verified explorer all go
    through here so they share one pass order, one rendering and one
    exit-code discipline. Pass order mirrors a compiler: structural
    well-formedness first (and, when it errors, alone — the later passes
    assume a structurally sound kernel), then bounds, the dataflow
    passes (uninit, deadstore), transform legality, and optionally the
    full pipeline validation. Only the dead-store pass builds a flow
    graph; uninit and legality walk the syntax instead.

    Diagnostics are sorted deterministically by (span, pass, stage,
    severity, message) before rendering, so [--format=json] output is
    stable across runs and diffable in CI. *)

open Ir

type config = {
  options : Transform.Pipeline.options option;
      (** legality/validation against these concrete pipeline options;
          [Transform.Pipeline.default] when absent *)
  validate : bool;  (** run the (more expensive) pipeline validation *)
  max_points : int option;  (** footprint enumeration budget *)
}

let default = { options = None; validate = true; max_points = None }

(** Passes the configuration runs, in order (well-formedness errors
    short-circuit the rest). The JSON rendering exposes this list so CI
    can assert a pass was active. *)
let pass_names (config : config) : string list =
  [ "wellformed"; "bounds"; "uninit"; "deadstore"; "legality" ]
  @ if config.validate then [ "validate" ] else []

(* Deterministic render order: source position first (spanless findings
   lead, as whole-kernel notes), then pass, stage, severity (errors
   before warnings at one site), message. *)
let compare_diag (a : Diag.t) (b : Diag.t) =
  let span_key = function
    | None -> (-1, -1)
    | Some (sp : Ast.span) -> (sp.Ast.sp_line, sp.Ast.sp_col)
  in
  let c = compare (span_key a.Diag.span) (span_key b.Diag.span) in
  if c <> 0 then c
  else
    let c = compare a.Diag.pass b.Diag.pass in
    if c <> 0 then c
    else
      let c = compare a.Diag.stage b.Diag.stage in
      if c <> 0 then c
      else
        let c = Diag.compare_severity b.Diag.severity a.Diag.severity in
        if c <> 0 then c else compare a.Diag.message b.Diag.message

let sort = List.stable_sort compare_diag

let all ?(config = default) (k : Ast.kernel) : Diag.t list =
  let wf = Wellformed.check k in
  if Diag.errors wf <> [] then sort wf
  else
    let bounds = Bounds.check k in
    let uninit = Uninit.check k in
    let deadstore = Deadstore.check k in
    let legality = Legality.check ?options:config.options k in
    let validation =
      if not config.validate then []
      else if Diag.errors bounds <> [] then []
        (* out-of-bounds source: the pipeline may legitimately move the
           overrun around; don't pile on stage findings *)
      else
        (Validate.run
           ?options:config.options
           ?max_points:config.max_points k)
          .Validate.diags
    in
    sort (wf @ bounds @ uninit @ deadstore @ legality @ validation)

(** [fail_on] tightens the threshold: with [Warning], warning findings
    exit 2 like errors do. The default [Error] keeps the usual 0/1/2. *)
let exit_code ?(fail_on = Diag.Error) ds =
  match (Diag.max_severity ds, fail_on) with
  | Some Diag.Error, _ -> 2
  | Some Diag.Warning, Diag.Error -> 1
  | Some Diag.Warning, _ -> 2
  | (Some Diag.Info | None), _ -> 0

let count sev ds = List.length (List.filter (fun d -> d.Diag.severity = sev) ds)

let render_human ?file ~kernel (ds : Diag.t list) : string =
  let buf = Buffer.create 256 in
  List.iter
    (fun d ->
      Buffer.add_string buf (Diag.render ?file d);
      Buffer.add_char buf '\n')
    ds;
  let e = count Diag.Error ds
  and w = count Diag.Warning ds
  and i = count Diag.Info ds in
  Buffer.add_string buf
    (if e = 0 && w = 0 then
       Printf.sprintf "%s: clean (%d informational finding(s))\n" kernel i
     else
       Printf.sprintf "%s: %d error(s), %d warning(s), %d informational\n"
         kernel e w i);
  Buffer.contents buf

let render_json ?file ?fail_on ?passes ~kernel (ds : Diag.t list) : string =
  let fields =
    [ Printf.sprintf {|"kernel": "%s"|} (Diag.json_escape kernel) ]
    @ (match file with
      | Some f -> [ Printf.sprintf {|"file": "%s"|} (Diag.json_escape f) ]
      | None -> [])
    @ (match passes with
      | Some ps ->
          [ Printf.sprintf {|"passes": [%s]|}
              (String.concat ", "
                 (List.map
                    (fun p -> Printf.sprintf {|"%s"|} (Diag.json_escape p))
                    ps));
          ]
      | None -> [])
    @ [
        Printf.sprintf {|"errors": %d|} (count Diag.Error ds);
        Printf.sprintf {|"warnings": %d|} (count Diag.Warning ds);
        Printf.sprintf {|"infos": %d|} (count Diag.Info ds);
        Printf.sprintf {|"exit_code": %d|} (exit_code ?fail_on ds);
        Printf.sprintf {|"diagnostics": [%s]|}
          (String.concat ", " (List.map Diag.to_json ds));
      ]
  in
  "{" ^ String.concat ", " fields ^ "}"
