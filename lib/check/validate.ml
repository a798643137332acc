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

    Footprints come from {!Analysis.Footprint}. The arrays it skips
    (unevaluable subscripts, too many elements, a kernel past the point
    budget) are reported with an Info finding — never silently. A stage
    whose output equals its input takes its input's verdict. Violations
    carry the stage tag. *)

open Ir

module Fp = Analysis.Footprint

let pass = "validate"

let diagf ?stage sev fmt = Diag.diagf ?stage sev ~pass fmt

(* ------------------------------------------------------------------ *)
(* Footprint comparison *)

let compare_footprints ~stage ~(pre : Fp.t) ~(post : Fp.t) : Diag.t list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  List.iter
    (fun (name, (fp_post : Fp.array_fp)) ->
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
              Fp.not_covered (fp_post, Fp.may_read)
                (fp_pre, Fp.may_read lor Fp.may_write)
            in
            if n > 0 then
              add
                (diagf Error ~stage
                   "stage reads %d element(s) of '%s' the input kernel never \
                    touches (first at linear index %d)"
                   n name first);
            let n, first =
              Fp.not_covered (fp_post, Fp.may_write) (fp_pre, Fp.may_write)
            in
            if n > 0 then
              add
                (diagf Error ~stage
                   "stage writes %d element(s) of '%s' the input kernel never \
                    writes (first at linear index %d)"
                   n name first);
            let n, first =
              Fp.not_covered (fp_pre, Fp.must_write) (fp_post, Fp.may_write)
            in
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
   previous [after]: [last] caches one footprint, and the structural
   findings a stage that changes nothing inherits, to halve the
   enumeration work. The first stage's [before] is the source kernel,
   whose footprint the caller may supply. A transition whose verdict is
   recalled computes no footprint, so a stage validated after it
   enumerates its input again. *)
type session = {
  max_points : int option;
  mutable diags : Diag.t list;  (* newest first *)
  skip_reported : (string, unit) Hashtbl.t;
      (* arrays whose Info skip is already reported: once per run *)
  mutable last : checked option;
}

(* A kernel the session has validated: its footprint and, once checked,
   its error-severity structural findings. *)
and checked = {
  kernel : Ast.kernel;
  fp : Fp.t;
  errors : Diag.t list option;
}

(* The verdict on one stage transition: the findings that depend on its
   input and output alone. *)
type verdict = {
  wellformed : Diag.t list;  (* error-severity structural findings *)
  skipped : (string * string) list;  (* the input's, then the output's *)
  compared : Diag.t list;
}

type front = {
  built : Transform.Pipeline.front option;
      (* [None] when a front stage raised; [state.diags] then ends with
         the failure *)
  state : session;  (* never mutated once the front is built *)
  mutable verdicts :
    (Transform.Pipeline.stage * Ast.kernel * Ast.kernel * verdict) list;
      (* the finishing transitions validated from this front, keyed by
         the physical pair the pipeline's memo reports *)
}

let judge s stage ~before ~after =
  let sname = Transform.Pipeline.stage_name stage in
  let pre =
    match s.last with
    | Some c when c.kernel == before -> c
    | _ ->
        {
          kernel = before;
          fp = Fp.footprint ?max_points:s.max_points before;
          errors = None;
        }
  in
  (* A stage that changed nothing (LICM and simplify often do not) has
     its input's footprint and structural findings, and nothing to
     compare. *)
  let unchanged = after == before || compare after before = 0 in
  let errors =
    match pre.errors with
    | Some errors when unchanged -> errors
    | _ -> Wellformed.check ~min_severity:Diag.Error after
  in
  let post =
    if unchanged then pre.fp
    else Fp.footprint ?max_points:s.max_points after
  in
  s.last <- Some { kernel = after; fp = post; errors = Some errors };
  {
    (* Structural re-verification of the stage output. *)
    wellformed =
      List.filter_map
        (fun (d : Diag.t) ->
          if d.Diag.severity = Diag.Error then
            Some { d with Diag.pass; stage = Some sname }
          else None)
        errors;
    skipped = pre.fp.skipped @ post.skipped;
    compared =
      (if unchanged then []
       else compare_footprints ~stage:sname ~pre:pre.fp ~post);
  }

(* Validate one transition into the run's findings, reusing the verdict
   when [memo]'s front has validated the same pair before. An array's
   Info skip is reported once per run. *)
let observe ?memo s stage ~before ~after =
  let seen (t, b, a, _) = t = stage && b == before && a == after in
  let v =
    match Option.bind memo (fun f -> List.find_opt seen f.verdicts) with
    | Some (_, _, _, v) -> v
    | None ->
        let v = judge s stage ~before ~after in
        Option.iter
          (fun f -> f.verdicts <- (stage, before, after, v) :: f.verdicts)
          memo;
        v
  in
  let add d = s.diags <- d :: s.diags in
  List.iter add v.wellformed;
  List.iter
    (fun (name, reason) ->
      if not (Hashtbl.mem s.skip_reported name) then begin
        Hashtbl.add s.skip_reported name ();
        add
          (diagf Info
             ~stage:(Transform.Pipeline.stage_name stage)
             "array '%s' not validated: %s" name reason)
      end)
    v.skipped;
  List.iter add v.compared

let session ?max_points ?source_footprint k =
  {
    max_points;
    diags = [];
    skip_reported = Hashtbl.create 4;
    last =
      Option.map (fun fp -> { kernel = k; fp; errors = None }) source_footprint;
  }

let stage_failed s ~stage ~kernel message =
  s.diags <- Diag.of_stage_error ~stage ~kernel message :: s.diags

let front ?(options = Transform.Pipeline.default) ?max_points
    ?source_footprint (k : Ast.kernel) : front =
  let state = session ?max_points ?source_footprint k in
  match Transform.Pipeline.front ~observe:(observe state) options k with
  | f -> { built = Some f; state; verdicts = [] }
  | exception Transform.Pipeline.Stage_error { stage; kernel; message } ->
      stage_failed state ~stage ~kernel message;
      { built = None; state; verdicts = [] }

let run ?(options = Transform.Pipeline.default) ?max_points ?source_footprint
    ?front:shared (k : Ast.kernel) : outcome =
  (* With a shared front, a private copy of its state (the front serves
     every configuration that shares it), and its verdicts. *)
  let s =
    match shared with
    | None -> session ?max_points ?source_footprint k
    | Some f ->
        { f.state with skip_reported = Hashtbl.copy f.state.skip_reported }
  in
  let outcome result = { result; diags = List.rev s.diags } in
  match shared with
  | Some { built = None; _ } -> outcome None
  | _ -> (
      match
        Transform.Pipeline.apply ~observe:(observe ?memo:shared s)
          ?front:(Option.bind shared (fun f -> f.built))
          options k
      with
      | r -> outcome (Some r)
      | exception Transform.Pipeline.Stage_error { stage; kernel; message } ->
          stage_failed s ~stage ~kernel message;
          outcome None)
