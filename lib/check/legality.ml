(** Per-transform legality predicates, checked *before* the rewrite.

    The pipeline's stages each have a static precondition (Section 4 of
    the paper): unroll-and-jam must not reverse a dependence when the
    unrolled outer iterations are fused; scalar replacement requires
    consistent dependence distances within a uniformly generated set;
    tiling requires its loop to sit on the nest spine.

    Two hazards the dependence test cannot see are found by structural
    walks over the syntax, with the trip-count rules of the flow graph
    the test suite keeps as their oracle: a zero-trip body never runs,
    a positive trip count runs the body at least once, and a
    non-positive step may run it any number of times.

    - {!scalar_jam_hazard}: a loop-carried {e scalar} recurrence that
      is not a commutative/associative reduction. The array dependence
      test cannot see it — [s = s * 2 + A[i][j]] under unroll-and-jam
      silently reorders the chain.
    - {!foreign_hazard}: the group's array is also written (for read
      sets) or accessed (for write sets) through a {e different}
      access pattern that reaches the group's accesses: caching the
      set in registers would miss those foreign accesses. *)

open Ir
module Dependence = Analysis.Dependence
module Reuse = Analysis.Reuse

let pass = "legality"

let diagf ?span sev fmt = Diag.diagf ?span sev ~pass fmt

(** Every pair of members of the uniformly generated set has a
    consistent (exact or unconstrained) dependence distance. *)
let replaceable_group_dependence (_k : Ast.kernel) (g : Reuse.group) : bool =
  let consistent a b =
    match Dependence.ug_distance_vector a b with
    | Dependence.Independent -> true
    | Dependence.Distance entries -> not (List.mem Dependence.Coupled entries)
    | Dependence.Unknown -> false
  in
  let rec pairwise = function
    | [] -> true
    | a :: rest -> List.for_all (consistent a) rest && pairwise rest
  in
  pairwise g.Reuse.members

(* ------------------------------------------------------------------ *)
(* Scalar recurrences under unroll-and-jam *)

let commutative_assoc = function
  | Ast.Add | Ast.Mul | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Min | Ast.Max ->
      true
  | _ -> false

let count_var s e =
  Ast.fold_expr
    (fun n e -> match e with Ast.Var v when String.equal v s -> n + 1 | _ -> n)
    0 e

(* [s = s ⊕ e] with ⊕ commutative and associative and [e] independent of
   [s] — the one loop-carried scalar shape unroll-and-jam may reorder
   freely (the accumulated multiset is permutation-invariant). *)
let reduction_op s (rhs : Ast.expr) : Ast.binop option =
  match rhs with
  | Ast.Bin (op, a, b) when commutative_assoc op ->
      if a = Ast.Var s && count_var s b = 0 then Some op
      else if b = Ast.Var s && count_var s a = 0 then Some op
      else None
  | _ -> None

(* Is every occurrence of [s] in [body] part of one single-operator
   reduction? Any other read (a guard, a subscript, an array store of
   the running value, a rotation) observes intermediate sums, which
   jamming permutes. Bodies that never run count too. *)
let reduction_only (body : Ast.stmt list) (s : string) : bool =
  let op = ref None in
  let free e = count_var s e = 0 in
  let rec ok (st : Ast.stmt) =
    match st with
    | Ast.Assign (Ast.Lvar x, rhs) when String.equal x s -> (
        match (reduction_op s rhs, !op) with
        | Some o, None ->
            op := Some o;
            true
        | Some o, Some o' -> o = o'
        | None, _ -> false)
    | Ast.Assign (Ast.Lvar _, e) -> free e
    | Ast.Assign (Ast.Larr (_, subs), e) -> free e && List.for_all free subs
    | Ast.Rotate rs -> not (List.mem s rs)
    | Ast.If (c, t, e) -> free c && List.for_all ok t && List.for_all ok e
    | Ast.For l -> List.for_all ok l.Ast.body
  in
  List.for_all ok body

module Names = Set.Make (String)

let reads live e =
  Ast.fold_expr
    (fun acc e -> match e with Ast.Var v -> Names.add v acc | _ -> acc)
    live e

(* The scalars live before [body], given those live after it: read
   before any write on some path. [Some visit] sees every loop whose
   body runs, once, as [visit l x] with the scalars [x] live at its
   body's entry, in reverse program order (later statements and inner
   loops first). A body's entry sees what its own iteration reads first
   and, through the body, what is live after the loop; the back edge
   adds nothing more there, but it makes the entry's scalars (bar the
   index) live at the body's end, which a second, visiting pass hands
   to the loops inside. The first pass visits nothing, so each loop's
   body is walked once per enclosing loop, not once per path. *)
let rec live visit body out = List.fold_right (live_stmt visit) body out

and live_stmt visit (st : Ast.stmt) out =
  match st with
  | Ast.Assign (Ast.Lvar v, e) -> reads (Names.remove v out) e
  | Ast.Assign (Ast.Larr (_, subs), e) -> List.fold_left reads (reads out e) subs
  | Ast.Rotate rs -> List.fold_left (Fun.flip Names.add) out rs
  | Ast.If (c, t, e) ->
      let else_ = live visit e out in
      reads (Names.union (live visit t out) else_) c
  | Ast.For l ->
      let t = Uninit.trip l in
      if t = 0 then Names.remove l.Ast.index out
      else
        let entry = live None l.Ast.body out in
        Option.iter
          (fun v ->
            ignore
              (live visit l.Ast.body
                 (Names.union out (Names.remove l.Ast.index entry)));
            v l entry)
          visit;
        Names.remove l.Ast.index (if t > 0 then entry else Names.union entry out)

(* The scalars [body] assigns, and the indices of the loops in it. *)
let rec assigned (scalars, indices) (st : Ast.stmt) =
  match st with
  | Ast.Assign (Ast.Lvar v, _) -> (Names.add v scalars, indices)
  | Ast.Assign (Ast.Larr _, _) -> (scalars, indices)
  | Ast.Rotate rs -> (List.fold_left (Fun.flip Names.add) scalars rs, indices)
  | Ast.If (_, t, e) ->
      List.fold_left assigned (List.fold_left assigned (scalars, indices) t) e
  | Ast.For l ->
      List.fold_left assigned (scalars, Names.add l.Ast.index indices) l.Ast.body

(* The first scalar by name that [l] carries into its body (live at the
   body's entry [entry]) and that is not a plain reduction; [None] for
   an innermost loop, which never jams. *)
let carried (l : Ast.loop) entry =
  let scalars, indices =
    List.fold_left assigned (Names.empty, Names.empty) l.Ast.body
  in
  if Names.is_empty indices then None
  else
    Names.diff scalars (Names.add l.Ast.index indices)
    |> Names.to_seq
    |> Seq.find (fun s -> Names.mem s entry && not (reduction_only l.Ast.body s))

(* The first loop, in program order, that carries a scalar recurrence
   unroll-and-jam would reorder, with that scalar: the last one the
   walk visits. *)
let jam_hazard (k : Ast.kernel) : (Ast.loop * string) option =
  let first = ref None in
  let visit l entry = Option.iter (fun s -> first := Some (l, s)) (carried l entry) in
  ignore (live (Some visit) k.Ast.k_body Names.empty);
  !first

(** First scalar whose loop-carried dependence chain unroll-and-jam
    would reorder, as [(loop index, scalar)]; [None] when every carried
    scalar is a plain reduction. Only non-innermost loops matter: the
    innermost-only fallback unrolls within one iteration and never
    reorders a chain. *)
let scalar_jam_hazard (k : Ast.kernel) : (string * string) option =
  Option.map (fun ((l : Ast.loop), s) -> (l.Ast.index, s)) (jam_hazard k)

(* ------------------------------------------------------------------ *)
(* Scalar replacement: foreign accesses through other patterns *)

(* An access to the group's array: one affine form per dimension over
   the enclosing loop indices, or some unknown element. *)
type cell = Cell of Affine.t list | Whole

let cell indices subs =
  let forms = List.map Affine.of_expr subs in
  if
    List.for_all
      (function
        | Some f -> List.for_all (fun v -> List.mem v indices) (Affine.vars f)
        | None -> false)
      forms
  then Cell (List.map Option.get forms)
  else Whole

(* Two cells are disjoint only when some dimension has two distinct
   constant subscripts. *)
let may_alias a b =
  match (a, b) with
  | Cell fs, Cell gs ->
      List.length fs <> List.length gs
      || not
           (List.exists2
              (fun f g ->
                Affine.is_const f && Affine.is_const g
                && Affine.const_part f <> Affine.const_part g)
              fs gs)
  | Whole, _ | _, Whole -> true

let cells_of array indices =
  Ast.fold_expr (fun acc (e : Ast.expr) ->
      match e with
      | Ast.Arr (a, subs) when String.equal a array -> cell indices subs :: acc
      | _ -> acc)

exception Reached

(* Does a write to [array] that [gen] selects reach, along some path of
   the trip-aware control flow, a read (or with [probe_writes] a write)
   that [probe] selects and may alias? The walk carries the cells of
   the selected writes that reach the current point; an [If] joins its
   branches. No write is ever taken back out: only a write to the same
   all-constant cell surely overwrites an earlier one, and it is
   selected exactly when the cell it overwrites is. A loop whose body
   runs brings every selected write of that body round its back edge,
   so the outermost such loop walks its body twice: the second walk
   starts with every write the first one met, and the first can only
   find what the second finds too. *)
let reaches ~array ~gen ~probe ~probe_writes (k : Ast.kernel) : bool =
  let add r c = if List.mem c r then r else c :: r in
  let test r c = if probe c && List.exists (may_alias c) r then raise Reached in
  let write indices r subs =
    let w = cell indices subs in
    if gen w then add r w else r
  in
  let rec stmts in_loop indices r body =
    List.fold_left (stmt in_loop indices) r body
  and stmt in_loop indices r (st : Ast.stmt) =
    match st with
    | Ast.Assign (lv, e) -> (
        let subs = match lv with Ast.Larr (_, subs) -> subs | Ast.Lvar _ -> [] in
        List.iter (test r) (List.fold_left (cells_of array indices) [] (e :: subs));
        match lv with
        | Ast.Larr (a, subs) when String.equal a array ->
            if probe_writes then test r (cell indices subs);
            write indices r subs
        | Ast.Larr _ | Ast.Lvar _ -> r)
    | Ast.Rotate _ -> r
    | Ast.If (c, t, e) ->
        List.iter (test r) (cells_of array indices [] c);
        List.fold_left add (stmts in_loop indices r t) (stmts in_loop indices r e)
    | Ast.For l ->
        if Uninit.trip l = 0 then r
        else
          let indices = l.Ast.index :: indices in
          let r = if in_loop then r else stmts true indices r l.Ast.body in
          stmts true indices r l.Ast.body
  in
  match stmts false [] [] k.Ast.k_body with
  | _ -> false
  | exception Reached -> true

(* The subscript coefficients of an access: its pattern. *)
let pattern (fs : Affine.t list) = List.map (fun (f : Affine.t) -> f.Affine.terms) fs

(** Why registers caching the uniformly generated set [g] would miss an
    access: for a read set, a write through a different access pattern
    reaches one of the set's reads (the registers would serve a stale
    value); for a write set, a member write reaches an access through a
    different pattern (which would see memory the registers have not
    flushed, or clobber it). A whole-array access counts as both
    patterns. [None] for a group with no affine member, which the
    dependence predicate decides. *)
let foreign_hazard (k : Ast.kernel) (g : Reuse.group) : string option =
  match List.find_opt Analysis.Access.is_affine g.Reuse.members with
  | None -> None
  | Some rep ->
      let own = pattern (Analysis.Access.affine_exn rep) in
      let member = function Cell fs -> pattern fs = own | Whole -> true in
      let foreign c = c = Whole || not (member c) in
      let array = g.Reuse.array in
      match g.Reuse.kind with
      | Analysis.Access.Read ->
          if reaches ~array ~gen:foreign ~probe:member ~probe_writes:false k then
            Some "a write through a different access pattern reaches the set's reads"
          else None
      | Analysis.Access.Write ->
          if reaches ~array ~gen:member ~probe:foreign ~probe_writes:true k then
            Some "the set's writes reach an access through a different pattern"
          else None

(* ------------------------------------------------------------------ *)

let spine_loop (k : Ast.kernel) index =
  List.find_opt
    (fun (l : Ast.loop) -> l.Ast.index = index)
    (Loop_nest.spine k.Ast.k_body)

(** Strip-mining [index] by [tile] actually splits a loop: the index
    names a spine loop and {!Transform.Tiling.clamp} keeps a tile. (A
    trip-5 loop with tile 2 rounds to 1 and splits nothing, so it is
    {e not} applicable.) *)
let tiling_applicable (k : Ast.kernel) ~index ~tile : bool =
  match spine_loop k index with
  | None -> false
  | Some l -> Transform.Tiling.clamp ~trip:(Ast.loop_trip l) tile > 1

(* ------------------------------------------------------------------ *)
(* Joint-configuration verdicts: the pre-enumeration pruner *)

type config_verdict = Config_legal | Config_illegal of string

(* Whether [vector] unrolls a spine loop other than the innermost: an
   actual unroll-and-jam (innermost-only unrolling never reorders
   anything). *)
let jams (spine : Ast.loop list) (vector : (string * int) list) : bool =
  let innermost =
    match List.rev spine with l :: _ -> Some l.Ast.index | [] -> None
  in
  List.exists
    (fun (index, factor) ->
      factor > 1
      && Some index <> innermost
      && List.exists (fun (l : Ast.loop) -> l.Ast.index = index) spine)
    vector

(** Pre-enumeration verdicts on the joint configurations of [k], before
    any transform runs (the sweep's pruner). [Config_illegal]:
    evaluating [c] either raises [Transform.Pipeline.Stage_error] (a
    tile index naming no loop of the kernel) or silently changes the
    kernel's results (a requested unroll-and-jam whose array
    dependences are preserved but which reorders a non-reduction
    loop-carried scalar recurrence — the hazard the dependence test
    cannot see). A jam that fails the dependence test is {e not}
    illegal: the pipeline falls back to innermost-only unrolling.
    Which design a legal configuration denotes is
    [Engine.Backend.normalize_config]'s to say.

    The dependence test and the scalar-hazard walk depend on the kernel
    alone: they run once, when the verdict function is made. *)
let config_verdict (k : Ast.kernel) :
    Transform.Pipeline.config -> config_verdict =
  let spine = Loop_nest.spine k.Ast.k_body in
  let jam_reorders_scalar =
    Transform.Unroll.jam_legal k && scalar_jam_hazard k <> None
  in
  fun c ->
    match c.Transform.Pipeline.tile with
    | Some (index, _) when not (Loop_nest.has_loop index k.Ast.k_body) ->
        Config_illegal
          (Printf.sprintf "tile index '%s' names no loop of the kernel" index)
    | _ when jam_reorders_scalar && jams spine c.Transform.Pipeline.vector ->
        Config_illegal
          "unroll-and-jam at this vector reorders a loop-carried scalar \
           recurrence the dependence test cannot see"
    | _ -> Config_legal

(* ------------------------------------------------------------------ *)

let check ?(options : Transform.Pipeline.options option) (k : Ast.kernel) :
    Diag.t list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let spine = Loop_nest.spine k.Ast.k_body in
  let jam_dep_ok = Transform.Unroll.jam_legal k in
  let hazard = jam_hazard k in
  (* Unroll-and-jam. *)
  (match options with
  | None ->
      if not jam_dep_ok then
        add
          (diagf Info
             "unroll-and-jam is not provably legal: outer unrolling will fall \
              back to innermost-only unrolling");
      (match hazard with
      | Some (l, s) when jam_dep_ok ->
          add
            (diagf Info ?span:l.Ast.l_span
               "unroll-and-jam is not provably safe: loop '%s' carries a \
                scalar recurrence on '%s' that fusing outer iterations would \
                reorder"
               l.Ast.index s)
      | _ -> ())
  | Some opts ->
      List.iter
        (fun (index, factor) ->
          let span =
            Option.bind (spine_loop k index) (fun l -> l.Ast.l_span)
          in
          if factor <= 0 then
            add
              (diagf Error ?span "unroll factor %d for loop '%s' is not \
                                  positive" factor index)
          else if factor > 1 && spine_loop k index = None then
            add
              (diagf Warning
                 "unroll factor for '%s' names no spine loop; the pipeline \
                  ignores it"
                 index))
        opts.Transform.Pipeline.vector;
      let wants_jam = jams spine opts.Transform.Pipeline.vector in
      if wants_jam && not jam_dep_ok then
        add
          (diagf Warning
             "unroll-and-jam at this vector is not provably legal \
              (dependence would be reordered); the pipeline falls back to \
              innermost-only unrolling");
      (match hazard with
      | Some (l, s) when wants_jam && jam_dep_ok ->
          add
            (diagf Warning ?span:l.Ast.l_span
               "unroll-and-jam at this vector reorders the scalar recurrence \
                on '%s' carried by loop '%s' (the dependence test cannot see \
                scalar chains); results may differ"
               s l.Ast.index)
      | _ -> ());
      (* Tiling. *)
      match opts.Transform.Pipeline.tile with
      | None -> ()
      | Some (index, tile) ->
          if spine_loop k index = None then
            add
              (diagf Error "tile index '%s' does not name a spine loop" index)
          else if not (tiling_applicable k ~index ~tile) then
            add
              (diagf Warning
                 "tile %d on loop '%s' has no effect (not a proper fraction \
                  of the trip count)"
                 tile index));
  (* Scalar replacement: groups with reuse the rewrite will skip (or
     must skip) are reported as unexploited reuse, with the reason. *)
  List.iter
    (fun (g : Reuse.group) ->
      let distinct = List.length (Reuse.distinct_members g) in
      let has_reuse =
        distinct > 1 || Reuse.invariant_loops g <> []
        || List.length g.Reuse.members > distinct
      in
      if has_reuse then
        let kind_name =
          match g.Reuse.kind with
          | Analysis.Access.Read -> "read"
          | Analysis.Access.Write -> "write"
        in
        if not (replaceable_group_dependence k g) then
          add
            (diagf Info
               "uniformly generated %s set on '%s' (%d members) has \
                inconsistent dependence distances; scalar replacement will \
                skip it"
               kind_name g.Reuse.array
               (List.length g.Reuse.members))
        else
          match foreign_hazard k g with
          | Some why ->
              (* the innermost loop with a span around the first member *)
              let span =
                List.fold_left
                  (fun sp (l : Ast.loop) ->
                    if Option.is_some l.Ast.l_span then l.Ast.l_span else sp)
                  None (List.hd g.Reuse.members).Analysis.Access.loops
              in
              add
                (diagf Info ?span
                   "uniformly generated %s set on '%s' (%d members) is not \
                    register-cacheable: %s"
                   kind_name g.Reuse.array
                   (List.length g.Reuse.members)
                   why)
          | None -> ())
    (Reuse.groups k.Ast.k_body);
  List.rev !diags
