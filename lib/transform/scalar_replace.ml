(** Scalar replacement (Section 4 of the paper), extended as the paper
    describes relative to Carr-Kennedy:

    - redundant memory *writes* on output dependences are eliminated
      (store sinking), and
    - reuse is exploited across *all* loops of the nest, not only the
      innermost one, via rotating register banks loaded on the first
      iteration of the carrier loop.

    Four cooperating replacements, applied in this order:

    1. {b Hoist/sink} — an access pattern invariant with respect to every
       loop deeper than level L is loaded into a register on entry to
       level L+1 and (if written) stored back on exit; e.g. the [D[j]]
       accumulator of FIR.
    2. {b Register banks} — a read-only pattern invariant with respect to
       an outer loop [c] but varying inside it has full reuse carried by
       [c]: a bank of registers holds one sweep's worth of data, loaded
       during the first iteration of [c] (guarded by [c == lo], later
       specialised by loop peeling) and rotated once per iteration of the
       innermost varying loop; e.g. the [C] coefficients of FIR.
    3. {b Chains} — members of a pattern at a *consistent* dependence
       distance [d] along the innermost varying loop share a rotating
       chain of [d+1] registers; trailing members refill under a
       [index < lo + d*step] guard, which bounded peeling of the
       innermost loop later removes; e.g. the stencil reads of JAC.
    4. {b Load CSE} — loop-independent reuse: syntactically identical
       reads in one body load once; e.g. [S_0] of FIR.

    Patterns without a consistent distance (the coupled [S[i+j]] reads of
    FIR) keep their memory accesses, exactly as in the paper.

    Every phase reads one access walk: the uniformly generated patterns
    of the kernel, each with its distinct members in execution order.
    The walk always comes from a {b plan} ({!record}): a kernel's
    accesses with their loops, guards, spine coefficient rows and the
    flags that make a pattern ineligible, and the patterns they form
    per set of fully unrolled loops. The search runs replacement at
    every unroll vector it visits, so the plan of a source nest and
    tile ({!plan}) is derived once and {b instantiated} per vector in
    closed form ({!instantiate}): the unrolled copies' offsets are
    enumerated as integers in the order unroll-and-jam emits them, each
    distinct member is kept once and gets the only access record built
    for it. Where the closed form does not apply (imperfect nests,
    conditionals, subscripts that are not affine in the loop indices,
    read an array or name a scalar, a one-trip loop, and vectors whose
    factors leave an epilogue or fix an index read as a value), the
    walk is the kernel's own plan, no loop unrolled ({!identity}). The
    walk after hoisting is derived from the first where it can be
    ({!rehoist}). *)

open Ir
open Ast
module Access = Analysis.Access

type config = {
  across_loops : bool;
      (** exploit reuse carried by outer loops (banks); on in the paper *)
  chains : bool;  (** exploit consistent innermost-loop distances *)
  max_chain_span : int;
      (** longest reuse distance a chain may bridge; classes spanning
          further keep their memory accesses (peeling that many leading
          iterations must stay cheap) *)
  max_registers : int;  (** budget for introduced registers *)
}

let default_config =
  { across_loops = true; chains = true; max_chain_span = 4; max_registers = 2048 }

type report = {
  hoisted_members : int;
  banks : (string * int) list;  (** array, bank size per member group *)
  chain_lengths : (string * int) list;  (** array, registers per chain *)
  cse_loads : int;
  registers : int;
  carriers : string list;  (** loops whose first iteration should be peeled *)
  innermost_peels : int;
      (** leading iterations of the innermost loop to peel for chains *)
}

let empty_report =
  {
    hoisted_members = 0;
    banks = [];
    chain_lengths = [];
    cse_loads = 0;
    registers = 0;
    carriers = [];
    innermost_peels = 0;
  }

(* ------------------------------------------------------------------ *)
(* Tree-edit helpers, all keyed by spine-loop index *)

(** The bodies of the loops named [index], outermost first, in document
    order. *)
let rec loop_bodies ~index body =
  List.concat_map
    (function
      | For l when l.index = index -> [ l.body ]
      | For l -> loop_bodies ~index l.body
      | If (_, t, e) -> loop_bodies ~index t @ loop_bodies ~index e
      | Assign _ | Rotate _ -> [])
    body

(** A batch of replacements and inserts, applied in one rewrite walk and
    one insert walk. The result is the kernel that replacing each member
    and inserting its code one at a time produces: no two replacements
    share an (array, subscripts) key, replacement subscripts hold no
    array reads of the same batch, so inserted code is never matched,
    and the inserts stack exactly as sequential ones do. *)
type edits = {
  repl : (string * expr list, replacement) Hashtbl.t;
  replaced : (string, unit) Hashtbl.t;
      (** arrays with a replacement: the rewrite looks up only their
          accesses *)
  mutable inserts : (string option * stmt list * stmt list) list;
      (** (target loop index, [None] for the whole body; pre; post), in
          reverse application order *)
}

and replacement = {
  reg : string;
  scope : string option;
      (** replace only under a loop of this index; [None]: everywhere *)
  writes : bool;  (** also turn [A[subs] = e] into [reg = e] *)
}

let new_edits () = { repl = Hashtbl.create 64; replaced = Hashtbl.create 8; inserts = [] }

let replace ed ((array, _) as key) r =
  Hashtbl.replace ed.replaced array ();
  Hashtbl.replace ed.repl key r

let apply_edits (body : stmt list) (ed : edits) : stmt list =
  let lookup stack a subs =
    if not (Hashtbl.mem ed.replaced a) then None
    else
      match Hashtbl.find_opt ed.repl (a, subs) with
      | Some { scope = Some idx; _ } when not (List.mem idx stack) -> None
      | r -> r
  in
  (* Bottom-up ([Ast.map_expr]), so a key is looked up on its rewritten
     subscripts as the sequential replacements would have compared it. *)
  let rw_expr stack =
    Ast.map_expr (fun e ->
        match e with
        | Arr (a, subs) -> (
            match lookup stack a subs with Some r -> Var r.reg | None -> e)
        | _ -> e)
  in
  let rec rw_stmt stack s =
    match s with
    | Assign (lv, e) ->
        let lv' =
          match lv with
          | Lvar _ -> lv
          | Larr (a, subs) -> (
              let subs' = Ast.map_sharing (rw_expr stack) subs in
              match lookup stack a subs' with
              | Some { reg; writes = true; _ } -> Lvar reg
              | _ -> if subs' == subs then lv else Larr (a, subs'))
        in
        let e' = rw_expr stack e in
        if lv' == lv && e' == e then s else Assign (lv', e')
    | If (c, t, e) ->
        let c' = rw_expr stack c in
        let t' = Ast.map_sharing (rw_stmt stack) t in
        let e' = Ast.map_sharing (rw_stmt stack) e in
        if c' == c && t' == t && e' == e then s else If (c', t', e')
    | For l ->
        let body' = Ast.map_sharing (rw_stmt (l.index :: stack)) l.body in
        if body' == l.body then s else For { l with body = body' }
    | Rotate _ -> s
  in
  let body =
    if Hashtbl.length ed.repl = 0 then body else Ast.map_sharing (rw_stmt []) body
  in
  (* Stack the inserts per target: one applied after another puts its
     [pre] above and its [post] below the earlier ones. [ed.inserts] is
     in reverse application order, so the first entry seen is the last
     applied: its [pre] goes first and its [post] last. *)
  let stacked : (string option, stmt list list * stmt list list) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (target, pre, post) ->
      let pres, posts = Option.value ~default:([], []) (Hashtbl.find_opt stacked target) in
      Hashtbl.replace stacked target (pre :: pres, post :: posts))
    ed.inserts;
  (* Concatenated once per target: every [pre] list but the first
     applied, and every [post] list, is copied, as appending them one at
     a time would; only without the quadratic intermediate copies. *)
  let ins_tbl : (string option, stmt list * stmt list) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun target (pres, posts) ->
      Hashtbl.replace ins_tbl target (List.concat (List.rev pres), List.concat (posts @ [ [] ])))
    stacked;
  let rec ins_stmt s =
    match s with
    | For l -> (
        let body' = Ast.map_sharing ins_stmt l.body in
        match Hashtbl.find_opt ins_tbl (Some l.index) with
        | Some (pre, post) -> For { l with body = pre @ body' @ post }
        | None -> if body' == l.body then s else For { l with body = body' })
    | If (c, t, e) ->
        let t' = Ast.map_sharing ins_stmt t in
        let e' = Ast.map_sharing ins_stmt e in
        if t' == t && e' == e then s else If (c, t', e')
    | Assign _ | Rotate _ -> s
  in
  let body = if ed.inserts = [] then body else Ast.map_sharing ins_stmt body in
  match Hashtbl.find_opt ins_tbl None with
  | Some (pre, post) -> pre @ body @ post
  | None -> body

(* ------------------------------------------------------------------ *)
(* Pattern facts *)

(* ------------------------------------------------------------------ *)
(* Pattern facts *)

(** One uniformly generated pattern of an array, with its distinct
    subscript-expression members. *)
type pattern = {
  array : string;
  elem : Dtype.t;
  members : Access.t list;  (** distinct; execution order *)
  has_reads : bool;
  has_writes : bool;
  any_guarded : bool;
  varying : Ast.loop list;  (** spine loops the pattern varies with, outer first *)
  spine : Ast.loop list;
  spine_only : bool;
      (** every loop the members vary with is on the spine; off-spine
          variation (epilogue loops of a non-divisor unroll factor) makes
          the pattern ineligible for register promotion *)
  scalar_subs : bool;
      (** some member's subscript names a scalar the nest assigns other
          than a loop index (a register, a loaded value): the element it
          addresses changes where no loop index does, so the pattern is
          ineligible for hoisting, banks and chains *)
  uniform : bool;
      (** every access is affine, names no assigned scalar and has the
          coefficients of the others on every loop index around any of
          them: distinct members address distinct elements *)
}

(** One access walk of a kernel: its patterns and where they came
    from. *)
type walk = {
  walked : kernel;
  patterns : pattern list;
  indirect : bool;
      (** some subscript reads an array: replacing that array's reads
          then changes another array's subscripts *)
  origin : origin;
}

and origin =
  | Planned of {
      per_copy : int;
      copies : int;
      sources : (pattern * int list) list;
      perfect : bool;
    }
      (** instantiated from a plan: [copies] unrolled copies of a source
          body of [per_copy] accesses, where copy [r] of source access [s]
          has id [r * per_copy + s]; each pattern lists its source
          accesses; [perfect] when every access lies in the innermost
          body of a perfect nest of the spine *)
  | Rehoisted  (** derived from a planned walk after hoisting *)

let rec reads_array (e : expr) =
  match e with
  | Arr _ -> true
  | Int _ | Var _ -> false
  | Bin (_, a, b) -> reads_array a || reads_array b
  | Un (_, a) -> reads_array a
  | Cond (c, t, e) -> reads_array c || reads_array t || reads_array e

(* Scalars the body assigns or rotates, and with [indices] the indices
   of its loops. *)
let assigned_scalars ~indices (body : stmt list) =
  let tbl = Hashtbl.create 8 in
  let rec stmt = function
    | Assign (Lvar v, _) -> Hashtbl.replace tbl v ()
    | Assign (Larr _, _) -> ()
    | If (_, t, e) ->
        List.iter stmt t;
        List.iter stmt e
    | For l ->
        if indices then Hashtbl.replace tbl l.index ();
        List.iter stmt l.body
    | Rotate rs -> List.iter (fun r -> Hashtbl.replace tbl r ()) rs
  in
  List.iter stmt body;
  tbl

let rec mentions tbl (e : expr) =
  match e with
  | Var v -> Hashtbl.mem tbl v
  | Int _ -> false
  | Arr (_, subs) -> List.exists (mentions tbl) subs
  | Bin (_, a, b) -> mentions tbl a || mentions tbl b
  | Un (_, a) -> mentions tbl a
  | Cond (c, t, e) -> mentions tbl c || mentions tbl t || mentions tbl e

(* ------------------------------------------------------------------ *)
(* The plan: one kernel's accesses, instantiated per unroll vector *)

(** One array access of a plan's kernel, with the facts its pattern
    reads. *)
type source_access = {
  sa : Access.t;  (** as collected *)
  sa_rows : (string * int) list array;
      (** per dimension, the subscript's terms on spine loop indices;
          empty for an opaque access *)
  sa_opaque : bool;  (** some subscript is not affine: a pattern of its own *)
  sa_varying : int;  (** bit [i]: the access varies with spine loop [i] *)
  sa_spine_only : bool;  (** every loop around it that it varies with is on the spine *)
  sa_scalar : bool;  (** a subscript names a non-index scalar the kernel assigns *)
}

(** A uniformly generated pattern of the plan's kernel once some loops
    are fully unrolled: its coefficient rows with those loops' terms
    dropped, and its groups (one per access kind, the earlier first),
    each the numbers of its source accesses in execution order. An
    opaque access is a pattern of its own. *)
type source_pattern = {
  sp_array : string;
  sp_rows : (string * int) list array;
  sp_groups : (Access.kind * int list) list;
}

(** What the closed-form unroll reads of a perfect nest. *)
type nest = {
  n_consts : int array array;  (** per access, the constant part per dimension *)
  n_coeffs : int array array array;
      (** per access and dimension, the coefficient of each source loop *)
  n_stmts : int;  (** statements of the innermost body *)
  index_values : bool;
      (** a loop index is read outside a subscript: fixing it may fold
          an expression, and the reads in it, away *)
}

type plan = {
  p_kernel : kernel;
  p_spine : loop array;
  p_accesses : source_access array;  (** in execution order: access [s] has id [s] *)
  p_perfect : bool;
      (** every access lies in the innermost body of a perfect nest of
          the spine *)
  p_nest : nest option Lazy.t;
      (** [None] unless the kernel is a perfect nest of loops of two or
          more iterations around assignments whose subscripts are affine
          in the loop indices alone, with no conditional and no loop
          index assigned *)
  mutable by_mask : (int * source_pattern list) list;
      (** the patterns per set of fully unrolled loops (bit [i]: spine
          loop [i]), derived on first use *)
}

(* The closed-form data of [p]'s kernel, when it is such a nest. *)
let nest_of (k : kernel) (spine : loop array) (accesses : source_access array) =
  match Loop_nest.perfect_nest k.k_body with
  | [], _ -> None
  | loops, body ->
      let indices = List.map (fun (l : loop) -> l.index) loops in
      let is_index v = List.mem v indices in
      let ok = ref true and index_values = ref false in
      (* subscripts are the accesses' business: not entered *)
      let rec expr (e : expr) =
        match e with
        | Int _ | Arr _ -> ()
        | Var v -> if is_index v then index_values := true
        | Bin (_, x, y) ->
            expr x;
            expr y
        | Un (_, x) -> expr x
        | Cond _ -> ok := false
      in
      List.iter
        (fun (s : stmt) ->
          match s with
          | Assign (lv, e) -> (
              expr e;
              match lv with Lvar v -> if is_index v then ok := false | Larr _ -> ())
          | If _ | For _ | Rotate _ -> ok := false)
        body;
      let in_indices sa =
        List.for_all
          (function Some (f : Affine.t) -> List.for_all (fun (v, _) -> is_index v) f.terms | None -> false)
          sa.sa.Access.affine
      in
      if
        !ok
        && List.compare_length_with loops (Array.length spine) = 0
        && List.for_all (fun (l : loop) -> l.step > 0 && Ast.loop_trip l >= 2) loops
        && List.length (List.sort_uniq String.compare indices) = List.length indices
        && Array.for_all in_indices accesses
      then
        let per_dim g sa = Array.of_list (List.map (fun f -> g (Option.get f)) sa.sa.Access.affine) in
        Some
          {
            n_consts = Array.map (per_dim (fun (f : Affine.t) -> f.const)) accesses;
            n_coeffs =
              Array.map (per_dim (fun f -> Array.of_list (List.map (Affine.coeff f) indices))) accesses;
            n_stmts = List.length body;
            index_values = !index_values;
          }
      else None

(** The plan of [k] as it stands: every access with its spine rows and
    the flags its pattern reads. *)
let record (k : kernel) : plan =
  let spine = Array.of_list (Loop_nest.spine k.k_body) in
  let depth = Array.length spine in
  let spine_bits v =
    let b = ref 0 in
    for i = 0 to depth - 1 do
      if String.equal spine.(i).index v then b := !b lor (1 lsl i)
    done;
    !b
  in
  let assigned = assigned_scalars ~indices:false k.k_body in
  let source (a : Access.t) =
    let opaque = not (Access.is_affine a) in
    let varying = ref 0 in
    let rows =
      if opaque then begin
        for i = 0 to depth - 1 do
          if Access.varies_with a spine.(i).index then varying := !varying lor (1 lsl i)
        done;
        [||]
      end
      else
        Array.of_list
          (List.map
             (fun f ->
               let (f : Affine.t) = Option.get f in
               let off = ref false in
               List.iter
                 (fun (v, _) ->
                   let b = spine_bits v in
                   if b = 0 then off := true else varying := !varying lor b)
                 f.terms;
               if !off then List.filter (fun (v, _) -> spine_bits v <> 0) f.terms else f.terms)
             a.affine)
    in
    (* accesses no deeper than the spine lie in its loops *)
    let spine_only =
      List.compare_length_with a.loops depth <= 0
      || List.for_all
           (fun (l : loop) -> spine_bits l.index <> 0 || not (Access.varies_with a l.index))
           a.loops
    in
    {
      sa = a;
      sa_rows = rows;
      sa_opaque = opaque;
      sa_varying = !varying;
      sa_spine_only = spine_only;
      sa_scalar = Hashtbl.length assigned > 0 && List.exists (mentions assigned) a.subs;
    }
  in
  let accesses = Array.of_list (List.map source (Access.collect k.k_body)) in
  {
    p_kernel = k;
    p_spine = spine;
    p_accesses = accesses;
    p_perfect =
      List.compare_length_with (fst (Loop_nest.perfect_nest k.k_body)) depth = 0
      && Array.for_all (fun sa -> List.compare_length_with sa.sa.loops depth = 0) accesses;
    p_nest = lazy (nest_of k spine accesses);
    by_mask = [];
  }

(** The plan of a source kernel (after tiling, before unroll-and-jam),
    read in the simplified form unroll-and-jam leaves its copies in. *)
let plan (k : kernel) : plan = record (Simplify.run k)

(* A pattern being grouped: its groups, the latest first, each with its
   source accesses in reverse. *)
type grouping = {
  g_array : string;
  g_rows : (string * int) list array;
  mutable g_groups : (Access.kind * int list ref) list;
}

(* The patterns of [p] with the spine loops of [mask] fully unrolled:
   accesses grouped per kind, array and rows in the order of their first
   members, a pattern's read and write groups merged, the earlier first,
   and the opaque accesses last, one pattern each. Unrolled copies
   differ in constants only, so a kernel has few distinct rows. *)
let source_patterns (p : plan) mask =
  match List.assoc_opt mask p.by_mask with
  | Some ps -> ps
  | None ->
      let unrolled v =
        let rec go i =
          i < Array.length p.p_spine
          && ((mask land (1 lsl i) <> 0 && String.equal p.p_spine.(i).index v) || go (i + 1))
        in
        go 0
      in
      let order = ref [] and opaque = ref [] in
      Array.iteri
        (fun s sa ->
          if sa.sa_opaque then opaque := s :: !opaque
          else
            let rows =
              if mask = 0 then sa.sa_rows
              else Array.map (List.filter (fun (v, _) -> not (unrolled v))) sa.sa_rows
            in
            let array = sa.sa.array in
            let g =
              match List.find_opt (fun g -> String.equal g.g_array array && g.g_rows = rows) !order with
              | Some g -> g
              | None ->
                  let g = { g_array = array; g_rows = rows; g_groups = [] } in
                  order := g :: !order;
                  g
            in
            match List.assoc_opt sa.sa.kind g.g_groups with
            | Some srcs -> srcs := s :: !srcs
            | None -> g.g_groups <- (sa.sa.kind, ref [ s ]) :: g.g_groups)
        p.p_accesses;
      let patterns =
        List.rev_map
          (fun g ->
            {
              sp_array = g.g_array;
              sp_rows = g.g_rows;
              sp_groups = List.rev_map (fun (kind, srcs) -> (kind, List.rev !srcs)) g.g_groups;
            })
          !order
        @ List.rev_map
            (fun s ->
              let a = p.p_accesses.(s).sa in
              { sp_array = a.array; sp_rows = [||]; sp_groups = [ (a.kind, [ s ]) ] })
            !opaque
      in
      p.by_mask <- (mask, patterns) :: p.by_mask;
      patterns

let elem_of (k : kernel) array =
  match Ast.find_array k array with Some d -> d.a_elem | None -> Dtype.int32

(** The walk of [p]'s kernel itself, no loop unrolled: each pattern's
    members are its accesses with distinct subscripts, and its facts
    gather its accesses' flags. *)
(* The pattern [sp] of [k], one of [p]'s kernel or its unroll, with its
   [members], its source accesses [srcs] and the spine loops it varies
   with: its other facts gather its source accesses' flags. *)
let make_pattern (p : plan) k spine (sp : source_pattern) srcs members varying =
  let any f = List.exists (fun s -> f p.p_accesses.(s)) srcs in
  let depth = Array.length p.p_spine in
  let opaque = any (fun sa -> sa.sa_opaque) and scalar_subs = any (fun sa -> sa.sa_scalar) in
  (* the loop indices around the accesses off the spine: the spine's
     coefficients agree within a pattern *)
  let off_spine =
    List.concat_map
      (fun s ->
        let loops = p.p_accesses.(s).sa.loops in
        if List.compare_length_with loops depth <= 0 then []
        else List.filteri (fun i _ -> i >= depth) (List.map (fun (l : loop) -> l.index) loops))
      srcs
  in
  let same_coeffs first s v =
    List.for_all2
      (fun f g -> Affine.coeff (Option.get f) v = Affine.coeff (Option.get g) v)
      first p.p_accesses.(s).sa.affine
  in
  {
    array = sp.sp_array;
    elem = elem_of k sp.sp_array;
    members;
    has_reads = List.exists (fun (kind, _) -> kind = Access.Read) sp.sp_groups;
    has_writes = List.exists (fun (kind, _) -> kind = Access.Write) sp.sp_groups;
    any_guarded = any (fun sa -> sa.sa.guarded);
    varying;
    spine;
    spine_only = not (any (fun sa -> not sa.sa_spine_only));
    scalar_subs;
    uniform =
      (not opaque) && (not scalar_subs)
      && (off_spine = []
         ||
         let first = p.p_accesses.(List.hd srcs).sa.affine in
         List.for_all (fun s -> List.for_all (same_coeffs first s) off_spine) srcs);
  }

(** The walk of [p]'s kernel itself, no loop unrolled: each pattern's
    members are its accesses with distinct subscripts. *)
let identity (p : plan) : walk =
  let spine = Array.to_list p.p_spine in
  let pattern (sp : source_pattern) =
    let srcs = match sp.sp_groups with [ (_, srcs) ] -> srcs | groups -> List.concat_map snd groups in
    let distinct (_, srcs) =
      match srcs with
      | [ s ] -> [ p.p_accesses.(s).sa ]
      | _ ->
          let seen = Hashtbl.create 16 in
          List.filter_map
            (fun s ->
              let a = p.p_accesses.(s).sa in
              if Hashtbl.mem seen a.subs then None
              else begin
                Hashtbl.replace seen a.subs ();
                Some a
              end)
            srcs
    in
    let varying = List.fold_left (fun b s -> b lor p.p_accesses.(s).sa_varying) 0 srcs in
    ( make_pattern p p.p_kernel spine sp srcs
        (List.concat_map distinct sp.sp_groups)
        (List.filteri (fun i _ -> varying land (1 lsl i) <> 0) spine),
      srcs )
  in
  let sources = List.map pattern (source_patterns p 0) in
  {
    walked = p.p_kernel;
    patterns = List.map fst sources;
    indirect = Array.exists (fun sa -> List.exists reads_array sa.sa.subs) p.p_accesses;
    origin =
      Planned
        { per_copy = Array.length p.p_accesses; copies = 1; sources; perfect = p.p_perfect };
  }

(** The walk of [k] read off its own plan. *)
let self (k : kernel) = identity (record k)

exception Too_wide

(** The walk of [k], the plan's source nest unrolled and jammed by
    [vector] (then simplified), derived from the plan in closed form:
    [None] when the source is not such a nest, a factor of [vector] does
    not divide its loop's trip count (the epilogue breaks the nest), a
    full unroll fixes an index read as a value, or [k] is not such an
    unroll. Members are enumerated as the unrolled copies' integer
    offsets; an access record is built for each distinct member only. *)
let instantiate (plan : plan) (vector : Unroll.vector) (k : kernel) : walk option =
  match Lazy.force plan.p_nest with
  | None -> None
  | Some n -> (
      let spine, body = Loop_nest.perfect_nest k.k_body in
      let depth = Array.length plan.p_spine in
      (* Each source loop's factor: kept with a multiplied step, or
         fully unrolled and inlined (absent from [k]'s spine). Without
         epilogues, the shape tells them apart: a factor not applied
         (jamming is not always legal) keeps its loop's step. *)
      let factor = Array.make depth 1 and mask = ref 0 in
      let rec shape i (kl : loop list) =
        if i = depth then kl = []
        else
          let l = plan.p_spine.(i) in
          let trip = Ast.loop_trip l in
          trip mod min (Unroll.factor vector l.index) trip = 0
          &&
          match kl with
          | m :: rest when String.equal m.index l.index ->
              let u = m.step / l.step in
              m.lo = l.lo && m.step = u * l.step && u >= 1 && trip mod u = 0
              && Ast.loop_trip m = trip / u
              && begin
                   factor.(i) <- u;
                   shape (i + 1) rest
                 end
          | _ ->
              factor.(i) <- trip;
              mask := !mask lor (1 lsl i);
              shape (i + 1) kl
      in
      let shaped = shape 0 spine in
      let copies = Array.fold_left ( * ) 1 factor in
      if
        (not shaped)
        || (n.index_values && !mask <> 0)
        || List.compare_length_with body (copies * n.n_stmts) <> 0
        || not (List.for_all (function Assign _ -> true | _ -> false) body)
      then None
      else
        (* Copy [r]'s digit on loop [i] runs fastest on the outermost
           loop: unroll-and-jam concatenates the copies of an outer loop
           inside the copies of each inner one. A kept loop shifts its
           index by [digit * step], an unrolled one fixes it at
           [lo + digit * step]. *)
        let per_copy = Array.length plan.p_accesses in
        let offset = Array.make depth 0 in
        let set_copy r =
          let r = ref r in
          for i = 0 to depth - 1 do
            let l = plan.p_spine.(i) in
            let o = !r mod factor.(i) * l.step in
            offset.(i) <- (if !mask land (1 lsl i) <> 0 then l.lo + o else o);
            r := !r / factor.(i)
          done
        in
        let const s d =
          let a = n.n_coeffs.(s).(d) in
          let c = ref n.n_consts.(s).(d) in
          for i = 0 to depth - 1 do
            c := !c + (a.(i) * offset.(i))
          done;
          !c
        in
        let pattern (sp : source_pattern) =
          let dims = Array.length sp.sp_rows in
          let spelled =
            Array.map
              (fun rows -> if rows = [] then None else Some (Affine.to_expr (Affine.make rows 0)))
              sp.sp_rows
          in
          (* the distinct members of one group, in reverse execution
             order onto [found]: a bitmap over the group's constants in
             mixed radix *)
          let members found (kind, srcs) =
            let srcs = Array.of_list srcs in
            let lo = Array.make dims max_int and hi = Array.make dims min_int in
            for r = 0 to copies - 1 do
              set_copy r;
              for j = 0 to Array.length srcs - 1 do
                let s = srcs.(j) in
                for d = 0 to dims - 1 do
                  let c = const s d in
                  if c < lo.(d) then lo.(d) <- c;
                  if c > hi.(d) then hi.(d) <- c
                done
              done
            done;
            let size = ref 1 in
            for d = 0 to dims - 1 do
              let w = hi.(d) - lo.(d) + 1 in
              if !size > (1 lsl 22) / w then raise Too_wide;
              size := !size * w
            done;
            let seen = Bytes.make ((!size + 7) / 8) '\000' in
            (* each dimension's subscript and form per constant, built
               once: members share them *)
            let sub = Array.init dims (fun d -> Array.make (hi.(d) - lo.(d) + 1) (Int 0))
            and form = Array.init dims (fun d -> Array.make (hi.(d) - lo.(d) + 1) None) in
            let found = ref found in
            for r = 0 to copies - 1 do
              set_copy r;
              for j = 0 to Array.length srcs - 1 do
                let s = srcs.(j) in
                let key = ref 0 in
                for d = 0 to dims - 1 do
                  key := (!key * (hi.(d) - lo.(d) + 1)) + (const s d - lo.(d))
                done;
                let byte = Char.code (Bytes.get seen (!key lsr 3)) and bit = 1 lsl (!key land 7) in
                if byte land bit = 0 then begin
                  Bytes.set seen (!key lsr 3) (Char.chr (byte lor bit));
                  let rec forms d subs affine =
                    if d < 0 then (subs, affine)
                    else
                      let c = const s d in
                      let i = c - lo.(d) in
                      if form.(d).(i) = None then begin
                        sub.(d).(i) <- Affine.with_const spelled.(d) c;
                        form.(d).(i) <- Some { Affine.terms = sp.sp_rows.(d); const = c }
                      end;
                      forms (d - 1) (sub.(d).(i) :: subs) (form.(d).(i) :: affine)
                  in
                  let subs, affine = forms (dims - 1) [] [] in
                  found :=
                    {
                      Access.id = (r * per_copy) + s;
                      array = sp.sp_array;
                      kind;
                      subs;
                      affine;
                      loops = spine;
                      guarded = false;
                    }
                    :: !found
                end
              done
            done;
            !found
          in
          let srcs = List.concat_map snd sp.sp_groups in
          ( make_pattern plan k spine sp srcs
              (List.rev (List.fold_left members [] sp.sp_groups))
              (List.filter (fun (l : loop) -> Array.exists (List.mem_assoc l.index) sp.sp_rows) spine),
            srcs )
        in
        match List.map pattern (source_patterns plan !mask) with
        | sources ->
            Some
              {
                walked = k;
                patterns = List.map fst sources;
                indirect = false;
                origin = Planned { per_copy; copies; sources; perfect = true };
              }
        | exception Too_wide -> None)

(** The walk of [k], the kernel hoisting the patterns [hoisted] turned
    [w.walked] into, derived from [w] when every access of [w.walked]
    lies in the innermost body of a perfect nest and no subscript reads
    an array or is opaque. Hoisting leaves that body in the innermost
    spine loop, less the hoisted members, and puts one load and store
    per register around the spine loops: those are read from [k], in
    execution order, and each is paired with the member it replaced.
    The walk of [k]'s own plan when [k] has any other statement
    there. *)
let rehoist (w : walk) (hoisted : pattern list) (k : kernel) : walk =
  let spine = Loop_nest.spine k.k_body in
  let derived =
    match (w.origin, hoisted) with
    | Planned { per_copy; copies; sources; perfect = true }, p0 :: _
      when List.compare_lengths spine p0.spine = 0
           && (not w.indirect)
           && List.for_all (fun p -> p.uniform) hoisted -> (
        try
          let is_hoisted p = List.memq p hoisted in
          (* each source access left in the body: its number among them *)
          let kept = Array.make per_copy true in
          List.iter
            (fun (p, srcs) -> if is_hoisted p then List.iter (fun s -> kept.(s) <- false) srcs)
            sources;
          let pos = Array.make per_copy 0 and left = ref 0 in
          Array.iteri
            (fun s keep ->
              if keep then begin
                pos.(s) <- !left;
                incr left
              end)
            kept;
          let register = Hashtbl.create 16 in
          List.iter
            (fun p ->
              List.iter (fun (a : Access.t) -> Hashtbl.replace register (p.array, a.subs) (p, a)) p.members)
            hoisted;
          (* the statements before and after each spine loop, outermost
             first, with the loops around them *)
          let rec around outer body = function
            | [] -> []
            | (l : loop) :: rest ->
                let rec split pre = function
                  | For l' :: post when l' == l -> (List.rev pre, post)
                  | s :: tl -> split (s :: pre) tl
                  | [] -> raise Exit
                in
                let pre, post = split [] body in
                (outer, pre, post) :: around (outer @ [ l ]) l.body rest
          in
          let levels = around [] k.k_body spine in
          let next = ref 0 and order = ref [] and members = ref [] in
          let add kind loops s =
            let array, subs =
              match (kind, s) with
              | Access.Read, Assign (Lvar _, Arr (array, subs))
              | Access.Write, Assign (Larr (array, subs), Var _) ->
                  (array, subs)
              | _ -> raise Exit
            in
            let p, a = try Hashtbl.find register (array, subs) with Not_found -> raise Exit in
            if not (List.memq p !order) then order := p :: !order;
            members := (p, { a with Access.id = !next; kind; loops }) :: !members;
            incr next
          in
          List.iter (fun (loops, pre, _) -> List.iter (add Access.Read loops) pre) levels;
          let n_loads = !next in
          next := n_loads + (copies * !left);
          List.iter (fun (loops, _, post) -> List.iter (add Access.Write loops) post) (List.rev levels);
          let remap (p : pattern) members =
            {
              p with
              members;
              varying =
                List.filter
                  (fun (l : loop) ->
                    List.exists (fun (v : loop) -> String.equal v.index l.index) p.varying)
                  spine;
              spine;
            }
          in
          let moved (a : Access.t) =
            let r = a.id / per_copy and s = a.id mod per_copy in
            { a with id = n_loads + (r * !left) + pos.(s); loops = spine }
          in
          let emitted p =
            List.rev (List.filter_map (fun (q, a) -> if q == p then Some a else None) !members)
          in
          Some
            {
              walked = k;
              patterns =
                List.rev_map (fun p -> { (remap p (emitted p)) with has_reads = true }) !order
                @ List.filter_map
                    (fun p -> if is_hoisted p then None else Some (remap p (List.map moved p.members)))
                    w.patterns;
              indirect = false;
              origin = Rehoisted;
            }
        with Exit -> None)
    | _ -> None
  in
  match derived with Some w -> w | None -> self k

(** Another pattern of the same array may alias this one (no proven
    independence between any cross pair). *)
let may_alias (k : kernel) (p : pattern) (q : pattern) =
  let decl = Ast.find_array k p.array in
  List.exists
    (fun a ->
      List.exists
        (fun b ->
          match Analysis.Dependence.test ?decl a b with
          | Analysis.Dependence.Independent -> false
          | _ -> true)
        q.members)
    p.members

(* ------------------------------------------------------------------ *)

type state = {
  mutable kernel : kernel;
  mutable report : report;
  names : Names.t;
  mutable budget : int;
  mutable decls : scalar_decl list;
      (** registers declared so far, newest first; appended to the
          kernel's scalars once, when [run] returns *)
}

let declare st base elem =
  let name = Names.fresh st.names base in
  st.decls <- { s_name = name; s_elem = elem; s_kind = Register; s_span = None } :: st.decls;
  name

let edit_body st ed = st.kernel <- { st.kernel with k_body = apply_edits st.kernel.k_body ed }

(* ------------------------------------------------------------------ *)
(* Case 1: hoist/sink *)

(** Whether [p] was hoisted. *)
let try_hoist (k : kernel) (st : state) (p : pattern) (ps : pattern list) : bool =
  let spine = p.spine in
  (* another pattern of the array may alias this one: asked last, it
     runs the dependence test on every cross pair *)
  let aliasing () =
    List.exists (fun q -> q != p && String.equal q.array p.array && may_alias k p q) ps
  in
  let deepest_varying =
    (* position of the deepest spine loop the pattern varies with *)
    let rec go i best = function
      | [] -> best
      | (l : loop) :: rest ->
          go (i + 1) (if List.memq l p.varying then i else best) rest
    in
    go 0 (-1) spine
  in
  let applicable =
    p.spine_only && (not p.scalar_subs)
    && (match List.rev spine with l :: _ -> not (List.memq l p.varying) | [] -> false)
    && (not p.any_guarded)
    && st.budget >= List.length p.members
    && not (aliasing ())
  in
  if not applicable then false
  else begin
    (* Hoist each distinct member to just inside the deepest varying
       loop (or outside the whole nest when invariant everywhere). *)
    let target =
      if deepest_varying < 0 then None else Some (List.nth spine deepest_varying).index
    in
    let ed = new_edits () in
    List.iter
      (fun (a : Access.t) ->
        let subs = a.Access.subs in
        if not (Hashtbl.mem ed.repl (p.array, subs)) then begin
          let r = declare st (String.lowercase_ascii p.array ^ "_r") p.elem in
          st.budget <- st.budget - 1;
          replace ed (p.array, subs) { reg = r; scope = None; writes = true };
          let load = Assign (Lvar r, Arr (p.array, subs)) in
          let store = Assign (Larr (p.array, subs), Var r) in
          let post = if p.has_writes then [ store ] else [] in
          ed.inserts <- (target, [ load ], post) :: ed.inserts;
          st.report <-
            {
              st.report with
              hoisted_members = st.report.hoisted_members + 1;
              registers = st.report.registers + 1;
            }
        end)
      p.members;
    edit_body st ed;
    true
  end

(* ------------------------------------------------------------------ *)
(* Case 2: register banks across an outer carrier loop *)

(** Whether the pattern got a bank. *)
let try_bank ~written (st : state) (p : pattern) : bool =
  let spine = p.spine in
  (* Outermost spine loop the pattern is invariant to, with varying loops
     strictly inside it. *)
  let carrier =
    let rec go = function
      | [] -> None
      | (l : loop) :: rest ->
          if
            (not (List.memq l p.varying))
            && List.exists (fun v -> List.memq v rest) p.varying
          then Some l
          else go rest
    in
    go spine
  in
  match carrier with
  | None -> false
  | Some carrier ->
      let inner_of_carrier =
        let rec drop = function
          | (l : loop) :: rest -> if l.index = carrier.index then rest else drop rest
          | [] -> []
        in
        drop spine
      in
      let varying_inside = List.filter (fun l -> List.memq l p.varying) inner_of_carrier in
      (* Varying loops must be contiguous on the spine below the carrier:
         a non-varying loop *between* two varying ones desynchronises the
         rotation count from the bank size. Non-varying loops below the
         deepest varying loop only repeat full cycles and are fine. *)
      let contiguous =
        let rec check seen_varying = function
          | [] -> true
          | (l : loop) :: rest ->
              let v = List.memq l p.varying in
              if v then check true rest
              else if not seen_varying then check false rest
              else
                (* non-varying after a varying loop: legal only if no
                   varying loop follows *)
                List.for_all (fun m -> not (List.memq m p.varying)) rest
        in
        check false inner_of_carrier
      in
      let bank_n =
        List.fold_left (fun acc l -> acc * Ast.loop_trip l) 1 varying_inside
      in
      let n_regs = bank_n * List.length p.members in
      let applicable =
        p.has_reads && (not p.has_writes) && p.spine_only && (not p.scalar_subs)
        && (not (List.mem p.array written))
        && (not p.any_guarded)
        && contiguous && bank_n > 1
        && st.budget >= n_regs
      in
      if not applicable then false
      else begin
        (* [bank_n > 1]: a loop inside the carrier varies *)
        let rot_loop = List.hd (List.rev varying_inside) in
        let ed = new_edits () in
        List.iteri
          (fun mi (a : Access.t) ->
            let base =
              Printf.sprintf "%s_%d" (String.lowercase_ascii p.array) mi
            in
            let regs =
              List.init bank_n (fun j -> declare st (Printf.sprintf "%s_%d" base j) p.elem)
            in
            st.budget <- st.budget - bank_n;
            let r0 = List.hd regs in
            let load =
              If
                ( Bin (Eq, Var carrier.index, Int carrier.lo),
                  [ Assign (Lvar r0, Arr (p.array, a.subs)) ],
                  [] )
            in
            (* Uses inside the carrier read the bank; the guarded load's
               own read stays (inserts are never rewritten). *)
            replace ed (p.array, a.subs)
              { reg = r0; scope = Some carrier.index; writes = false };
            ed.inserts <- (Some rot_loop.index, [ load ], [ Rotate regs ]) :: ed.inserts;
            st.report <-
              {
                st.report with
                banks = (p.array, bank_n) :: st.report.banks;
                registers = st.report.registers + bank_n;
                carriers =
                  (if List.mem carrier.index st.report.carriers then
                     st.report.carriers
                   else carrier.index :: st.report.carriers);
              })
          p.members;
        edit_body st ed;
        true
      end

(* ------------------------------------------------------------------ *)
(* Case 3: chains along the innermost varying loop *)
(* ------------------------------------------------------------------ *)
(* Case 3: chains along the innermost varying loop *)

(* Floor division (exact linearity in the divisor direction:
   [fdiv (x + d*g) g = fdiv x g + d] for any integers, which makes the
   residue below a canonical class key). *)
let fdiv x y =
  let q = x / y and r = x mod y in
  if r <> 0 && r < 0 <> (y < 0) then q - 1 else q

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

(* Whether the nonzero columns among [cols] are linearly independent:
   each is reduced by fraction-free elimination against the ones before
   it, kept in echelon form (a column is zero at every earlier one's
   pivot), and is dependent when nothing is left. *)
let independent_columns (cols : int array list) =
  let basis = ref [] in
  List.for_all
    (fun c ->
      if Array.for_all (( = ) 0) c then true
      else begin
        let v = Array.copy c in
        List.iter
          (fun (pivot, b) ->
            let x = v.(pivot) and y = b.(pivot) in
            if x <> 0 then begin
              let g = gcd x y in
              let x = x / g and y = y / g in
              Array.iteri (fun d bd -> v.(d) <- (v.(d) * y) - (bd * x)) b
            end)
          (List.rev !basis);
        let rec pivot d = if d = Array.length v then None else if v.(d) <> 0 then Some d else pivot (d + 1) in
        match pivot 0 with
        | None -> false
        | Some d ->
            basis := (d, v) :: !basis;
            true
      end)
    cols

let rec same_terms (fa : Affine.t option list) (fb : Affine.t option list) =
  match (fa, fb) with
  | [], [] -> true
  | Some f :: fa, Some g :: fb -> (f.terms == g.terms || f.terms = g.terms) && same_terms fa fb
  | _ -> false

(** A class of {!chain_classes} being built: its first member, that
    member's shape and position, the class's number in creation order,
    and once another member joins, every member with its distance to
    the first, in reverse order. *)
type chain_class = {
  lead : Access.t;
  shape : int;
  lead_pos : int;
  created : int;
  mutable chained : (Access.t * int) list;
}

(** The chain classes of [p] along [inner], the innermost loop of
    [p.spine], in closed form (see the interface). Two members can only
    have a distance when both lie in the innermost body of [p.spine] and
    share their subscripts' terms (their shape). The system two members
    of one shape pose has one matrix [A] (a row per dimension, a column
    per spine loop: coefficient times step), reduced once per shape;
    only the right-hand side, the difference of their constants,
    varies. Dependent nonzero columns leave a free variable in every
    solution: each pair is coupled. Otherwise a solution is unique, and
    it is a distance along [inner] alone exactly when the two members'
    residues modulo [inner]'s column [g] agree; the distance is their
    position difference, realizable within the trip count. Members join
    classes by hashing the shape and the residue. *)
let chain_classes (inner : loop) (p : pattern) : (Access.t * int) list list =
  match p.members with
  | [] | [ _ ] -> []
  | members ->
      let inside (a : Access.t) =
        let rec prefix (ls : loop list) (sp : loop list) =
          match (ls, sp) with
          | _, [] -> true
          | l :: ls, s :: sp -> l == s && prefix ls sp
          | [], _ :: _ -> false
        in
        a.loops == p.spine || prefix a.loops p.spine
      in
      (* each shape met: its terms, number, and [inner]'s column with
         the first dimension it moves, when members of it can chain *)
      let shapes = ref [] in
      let shape (a : Access.t) =
        match List.find_opt (fun (terms, _, _) -> same_terms terms a.affine) !shapes with
        | Some (_, id, info) -> (id, info)
        | None ->
            let column (l : loop) =
              Array.of_list (List.map (fun f -> Affine.coeff (Option.get f) l.index * l.step) a.affine)
            in
            let g = column inner in
            let info =
              if Array.for_all (( = ) 0) g || not (independent_columns (List.map column p.spine)) then None
              else
                let rec first_moving d = if g.(d) <> 0 then d else first_moving (d + 1) in
                Some (g, first_moving 0)
            in
            let id = List.length !shapes in
            shapes := (a.affine, id, info) :: !shapes;
            (id, info)
      in
      let trip = Ast.loop_trip inner in
      let by_residue = Hashtbl.create 16 and created = ref 0 and chains = ref [] in
      let pos g d0 (b : Access.t) =
        match List.nth b.affine d0 with Some f -> fdiv f.const g.(d0) | None -> assert false
      in
      let rec hash g pa h d = function
        | Some (f : Affine.t) :: rest -> hash g pa ((h * 31) + f.const - (pa * g.(d))) (d + 1) rest
        | _ -> h
      in
      let rec same_residue g pa pb d fa fb =
        match (fa, fb) with
        | Some (f : Affine.t) :: fa, Some (f' : Affine.t) :: fb ->
            f.const - (pa * g.(d)) = f'.const - (pb * g.(d)) && same_residue g pa pb (d + 1) fa fb
        | _ -> true
      in
      (* the first class of the shape and residue whose first member
         lies within the trip count *)
      let rec find g id pa (a : Access.t) = function
        | [] -> raise_notrace Not_found
        | c :: rest ->
            if c.shape = id && abs (c.lead_pos - pa) < trip && same_residue g c.lead_pos pa 0 c.lead.affine a.affine
            then c
            else find g id pa a rest
      in
      List.iter
        (fun (a : Access.t) ->
          if Access.is_affine a && inside a then
            match shape a with
            | _, None -> ()
            | id, Some (g, d0) -> (
                let pa = pos g d0 a in
                let h = hash g pa ((id * 65599) + Array.length g) 0 a.affine in
                let bucket = try Hashtbl.find by_residue h with Not_found -> [] in
                match find g id pa a bucket with
                | c ->
                    if c.chained = [] then begin
                      c.chained <- [ (c.lead, 0) ];
                      chains := c :: !chains
                    end;
                    c.chained <- (a, c.lead_pos - pa) :: c.chained
                | exception Not_found ->
                    Hashtbl.replace by_residue h
                      (bucket @ [ { lead = a; shape = id; lead_pos = pa; created = !created; chained = [] } ]);
                    incr created))
        members;
      List.map
        (fun c -> List.rev c.chained)
        (List.sort (fun c c' -> compare c.created c'.created) !chains)

let try_chains ~(config : config) ~written (st : state) (ed : edits) (p : pattern) =
  match (List.rev p.varying, List.rev p.spine) with
  | inner :: _, spine_inner :: _
    when inner.index = spine_inner.index
         && p.spine_only && (not p.scalar_subs)
         && p.has_reads && (not p.has_writes)
         && (not (List.mem p.array written))
         && not p.any_guarded ->
      List.iter
        (fun cls ->
          match cls with
          | [] | [ _ ] -> ()
          | (first, d0) :: rest ->
              (* Distance d of member m relative to the first member: m
                 touches the first member's element d iterations later.
                 The (first) member with minimal d reads the *newest*
                 data each iteration and leads the chain; a member at
                 delay k reads what the lead read k iterations ago. *)
              let dmin = ref d0 and dmax = ref d0 and lead = ref first in
              List.iter
                (fun ((a : Access.t), d) ->
                  if d < !dmin then begin
                    dmin := d;
                    lead := a
                  end;
                  if d > !dmax then dmax := d)
                rest;
              let dmin = !dmin in
              let span = !dmax - dmin in
              let n_regs = span + 1 in
              if span <= 0 || span > config.max_chain_span || st.budget < n_regs
              then ()
              else begin
                let base = String.lowercase_ascii p.array ^ "_h" in
                let regs = Array.init n_regs (fun j -> declare st (base ^ string_of_int j) p.elem) in
                st.budget <- st.budget - n_regs;
                (* Loads at the top of the innermost body: lead first,
                   then guarded refills for trailing members, by delay
                   (members at one delay in class order). *)
                let lead_load = Assign (Lvar regs.(span), Arr (p.array, !lead.Access.subs)) in
                let refills = ref [] in
                for delay = span downto 1 do
                  refills :=
                    List.fold_right
                      (fun ((a : Access.t), d) acc ->
                        if d - dmin <> delay then acc
                        else
                          If
                            ( Bin (Lt, Var inner.index, Int (inner.lo + (delay * inner.step))),
                              [ Assign (Lvar regs.(span - delay), Arr (p.array, a.subs)) ],
                              [] )
                          :: acc)
                      cls !refills
                done;
                List.iter
                  (fun ((a : Access.t), d) ->
                    replace ed (p.array, a.subs)
                      { reg = regs.(span - (d - dmin)); scope = Some inner.index; writes = false })
                  cls;
                ed.inserts <-
                  (Some inner.index, lead_load :: !refills, [ Rotate (Array.to_list regs) ])
                  :: ed.inserts;
                st.report <-
                  {
                    st.report with
                    chain_lengths = (p.array, n_regs) :: st.report.chain_lengths;
                    registers = st.report.registers + n_regs;
                    innermost_peels = max st.report.innermost_peels span;
                  }
              end)
        (chain_classes inner p)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Case 4: element replacement within the innermost body.

   Accesses to one array element (same canonical subscripts) repeated in
   the innermost body collapse onto a register: read-only groups load
   once (the paper's loop-independent [S_0] of FIR); read-modify-write
   groups (an accumulator whose carrying loop was fully unrolled) load
   once, accumulate in the register, and store once at the end of the
   body — the within-body face of redundant-write elimination. *)

(** A repeated element of the innermost body: occurrence count, whether
    any occurrence writes it, whether the first is an unguarded write. *)
type element = { mutable count : int; mutable has_w : bool; first_w : bool }

(** [single a]: every access of array [a] in the current kernel is in
    one pattern whose distinct members address distinct elements;
    [written] are the arrays it writes. *)
let cse_loads ~written ~single (st : state) =
  let spine = Loop_nest.spine st.kernel.k_body in
  let loop_free =
    not
      (List.exists
         (function Ast.For _ -> true | _ -> false)
         st.kernel.k_body)
  in
  match (List.rev spine, loop_free) with
  | [], false -> ()
  | target, _ ->
      (* Scan the innermost body in document order, recording each
         (array, subs) element's facts. *)
      let stats : (string * expr list, element) Hashtbl.t = Hashtbl.create 16 in
      let order : (string * expr list) list ref = ref [] in
      let note key ~write ~guarded =
        match Hashtbl.find stats key with
        | e ->
            e.count <- e.count + 1;
            e.has_w <- e.has_w || write
        | exception Not_found ->
            order := key :: !order;
            Hashtbl.add stats key { count = 1; has_w = write; first_w = write && not guarded }
      in
      let rec scan_expr guarded e =
        match e with
        | Arr (a, subs) ->
            List.iter (scan_expr guarded) subs;
            note (a, subs) ~write:false ~guarded
        | Bin (_, x, y) ->
            scan_expr guarded x;
            scan_expr guarded y
        | Un (_, x) -> scan_expr guarded x
        | Cond (c, t, e') ->
            scan_expr guarded c;
            scan_expr true t;
            scan_expr true e'
        | Int _ | Var _ -> ()
      in
      let rec scan_stmt guarded s =
        match s with
        | Assign (lv, e) -> (
            scan_expr guarded e;
            match lv with
            | Larr (a, subs) ->
                List.iter (scan_expr guarded) subs;
                note (a, subs) ~write:true ~guarded
            | Lvar _ -> ())
        | If (c, t, e) ->
            scan_expr guarded c;
            List.iter (scan_stmt true) t;
            List.iter (scan_stmt true) e
        | For _ -> ()
        | Rotate _ -> ()
      in
      let bodies =
        match target with
        | inner :: _ -> loop_bodies ~index:inner.Ast.index st.kernel.k_body
        | [] -> [ st.kernel.k_body ] (* loop-free kernel: one block *)
      in
      List.iter (List.iter (scan_stmt false)) bodies;
      let assigned = assigned_scalars ~indices:true (List.hd (List.rev bodies)) in
      (* Decide all replacements first, then rewrite the body in a
         single pass. *)
      let scope = match target with inner :: _ -> Some inner.index | [] -> None in
      let ed = new_edits () in
      let pre = ref [] and post = ref [] in
      List.iter
        (fun ((a, subs) as key) ->
          let { count; has_w; first_w } = Hashtbl.find stats key in
          (* A subscript naming a scalar the body assigns (a chain
             register loaded from an indirect subscript's array, say)
             names a different element before and after that
             assignment: the element's load cannot move to the top. *)
          if
            count > 1 && st.budget > 0
            && (if has_w then single a else not (List.mem a written))
            && not (List.exists (mentions assigned) subs)
          then begin
            let r = declare st (String.lowercase_ascii a ^ "_s") (elem_of st.kernel a) in
            st.budget <- st.budget - 1;
            replace ed key { reg = r; scope; writes = has_w };
            if not first_w then pre := Assign (Lvar r, Arr (a, subs)) :: !pre;
            if has_w then post := Assign (Larr (a, subs), Var r) :: !post;
            st.report <-
              {
                st.report with
                cse_loads = st.report.cse_loads + 1;
                registers = st.report.registers + 1;
              }
          end)
        (List.rev !order);
      if Hashtbl.length ed.repl > 0 then begin
        ed.inserts <- [ (scope, List.rev !pre, List.rev !post) ];
        edit_body st ed
      end


(* ------------------------------------------------------------------ *)

(** Element CSE's single-pattern test on array [a] of a kernel whose
    written arrays' accesses [w] found: they form at most one pattern,
    and it is uniform. Banks and chains rewrite only subscripts that
    read an array, which are opaque before and name a register after,
    so a walk taken before them still answers for the kernel after. *)
let single (w : walk) a =
  (* asked once per repeated written element: stops at a second pattern *)
  let rec go found = function
    | [] -> ( match found with Some p -> p.uniform | None -> true)
    | p :: rest when String.equal p.array a -> (
        match found with None -> go (Some p) rest | Some _ -> false)
    | _ :: rest -> go found rest
  in
  go None w.patterns

(* [run], handing [seen] every walk it reads. *)
let run_walks ~seen ?(config = default_config) ?plan (k : kernel) : kernel * report =
  let st =
    {
      kernel = k;
      report = empty_report;
      names = Names.of_kernel k;
      budget = config.max_registers;
      decls = [];
    }
  in
  (* Each phase reads the pattern facts of one access walk, instantiated
     in closed form from [plan] when it covers [k], else read off [k]'s
     own plan. Hoist/sink may edit any array, so a hoist that edits
     forces a second walk, derived from the first where it can be.
     Banks and chains only replace reads of arrays the kernel never
     writes and insert loads of those arrays: every other array's
     accesses, and so its patterns, stay as the walk found them, unless
     a subscript reads a replaced array. Without such indirect
     subscripts, chains read the walk that banks read (a banked pattern
     gains guarded loads and never chains) and element CSE reads the
     written arrays' facts from the last walk. *)
  let w =
    ref
      (match Option.bind plan (fun (plan, vector) -> instantiate plan vector k) with
      | Some w -> w
      | None -> self k)
  in
  seen !w;
  let rewalk w' =
    w := w';
    seen w'
  in
  (* Hoist/sink first: it removes accumulator traffic and its aliasing
     checks see the original access set. *)
  let ps = !w.patterns in
  let hoisted = List.filter (fun p -> try_hoist k st p ps) ps in
  if st.kernel != !w.walked then rewalk (rehoist !w hoisted st.kernel);
  let written = Licm.arrays_written_in st.kernel.k_body in
  let banked = ref [] in
  if config.across_loops then begin
    (* Smallest banks first, to fit more of them in the budget. *)
    let with_est =
      List.map
        (fun p ->
          let est =
            List.fold_left
              (fun acc (l : loop) ->
                if List.memq l p.varying then acc * Ast.loop_trip l else acc)
              (List.length p.members)
              p.spine
          in
          (est, p))
        !w.patterns
    in
    List.iter
      (fun (_, p) -> if try_bank ~written st p then banked := p :: !banked)
      (List.sort (fun (a, _) (b, _) -> compare a b) with_est)
  end;
  if config.chains then begin
    let ps =
      if !banked = [] then !w.patterns
      else if !w.indirect then begin
        rewalk (self st.kernel);
        !w.patterns
      end
      else List.filter (fun p -> not (List.memq p !banked)) !w.patterns
    in
    let ed = new_edits () in
    List.iter (fun p -> try_chains ~config ~written st ed p) ps;
    if Hashtbl.length ed.repl > 0 then edit_body st ed
  end;
  cse_loads ~written ~single:(single !w) st;
  let k = st.kernel in
  let k =
    if st.decls = [] then k else { k with k_scalars = k.k_scalars @ List.rev st.decls }
  in
  (k, st.report)

let run ?config ?plan k = run_walks ~seen:ignore ?config ?plan k

let walks ?config ?plan k =
  let seen = ref [] in
  ignore (run_walks ~seen:(fun w -> seen := w :: !seen) ?config ?plan k);
  List.rev !seen
