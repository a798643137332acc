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
    The search runs replacement at every unroll vector it visits, so the
    walk comes from a {b plan} derived once per source nest and tile
    ({!plan}): the source body's accesses with their coefficient rows
    and constant offsets, and the patterns they form per set of fully
    unrolled loops. {b Instantiating} the plan for a vector
    ({!instantiate}) enumerates the unrolled copies' offsets as integers
    in the order unroll-and-jam emits them, keeps each distinct member
    once, and builds an access record for it alone; the walk after
    hoisting is derived from that one ({!rehoist}). Kernels the plan
    does not cover (imperfect nests, conditionals, subscripts that are
    not affine in the loop indices, read an array or name a scalar, and
    vectors whose factors leave an epilogue) {b fall back} to
    collecting every access ({!walk}), which also serves as the plan's
    test oracle. *)

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

(** Apply [f] to the body of the spine loop named [index]. Shares
    unchanged subtrees, so an edit that leaves the target body physically
    unchanged (e.g. a scan) returns the input body itself. *)
let rec edit_loop_body ~index f body =
  Ast.map_sharing
    (fun s ->
      match s with
      | For l when l.index = index ->
          let b' = f l.body in
          if b' == l.body then s else For { l with body = b' }
      | For l ->
          let b' = edit_loop_body ~index f l.body in
          if b' == l.body then s else For { l with body = b' }
      | If (c, t, e) ->
          let t' = edit_loop_body ~index f t
          and e' = edit_loop_body ~index f e in
          if t' == t && e' == e then s else If (c, t', e')
      | Assign _ | Rotate _ -> s)
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
  | Walked of Access.t list  (** every access of [walked], collected *)
  | Planned of { per_copy : int; copies : int; sources : (pattern * int list) list }
      (** instantiated from a plan: [copies] unrolled copies of a source
          body of [per_copy] accesses, where copy [r] of source access [s]
          has id [r * per_copy + s]; each pattern lists its source
          accesses *)
  | Rehoisted  (** derived from a planned walk after hoisting *)

let rec reads_array (e : expr) =
  match e with
  | Arr _ -> true
  | Int _ | Var _ -> false
  | Bin (_, a, b) -> reads_array a || reads_array b
  | Un (_, a) -> reads_array a
  | Cond (c, t, e) -> reads_array c || reads_array t || reads_array e

(* Every loop around [a] that [a] varies with is named in [spine]. *)
let varies_on_spine_only spine_names (a : Access.t) =
  let rec go = function
    | [] -> true
    | (l : loop) :: rest ->
        (List.mem l.index spine_names || not (Access.varies_with a l.index)) && go rest
  in
  go a.loops

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

(* Some subscript of [a] names a scalar in [tbl]. *)
let subscript_mentions tbl (a : Access.t) = List.exists (mentions tbl) a.subs

let walk (k : kernel) : walk =
  let spine = Loop_nest.spine k.k_body in
  let spine_names = List.map (fun (l : loop) -> l.index) spine in
  let accesses = Access.collect k.k_body in
  let groups = Analysis.Reuse.group_accesses spine_names accesses in
  (* Merge the read group and write group of the same array+pattern so
     hoist/sink treats them together: the first group's members, then the
     second's. Non-affine accesses stay alone. *)
  let buckets = Hashtbl.create 16 in
  let merged = ref [] in
  List.iter
    (fun (g : Analysis.Reuse.group) ->
      match g.members with
      | [] -> ()
      | m :: _ when not (Access.is_affine m) -> merged := ref g.members :: !merged
      | m :: _ -> (
          let h = Analysis.Reuse.pattern_hash spine_names m in
          let bucket = try Hashtbl.find buckets h with Not_found -> [] in
          match
            List.find_opt
              (fun ((n : Access.t), _) ->
                String.equal n.array m.array
                && Analysis.Reuse.same_pattern spine_names n m)
              bucket
          with
          | Some (_, members) -> members := !members @ g.members
          | None ->
              let members = ref g.members in
              Hashtbl.replace buckets h ((m, members) :: bucket);
              merged := members :: !merged))
    groups;
  let assigned = assigned_scalars ~indices:false k.k_body in
  let pattern (members : Access.t list) =
    let m = List.hd members in
    let elem =
      match Ast.find_array k m.array with Some d -> d.a_elem | None -> Dtype.int32
    in
    let distinct =
      match members with
      | [ _ ] -> members
      | _ ->
          let seen = Hashtbl.create 16 in
          List.filter
            (fun (a : Access.t) ->
              let key = (a.subs, a.kind) in
              if Hashtbl.mem seen key then false
              else begin
                Hashtbl.replace seen key ();
                true
              end)
            members
    in
    {
      array = m.array;
      elem;
      members = distinct;
      has_reads = List.exists Access.is_read members;
      has_writes = List.exists Access.is_write members;
      any_guarded = List.exists (fun (a : Access.t) -> a.guarded) members;
      varying =
        List.filter
          (fun (l : loop) -> List.exists (fun a -> Access.varies_with a l.index) members)
          spine;
      spine;
      spine_only = List.for_all (varies_on_spine_only spine_names) members;
      scalar_subs = List.exists (subscript_mentions assigned) members;
    }
  in
  {
    walked = k;
    patterns = List.rev_map (fun members -> pattern !members) !merged;
    indirect = List.exists (fun (a : Access.t) -> List.exists reads_array a.subs) accesses;
    origin = Walked accesses;
  }

(* ------------------------------------------------------------------ *)
(* The plan: one source nest's patterns, instantiated per unroll vector *)

(** One array access of a plan's source body. *)
type source_access = {
  sa_array : string;
  sa_kind : Access.kind;
  sa_rows : (string * int) list array;  (** loop-index terms per dimension *)
  sa_consts : int array;  (** constant part per dimension *)
  sa_coeffs : int array array;  (** per dimension, the coefficient of each source loop *)
}

(** A uniformly generated pattern of the source body once some loops are
    fully unrolled: its coefficient rows with those loops' terms dropped,
    and its groups (one per access kind, the earlier first), each the
    numbers of its source accesses in execution order. *)
type source_pattern = {
  sp_array : string;
  sp_rows : (string * int) list array;
  sp_groups : (Access.kind * int list) list;
}

type nest = {
  n_loops : loop array;  (** the source spine, outermost first *)
  n_accesses : source_access array;  (** the innermost body's, in execution order *)
  n_stmts : int;  (** statements of the innermost body *)
  index_values : bool;
      (** a loop index is read outside a subscript: fixing it may fold
          an expression, and the reads in it, away *)
  mutable by_mask : (int * source_pattern list) list;
      (** the patterns per set of fully unrolled loops (bit [i]: loop
          [i]), derived on first use *)
}

type plan = nest option

(** The plan of a source kernel: [None] unless the kernel is a perfect
    nest of loops of two or more iterations around assignments whose
    subscripts are affine in the loop indices alone, with no
    conditional and no loop index assigned. *)
let plan (k : kernel) : plan =
  let k = Simplify.run k in
  match Loop_nest.perfect_nest k.k_body with
  | [], _ -> None
  | loops, body ->
      let indices = List.map (fun (l : loop) -> l.index) loops in
      let is_index v = List.mem v indices in
      let ok = ref true and index_values = ref false and accesses = ref [] in
      let push sa_array sa_kind subs =
        let forms = List.map Affine.of_expr subs in
        if
          List.for_all
            (function
              | Some (f : Affine.t) -> List.for_all (fun (v, _) -> is_index v) f.terms
              | None -> false)
            forms
        then
          let forms = Array.of_list (List.map Option.get forms) in
          accesses :=
            {
              sa_array;
              sa_kind;
              sa_rows = Array.map (fun (f : Affine.t) -> f.terms) forms;
              sa_consts = Array.map (fun (f : Affine.t) -> f.const) forms;
              sa_coeffs =
                Array.map
                  (fun (f : Affine.t) -> Array.of_list (List.map (Affine.coeff f) indices))
                  forms;
            }
            :: !accesses
        else ok := false
      in
      (* the accesses in [Access.collect]'s order *)
      let rec expr (e : expr) =
        match e with
        | Int _ -> ()
        | Var v -> if is_index v then index_values := true
        | Arr (a, subs) -> push a Access.Read subs
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
              match lv with
              | Lvar v -> if is_index v then ok := false
              | Larr (a, subs) -> push a Access.Write subs)
          | If _ | For _ | Rotate _ -> ok := false)
        body;
      let loops_ok =
        List.for_all (fun (l : loop) -> l.step > 0 && Ast.loop_trip l >= 2) loops
        && List.length (List.sort_uniq String.compare indices) = List.length indices
      in
      if not (!ok && loops_ok) then None
      else
        Some
          {
            n_loops = Array.of_list loops;
            n_accesses = Array.of_list (List.rev !accesses);
            n_stmts = List.length body;
            index_values = !index_values;
            by_mask = [];
          }

(* The patterns of [n] with the loops of [mask] fully unrolled: the
   groups [Analysis.Reuse.group_accesses] finds over the remaining
   loops, merged as {!walk} merges them. *)
let source_patterns (n : nest) mask =
  match List.assoc_opt mask n.by_mask with
  | Some ps -> ps
  | None ->
      let unrolled v =
        let rec go i =
          i < Array.length n.n_loops
          && ((mask land (1 lsl i) <> 0 && String.equal n.n_loops.(i).index v) || go (i + 1))
        in
        go 0
      in
      let groups = ref [] in
      Array.iteri
        (fun s sa ->
          let rows = Array.map (List.filter (fun (v, _) -> not (unrolled v))) sa.sa_rows in
          match
            List.find_opt
              (fun (kind, array, rows', _) ->
                kind = sa.sa_kind && String.equal array sa.sa_array && rows' = rows)
              !groups
          with
          | Some (_, _, _, members) -> members := s :: !members
          | None -> groups := (sa.sa_kind, sa.sa_array, rows, ref [ s ]) :: !groups)
        n.n_accesses;
      let patterns = ref [] in
      List.iter
        (fun (kind, array, rows, members) ->
          let group = (kind, List.rev !members) in
          let same p = String.equal p.sp_array array && p.sp_rows = rows in
          if List.exists same !patterns then
            patterns :=
              List.map
                (fun p -> if same p then { p with sp_groups = p.sp_groups @ [ group ] } else p)
                !patterns
          else patterns := { sp_array = array; sp_rows = rows; sp_groups = [ group ] } :: !patterns)
        (List.rev !groups);
      let patterns = List.rev !patterns in
      n.by_mask <- (mask, patterns) :: n.by_mask;
      patterns

exception Too_wide

(** The walk {!walk} gives on [k], the plan's source nest unrolled and
    jammed by [vector] (then simplified), derived from the plan: [None]
    when the plan does not cover the source, a factor of [vector] does
    not divide its loop's trip count (the epilogue breaks the nest), or
    [k] is not such an unroll. Members are enumerated as the unrolled
    copies' integer offsets; an access record is built for each distinct
    member only. *)
let instantiate (plan : plan) (vector : Unroll.vector) (k : kernel) : walk option =
  match plan with
  | None -> None
  | Some n -> (
      let spine, body = Loop_nest.perfect_nest k.k_body in
      let depth = Array.length n.n_loops in
      (* Each source loop's factor: kept with a multiplied step, or
         fully unrolled and inlined (absent from [k]'s spine). Without
         epilogues, the shape tells them apart: a factor not applied
         (jamming is not always legal) keeps its loop's step. *)
      let factor = Array.make depth 1 and mask = ref 0 in
      let rec shape i (kl : loop list) =
        if i = depth then kl = []
        else
          let l = n.n_loops.(i) in
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
        let per_copy = Array.length n.n_accesses in
        let offset = Array.make depth 0 in
        let set_copy r =
          let r = ref r in
          for i = 0 to depth - 1 do
            let l = n.n_loops.(i) in
            let o = !r mod factor.(i) * l.step in
            offset.(i) <- (if !mask land (1 lsl i) <> 0 then l.lo + o else o);
            r := !r / factor.(i)
          done
        in
        let const sa d =
          let a = sa.sa_coeffs.(d) in
          let c = ref sa.sa_consts.(d) in
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
                let sa = n.n_accesses.(srcs.(j)) in
                for d = 0 to dims - 1 do
                  let c = const sa d in
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
                let sa = n.n_accesses.(s) in
                let key = ref 0 in
                for d = 0 to dims - 1 do
                  key := (!key * (hi.(d) - lo.(d) + 1)) + (const sa d - lo.(d))
                done;
                let byte = Char.code (Bytes.get seen (!key lsr 3)) and bit = 1 lsl (!key land 7) in
                if byte land bit = 0 then begin
                  Bytes.set seen (!key lsr 3) (Char.chr (byte lor bit));
                  let rec forms d subs affine =
                    if d < 0 then (subs, affine)
                    else
                      let c = const sa d in
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
          let p =
            {
              array = sp.sp_array;
              elem =
                (match Ast.find_array k sp.sp_array with
                | Some d -> d.a_elem
                | None -> Dtype.int32);
              members = List.rev (List.fold_left members [] sp.sp_groups);
              has_reads = List.exists (fun (kind, _) -> kind = Access.Read) sp.sp_groups;
              has_writes = List.exists (fun (kind, _) -> kind = Access.Write) sp.sp_groups;
              any_guarded = false;
              varying =
                List.filter
                  (fun (l : loop) -> Array.exists (List.mem_assoc l.index) sp.sp_rows)
                  spine;
              spine;
              spine_only = true;
              scalar_subs = false;
            }
          in
          (p, List.concat_map snd sp.sp_groups)
        in
        match List.map pattern (source_patterns n !mask) with
        | sources ->
            Some
              {
                walked = k;
                patterns = List.map fst sources;
                indirect = false;
                origin = Planned { per_copy; copies; sources };
              }
        | exception Too_wide -> None)

(** The walk {!walk} gives on [k], the kernel hoisting the patterns
    [hoisted] turned [w.walked] into, derived from [w] when it is
    planned. Hoisting leaves the unrolled body in the innermost spine
    loop, less the hoisted members, and puts one load and store per
    register around the spine loops: those are read from [k], in
    execution order, and each is paired with the member it replaced.
    [walk k] when [k] has any other statement there. *)
let rehoist (w : walk) (hoisted : pattern list) (k : kernel) : walk =
  let spine = Loop_nest.spine k.k_body in
  let derived =
    match (w.origin, hoisted) with
    | Planned { per_copy; copies; sources }, p0 :: _
      when List.compare_lengths spine p0.spine = 0 -> (
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
  match derived with Some w -> w | None -> walk k

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
  let innermost_spine =
    match List.rev spine with [] -> None | l :: _ -> Some l
  in
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
    spine <> [] && p.spine_only && (not p.scalar_subs)
    && (match innermost_spine with
       | Some l -> not (List.memq l p.varying)
       | None -> false)
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
      let innermost_varying =
        match List.rev varying_inside with [] -> None | l :: _ -> Some l
      in
      let n_regs = bank_n * List.length p.members in
      let applicable =
        p.has_reads && (not p.has_writes) && p.spine_only && (not p.scalar_subs)
        && (not (List.mem p.array written))
        && (not p.any_guarded)
        && contiguous && bank_n > 1
        && innermost_varying <> None
        && st.budget >= n_regs
      in
      if not applicable then false
      else begin
        let rot_loop = Option.get innermost_varying in
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

(** Consistent distance (in iterations of [inner]) from member [a] to
    member [b]: requires an exact dependence solution, zero on every
    other varying loop. *)
let chain_distance (inner : loop) (a : Access.t) (b : Access.t) : int option =
  match Analysis.Dependence.ug_distance_vector a b with
  | Analysis.Dependence.Distance entries ->
      let loops = Analysis.Dependence.common_loops a b in
      let rec go loops entries acc =
        match (loops, entries) with
        | [], [] -> acc
        | (l : loop) :: ls, e :: es -> (
            match e with
            | Analysis.Dependence.Exact d when l.index = inner.index ->
                if acc = None then go ls es (Some d) else None
            | Analysis.Dependence.Exact 0 -> go ls es acc
            | Analysis.Dependence.Any -> go ls es acc
            | Analysis.Dependence.Exact _ | Analysis.Dependence.Coupled -> None)
        | _ -> None
      in
      go loops entries None
  | _ -> None

(* Floor division (exact linearity in the divisor direction:
   [fdiv (x + d*g) g = fdiv x g + d] for any integers, which makes the
   residue below a canonical class key). *)
let fdiv x y =
  let q = x / y and r = x mod y in
  if r <> 0 && r < 0 <> (y < 0) then q - 1 else q

(** A member of a chain partition, with the cheap chain-class key of
    {!partition_chains}: the canonical residue of its subscript constants
    modulo the inner-loop shift vector [g] (per-dimension coefficient of
    the inner index times its step), and its position [pos] along [g].
    Two members of one uniformly generated pattern admit a consistent
    inner-loop distance exactly when their residues agree (the distance
    is then the [pos] difference) — the dependence-system view of
    {!chain_distance} restricted to shifts along the inner direction. *)
type member = {
  acc : Access.t;
  shape : int;
      (** interned enclosing loops and linear subscript terms: for two
          affine members, {!chain_distance} depends only on their shapes
          and the difference of their constants *)
  consts : int array;  (** per-dimension constant parts *)
  shift : int array;  (** [g] *)
  pos : int;
}

let residue m d = m.consts.(d) - (m.pos * m.shift.(d))

let residue_hash m =
  let h = ref (Array.length m.consts) in
  for d = 0 to Array.length m.consts - 1 do
    h := (!h * 31) + residue m d
  done;
  !h

let rec same_residue_from a b d =
  d = Array.length a.consts || (residue a d = residue b d && same_residue_from a b (d + 1))

let same_residue a b =
  Array.length a.consts = Array.length b.consts && same_residue_from a b 0

let shape_hash (a : Access.t) =
  let rec loops h = function
    | [] -> h
    | (l : loop) :: rest ->
        loops ((((((((h * 31) + Hashtbl.hash l.index) * 31) + l.lo) * 31) + l.hi) * 31) + l.step) rest
  in
  let rec dims h = function
    | [] -> h
    | Some (f : Affine.t) :: rest -> dims ((h * 31) + Hashtbl.hash f.terms) rest
    | None :: rest -> dims h rest
  in
  dims (loops 0 a.loops) a.affine

let same_shape (a : Access.t) (b : Access.t) =
  let rec loops (la : loop list) (lb : loop list) =
    la == lb
    ||
    match (la, lb) with
    | [], [] -> true
    | x :: la, y :: lb ->
        String.equal x.index y.index && x.lo = y.lo && x.hi = y.hi && x.step = y.step
        && loops la lb
    | _ -> false
  in
  let rec dims fa fb =
    match (fa, fb) with
    | [], [] -> true
    | Some (f : Affine.t) :: fa, Some (g : Affine.t) :: fb -> f.terms = g.terms && dims fa fb
    | _ -> false
  in
  loops a.loops b.loops && dims a.affine b.affine

(** A solver answer for two shapes and one difference of constants. *)
type solved = { sa : int; sb : int; diff : int array; dist : int option }

let solved_hash a b =
  let h = ref ((a.shape * 65599) + b.shape) in
  for d = 0 to Array.length a.consts - 1 do
    h := (!h * 31) + (a.consts.(d) - b.consts.(d))
  done;
  !h

let rec same_diff s a b d =
  d = Array.length s.diff || (s.diff.(d) = a.consts.(d) - b.consts.(d) && same_diff s a b (d + 1))

let rec find_solved a b = function
  | [] -> raise_notrace Not_found
  | s :: rest ->
      if s.sa = a.shape && s.sb = b.shape && same_diff s a b 0 then s else find_solved a b rest

(** A chain class being built: its first member and every member with
    its distance to the first, in reverse order. *)
type chain_class = { first : member; mutable rev : (member * int) list }

(** Partition a pattern's members into chain classes, each member paired
    with its distance to the class's first member. The fast path puts
    each member in the first class of its residue whose first member
    lies within the trip count (a hash table keyed on the residue finds
    it) and verifies every multi-member class against the dependence
    solver (one {!chain_distance} call per chained member). When the
    check fails — coupled subscripts like FIR's [S[i+j]] or corr's
    [img[i+di][j+dj]] — the original pairwise solver scan runs instead,
    so the result is the one the quadratic algorithm computes, always.
    Solver answers are memoised for the call on the two members' shapes
    and the difference of their constants, so the pairwise scan over a
    uniformly generated set solves one system per distinct offset
    difference rather than one per pair, and a repeated question
    allocates nothing. *)
let partition_chains (inner : loop) (members : Access.t list) :
    (Access.t * int) list list =
  let shift_of (f : Affine.t) = Affine.coeff f inner.index * inner.step in
  let rec moves = function
    | [] -> false
    | Some f :: rest -> shift_of f <> 0 || moves rest
    | None :: _ -> false
  in
  if not (List.for_all (fun (a : Access.t) -> Access.is_affine a && moves a.affine) members)
  then
    (* No inner variation (or a non-affine member): no pair admits a
       distance, every member is its own class. *)
    List.map (fun a -> [ (a, 0) ]) members
  else begin
    let shapes = Hashtbl.create 8 in
    let intern (a : Access.t) =
      let h = shape_hash a in
      let bucket = try Hashtbl.find shapes h with Not_found -> [] in
      match List.find_opt (fun (b, _) -> same_shape a b) bucket with
      | Some (_, id) -> id
      | None ->
          let id = Hashtbl.length shapes in
          Hashtbl.replace shapes h ((a, id) :: bucket);
          id
    in
    let member (a : Access.t) =
      let n = List.length a.affine in
      let consts = Array.make n 0 and shift = Array.make n 0 in
      List.iteri
        (fun d f ->
          let f = Option.get f in
          consts.(d) <- Affine.const_part f;
          shift.(d) <- shift_of f)
        a.affine;
      let rec first_moving d = if shift.(d) <> 0 then d else first_moving (d + 1) in
      let d0 = first_moving 0 in
      { acc = a; shape = intern a; consts; shift; pos = fdiv consts.(d0) shift.(d0) }
    in
    let members = List.map member members in
    let memo = Hashtbl.create 64 in
    let distance a b =
      if Array.length a.consts <> Array.length b.consts then chain_distance inner a.acc b.acc
      else begin
        let h = solved_hash a b in
        let bucket = try Hashtbl.find memo h with Not_found -> [] in
        match find_solved a b bucket with
        | s -> s.dist
        | exception Not_found ->
            let dist = chain_distance inner a.acc b.acc in
            let diff = Array.mapi (fun d c -> c - b.consts.(d)) a.consts in
            Hashtbl.replace memo h ({ sa = a.shape; sb = b.shape; diff; dist } :: bucket);
            dist
      end
    in
    let slow () =
      (* classes in creation order; each member joins the first class
         whose first member it has a distance from *)
      let classes = Array.make (List.length members) { first = List.hd members; rev = [] } in
      let n = ref 0 in
      List.iter
        (fun m ->
          let rec join i =
            if i = !n then begin
              classes.(i) <- { first = m; rev = [ (m, 0) ] };
              incr n
            end
            else
              let c = classes.(i) in
              match distance c.first m with
              | Some _ -> c.rev <- (m, 0) :: c.rev
              | None -> join (i + 1)
          in
          join 0)
        members;
      List.init !n (fun i ->
          let c = classes.(i) in
          List.rev_map
            (fun (m, _) -> (m.acc, Option.value ~default:0 (distance c.first m)))
            c.rev)
    in
    (* The insertion scan of [slow], with the O(1) key test standing in
       for the solver: same residue, and the distance realizable within
       the trip count (the solver's own admissibility cut). *)
    let trip = Ast.loop_trip inner in
    let by_residue = Hashtbl.create 16 in
    let classes = ref [] in
    List.iter
      (fun m ->
        let h = residue_hash m in
        let bucket = try Hashtbl.find by_residue h with Not_found -> [] in
        match
          List.find_opt
            (fun c -> same_residue c.first m && abs (c.first.pos - m.pos) < trip)
            bucket
        with
        | Some c -> c.rev <- (m, c.first.pos - m.pos) :: c.rev
        | None ->
            let c = { first = m; rev = [ (m, 0) ] } in
            Hashtbl.replace by_residue h (bucket @ [ c ]);
            classes := c :: !classes)
      members;
    let verified c =
      match c.rev with
      | [] | [ _ ] -> true
      | _ ->
          List.for_all
            (fun (m, d) ->
              m == c.first || match distance c.first m with Some d' -> d' = d | None -> false)
            c.rev
    in
    if List.for_all verified !classes then
      List.rev_map (fun c -> List.rev_map (fun (m, d) -> (m.acc, d)) c.rev) !classes
    else slow ()
  end

(* Every member of [p] shares the first's coefficient rows and lies in
   [p.spine] itself, as the members of a planned or rehoisted walk do. *)
let shares_rows (p : pattern) (first : Access.t) =
  let rec same (fa : Affine.t option list) (fb : Affine.t option list) =
    match (fa, fb) with
    | [], [] -> true
    | Some f :: fa, Some g :: fb -> (f.terms == g.terms || f.terms = g.terms) && same fa fb
    | _ -> false
  in
  List.for_all (fun (a : Access.t) -> a.loops == p.spine && same first.affine a.affine) p.members

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

(** A class of {!planned_chains} being built: its first member, that
    member's position, the class's number in creation order, and once
    another member joins, every member with its distance to the first,
    in reverse order. *)
type planned_class = {
  lead : Access.t;
  lead_pos : int;
  created : int;
  mutable chained : (Access.t * int) list;
}

(** The chains of [p], a pattern of a planned or rehoisted walk, along
    [inner], in closed form: the classes of two or more members that
    {!partition_chains} finds for [p.members], in its order, member for
    member and distance for distance; every other member is a class of
    its own there. [None] when some member does not share the first's
    coefficient rows over [p.spine].

    The system {!chain_distance} solves for two such members has one
    matrix [A] (a row per dimension, a column per spine loop: the
    coefficient times the loop's step); only its right-hand side, the
    difference of the members' constants, varies. [A] is reduced once.
    When its nonzero columns are dependent, every solution has a free
    variable: each pair is coupled and no class has two members.
    Otherwise a solution is unique, and it is a distance along [inner]
    alone exactly when the difference is a multiple of [inner]'s column
    [g]: when the two members' residues modulo [g] agree. The distance
    is their position difference, realizable within the trip count.
    Members then join classes by hashing the residue, as the fast path
    of {!partition_chains} does, which needs no verification here. *)
let planned_chains (inner : loop) (p : pattern) : (Access.t * int) list list option =
  match p.members with
  | [] -> Some []
  | first :: _ when not (shares_rows p first) -> None
  | first :: _ ->
      let column (l : loop) =
        Array.of_list (List.map (fun f -> Affine.coeff (Option.get f) l.index * l.step) first.affine)
      in
      let g = column inner in
      if Array.for_all (( = ) 0) g || not (independent_columns (List.map column p.spine)) then
        Some []
      else begin
        let rec first_moving d = if g.(d) <> 0 then d else first_moving (d + 1) in
        let d0 = first_moving 0 in
        let pos (a : Access.t) =
          match List.nth a.affine d0 with Some f -> fdiv f.const g.(d0) | None -> assert false
        in
        let rec hash pa h d = function
          | Some (f : Affine.t) :: rest -> hash pa ((h * 31) + f.const - (pa * g.(d))) (d + 1) rest
          | _ -> h
        in
        let rec same_residue pa pb d fa fb =
          match (fa, fb) with
          | Some (f : Affine.t) :: fa, Some (f' : Affine.t) :: fb ->
              f.const - (pa * g.(d)) = f'.const - (pb * g.(d)) && same_residue pa pb (d + 1) fa fb
          | _ -> true
        in
        let trip = Ast.loop_trip inner in
        (* the first class of the residue whose first member lies
           within the trip count *)
        let rec find pa (a : Access.t) = function
          | [] -> raise_notrace Not_found
          | c :: rest ->
              if abs (c.lead_pos - pa) < trip && same_residue c.lead_pos pa 0 c.lead.affine a.affine
              then c
              else find pa a rest
        in
        let by_residue = Hashtbl.create 16 and created = ref 0 and chains = ref [] in
        List.iter
          (fun (a : Access.t) ->
            let pa = pos a in
            let h = hash pa (Array.length g) 0 a.affine in
            let bucket = try Hashtbl.find by_residue h with Not_found -> [] in
            match find pa a bucket with
            | c ->
                if c.chained = [] then begin
                  c.chained <- [ (c.lead, 0) ];
                  chains := c :: !chains
                end;
                c.chained <- (a, c.lead_pos - pa) :: c.chained
            | exception Not_found ->
                Hashtbl.replace by_residue h
                  (bucket @ [ { lead = a; lead_pos = pa; created = !created; chained = [] } ]);
                incr created)
          p.members;
        Some
          (List.map
             (fun c -> List.rev c.chained)
             (List.sort (fun c c' -> compare c.created c'.created) !chains))
      end

let try_chains ~(config : config) ~planned ~written (st : state) (ed : edits)
    (p : pattern) =
  let innermost_varying =
    match List.rev p.varying with [] -> None | l :: _ -> Some l
  in
  let spine_innermost =
    match List.rev p.spine with [] -> None | l :: _ -> Some l
  in
  match (innermost_varying, spine_innermost) with
  | Some inner, Some spine_inner
    when inner.index = spine_inner.index
         && p.spine_only && (not p.scalar_subs)
         && p.has_reads && (not p.has_writes)
         && (not (List.mem p.array written))
         && not p.any_guarded ->
      let classes =
        match if planned then planned_chains inner p else None with
        | Some chains -> chains
        | None -> partition_chains inner p.members
      in
      List.iter
        (fun cls ->
          match cls with
          | [] | [ _ ] -> () (* single member: CSE handles duplicates *)
          | _ ->
              (* Distance d of member m relative to the first member: m
                 touches the first member's element d iterations later.
                 The member with minimal d reads the *newest* data each
                 iteration and leads the chain; a member at delay k reads
                 what the lead read k iterations ago. *)
              let with_d = List.map (fun (a, d) -> (d, a)) cls in
              let with_d = List.sort (fun (x, _) (y, _) -> compare x y) with_d in
              let dmin = fst (List.hd with_d) in
              let dmax = fst (List.nth with_d (List.length with_d - 1)) in
              let span = dmax - dmin in
              let lead = snd (List.hd with_d) in
              let n_regs = span + 1 in
              if span <= 0 || span > config.max_chain_span || st.budget < n_regs
              then ()
              else begin
                let base = String.lowercase_ascii p.array ^ "_h" in
                let regs =
                  List.init n_regs (fun j ->
                      declare st (Printf.sprintf "%s%d" base j) p.elem)
                in
                st.budget <- st.budget - n_regs;
                let reg = Array.get (Array.of_list regs) in
                (* Loads at the top of the innermost body: lead first,
                   then guarded refills for trailing members. *)
                let lead_load =
                  Assign (Lvar (reg span), Arr (p.array, lead.Access.subs))
                in
                let refills =
                  List.filter_map
                    (fun (d, (a : Access.t)) ->
                      let delay = d - dmin in
                      if delay = 0 then None
                      else
                        Some
                          (If
                             ( Bin
                                 ( Lt,
                                   Var inner.index,
                                   Int (inner.lo + (delay * inner.step)) ),
                               [ Assign (Lvar (reg (span - delay)), Arr (p.array, a.subs)) ],
                               [] )))
                    with_d
                in
                List.iter
                  (fun (d, (a : Access.t)) ->
                    let delay = d - dmin in
                    replace ed (p.array, a.Access.subs)
                      { reg = reg (span - delay); scope = Some inner.index; writes = false })
                  with_d;
                ed.inserts <-
                  (Some inner.index, lead_load :: refills, [ Rotate regs ])
                  :: ed.inserts;
                st.report <-
                  {
                    st.report with
                    chain_lengths = (p.array, n_regs) :: st.report.chain_lengths;
                    registers = st.report.registers + n_regs;
                    innermost_peels = max st.report.innermost_peels span;
                  }
              end)
        classes
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Case 4: element replacement within the innermost body.

   Accesses to one array element (same canonical subscripts) repeated in
   the innermost body collapse onto a register: read-only groups load
   once (the paper's loop-independent [S_0] of FIR); read-modify-write
   groups (an accumulator whose carrying loop was fully unrolled) load
   once, accumulate in the register, and store once at the end of the
   body — the within-body face of redundant-write elimination. *)

(** All accesses of [array] among [accesses] (one walk of the body)
    belong to one uniformly generated pattern over the loops around them,
    and none of their subscripts names a scalar in [assigned] (the
    non-index scalars the nest assigns), so distinct constant offsets
    address distinct elements and same-element groups are exact. *)
let single_pattern ~assigned (accesses : Access.t list) array =
  let of_array = List.filter (fun (a : Access.t) -> String.equal a.array array) accesses in
  (* the loop indices around the array's accesses; accesses of one loop
     share their loop list, so each list is read once per run of them *)
  let indices = ref [] and last = ref [] in
  List.iter
    (fun (a : Access.t) ->
      if a.loops != !last then begin
        last := a.loops;
        List.iter
          (fun (l : loop) -> if not (List.mem l.index !indices) then indices := l.index :: !indices)
          a.loops
      end)
    of_array;
  match of_array with
  | [] -> true
  | first :: rest ->
      Access.is_affine first
      && List.for_all (fun a -> Analysis.Reuse.same_pattern !indices first a) rest
      && not (List.exists (subscript_mentions assigned) of_array)

(** A repeated element of the innermost body: occurrence count, whether
    any occurrence writes it, whether the first is an unguarded write. *)
type element = { mutable count : int; mutable has_w : bool; first_w : bool }

(** [single_pattern a] answers {!single_pattern} for array [a] on the
    current kernel; [written] are the arrays it writes. *)
let cse_loads ~written ~single_pattern (st : state) =
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
      let apply_inner f =
        st.kernel <-
          {
            st.kernel with
            k_body =
              (match target with
              | inner :: _ ->
                  edit_loop_body ~index:inner.Ast.index f st.kernel.k_body
              | [] -> f st.kernel.k_body (* loop-free kernel: one block *));
          }
      in
      let assigned = ref None in
      apply_inner (fun body ->
          List.iter (scan_stmt false) body;
          assigned := Some (assigned_scalars ~indices:true body);
          body);
      let assigned = Option.get !assigned in
      (* Decide all replacements first (caching the per-array pattern
         check), then rewrite the body in a single pass. *)
      let single_pattern_cache = Hashtbl.create 8 in
      let single_pattern a =
        match Hashtbl.find_opt single_pattern_cache a with
        | Some v -> v
        | None ->
            let v = single_pattern a in
            Hashtbl.replace single_pattern_cache a v;
            v
      in
      let chosen : (string * expr list, string * bool * bool) Hashtbl.t =
        Hashtbl.create 16
      in
      let pre = ref [] and post = ref [] in
      List.iter
        (fun ((a, subs) as key) ->
          let { count; has_w; first_w = first_is_write } = Hashtbl.find stats key in
          let worth = count > 1 && st.budget > 0 in
          (* A subscript naming a scalar the body assigns (a chain
             register loaded from an indirect subscript's array, say)
             names a different element before and after that
             assignment: the element's load cannot move to the top. *)
          let safe =
            (if has_w then single_pattern a else not (List.mem a written))
            && not (List.exists (mentions assigned) subs)
          in
          if worth && safe then begin
            let elem =
              match Ast.find_array st.kernel a with
              | Some d -> d.a_elem
              | None -> Dtype.int32
            in
            let r = declare st (String.lowercase_ascii a ^ "_s") elem in
            st.budget <- st.budget - 1;
            Hashtbl.replace chosen key (r, has_w, first_is_write);
            if not first_is_write then
              pre := Assign (Lvar r, Arr (a, subs)) :: !pre;
            if has_w then post := Assign (Larr (a, subs), Var r) :: !post;
            st.report <-
              {
                st.report with
                cse_loads = st.report.cse_loads + 1;
                registers = st.report.registers + 1;
              }
          end)
        (List.rev !order);
      if Hashtbl.length chosen > 0 then
        apply_inner (fun body ->
            let rw_read e =
              match e with
              | Arr (a, subs) -> (
                  match Hashtbl.find_opt chosen (a, subs) with
                  | Some (r, _, _) -> Var r
                  | None -> e)
              | e -> e
            in
            let rec rw_stmt s =
              match s with
              | Assign (Larr (a, subs), e) -> (
                  let subs = List.map (map_expr rw_read) subs in
                  let e = map_expr rw_read e in
                  match Hashtbl.find_opt chosen (a, subs) with
                  | Some (r, true, _) -> Assign (Lvar r, e)
                  | _ -> Assign (Larr (a, subs), e))
              | Assign (Lvar v, e) -> Assign (Lvar v, map_expr rw_read e)
              | If (c, t, e) ->
                  If (map_expr rw_read c, List.map rw_stmt t, List.map rw_stmt e)
              | For l -> For { l with body = List.map rw_stmt l.body }
              | Rotate rs -> Rotate rs
            in
            List.rev !pre @ List.map rw_stmt body @ List.rev !post)

(* ------------------------------------------------------------------ *)

(** Element CSE's single-pattern test on [k], whose written arrays'
    accesses are those [w] found: a planned or rehoisted walk answers it
    from its patterns (every access there is in one of them, with loop-
    index subscripts); a collected one from its accesses, collected
    afresh when [k] changed subscripts through replaced reads. *)
let single (w : walk) (k : kernel) : string -> bool =
  match w.origin with
  | Planned _ | Rehoisted ->
      fun a -> List.compare_length_with (List.filter (fun p -> String.equal p.array a) w.patterns) 1 <= 0
  | Walked accesses ->
      let accesses =
        if k == w.walked || not w.indirect then Lazy.from_val accesses
        else lazy (Access.collect k.k_body)
      in
      let assigned = lazy (assigned_scalars ~indices:false k.k_body) in
      fun a -> single_pattern ~assigned:(Lazy.force assigned) (Lazy.force accesses) a

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
     from the plan when it covers [k]. Hoist/sink may edit any array, so
     a hoist that edits forces a second walk, derived from a planned
     first one. Banks and chains only replace reads of arrays the kernel
     never writes and insert loads of those arrays: every other array's
     accesses, and so its patterns, stay as the walk found them, unless
     a subscript reads a replaced array. Without such indirect
     subscripts, chains read the walk that banks read (a banked pattern
     gains guarded loads and never chains) and element CSE reads the
     written arrays' facts from the last walk. *)
  let w =
    ref
      (match Option.bind plan (fun (plan, vector) -> instantiate plan vector k) with
      | Some w -> w
      | None -> walk k)
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
        rewalk (walk st.kernel);
        !w.patterns
      end
      else List.filter (fun p -> not (List.memq p !banked)) !w.patterns
    in
    let planned = match !w.origin with Planned _ | Rehoisted -> true | Walked _ -> false in
    let ed = new_edits () in
    List.iter (fun p -> try_chains ~config ~planned ~written st ed p) ps;
    if Hashtbl.length ed.repl > 0 then edit_body st ed
  end;
  cse_loads ~written ~single_pattern:(single !w st.kernel) st;
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
