(** Array footprints by enumeration with a partial evaluator (loop
    indices and compile-time-known scalars, so LICM temporaries in
    subscripts resolve): guards it cannot decide feed the may-sets of
    both branches, and a read in a ternary branch only [may_read]. *)

open Ir

type array_fp = {
  size : int;  (** linearized element count *)
  flags : Bytes.t;  (** per element, the bits of the sets it is in *)
  mutable oob_read : bool;  (** some read resolved outside the box *)
  mutable oob_write : bool;
}

type sets = int

let may_read = 1
let must_read = 2
let may_write = 4
let must_write = 8
let mem fp sets i = Char.code (Bytes.get fp.flags i) land sets <> 0

let add fp sets i =
  Bytes.set fp.flags i
    (Char.unsafe_chr ((Char.code (Bytes.get fp.flags i) lor sets) land 0xff))

let count fp sets =
  Bytes.fold_left
    (fun n c -> if Char.code c land sets <> 0 then n + 1 else n)
    0 fp.flags

let not_covered (a, sa) (b, sb) =
  let count = ref 0 and first = ref (-1) in
  for i = 0 to a.size - 1 do
    if mem a sa i && not (mem b sb i) then begin
      incr count;
      if !first < 0 then first := i
    end
  done;
  (!count, !first)

type t = {
  arrays : (string * array_fp) list;  (** enumerable arrays, sorted *)
  skipped : (string * string) list;  (** array name, reason *)
}

(** Default budget on statement executions during enumeration; one mm
    lattice point costs ~1.3e5, so this admits every kernel in the repo
    with two orders of magnitude to spare. *)
let default_max_points = 1 lsl 24

let max_elements = 1 lsl 24

(* The element count of an array with extents [dims], or [-1] when it
   exceeds [max_elements] (an overflowing product included). *)
let elements dims =
  if List.mem 0 dims then 0
  else
    List.fold_left
      (fun n d -> if n < 0 || d < 0 || n > max_elements / d then -1 else n * d)
      1 dims

exception Skip_all of string

(* Saturating sums and products of non-negative counts. *)
let sat_add a b = if a > max_int - b then max_int else a + b

let sat_mul a b = if a <> 0 && b > max_int / a then max_int else a * b

(** Iterations of [l] (positive stride), without overflow: a range wider
    than [max_int] counts as [max_int] iterations. *)
let trip (l : Ast.loop) =
  if l.Ast.hi <= l.Ast.lo then 0
  else
    let d = l.Ast.hi - l.Ast.lo in
    if d < 0 then max_int else ((d - 1) / l.Ast.step) + 1

(** Statement executions, saturating: the enumeration below executes at
    most this many, so refusing a kernel whose count exceeds the budget
    upfront bounds the whole walk. *)
let rec work_of_body body =
  List.fold_left
    (fun acc s ->
      sat_add acc
        (match s with
        | Ast.Assign _ | Ast.Rotate _ -> 1
        | Ast.If (_, t, e) ->
            sat_add 1 (sat_add (work_of_body t) (work_of_body e))
        | Ast.For l ->
            let trip = if l.Ast.step <= 0 then 0 else trip l in
            sat_add 1 (sat_mul trip (work_of_body l.Ast.body))))
    0 body

(* ------------------------------------------------------------------ *)
(* Slicing

   Only a scalar whose value can reach a subscript or a guard can change
   a footprint: the variables of every subscript and guard, closed over
   the scalar assignments that define them. Those are tracked; any other
   assignment keeps only its array reads. A rotation only makes its
   registers unknown, so it needs no closure and vanishes when it
   rotates no tracked register. *)

let relevant (body : Ast.stmt list) : (string, unit) Hashtbl.t =
  let rel = Hashtbl.create 16 in
  let grew = ref false in
  let rec mark (e : Ast.expr) =
    match e with
    | Ast.Int _ -> ()
    | Ast.Var v ->
        if not (Hashtbl.mem rel v) then begin
          Hashtbl.add rel v ();
          grew := true
        end
    | Ast.Arr (_, subs) -> List.iter mark subs
    | Ast.Un (_, a) -> mark a
    | Ast.Bin (_, a, b) ->
        mark a;
        mark b
    | Ast.Cond (c, t, e') ->
        mark c;
        mark t;
        mark e'
  in
  let rec subscripts (e : Ast.expr) =
    match e with
    | Ast.Int _ | Ast.Var _ -> ()
    | Ast.Arr (_, subs) -> List.iter mark subs
    | Ast.Un (_, a) -> subscripts a
    | Ast.Bin (_, a, b) ->
        subscripts a;
        subscripts b
    | Ast.Cond (c, t, e') ->
        subscripts c;
        subscripts t;
        subscripts e'
  in
  let rec seed (s : Ast.stmt) =
    match s with
    | Ast.Assign (Ast.Lvar _, e) -> subscripts e
    | Ast.Assign (Ast.Larr (_, subs), e) ->
        List.iter mark subs;
        subscripts e
    | Ast.If (c, t, e) ->
        mark c;
        List.iter seed t;
        List.iter seed e
    | Ast.For l -> List.iter seed l.Ast.body
    | Ast.Rotate _ -> ()
  in
  let rec close (s : Ast.stmt) =
    match s with
    | Ast.Assign (Ast.Lvar v, e) -> if Hashtbl.mem rel v then mark e
    | Ast.Assign (Ast.Larr _, _) | Ast.Rotate _ -> ()
    | Ast.If (_, t, e) ->
        List.iter close t;
        List.iter close e
    | Ast.For l -> List.iter close l.Ast.body
  in
  List.iter seed body;
  while !grew do
    grew := false;
    List.iter close body
  done;
  rel

(* ------------------------------------------------------------------ *)
(* Slot-compiled kernels

   Every name is resolved before enumeration starts: a tracked scalar to
   an int slot of the environment (a value plus a known flag), an array
   to its footprint record. Partial evaluation tracks loop indices and
   compile-time-known scalars; it raises [Unknown] where the value is
   not known. *)

exception Unknown

type cexpr =
  | C_int of int
  | C_var of int  (** slot *)
  | C_read  (** an array element: never known *)
  | C_un of Ast.unop * cexpr
  | C_bin of Ast.binop * cexpr * cexpr
  | C_cond of cexpr * cexpr * cexpr

type target =
  | Declared of string * int array * array_fp  (** name, extents, footprint *)
  | Undeclared of string

(* One array access: where it lands, whether it stores, whether it sits
   in a ternary branch (and so never certainly executes), and its
   [arity] subscripts. [code.(d)] is the offset in [code] of subscript
   [d]: an affine one as [const; n; slot_1; coeff_1; ...; slot_n;
   coeff_n], any other as [j; -1], the [j]th of [general].

   A subscript built from integers, variables, [+], [-], negation and
   products with a variable-free factor is affine. Native integers wrap,
   which makes them a ring, so the expanded form evaluates to exactly
   what the tree does. Every variable of the tree is listed, a cancelled
   one with coefficient 0: an unknown variable makes the subscript
   unevaluable even then. *)
type access = {
  target : target;
  write : bool;
  branch : bool;
  arity : int;
  code : int array;
  general : cexpr array;
}

(* Each statement carries the array accesses it performs, in evaluation
   order (subscripts before the element they index). *)
type cstmt =
  | C_touch of access list  (** accesses and nothing else *)
  | C_set of access list * int * cexpr  (** store to a tracked slot *)
  | C_if of access list * cexpr * cstmt list * cstmt list
  | C_for of int * Ast.loop * cstmt list  (** index slot *)
  | C_scan of int * Ast.loop * cstmt list
      (** a loop whose sliced body is [C_touch]es alone *)
  | C_forget of int list  (** a rotation of tracked registers *)

let rec eval vals known (e : cexpr) : int =
  match e with
  | C_int n -> n
  | C_var s -> if known.(s) then vals.(s) else raise Unknown
  | C_read -> raise Unknown
  | C_un (op, a) -> (
      let va = eval vals known a in
      match op with
      | Ast.Neg -> -va
      | Ast.Not -> if va = 0 then 1 else 0
      | Ast.Bnot -> lnot va
      | Ast.Abs -> abs va)
  | C_bin (op, a, b) -> (
      let va = eval vals known a in
      let vb = eval vals known b in
      let bool_ c = if c then 1 else 0 in
      match op with
      | Ast.Add -> va + vb
      | Ast.Sub -> va - vb
      | Ast.Mul -> va * vb
      | Ast.Div -> if vb = 0 then raise Unknown else va / vb
      | Ast.Mod -> if vb = 0 then raise Unknown else va mod vb
      | Ast.Lt -> bool_ (va < vb)
      | Ast.Le -> bool_ (va <= vb)
      | Ast.Gt -> bool_ (va > vb)
      | Ast.Ge -> bool_ (va >= vb)
      | Ast.Eq -> bool_ (va = vb)
      | Ast.Ne -> bool_ (va <> vb)
      | Ast.And -> bool_ (va <> 0 && vb <> 0)
      | Ast.Or -> bool_ (va <> 0 || vb <> 0)
      | Ast.Band -> va land vb
      | Ast.Bor -> va lor vb
      | Ast.Bxor -> va lxor vb
      | Ast.Shl -> if vb < 0 || vb > 62 then raise Unknown else va lsl vb
      | Ast.Shr -> if vb < 0 || vb > 62 then raise Unknown else va asr vb
      | Ast.Min -> min va vb
      | Ast.Max -> max va vb)
  | C_cond (c, t, e') ->
      eval vals known (if eval vals known c <> 0 then t else e')

(* The value of subscript [d] of [a]. *)
let subscript vals known (a : access) d =
  let code = a.code in
  let p = code.(d) in
  let n = code.(p + 1) in
  if n < 0 then eval vals known a.general.(code.(p))
  else begin
    let v = ref code.(p) in
    for j = 0 to n - 1 do
      let s = code.(p + 2 + (2 * j)) in
      if not known.(s) then raise Unknown;
      v := !v + (code.(p + 3 + (2 * j)) * vals.(s))
    done;
    !v
  end

(* The variable occurrences of [e] when it is affine, else [-1]. *)
let rec affine_vars (e : Ast.expr) =
  match e with
  | Ast.Int _ -> 0
  | Ast.Var _ -> 1
  | Ast.Un (Ast.Neg, a) -> affine_vars a
  | Ast.Bin ((Ast.Add | Ast.Sub | Ast.Mul) as op, a, b) ->
      let na = affine_vars a and nb = affine_vars b in
      if na < 0 || nb < 0 || (op = Ast.Mul && na > 0 && nb > 0) then -1
      else na + nb
  | _ -> -1

(* The value of a variable-free affine expression. *)
let rec constant (e : Ast.expr) =
  match e with
  | Ast.Int n -> n
  | Ast.Un (_, a) -> -constant a
  | Ast.Bin (Ast.Add, a, b) -> constant a + constant b
  | Ast.Bin (Ast.Sub, a, b) -> constant a - constant b
  | Ast.Bin (_, a, b) -> constant a * constant b
  | Ast.Var _ | Ast.Arr _ | Ast.Cond _ -> 0

(* Words of [code] for the subscripts [subs] after their offsets. *)
let rec code_words = function
  | [] -> 0
  | e :: rest -> 2 + (2 * max 0 (affine_vars e)) + code_words rest

(* How many of [subs] are not affine. *)
let rec generals = function
  | [] -> 0
  | e :: rest -> (if affine_vars e < 0 then 1 else 0) + generals rest

(* Compile [k]'s sliced body against fresh footprint records; returns
   the compiled body, the slot count and the arrays by name (the last
   of duplicate declarations wins). A declaration of more than
   [max_elements] elements is [skip]ped instead. *)
let compile ~skip (k : Ast.kernel) =
  let arrays = Hashtbl.create 8 in
  List.iter
    (fun (a : Ast.array_decl) ->
      let name = a.Ast.a_name and size = elements a.Ast.a_dims in
      if size < 0 then
        skip name (Printf.sprintf "more than %d elements" max_elements)
      else
        Hashtbl.replace arrays name
          (Declared
             ( name,
               Array.of_list a.Ast.a_dims,
               {
                 size;
                 flags = Bytes.make size '\000';
                 oob_read = false;
                 oob_write = false;
               } )))
    k.Ast.k_arrays;
  let tracked = relevant k.Ast.k_body in
  let slots = Hashtbl.create 16 in
  let slot v =
    match Hashtbl.find slots v with
    | s -> s
    | exception Not_found ->
        let s = Hashtbl.length slots in
        Hashtbl.add slots v s;
        s
  in
  let rec cexpr (e : Ast.expr) =
    match e with
    | Ast.Int n -> C_int n
    | Ast.Var v -> C_var (slot v)
    | Ast.Arr _ -> C_read
    | Ast.Un (op, a) -> C_un (op, cexpr a)
    | Ast.Bin (op, a, b) -> C_bin (op, cexpr a, cexpr b)
    | Ast.Cond (c, t, e') -> C_cond (cexpr c, cexpr t, cexpr e')
  in
  (* Add [m] times the affine [e] to the form at [code.(p)]. *)
  let rec add code p m (e : Ast.expr) =
    match e with
    | Ast.Int c -> code.(p) <- code.(p) + (m * c)
    | Ast.Var v ->
        let s = slot v and n = code.(p + 1) in
        let j = ref 0 in
        while !j < n && code.(p + 2 + (2 * !j)) <> s do
          incr j
        done;
        let at = p + 2 + (2 * !j) in
        if !j = n then begin
          code.(at) <- s;
          code.(p + 1) <- n + 1
        end;
        code.(at + 1) <- code.(at + 1) + m
    | Ast.Un (_, a) -> add code p (-m) a
    | Ast.Bin (Ast.Add, a, b) ->
        add code p m a;
        add code p m b
    | Ast.Bin (Ast.Sub, a, b) ->
        add code p m a;
        add code p (-m) b
    | Ast.Bin (_, a, b) ->
        if affine_vars b = 0 then add code p (m * constant b) a
        else add code p (m * constant a) b
    | Ast.Arr _ | Ast.Cond _ -> ()
  in
  let rec fill code general d p g = function
    | [] -> ()
    | e :: rest ->
        code.(d) <- p;
        let n = affine_vars e in
        if n >= 0 then begin
          add code p 1 e;
          fill code general (d + 1) (p + 2 + (2 * n)) g rest
        end
        else begin
          code.(p) <- g;
          code.(p + 1) <- -1;
          general.(g) <- cexpr e;
          fill code general (d + 1) (p + 2) (g + 1) rest
        end
  in
  let access ~write ~branch a subs =
    let target =
      match Hashtbl.find arrays a with
      | t -> t
      | exception Not_found -> Undeclared a
    in
    let arity = List.length subs in
    let code = Array.make (arity + code_words subs) 0 in
    let general =
      match generals subs with 0 -> [||] | n -> Array.make n C_read
    in
    fill code general 0 arity 0 subs;
    { target; write; branch; arity; code; general }
  in
  (* The array reads of [e] (of [subs]) in evaluation order, then
     [tail]; [branch] when they sit in a ternary branch. *)
  let rec reads ~branch (e : Ast.expr) tail =
    match e with
    | Ast.Int _ | Ast.Var _ -> tail
    | Ast.Arr (a, subs) ->
        all_reads ~branch subs (access ~write:false ~branch a subs :: tail)
    | Ast.Bin (_, a, b) -> reads ~branch a (reads ~branch b tail)
    | Ast.Un (_, a) -> reads ~branch a tail
    | Ast.Cond (c, t, e') ->
        reads ~branch c (reads ~branch:true t (reads ~branch:true e' tail))
  and all_reads ~branch subs tail =
    match subs with
    | [] -> tail
    | e :: rest -> reads ~branch e (all_reads ~branch rest tail)
  in
  let is_touch = function C_touch _ -> true | _ -> false in
  let rec block stmts = List.fold_right cstmt stmts []
  and cstmt (s : Ast.stmt) rest =
    match s with
    | Ast.Assign (Ast.Lvar v, e) -> (
        let rs = reads ~branch:false e [] in
        if Hashtbl.mem tracked v then C_set (rs, slot v, cexpr e) :: rest
        else match rs with [] -> rest | rs -> C_touch rs :: rest)
    | Ast.Assign (Ast.Larr (a, subs), e) ->
        let store = access ~write:true ~branch:false a subs in
        C_touch (all_reads ~branch:false subs (reads ~branch:false e [ store ]))
        :: rest
    | Ast.If (c, t, e) ->
        C_if (reads ~branch:false c [], cexpr c, block t, block e) :: rest
    | Ast.For l ->
        let i = slot l.Ast.index and body = block l.Ast.body in
        (if List.for_all is_touch body then C_scan (i, l, body)
         else C_for (i, l, body))
        :: rest
    | Ast.Rotate rs -> (
        match List.filter (Hashtbl.mem tracked) rs with
        | [] -> rest
        | rs -> C_forget (List.map slot rs) :: rest)
  in
  let body = block k.Ast.k_body in
  (body, Hashtbl.length slots, arrays)

(* Affine values solved in closed form stay within this magnitude, so
   no product or sum below can wrap. *)
let small x = x > -(1 lsl 30) && x < 1 lsl 30

(* Floor and ceiling of [x / y], [y <> 0]. *)
let fdiv x y =
  let q = x / y in
  if x mod y <> 0 && (x < 0) <> (y < 0) then q - 1 else q

let cdiv x y = -fdiv (-x) y

let footprint ?(max_points = default_max_points) (k : Ast.kernel) : t =
  let skipped : (string, string) Hashtbl.t = Hashtbl.create 4 in
  let skip a reason =
    if not (Hashtbl.mem skipped a) then Hashtbl.add skipped a reason
  in
  let body, nslots, arrays = compile ~skip k in
  let vals = Array.make nslots 0 and known = Array.make nslots false in
  (* Linearize row-major, subscript by subscript; raises [Unknown] when
     a subscript is unevaluable, [-1] when evaluable but outside the
     declared box (an arity mismatch too, once the common prefix is in
     the box). *)
  let rec linear acc d dims (a : access) =
    if d = Array.length dims || d = a.arity then
      if Array.length dims = a.arity then acc else -1
    else
      let v = subscript vals known a d in
      if v < 0 || v >= dims.(d) then -1
      else linear ((acc * dims.(d)) + v) (d + 1) dims a
  in
  let mark fp (a : access) ~certain idx =
    let certain = certain && not a.branch in
    if idx < 0 then
      if a.write then fp.oob_write <- true else fp.oob_read <- true
    else
      add fp
        (match (a.write, certain) with
        | true, true -> may_write lor must_write
        | true, false -> may_write
        | false, true -> may_read lor must_read
        | false, false -> may_read)
        idx
  in
  let touch ~certain (a : access) =
    match a.target with
    | Undeclared name -> skip name "not declared"
    | Declared (name, dims, fp) -> (
        match linear 0 0 dims a with
        | exception Unknown -> skip name "unevaluable subscript"
        | idx -> mark fp a ~certain idx)
  in
  let rec touches ~certain = function
    | [] -> ()
    | a :: rest ->
        touch ~certain a;
        touches ~certain rest
  in
  (* Affine subscript [d] of [a] inside a loop with index slot [i], as
     [!base + !coef * i]; [false] when another of its variables is
     unknown. *)
  let base = ref 0 and coef = ref 0 in
  let parts i (a : access) d =
    let code = a.code in
    let p = code.(d) in
    base := code.(p);
    coef := 0;
    let known_rest = ref true in
    for j = 0 to code.(p + 1) - 1 do
      let s = code.(p + 2 + (2 * j)) and c = code.(p + 3 + (2 * j)) in
      if s = i then coef := c
      else if known.(s) then base := !base + (c * vals.(s))
      else known_rest := false
    done;
    !known_rest
  in
  (* The touches of [a] over the [n] iterations of loop [l] (index slot
     [i]), in closed form: the subscripts are solved left to right, as
     [linear] evaluates them, narrowing [tlo..thi] to the iterations
     whose subscripts so far land in the box; those it drops are out of
     the box. Touches nothing and returns [false] where a subscript is
     not affine or its values could wrap: the caller then enumerates
     the access. *)
  let closed ~certain i (l : Ast.loop) n (a : access) =
    match a.target with
    | Undeclared name ->
        skip name "not declared";
        true
    | Declared (name, dims, fp) ->
        let m = min (Array.length dims) a.arity in
        let affine =
          ref (small l.Ast.lo && small l.Ast.hi && small l.Ast.step)
        in
        for d = 0 to m - 1 do
          if a.code.(a.code.(d) + 1) < 0 then affine := false
        done;
        if not !affine then false
        else begin
          let tlo = ref 0 and thi = ref (n - 1) in
          let out = ref false and unknown = ref false and fits = ref true in
          let d = ref 0 in
          while !d < m && !tlo <= !thi && (not !unknown) && !fits do
            if not (parts i a !d) then unknown := true
            else if not (small !base && small !coef) then fits := false
            else begin
              (* the subscript at iteration t is [v0 + dv * t] *)
              let ext = dims.(!d) in
              let v0 = !base + (!coef * l.Ast.lo) and dv = !coef * l.Ast.step in
              let lo' =
                if dv = 0 then if v0 >= 0 && v0 < ext then !tlo else !thi + 1
                else max !tlo (cdiv (if dv > 0 then -v0 else ext - 1 - v0) dv)
              and hi' =
                if dv = 0 then !thi
                else min !thi (fdiv (if dv > 0 then ext - 1 - v0 else -v0) dv)
              in
              if lo' > !tlo || hi' < !thi then out := true;
              tlo := lo';
              thi := hi';
              incr d
            end
          done;
          if !fits then begin
            if !tlo <= !thi then
              if !unknown then skip name "unevaluable subscript"
              else if m < Array.length dims || m < a.arity then out := true
              else begin
                (* the linear index at [tlo], and its stride *)
                let at = ref 0 and next = ref 0 in
                for d = 0 to m - 1 do
                  ignore (parts i a d);
                  let v = !base + (!coef * (l.Ast.lo + (!tlo * l.Ast.step))) in
                  at := (!at * dims.(d)) + v;
                  next := (!next * dims.(d)) + v + (!coef * l.Ast.step)
                done;
                let stride = !next - !at in
                for t = 0 to !thi - !tlo do
                  mark fp a ~certain (!at + (t * stride))
                done
              end;
            if !out then mark fp a ~certain (-1)
          end;
          !fits
        end
  in
  let iterations (l : Ast.loop) =
    if l.Ast.step <= 0 then raise (Skip_all "non-positive loop stride");
    trip l
  in
  let rec scan ~certain i l n = function
    | [] -> ()
    | a :: rest ->
        if not (closed ~certain i l n a) then
          for t = 0 to n - 1 do
            vals.(i) <- l.Ast.lo + (t * l.Ast.step);
            touch ~certain a
          done;
        scan ~certain i l n rest
  in
  let rec scan_block ~certain i l n = function
    | [] -> ()
    | s :: rest ->
        (match s with C_touch rs -> scan ~certain i l n rs | _ -> ());
        scan_block ~certain i l n rest
  in
  let rec walk ~certain = function
    | [] -> ()
    | s :: rest ->
        stmt ~certain s;
        walk ~certain rest
  and stmt ~certain s =
    match s with
    | C_touch rs -> touches ~certain rs
    | C_set (rs, v, e) ->
        touches ~certain rs;
        if not certain then known.(v) <- false
        else begin
          match eval vals known e with
          | n ->
              vals.(v) <- n;
              known.(v) <- true
          | exception Unknown -> known.(v) <- false
        end
    | C_if (rs, c, t, e) -> (
        touches ~certain rs;
        match eval vals known c with
        | vc -> walk ~certain (if vc <> 0 then t else e)
        | exception Unknown ->
            walk ~certain:false t;
            walk ~certain:false e)
    | C_for (i, l, body) ->
        for t = 0 to iterations l - 1 do
          vals.(i) <- l.Ast.lo + (t * l.Ast.step);
          known.(i) <- true;
          walk ~certain body
        done;
        known.(i) <- false
    | C_scan (i, l, body) ->
        let n = iterations l in
        if n > 0 then begin
          known.(i) <- true;
          scan_block ~certain i l n body
        end;
        known.(i) <- false
    | C_forget rs ->
        (* Register values permute: forget anything we knew about them. *)
        List.iter (fun r -> known.(r) <- false) rs
  in
  (* Known [Param]/[Temp] scalars have no compile-time value: only loop
     indices and scalars assigned evaluable expressions are known. *)
  (try
     if work_of_body k.Ast.k_body > max_points then
       raise (Skip_all "iteration space exceeds the point budget");
     walk ~certain:true body
   with Skip_all reason ->
     List.iter
       (fun (a : Ast.array_decl) -> skip a.Ast.a_name reason)
       k.Ast.k_arrays);
  let arrays =
    Hashtbl.fold
      (fun name target acc ->
        match target with
        | Declared (_, _, fp) when not (Hashtbl.mem skipped name) ->
            (name, fp) :: acc
        | _ -> acc)
      arrays []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let skipped =
    Hashtbl.fold (fun name reason acc -> (name, reason) :: acc) skipped []
    |> List.sort compare
  in
  { arrays; skipped }
