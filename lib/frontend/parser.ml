(** Recursive-descent parser for the C subset of the paper (Section 2.4):
    declarations of scalar and (multi-dimensional) array variables followed
    by loop-nest code. Loop bounds must fold to constants; strides are
    fixed. The intrinsics [abs], [min], [max] and the compiler-output
    construct [rotate_registers] are accepted so that pretty-printed
    transformed code round-trips. *)

open Ir

exception Error of Lexer.pos * string

let error pos fmt = Format.kasprintf (fun msg -> raise (Error (pos, msg))) fmt

(* The names a statement may use are checked where the parser reads
   them, so each error is positioned at the offending identifier.
   Declarations precede statements, so every declaration is known by
   then. Declarations and loop bounds are [Unchecked]: a bound must fold
   to a constant, and {!const_eval} reports one that does not. *)
type scope = Unchecked | Checked of string list  (** enclosing loop indices *)

type state = {
  toks : Lexer.located array;
  mutable pos : int;
  mutable arrays : Ast.array_decl list;
  mutable scalars : Ast.scalar_decl list;
  mutable scope : scope;
}

let current st = st.toks.(st.pos)
let peek_tok st = (current st).tok
let peek_pos st = (current st).pos

let advance st =
  if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let expect st tok =
  let t = current st in
  if t.tok = tok then advance st
  else
    error t.pos "expected '%s' but found '%s'" (Token.to_string tok)
      (Token.to_string t.tok)

let accept st tok =
  if peek_tok st = tok then begin
    advance st;
    true
  end
  else false

let ident st =
  match current st with
  | { tok = Token.IDENT name; _ } ->
      advance st;
      name
  | t -> error t.pos "expected identifier, found '%s'" (Token.to_string t.tok)

(* ------------------------------------------------------------------ *)
(* Name checks *)

let scalar_declared st v =
  List.exists (fun (s : Ast.scalar_decl) -> s.s_name = v) st.scalars

let check_var st pos v =
  match st.scope with
  | Checked indices when not (List.mem v indices || scalar_declared st v) ->
      error pos "use of undeclared variable '%s'" v
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Types *)

(* Fixed-width names (the pretty printer's output) double as type
   specifiers: int8, int16, int32, uint8, uint16, uint32. *)
let fixed_width_type = function
  | "int8" -> Some (Dtype.make ~bits:8 ~signed:true)
  | "int16" -> Some (Dtype.make ~bits:16 ~signed:true)
  | "int32" -> Some (Dtype.make ~bits:32 ~signed:true)
  | "uint8" -> Some (Dtype.make ~bits:8 ~signed:false)
  | "uint16" -> Some (Dtype.make ~bits:16 ~signed:false)
  | "uint32" -> Some (Dtype.make ~bits:32 ~signed:false)
  | _ -> None

let is_type_start = function
  | Token.KW_INT | Token.KW_CHAR | Token.KW_SHORT | Token.KW_LONG
  | Token.KW_UNSIGNED | Token.KW_SIGNED ->
      true
  | Token.IDENT name -> fixed_width_type name <> None
  | _ -> false

let rec parse_type st : Dtype.t =
  let pos = peek_pos st in
  match peek_tok st with
  | Token.IDENT name when fixed_width_type name <> None ->
      advance st;
      Option.get (fixed_width_type name)
  | _ -> parse_c_type st pos

and parse_c_type st pos : Dtype.t =
  let signed = ref true in
  let bits = ref None in
  let rec go () =
    match peek_tok st with
    | Token.KW_UNSIGNED ->
        advance st;
        signed := false;
        go ()
    | Token.KW_SIGNED ->
        advance st;
        signed := true;
        go ()
    | Token.KW_CHAR ->
        advance st;
        bits := Some 8;
        go ()
    | Token.KW_SHORT ->
        advance st;
        bits := Some 16;
        (* absorb the optional "int" of "short int" *)
        ignore (accept st Token.KW_INT);
        go ()
    | Token.KW_LONG ->
        advance st;
        bits := Some 32;
        ignore (accept st Token.KW_INT);
        go ()
    | Token.KW_INT ->
        advance st;
        if !bits = None then bits := Some 32;
        go ()
    | _ -> ()
  in
  go ();
  match !bits with
  | Some b -> Dtype.make ~bits:b ~signed:!signed
  | None -> error pos "incomplete type specifier"

(* ------------------------------------------------------------------ *)
(* Expressions: precedence climbing *)

let binop_of_token = function
  | Token.BAR_BAR -> Some (Ast.Or, 1)
  | Token.AMP_AMP -> Some (Ast.And, 2)
  | Token.BAR -> Some (Ast.Bor, 3)
  | Token.CARET -> Some (Ast.Bxor, 4)
  | Token.AMP -> Some (Ast.Band, 5)
  | Token.EQ -> Some (Ast.Eq, 6)
  | Token.NE -> Some (Ast.Ne, 6)
  | Token.LT -> Some (Ast.Lt, 7)
  | Token.LE -> Some (Ast.Le, 7)
  | Token.GT -> Some (Ast.Gt, 7)
  | Token.GE -> Some (Ast.Ge, 7)
  | Token.SHL -> Some (Ast.Shl, 8)
  | Token.SHR -> Some (Ast.Shr, 8)
  | Token.PLUS -> Some (Ast.Add, 9)
  | Token.MINUS -> Some (Ast.Sub, 9)
  | Token.STAR -> Some (Ast.Mul, 10)
  | Token.SLASH -> Some (Ast.Div, 10)
  | Token.PERCENT -> Some (Ast.Mod, 10)
  | _ -> None

let rec parse_expr st : Ast.expr =
  let cond = parse_binary st 1 in
  if accept st Token.QUESTION then begin
    let t = parse_expr st in
    expect st Token.COLON;
    let e = parse_expr st in
    Ast.Cond (cond, t, e)
  end
  else cond

and parse_binary st min_prec : Ast.expr =
  let lhs = parse_unary st in
  let rec loop lhs =
    match binop_of_token (peek_tok st) with
    | Some (op, p) when p >= min_prec ->
        advance st;
        let rhs = parse_binary st (p + 1) in
        loop (Ast.Bin (op, lhs, rhs))
    | _ -> lhs
  in
  loop lhs

and parse_unary st : Ast.expr =
  match peek_tok st with
  | Token.MINUS ->
      advance st;
      Ast.Un (Ast.Neg, parse_unary st)
  | Token.BANG ->
      advance st;
      Ast.Un (Ast.Not, parse_unary st)
  | Token.TILDE ->
      advance st;
      Ast.Un (Ast.Bnot, parse_unary st)
  | Token.PLUS ->
      advance st;
      parse_unary st
  | _ -> parse_primary st

and parse_primary st : Ast.expr =
  let t = current st in
  match t.tok with
  | Token.INT_LIT n ->
      advance st;
      Ast.Int n
  | Token.LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st Token.RPAREN;
      e
  | Token.IDENT name -> (
      advance st;
      match peek_tok st with
      | Token.LPAREN -> parse_call st t.pos name
      | Token.LBRACKET -> Ast.Arr (name, parse_array_subscripts st t.pos name)
      | _ ->
          check_var st t.pos name;
          Ast.Var name)
  | tok -> error t.pos "expected expression, found '%s'" (Token.to_string tok)

and parse_subscripts st =
  let rec go acc =
    if accept st Token.LBRACKET then begin
      let e = parse_expr st in
      expect st Token.RBRACKET;
      go (e :: acc)
    end
    else List.rev acc
  in
  go []

(* The subscripts of array [a], named at [pos], checked against its
   declaration. *)
and parse_array_subscripts st pos a =
  match st.scope with
  | Unchecked -> parse_subscripts st
  | Checked _ ->
      let d =
        match List.find_opt (fun (d : Ast.array_decl) -> d.a_name = a) st.arrays with
        | Some d -> d
        | None -> error pos "use of undeclared array '%s'" a
      in
      let subs = parse_subscripts st in
      if List.length subs <> List.length d.a_dims then
        error pos "array '%s' has %d dimension(s) but %d subscript(s)" a
          (List.length d.a_dims) (List.length subs);
      subs

and parse_call st pos name =
  expect st Token.LPAREN;
  let args =
    if peek_tok st = Token.RPAREN then []
    else
      let rec go acc =
        let e = parse_expr st in
        if accept st Token.COMMA then go (e :: acc) else List.rev (e :: acc)
      in
      go []
  in
  expect st Token.RPAREN;
  match (name, args) with
  | "abs", [ a ] -> Ast.Un (Ast.Abs, a)
  | "min", [ a; b ] -> Ast.Bin (Ast.Min, a, b)
  | "max", [ a; b ] -> Ast.Bin (Ast.Max, a, b)
  | _ ->
      error pos "unknown function '%s' with %d argument(s)" name
        (List.length args)

(* ------------------------------------------------------------------ *)
(* Constant folding for loop bounds *)

let rec const_eval st (e : Ast.expr) : int =
  let pos = peek_pos st in
  match e with
  | Ast.Int n -> n
  | Ast.Un (Ast.Neg, a) -> -const_eval st a
  | Ast.Bin (op, a, b) -> (
      let va = const_eval st a and vb = const_eval st b in
      match op with
      | Ast.Add -> va + vb
      | Ast.Sub -> va - vb
      | Ast.Mul -> va * vb
      | Ast.Div when vb <> 0 -> va / vb
      | _ -> error pos "loop bound is not a constant expression")
  | _ -> error pos "loop bound is not a constant expression"

(* ------------------------------------------------------------------ *)
(* Statements *)

let rec parse_stmt st : Ast.stmt =
  match peek_tok st with
  | Token.KW_FOR -> parse_for st
  | Token.KW_IF -> parse_if st
  | Token.IDENT "rotate_registers" -> parse_rotate st
  | Token.IDENT _ -> parse_assign st
  | tok -> error (peek_pos st) "expected statement, found '%s'" (Token.to_string tok)

and parse_block st : Ast.stmt list =
  if accept st Token.LBRACE then begin
    let rec go acc =
      if accept st Token.RBRACE then List.rev acc else go (parse_stmt st :: acc)
    in
    go []
  end
  else [ parse_stmt st ]

and parse_for st : Ast.stmt =
  let pos = peek_pos st in
  expect st Token.KW_FOR;
  expect st Token.LPAREN;
  let index_pos = peek_pos st in
  let index = ident st in
  let scope = st.scope in
  (match scope with
  | Checked indices when List.mem index indices ->
      error index_pos "loop index '%s' shadows an enclosing index" index
  | _ -> ());
  st.scope <- Unchecked;
  expect st Token.ASSIGN;
  let lo = const_eval st (parse_expr st) in
  expect st Token.SEMI;
  let test_var = ident st in
  if test_var <> index then
    error pos "loop test must compare the index '%s', found '%s'" index test_var;
  let exclusive =
    match peek_tok st with
    | Token.LT ->
        advance st;
        true
    | Token.LE ->
        advance st;
        false
    | tok -> error (peek_pos st) "expected '<' or '<=', found '%s'" (Token.to_string tok)
  in
  let bound = const_eval st (parse_expr st) in
  let hi = if exclusive then bound else bound + 1 in
  expect st Token.SEMI;
  let inc_var = ident st in
  if inc_var <> index then
    error pos "loop increment must update the index '%s', found '%s'" index inc_var;
  let step =
    match peek_tok st with
    | Token.PLUS_PLUS ->
        advance st;
        1
    | Token.PLUS_ASSIGN ->
        advance st;
        const_eval st (parse_expr st)
    | Token.ASSIGN ->
        (* i = i + c *)
        advance st;
        let e = parse_expr st in
        (match e with
        | Ast.Bin (Ast.Add, Ast.Var v, step_e) when v = index ->
            const_eval st step_e
        | _ -> error pos "unsupported loop increment")
    | tok -> error (peek_pos st) "expected loop increment, found '%s'" (Token.to_string tok)
  in
  if step <= 0 then error pos "loop stride must be positive";
  expect st Token.RPAREN;
  st.scope <-
    (match scope with Checked indices -> Checked (index :: indices) | s -> s);
  let body = parse_block st in
  st.scope <- scope;
  let l_span = Some { Ast.sp_line = pos.Lexer.line; sp_col = pos.Lexer.col } in
  Ast.For { index; lo; hi; step; body; l_span }

and parse_if st : Ast.stmt =
  expect st Token.KW_IF;
  expect st Token.LPAREN;
  let c = parse_expr st in
  expect st Token.RPAREN;
  let then_ = parse_block st in
  let else_ = if accept st Token.KW_ELSE then parse_block st else [] in
  Ast.If (c, then_, else_)

and parse_rotate st : Ast.stmt =
  advance st (* rotate_registers *);
  expect st Token.LPAREN;
  let rec go acc =
    let pos = peek_pos st in
    let name = ident st in
    if st.scope <> Unchecked && not (scalar_declared st name) then
      error pos "rotate_registers over undeclared scalar '%s'" name;
    if accept st Token.COMMA then go (name :: acc) else List.rev (name :: acc)
  in
  let regs = go [] in
  expect st Token.RPAREN;
  expect st Token.SEMI;
  Ast.Rotate regs

and parse_assign st : Ast.stmt =
  let pos = peek_pos st in
  let name = ident st in
  let lv =
    if peek_tok st = Token.LBRACKET then
      Ast.Larr (name, parse_array_subscripts st pos name)
    else begin
      (match st.scope with
      | Checked indices when List.mem name indices ->
          error pos "assignment to loop index '%s'" name
      | Checked _ when not (scalar_declared st name) ->
          error pos "assignment to undeclared scalar '%s'" name
      | _ -> ());
      Ast.Lvar name
    end
  in
  let as_expr = function
    | Ast.Lvar v -> Ast.Var v
    | Ast.Larr (a, subs) -> Ast.Arr (a, subs)
  in
  let stmt =
    match peek_tok st with
    | Token.ASSIGN ->
        advance st;
        Ast.Assign (lv, parse_expr st)
    | Token.PLUS_ASSIGN ->
        advance st;
        Ast.Assign (lv, Ast.Bin (Ast.Add, as_expr lv, parse_expr st))
    | Token.MINUS_ASSIGN ->
        advance st;
        Ast.Assign (lv, Ast.Bin (Ast.Sub, as_expr lv, parse_expr st))
    | tok -> error pos "expected assignment, found '%s'" (Token.to_string tok)
  in
  expect st Token.SEMI;
  stmt

(* ------------------------------------------------------------------ *)
(* Declarations and program *)

let parse_decl st (arrays, scalars) =
  let elem = parse_type st in
  let rec one (arrays, scalars) =
    let pos = peek_pos st in
    let name = ident st in
    let dims =
      let rec go acc =
        if accept st Token.LBRACKET then begin
          let n = const_eval st (parse_expr st) in
          expect st Token.RBRACKET;
          if n <= 0 then error pos "array dimension must be positive";
          go (n :: acc)
        end
        else List.rev acc
      in
      go []
    in
    let dup =
      List.exists (fun (a : Ast.array_decl) -> a.a_name = name) arrays
      || List.exists (fun (s : Ast.scalar_decl) -> s.s_name = name) scalars
    in
    if dup then error pos "duplicate declaration of '%s'" name;
    let span = Some { Ast.sp_line = pos.Lexer.line; sp_col = pos.Lexer.col } in
    let acc =
      if dims = [] then
        ( arrays,
          { Ast.s_name = name; s_elem = elem; s_kind = Ast.Temp; s_span = span }
          :: scalars )
      else
        ( { Ast.a_name = name; a_elem = elem; a_dims = dims; a_span = span }
          :: arrays,
          scalars )
    in
    if accept st Token.COMMA then one acc else acc
  in
  let acc = one (arrays, scalars) in
  expect st Token.SEMI;
  acc

let parse_program st ~name : Ast.kernel =
  let rec decls acc =
    if is_type_start (peek_tok st) then decls (parse_decl st acc) else acc
  in
  let arrays, scalars = decls ([], []) in
  st.arrays <- arrays;
  st.scalars <- scalars;
  st.scope <- Checked [];
  let rec stmts acc =
    if peek_tok st = Token.EOF then List.rev acc
    else stmts (parse_stmt st :: acc)
  in
  let body = stmts [] in
  Loop_nest.validate
    {
      Ast.k_name = name;
      k_arrays = List.rev arrays;
      k_scalars = List.rev scalars;
      k_body = body;
    }

(** Parse a kernel from source text. Raises {!Error} or {!Lexer.Error}
    with a position on malformed input. *)
let kernel_of_string ~name src =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; pos = 0; arrays = []; scalars = []; scope = Unchecked } in
  parse_program st ~name

(** [Result]-returning variant with a rendered diagnostic. *)
let kernel_of_string_res ~name src =
  match kernel_of_string ~name src with
  | k -> Ok k
  | exception Error (pos, msg) ->
      Result.Error (Printf.sprintf "%d:%d: %s" pos.line pos.col msg)
  | exception Lexer.Error (pos, msg) ->
      Result.Error (Printf.sprintf "%d:%d: %s" pos.Lexer.line pos.Lexer.col msg)
  | exception Invalid_argument msg ->
      (* structural domain violations from Loop_nest.validate *)
      Result.Error msg
