(** Shared test utilities: kernel equality checking through the reference
    interpreter, and a random generator of small, well-formed affine
    kernels for the semantics-preservation property tests. *)

open Ir

(** [contains s sub]: [sub] occurs in [s]. *)
let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let vector_to_string v =
  String.concat "," (List.map (fun (i, u) -> Printf.sprintf "%s=%d" i u) v)

(** Run both kernels on the same inputs and compare every declared array
    of [reference]. [translate_in]/[translate_out] adapt inputs/outputs
    when the candidate uses a different data layout. *)
let equivalent ?(inputs = []) ?(translate_in = fun i -> i)
    ?(translate_out = fun o -> o) ~(reference : Ast.kernel)
    (candidate : Ast.kernel) : bool =
  let ref_out = Eval.observables (Eval.run ~inputs reference) in
  let cand_out =
    translate_out (Eval.observables (Eval.run ~inputs:(translate_in inputs) candidate))
  in
  List.for_all
    (fun (name, data) ->
      match List.assoc_opt name cand_out with
      | Some d -> d = data
      | None -> false)
    ref_out

let check_equiv ?inputs ?translate_in ?translate_out ~reference candidate msg =
  Alcotest.(check bool) msg true
    (equivalent ?inputs ?translate_in ?translate_out ~reference candidate)

(* ------------------------------------------------------------------ *)
(* Random affine kernels *)

(** A generated kernel always takes this shape: a 1-3 deep perfect nest
    over arrays with in-bounds affine accesses, computing sums/products
    of reads into an output array (possibly accumulating). Array sizes
    are derived from the maximum subscript value so evaluation never goes
    out of bounds. *)
let gen_kernel : Ast.kernel QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* depth = int_range 1 3 in
  let* trips = list_repeat depth (int_range 2 6) in
  let indices = List.filteri (fun i _ -> i < depth) [ "i"; "j"; "k" ] in
  let* n_in = int_range 1 2 in
  (* subscript form: one or two enclosing indices with coeff 1-2 plus an
     offset 0-3 *)
  let gen_sub =
    let* which = int_range 0 (depth - 1) in
    let* coeff = int_range 1 2 in
    let* use_second = bool in
    let* offset = int_range 0 3 in
    let second =
      if use_second && depth > 1 then [ (List.nth indices ((which + 1) mod depth), 1) ]
      else []
    in
    return (Affine.make ((List.nth indices which, coeff) :: second) offset)
  in
  let max_value (f : Affine.t) =
    List.fold_left
      (fun acc v ->
        let c = Affine.coeff f v in
        let pos = List.length (List.filter (fun i -> i = v) indices) in
        ignore pos;
        let idx = List.mapi (fun i x -> (x, i)) indices in
        let ti = List.assoc v idx in
        acc + (c * (List.nth trips ti - 1)))
      (Affine.const_part f) (Affine.vars f)
  in
  let* in_subs = list_repeat n_in gen_sub in
  let* out_sub = gen_sub in
  let arrays_in =
    List.mapi
      (fun i f ->
        Ast.array_decl ~elem:Dtype.int16 (Printf.sprintf "a%d" i) [ max_value f + 1 ])
      in_subs
  in
  let out_decl = Ast.array_decl ~elem:Dtype.int32 "out" [ max_value out_sub + 1 ] in
  let* accumulate = bool in
  let* use_mul = bool in
  let reads =
    List.mapi
      (fun i f -> Ast.Arr (Printf.sprintf "a%d" i, [ Affine.to_expr f ]))
      in_subs
  in
  let combine a b = if use_mul then Ast.Bin (Ast.Mul, a, b) else Ast.Bin (Ast.Add, a, b) in
  let rhs =
    match reads with
    | [] -> Ast.Int 1
    | r :: rest -> List.fold_left combine r rest
  in
  let out_ref = [ Affine.to_expr out_sub ] in
  let rhs = if accumulate then Ast.Bin (Ast.Add, Ast.Arr ("out", out_ref), rhs) else rhs in
  let body = [ Ast.Assign (Ast.Larr ("out", out_ref), rhs) ] in
  let nest =
    List.fold_right2
      (fun index trip inner ->
        [ Ast.For { Ast.index; lo = 0; hi = trip; step = 1; body = inner; l_span = None } ])
      indices trips body
  in
  return
    {
      Ast.k_name = "rand";
      k_arrays = arrays_in @ [ out_decl ];
      k_scalars = [];
      k_body = nest;
    }

(** Random kernels with scalars, guards, reductions, possibly-dead
    temporaries and zero-trip loops — the shapes {!gen_kernel}
    (scalar-free perfect nests) cannot produce. *)
let gen_flow_kernel : Ast.kernel QCheck2.Gen.t =
  let open QCheck2.Gen in
  let mk_loop index hi body =
    { Ast.index; lo = 0; hi; step = 1; body; l_span = None }
  in
  let* outer_trip = int_range 0 4 in
  let* inner_trip = option (int_range 0 3) in
  let* init_s = bool in
  let* tail_read = bool in
  let* guard_cut = int_range 0 3 in
  let* n_stmts = int_range 1 3 in
  let* picks = list_repeat n_stmts (pair (int_range 0 6) (int_range 0 2)) in
  let i = Ast.Var "i" in
  let sub kind =
    match kind with
    | 0 -> i
    | 1 when inner_trip <> None -> Ast.Bin (Ast.Add, i, Ast.Var "j")
    | _ -> Ast.Bin (Ast.Mul, Ast.Int 2, i)
  in
  let a s = Ast.Arr ("a", [ s ]) in
  let stmt (kind, sk) =
    let s = sub sk in
    match kind with
    | 0 -> Ast.Assign (Ast.Lvar "s", Ast.Bin (Ast.Add, Ast.Var "s", a s))
    | 1 -> Ast.Assign (Ast.Lvar "s", a s)
    | 2 -> Ast.Assign (Ast.Lvar "t", Ast.Bin (Ast.Add, a s, Ast.Int 1))
    | 3 -> Ast.Assign (Ast.Larr ("out", [ i ]), Ast.Bin (Ast.Add, Ast.Var "s", Ast.Var "p"))
    | 4 ->
        Ast.Assign
          (Ast.Larr ("out", [ i ]), Ast.Bin (Ast.Add, Ast.Arr ("out", [ i ]), a s))
    | 5 ->
        Ast.If
          ( Ast.Bin (Ast.Lt, i, Ast.Int guard_cut),
            [ Ast.Assign (Ast.Lvar "s", Ast.Bin (Ast.Add, Ast.Var "s", Ast.Int 1)) ],
            [] )
    | _ -> Ast.Assign (Ast.Lvar "s", Ast.Bin (Ast.Add, Ast.Bin (Ast.Mul, Ast.Var "s", Ast.Int 2), a s))
  in
  let inner = List.map stmt picks in
  let loop_body =
    match inner_trip with
    | None -> inner
    | Some t -> [ Ast.For (mk_loop "j" t inner) ]
  in
  let body =
    (if init_s then [ Ast.Assign (Ast.Lvar "s", Ast.Int 0) ] else [])
    @ [ Ast.For (mk_loop "i" outer_trip loop_body) ]
    @
    if tail_read then [ Ast.Assign (Ast.Larr ("out", [ Ast.Int 0 ]), Ast.Var "s") ]
    else []
  in
  return
    {
      Ast.k_name = "flowgen";
      k_arrays = [ Ast.array_decl "a" [ 8 ]; Ast.array_decl "out" [ 8 ] ];
      k_scalars =
        [
          Ast.scalar_decl "s";
          Ast.scalar_decl "t";
          Ast.scalar_decl ~kind:Ast.Param "p";
        ];
      k_body = body;
    }

(* ------------------------------------------------------------------ *)
(* Tier-1 admissibility *)

(** [None] when the tier-1 bound [q] is admissible for the estimate [e]
    of the same design point — each of its cycles, memory-only cycles,
    compute-only cycles and slices is at most the estimate's — else the
    four bound/estimate pairs, printed. *)
let bound_violation (q : Hls.Quick.t) (e : Hls.Estimate.t) : string option =
  let pairs =
    [
      ("cycles", q.Hls.Quick.cycles_lb, e.Hls.Estimate.cycles);
      ("mem", q.Hls.Quick.mem_cycles_lb, e.Hls.Estimate.mem_only_cycles);
      ("comp", q.Hls.Quick.comp_cycles_lb, e.Hls.Estimate.comp_only_cycles);
      ("slices", q.Hls.Quick.slices_lb, e.Hls.Estimate.slices);
    ]
  in
  if List.for_all (fun (_, lb, v) -> lb <= v) pairs then None
  else
    Some
      (String.concat " "
         (List.map
            (fun (n, lb, v) ->
              Printf.sprintf "%s %d%s%d" n lb (if lb <= v then "<=" else ">") v)
            pairs))

let admissible q e = bound_violation q e = None

(** Deterministic inputs for a generated kernel. *)
let inputs_for (k : Ast.kernel) = Kernels.test_inputs ~seed:7 k

(** Random unroll vector for a kernel's spine. *)
let gen_vector_for (k : Ast.kernel) : (string * int) list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let spine = Loop_nest.spine k.k_body in
  let gens =
    List.map
      (fun (l : Ast.loop) ->
        let* u = int_range 1 (max 1 (Ast.loop_trip l)) in
        return (l.index, u))
      spine
  in
  flatten_l gens

let kernel_print k = Pretty.kernel_to_string k

(** Alcotest case from a QCheck2 property. *)
let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Scaling *)

(* Each doubling of the code may grow the count by this factor at most:
   linear work with fixed costs stays under 2, a quadratic term soon
   passes 2.3. *)
let max_doubling = 2.3

let doublings_ok what counts =
  let rec go = function
    | (a, wa) :: ((b, wb) :: _ as rest) ->
        if wb > max_doubling *. wa then
          Alcotest.failf
            "%s: %s -> %s grows the minor words %.0f -> %.0f (%.2fx)" what a
            b wa wb (wb /. wa);
        go rest
    | _ -> ()
  in
  go counts;
  true

let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then
      Buffer.add_string b (String.sub s i (String.length s - i))
    else if String.sub s i n = sub then (Buffer.add_string b by; go (i + n))
    else (Buffer.add_char b s.[i]; go (i + 1))
  in
  go 0;
  Buffer.contents b

(* The built-in Sobel stencil over a 66x66 image: trip counts of 64, so
   that unroll products 8, 16, 32 and 64 are divisor vectors. *)
let sobel64 =
  lazy
    (Result.get_ok
       (Frontend.Parser.kernel_of_string_res ~name:"sobel64"
          (replace_all ~sub:"< 31" ~by:"< 65"
             (replace_all ~sub:"[32][32]" ~by:"[66][66]" Kernels.sobel_src))))
