(** Unroll-and-jam (Section 4 of the paper).

    Unrolling a loop by factor [u] replaces its body with [u] copies, the
    k-th copy with [index := index + k*step], and multiplies the step by
    [u]. When the body contains an inner loop, the copies of that loop
    are *jammed* (fused) into a single loop whose body is the
    concatenation of the copies' bodies — exposing operator and memory
    parallelism across outer-loop iterations to high-level synthesis.

    Factors that do not divide the trip count produce an epilogue loop
    with the original step. An unroll factor vector assigns a factor to
    each loop of the nest spine by index name; unlisted loops keep
    factor 1. *)

open Ir
open Ast

(** Unroll factor vectors, as an association from loop index to factor. *)
type vector = (string * int) list

let factor (v : vector) index =
  match List.assoc_opt index v with Some u -> max 1 u | None -> 1

let product (v : vector) = List.fold_left (fun acc (_, u) -> acc * max 1 u) 1 v

(** Clamp each factor to the loop's trip count and drop non-spine
    entries; factors are also rounded down to the nearest divisor when
    [divisors_only] (the design space the paper explores uses divisor
    factors, keeping all iterations in the main unrolled loop). *)
let clamp ?(divisors_only = false) (body : stmt list) (v : vector) : vector =
  let spine = Loop_nest.spine body in
  List.filter_map
    (fun (l : loop) ->
      let u = factor v l.index in
      let trip = Ast.loop_trip l in
      let u = min u (max trip 1) in
      let u =
        if divisors_only then (
          let rec down u = if u <= 1 || trip mod u = 0 then max u 1 else down (u - 1) in
          down u)
        else u
      in
      if u > 1 then Some (l.index, u) else None)
    spine

(** Substitute [index := index + offset] in a body, respelling the
    affine subscripts it shifts canonically. *)
let shift_body index offset body =
  if offset = 0 then body else Simplify.subst_index index (Shifted offset) body

(* Jam copies of a body: if every copy has the shape
   [pre @ [For inner] @ post] with identical inner headers, fuse the inner
   loops; otherwise concatenate. The reordering performed by fusion is the
   classic unroll-and-jam legality condition; the caller is responsible
   for checking it (see [jam_legal]). *)
let rec jam (copies : stmt list list) : stmt list =
  let split_on_for body =
    let rec go pre = function
      | For l :: post -> Some (List.rev pre, l, post)
      | s :: rest -> go (s :: pre) rest
      | [] -> None
    in
    go [] body
  in
  let splits = List.map split_on_for copies in
  let fusable =
    List.for_all Option.is_some splits
    &&
    match List.filter_map Fun.id splits with
    | [] -> false
    | (_, l0, _) :: rest as parts ->
        List.for_all
          (fun (_, (l : loop), _) ->
            l.index = l0.index && l.lo = l0.lo && l.hi = l0.hi
            && l.step = l0.step)
          rest
        (* Fusing reorders each copy's pre/post statements across the
           other copies' loops; that is only trivially safe when there
           are none (the level is perfectly nested). A scalar
           accumulator reset between copies, for instance, must keep the
           copies' loops apart. *)
        && List.for_all (fun (pre, _, post) -> pre = [] && post = []) parts
  in
  if fusable then begin
    let parts = List.filter_map Fun.id splits in
    let pres = List.concat_map (fun (p, _, _) -> p) parts in
    let posts = List.concat_map (fun (_, _, p) -> p) parts in
    let bodies = List.map (fun (_, (l : loop), _) -> l.body) parts in
    let l0 = (fun (_, l, _) -> l) (List.hd parts) in
    pres @ [ For { l0 with body = jam bodies } ] @ posts
  end
  else List.concat copies

(** Unroll one loop by [u] (assumed >= 1, <= trip), jamming inner loops,
    and recursively applying [v] to inner loops. *)
let rec unroll_loop (v : vector) (l : loop) : stmt list =
  let u = factor v l.index in
  let trip = Ast.loop_trip l in
  let u = min u (max trip 1) in
  if u <= 1 then [ For { l with body = unroll_body v l.body } ]
  else begin
    let main_trips = trip / u in
    let main_hi = l.lo + (main_trips * u * l.step) in
    let main =
      if main_trips = 0 then []
      else if main_trips = 1 then
        (* One trip of the main loop: the copies fix the index
           directly; shifted copies in a one-iteration loop would be
           respelled a second time when [Simplify.run] inlines it. *)
        unroll_body v
          (jam
             (List.init u (fun k ->
                  Simplify.subst_index l.index (Fixed (l.lo + (k * l.step))) l.body)))
      else
        let copies = List.init u (fun k -> shift_body l.index (k * l.step) l.body) in
        [ For { l with hi = main_hi; step = l.step * u; body = unroll_body v (jam copies) } ]
    in
    let epilogue =
      if main_hi >= l.hi then []
      else [ For { l with lo = main_hi; body = unroll_body v l.body } ]
    in
    main @ epilogue
  end

and unroll_body (v : vector) (body : stmt list) : stmt list =
  List.concat_map
    (fun s ->
      match s with
      | For l -> unroll_loop v l
      | If (c, t, e) -> [ If (c, unroll_body v t, unroll_body v e) ]
      | Assign _ | Rotate _ -> [ s ])
    body

(** Unroll-and-jam is legal when fusing the unrolled outer iterations does
    not reverse any dependence: no dependence carried by an outer loop may
    have a negative distance entry on an inner loop. Wildcard or coupled
    entries are treated conservatively as potentially negative. *)
let jam_legal (k : kernel) : bool =
  let deps = Analysis.Dependence.dependences k k.k_body in
  List.for_all
    (fun (d : Analysis.Dependence.dep) ->
      let rec check = function
        | [] -> true
        | Analysis.Dependence.Exact 0 :: rest -> check rest
        | Analysis.Dependence.Exact v :: rest ->
            if v < 0 then false
            else
              (* once strictly positive, inner negative entries are fine
                 only if bounded by the unroll window; be conservative and
                 require non-negative throughout *)
              List.for_all
                (function
                  | Analysis.Dependence.Exact w -> w >= 0
                  | Analysis.Dependence.Any -> true
                  | Analysis.Dependence.Coupled -> false)
                rest
        | Analysis.Dependence.Any :: rest -> check rest
        | Analysis.Dependence.Coupled :: _ -> false
      in
      check d.distance)
    deps

(** The vector {!run} would actually apply to [k]: clamped to trip
    counts, dropped when trivial, and reduced to the innermost loop when
    jamming is not provably legal (plain unrolling of the innermost loop
    keeps original iteration order, so it never reorders a dependence).
    [jam_legal], when given, is {!jam_legal} of [k], forced only when
    the vector unrolls more than the innermost loop. *)
let effective ?jam_legal:legal (k : kernel) (v : vector) : vector =
  let v = clamp k.k_body v in
  if v = [] then []
  else begin
    let multi_loop =
      List.length (List.filter (fun (_, u) -> u > 1) v) > 1
      || (match Loop_nest.spine k.k_body with
         | [] -> false
         | spine ->
             let innermost = (List.nth spine (List.length spine - 1)).index in
             List.exists (fun (i, u) -> u > 1 && i <> innermost) v)
    in
    let legal () = match legal with Some l -> Lazy.force l | None -> jam_legal k in
    if (not multi_loop) || legal () then v
    else
      match List.rev (Loop_nest.spine k.k_body) with
      | [] -> []
      | inner :: _ -> List.filter (fun (i, _) -> i = inner.index) v
  end

(** Apply an unroll-factor vector to a kernel, then simplify so that
    subscripts return to canonical affine shape. *)
let run ?jam_legal (v : vector) (k : kernel) : kernel =
  match effective ?jam_legal k v with
  | [] -> Simplify.run k
  | v -> Simplify.run { k with k_body = unroll_body v k.k_body }
