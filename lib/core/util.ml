(** Small helpers shared by the design-space modules (and the bench
    harness): divisor arithmetic, and the unroll-vector
    enumeration primitives that the search ([Search]) and the sweep
    ([Space]) both build on. The scalar helpers live in the engine
    library; the vector enumerators live here because they read the
    context's precomputed divisor tables. *)

open Ir

(** Positive divisors of [n] in ascending order ([divisors 12] is
    [1; 2; 3; 4; 6; 12]). [n <= 0] has no positive divisors. *)
let divisors = Engine.Util.divisors

(* Divisor lists come from the context's precomputed [spine_divisors]
   tables: these helpers run on every Increase/SelectBetween move of the
   search and on every sweep enumeration, so recomputing
   [Util.divisors] per loop per call is pure waste. *)
let spine_divisors_of (ctx : Design.context) (l : Ast.loop) : int list =
  match List.assoc_opt l.index ctx.Design.spine_divisors with
  | Some ds -> ds
  | None -> divisors (Ast.loop_trip l)

(** All normalized vectors of eligible divisor factors with the exact
    unroll product [product], bounded per loop by [lower]/[upper]
    (missing entries mean factor 1). The search's SelectBetween move. *)
let vectors_between (ctx : Design.context) ~(eligible : string list) ~lower
    ~upper ~product : (string * int) list list =
  let lo i = Option.value ~default:1 (List.assoc_opt i lower) in
  let hi i = Option.value ~default:1 (List.assoc_opt i upper) in
  let rec go loops target =
    match loops with
    | [] -> if target = 1 then [ [] ] else []
    | (l : Ast.loop) :: rest ->
        let cands =
          spine_divisors_of ctx l
          |> List.filter (fun d ->
                 d >= lo l.index && d <= hi l.index && target mod d = 0)
        in
        List.concat_map
          (fun d ->
            List.map (fun tl -> (l.index, d) :: tl) (go rest (target / d)))
          cands
  in
  let loops =
    List.filter
      (fun (l : Ast.loop) -> List.mem l.index eligible)
      ctx.Design.spine
  in
  List.map (Design.normalize_vector ctx) (go loops product)

(** Products reachable by some vector of eligible divisor factors, each
    loop's factor bounded by its [upper] entry (missing means 1). *)
let achievable_products (ctx : Design.context) ~(eligible : string list)
    ~upper : int list =
  let rec go loops acc =
    match loops with
    | [] -> acc
    | (l : Ast.loop) :: rest ->
        if not (List.mem l.index eligible) then go rest acc
        else begin
          let cap = Option.value ~default:1 (List.assoc_opt l.index upper) in
          let ds = List.filter (fun d -> d <= cap) (spine_divisors_of ctx l) in
          go rest
            (List.sort_uniq compare
               (List.concat_map (fun p -> List.map (fun d -> p * d) ds) acc))
        end
  in
  go ctx.Design.spine [ 1 ]

(** All divisor vectors over the eligible loops whose unroll product is
    at most [max_product]; ineligible spine loops are pinned to factor 1.
    The product bound is enforced *during* the recursion — factors are
    all >= 1, so a prefix already over the bound cannot be completed —
    which keeps deep nests from materializing the full cross-product
    first. The enumeration is accumulator-style: each completed vector
    is consed exactly once and the whole list reversed at the end; the
    output order is the same lexicographic (ascending-divisor) order as
    a nested [concat_map]. *)
let divisor_vectors ?(max_product = max_int) (ctx : Design.context)
    ~(eligible : string list) : (string * int) list list =
  let rec go loops divs budget prefix acc =
    match (loops, divs) with
    | [], _ -> List.rev prefix :: acc
    | (l : Ast.loop) :: rest, (_, ds) :: rest_divs ->
        if List.mem l.index eligible then
          List.fold_left
            (fun acc d ->
              if d > budget then acc
              else go rest rest_divs (budget / d) ((l.index, d) :: prefix) acc)
            acc ds
        else go rest rest_divs budget ((l.index, 1) :: prefix) acc
    | _ :: _, [] ->
        invalid_arg "divisor_vectors: spine and spine_divisors disagree"
  in
  List.rev (go ctx.Design.spine ctx.Design.spine_divisors max_product [] [])
