(** The unroll-vector enumeration primitives that the search
    ([Search]) and the sweep ([Space]) both build on. They live here,
    not in the engine, because they read the context's precomputed
    divisor tables; divisor arithmetic itself is {!Engine.Util}'s. *)

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
    | (index, divs) :: rest ->
        let cands =
          List.filter
            (fun d -> d >= lo index && d <= hi index && target mod d = 0)
            divs
        in
        List.concat_map
          (fun d -> List.map (fun tl -> (index, d) :: tl) (go rest (target / d)))
          cands
  in
  let env = ctx.Design.env in
  List.map
    (Engine.Backend.normalize_vector env)
    (go (List.filter (fun (i, _) -> List.mem i eligible) env.spine_divisors) product)

(** Products reachable by some vector of eligible divisor factors, each
    loop's factor bounded by its [upper] entry (missing means 1). *)
let achievable_products (ctx : Design.context) ~(eligible : string list)
    ~upper : int list =
  List.fold_left
    (fun acc (index, divs) ->
      if not (List.mem index eligible) then acc
      else
        let cap = Option.value ~default:1 (List.assoc_opt index upper) in
        let ds = List.filter (fun d -> d <= cap) divs in
        List.sort_uniq compare
          (List.concat_map (fun p -> List.map (fun d -> p * d) ds) acc))
    [ 1 ] ctx.Design.env.spine_divisors

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
  let rec go loops budget prefix acc =
    match loops with
    | [] -> List.rev prefix :: acc
    | (index, ds) :: rest ->
        if List.mem index eligible then
          List.fold_left
            (fun acc d ->
              if d > budget then acc
              else go rest (budget / d) ((index, d) :: prefix) acc)
            acc ds
        else go rest budget ((index, 1) :: prefix) acc
  in
  List.rev (go ctx.Design.env.spine_divisors max_product [] [])
