(** Loop tiling (Section 5.4 of the paper).

    Tiling bounds the number of on-chip registers scalar replacement
    introduces: strip-mining a bank's varying loop and moving the tile
    loop outside the reuse carrier shrinks the localised iteration space
    — and with it the bank — to the tile size, at the cost of reloading
    the bank once per tile. *)

open Ir
open Ast

(** The tile {!strip_mine} makes of a request of [tile] iterations on a
    loop of [trip]: the largest divisor of [trip] no greater than the
    request, or 1 — no tile — when that divisor splits nothing (it is 1
    or the whole trip). *)
let clamp ~trip tile =
  let rec down t = if trip mod t = 0 then t else down (t - 1) in
  let d = down (max 1 (min tile trip)) in
  if d >= trip then 1 else d

(** [strip_mine ~index ~tile body] splits the spine loop [index] into a
    tile loop [index_t] (stride [tile * step]) and an intra-tile loop
    (the original name, rebased to the tile origin):

    {v for (i = lo; i < hi; i += s)          for (i_t = lo; i_t < hi; i_t += T*s)
         B(i)                         ==>      for (i_l = 0; i_l < T; i_l++)
                                                 B(i_t + i_l*s)              v}

    Iteration order is unchanged, so strip-mining alone is always legal.
    [tile] is {!clamp}ed to a divisor of the trip count. Returns the
    rewritten body and the tile-loop index. *)
let strip_mine ~index ~tile names (body : stmt list) : stmt list * string option
    =
  let tile_index = ref None in
  let rec go body =
    List.map
      (fun s ->
        match s with
        | For l when l.index = index && Ast.loop_trip l > 1 ->
            let tile = clamp ~trip:(Ast.loop_trip l) tile in
            if tile = 1 then For l
            else begin
              let it = Names.fresh names (index ^ "_t") in
              let il = Names.fresh names (index ^ "_l") in
              tile_index := Some it;
              let inner_body =
                Ast.subst_var l.index
                  (Bin (Add, Var it, Bin (Mul, Var il, Int l.step)))
                  l.body
              in
              For
                {
                  index = it;
                  lo = l.lo;
                  hi = l.hi;
                  step = tile * l.step;
                  body =
                    [ For
                        { index = il; lo = 0; hi = tile; step = 1;
                          body = inner_body; l_span = l.l_span } ];
                  l_span = l.l_span;
                }
            end
        | For l -> For { l with body = go l.body }
        | If (c, t, e) -> If (c, go t, go e)
        | Assign _ | Rotate _ -> s)
      body
  in
  let body = go body in
  (body, !tile_index)

(** Interchange two *adjacent* perfectly nested spine loops, the outer
    one named [outer]. Legality: no dependence whose distance vector
    becomes lexicographically negative, i.e. no dependence with distance
    [(+, -)] on the pair. Returns [None] when illegal or when the loops
    are not adjacent/perfect. *)
let interchange ~outer (k : kernel) : kernel option =
  let deps = Analysis.Dependence.dependences k k.k_body in
  let spine = Loop_nest.spine k.k_body in
  let inner_name =
    let rec go = function
      | (a : loop) :: (b : loop) :: _ when a.index = outer -> Some b.index
      | _ :: rest -> go rest
      | [] -> None
    in
    go spine
  in
  match inner_name with
  | None -> None
  | Some inner_name ->
      let legal =
        List.for_all
          (fun (d : Analysis.Dependence.dep) ->
            let entry idx =
              let rec go loops entries =
                match (loops, entries) with
                | (l : loop) :: ls, e :: es ->
                    if l.index = idx then Some e else go ls es
                | _ -> None
              in
              go d.loops d.distance
            in
            match (entry outer, entry inner_name) with
            | Some (Analysis.Dependence.Exact o), Some (Analysis.Dependence.Exact i) ->
                not (o > 0 && i < 0)
            | Some (Analysis.Dependence.Exact 0), _ | _, Some (Analysis.Dependence.Exact 0)
              ->
                true
            | None, _ | _, None -> true
            | _ -> false (* Any/Coupled on either: conservative *))
          deps
      in
      if not legal then None
      else begin
        let rec go body =
          List.map
            (fun s ->
              match s with
              | For l when l.index = outer -> (
                  match l.body with
                  | [ For m ] -> For { m with body = [ For { l with body = m.body } ] }
                  | _ -> For { l with body = go l.body })
              | For l -> For { l with body = go l.body }
              | If (c, t, e) -> If (c, go t, go e)
              | Assign _ | Rotate _ -> s)
            body
        in
        let body = go k.k_body in
        if body = k.k_body then None else Some { k with k_body = body }
      end

(** Best-effort register-pressure reduction: strip-mine the loop [index]
    to [tile] iterations and bubble the tile loop as far out as
    dependence legality allows. The register banks a subsequent scalar
    replacement builds over [index] then hold [tile] elements instead of
    the full trip count. *)
let tile_for_registers ~index ~tile (k : kernel) : kernel =
  let names = Names.of_kernel k in
  let body, tile_idx = strip_mine ~index ~tile names k.k_body in
  match tile_idx with
  | None -> k
  | Some it ->
      let k = Loop_nest.validate { k with k_body = body } in
      (* Bubble the tile loop outward while legal. *)
      let rec bubble k =
        let spine = Loop_nest.spine k.k_body in
        let above =
          let rec go prev = function
            | (l : loop) :: _ when l.index = it -> prev
            | l :: rest -> go (Some l) rest
            | [] -> None
          in
          go None spine
        in
        match above with
        | None -> k
        | Some outer -> (
            match interchange ~outer:outer.index k with
            | Some k' -> bubble k'
            | None -> k)
      in
      bubble k
