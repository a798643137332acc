(** The full design space, used as the evaluation oracle (Section 6.3):
    the paper plots balance, cycles and area for *every* unroll-factor
    combination and reports that the search visits only ~0.3% of the
    space while landing near the best design.

    One sweep covers two spaces, each a product of configuration axes:
    the unroll-only space (divisor vectors x the base pipeline's tile x
    its toggles) and the joint space (divisor vectors x tile options x
    all eight scalar-replacement/peel/LICM toggles). The space size
    follows the paper's accounting — all integer unroll factors for each
    explorable loop (trip_1 * trip_2 * ...) — while the sweep evaluates
    the divisor sub-lattice, which contains every distinct generated
    design (a non-divisor factor leaves an epilogue that only degrades
    the design).

    Every sweep takes one path: enumerate the axes, drop what the
    legality verdict rejects, dedupe canonical spellings, then visit the
    survivors — all of them (on several {!Engine.Pool} workers when
    [jobs > 1]), or best-first on tier-1 bounds for a large joint
    space. *)

open Ir

type t = {
  points : Design.point list;
  space_size : int;
  pruned_illegal : int;
  pruned_redundant : int;
  pruned_bound : int;
  total_designs : int;
}

let default_tile_candidates = [ 4; 8; 16 ]

(** The tile options the joint sweep enumerates: no tile, plus each
    requested size clamped to the divisor the strip-mine would use, on
    every spine loop it properly splits. *)
let joint_tile_options (ctx : Design.context) ~(candidates : int list) :
    (string * int) option list =
  let tiles =
    List.concat_map
      (fun (l : Ast.loop) ->
        let trip = Ast.loop_trip l in
        List.filter_map
          (fun t ->
            match Transform.Tiling.clamp ~trip t with
            | 1 -> None
            | d -> Some (l.Ast.index, d))
          candidates)
      ctx.Design.env.spine
    |> List.sort_uniq compare
  in
  None :: List.map (fun x -> Some x) tiles

(* All eight toggle combinations, the base pipeline's first so the
   unroll-only sub-space is enumerated (and, small spaces, evaluated)
   before any variation — ties in the selection then resolve toward the
   design the unroll-only sweep would pick. *)
let toggle_combos (ctx : Design.context) : (bool * bool * bool) list =
  let b = Design.base_config ctx [] in
  let base = (b.scalar_replace, b.peel, b.licm) in
  let all =
    List.concat_map
      (fun sr ->
        List.concat_map
          (fun peel -> List.map (fun licm -> (sr, peel, licm)) [ true; false ])
          [ true; false ])
      [ true; false ]
  in
  base :: List.filter (fun t -> t <> base) all

(* The exhaustive regime: every survivor is evaluated, one front-key
   group at a time, so a group's configurations share one pipeline front
   (tile, unroll-and-jam, scalar replacement) and the [fronts] and
   [reused] counters do not depend on [jobs]. With [jobs > 1] the groups
   are handed out in chunks from an atomic cursor to workers that each
   evaluate against a {!Design.fork} of the context; the forks are
   absorbed back once the batch drains. Every result lands at its
   survivor's index, so the order is the enumeration order. *)
let evaluate_all ~jobs ~pool (ctx : Design.context)
    (survivors : Design.config array) : Design.point list =
  let by_key : (Engine.Backend.front_key, int list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let groups = ref [] in
  Array.iteri
    (fun i c ->
      let key = Engine.Backend.front_key c in
      match Hashtbl.find_opt by_key key with
      | Some members -> members := i :: !members
      | None ->
          let members = ref [ i ] in
          Hashtbl.add by_key key members;
          groups := members :: !groups)
    survivors;
  let groups =
    Array.of_list
      (List.rev_map (fun members -> Array.of_list (List.rev !members)) !groups)
  in
  let results = Array.make (Array.length survivors) None in
  (* A group of one shares nothing: it is evaluated without a table, so
     its front dies with its synthesis. *)
  let visit ctx fronts group =
    let fronts = if Array.length group > 1 then Some fronts else None in
    Array.iter
      (fun i ->
        results.(i) <- Some (Design.evaluate ?fronts ctx survivors.(i)))
      group;
    Option.iter Hashtbl.reset fronts
  in
  let n = Array.length groups in
  if jobs <= 1 || n < 2 * jobs then
    Array.iter (visit ctx (Hashtbl.create 1)) groups
  else begin
    let run pool =
      let cursor = Atomic.make 0 in
      let chunk = max 1 (n / (jobs * 8)) in
      let forks = List.init jobs (fun _ -> Design.fork ctx) in
      let worker fork () =
        let fronts = Hashtbl.create 1 in
        let rec loop () =
          let start = Atomic.fetch_and_add cursor chunk in
          if start < n then begin
            for g = start to min (start + chunk) n - 1 do
              visit fork fronts groups.(g)
            done;
            loop ()
          end
        in
        loop ()
      in
      Engine.Pool.run pool (List.map worker forks);
      List.iter (fun fork -> Design.absorb ~into:ctx fork) forks
    in
    match pool with
    | Some p -> run p
    | None -> Engine.Pool.with_pool jobs run
  end;
  Array.to_list (Array.map Option.get results)

(* The best-first regime, for a large joint space: visit the survivors
   in ascending tier-1 cycle bound so the incumbent tightens
   immediately, and skip every one whose bounds prove it cannot beat
   the incumbent or fit the device — admissible, so the selection is
   the one the exhaustive regime would make. Sequential: it needs one
   incumbent. Returns the evaluated points in enumeration order and the
   number skipped.

   Survivors that differ only in their peel and LICM toggles share one
   pipeline front: the first synthesis of a front key builds it into
   [fronts], the others finish from it. [pending] counts each key's
   survivors still to be visited; a front is dropped with its key's
   last survivor, evaluated or pruned, so the table holds only live
   fronts. *)
let best_first (ctx : Design.context) (survivors : Design.config array) :
    Design.point list * int =
  let n = Array.length survivors in
  let bounds = Array.map (Design.quick ctx) survivors in
  let lb i =
    match bounds.(i) with Some q -> q.Hls.Quick.cycles_lb | None -> 0
  in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare (lb a, a) (lb b, b)) order;
  let fronts : Engine.Backend.fronts = Hashtbl.create 64 in
  let pending : (Engine.Backend.front_key, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun c ->
      let key = Engine.Backend.front_key c in
      Hashtbl.replace pending key
        (1 + Option.value ~default:0 (Hashtbl.find_opt pending key)))
    survivors;
  let visited c =
    let key = Engine.Backend.front_key c in
    match Hashtbl.find pending key with
    | 1 ->
        Hashtbl.remove pending key;
        Hashtbl.remove fronts key
    | left -> Hashtbl.replace pending key (left - 1)
  in
  let results = Array.make n None in
  let incumbent = ref max_int in
  let pruned = ref 0 in
  Array.iter
    (fun i ->
      let c = survivors.(i) in
      let skip =
        match bounds.(i) with
        | None -> false
        | Some q ->
            q.Hls.Quick.slices_lb > ctx.Design.capacity
            || q.Hls.Quick.cycles_lb > !incumbent
      in
      if skip then begin
        incr pruned;
        Design.note_pruned ctx
      end
      else begin
        let p = Design.evaluate ~fronts ctx c in
        results.(i) <- Some p;
        if Design.space p <= ctx.Design.capacity then
          incumbent := min !incumbent (Design.cycles p)
      end;
      visited c)
    order;
  (List.filter_map Fun.id (Array.to_list results), !pruned)

let sweep ?eligible ?(max_product = max_int) ?joint ?(exhaustive_below = 64)
    ?jobs ?pool (ctx : Design.context) : t =
  let eligible =
    match eligible with
    | Some e -> e
    | None ->
        let env = ctx.Design.env in
        (Saturation.compute ~pipeline:env.pipeline
           ~num_memories:env.profile.Hls.Estimate.device.Hls.Device.num_memories
           env.source)
          .Saturation.eligible
  in
  let vectors = Util.divisor_vectors ~max_product ctx ~eligible in
  let tiles, toggles =
    match joint with
    | Some candidates ->
        (joint_tile_options ctx ~candidates, toggle_combos ctx)
    | None ->
        let b = Design.base_config ctx [] in
        ([ b.tile ], [ (b.scalar_replace, b.peel, b.licm) ])
  in
  let verdict = Check.Legality.config_verdict ctx.Design.env.source in
  let enumerated = ref 0 and ill = ref 0 and red = ref 0 in
  let seen : (Design.config, unit) Hashtbl.t = Hashtbl.create 64 in
  let survivors = ref [] in
  let survive c =
    let key = Design.normalize_config ctx c in
    if Hashtbl.mem seen key then incr red
    else begin
      Hashtbl.replace seen key ();
      survivors := key :: !survivors
    end
  in
  List.iter
    (fun (sr, peel, licm) ->
      List.iter
        (fun tile ->
          List.iter
            (fun vector ->
              incr enumerated;
              let c : Design.config =
                { vector; tile; scalar_replace = sr; peel; licm }
              in
              match verdict c with
              | Check.Legality.Config_illegal _ -> incr ill
              | Check.Legality.Config_redundant canon -> survive canon
              | Check.Legality.Config_legal -> survive c)
            vectors)
        tiles)
    toggles;
  let survivors = Array.of_list (List.rev !survivors) in
  let jobs =
    match (jobs, pool) with
    | Some j, _ -> max 1 j
    | None, Some p -> Engine.Pool.size p
    | None, None -> Engine.Pool.default_size ()
  in
  let points, pruned_bound =
    if Option.is_some joint && Array.length survivors > exhaustive_below then
      best_first ctx survivors
    else (evaluate_all ~jobs ~pool ctx survivors, 0)
  in
  let total_designs =
    List.fold_left
      (fun acc (l : Ast.loop) ->
        if List.mem l.index eligible then acc * Ast.loop_trip l else acc)
      1 ctx.Design.env.spine
    * List.length tiles * List.length toggles
  in
  {
    points;
    space_size = !enumerated;
    pruned_illegal = !ill;
    pruned_redundant = !red;
    pruned_bound;
    total_designs;
  }

(** Best design that fits the device: fewest cycles, ties to the
    smaller design, then to enumeration order (which puts the unroll-only
    sub-space of a joint sweep first). *)
let best (ctx : Design.context) (t : t) : Design.point option =
  List.fold_left
    (fun best p ->
      if Design.space p > ctx.Design.capacity then best
      else
        match best with
        | None -> Some p
        | Some b ->
            let c = Design.cycles p and cb = Design.cycles b in
            if c < cb || (c = cb && Design.space p < Design.space b) then
              Some p
            else best)
    None t.points

(** Smallest design whose performance is within [slack] (e.g. 0.05) of
    the best fitting design — the paper's third optimization criterion. *)
let smallest_comparable ?(slack = 0.05) (ctx : Design.context) (t : t) :
    Design.point option =
  match best ctx t with
  | None -> None
  | Some b ->
      let limit =
        int_of_float
          (Float.ceil (float_of_int (Design.cycles b) *. (1.0 +. slack)))
      in
      List.fold_left
        (fun acc p ->
          if Design.space p > ctx.Design.capacity || Design.cycles p > limit
          then acc
          else
            match acc with
            | Some cur when Design.space p >= Design.space cur -> acc
            | _ -> Some p)
        None t.points

(** Fraction of the paper-style design space a search visited. *)
let fraction_searched (t : t) ~(visited : int) : float =
  float_of_int visited /. float_of_int (max 1 t.total_designs)
