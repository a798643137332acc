(** The full design space, used as the evaluation oracle (Section 6.3):
    the paper plots balance, cycles and area for *every* unroll-factor
    combination and reports that the search visits only ~0.3% of the
    space while landing near the best design.

    The space size follows the paper's accounting — all integer unroll
    factors for each explorable loop (trip_1 * trip_2 * ...) — while the
    exhaustive sweep evaluates the divisor sub-lattice, which contains
    every distinct generated design (a non-divisor factor leaves an
    epilogue that only degrades the design).

    The sweep can run on several workers of an {!Engine.Pool} ([jobs]):
    the vector list is chunked over a work queue, each worker evaluates
    against a {!Design.fork} of the context, and the forks' caches and
    counters are merged back when the batch drains. The result order is
    deterministic and identical to the sequential sweep regardless of
    [jobs]. *)

open Ir

type sweep_point = {
  vector : (string * int) list;
  point : Design.point;
}

type t = {
  points : sweep_point list;  (** the divisor lattice, evaluated *)
  total_designs : int;  (** paper-style space size: product of trip counts *)
}

(** All divisor vectors over the explorable loops whose unroll product
    is at most [max_product] — {!Util.divisor_vectors}, re-exported
    because the sweep's callers have always found it here. [eligible]
    defaults to the loops the saturation analysis considers (those that
    carry memory accesses); MM's innermost loop is excluded exactly as
    in the paper. *)
let divisor_vectors ?max_product (ctx : Design.context)
    ~(eligible : string list) : (string * int) list list =
  Util.divisor_vectors ?max_product ctx ~eligible

(* Evaluate [vectors] on [jobs] workers of [pool]. Work is handed out in
   chunks from an atomic cursor; each worker writes its results at the
   vectors' original indices, so the merged order matches the sequential
   order. Every worker gets a {!Design.fork} seeded with the current
   cache, and the forks are absorbed back once the batch has drained. *)
let evaluate_parallel pool ~jobs (ctx : Design.context)
    (vectors : (string * int) list array) : sweep_point array =
  let n = Array.length vectors in
  let results : sweep_point option array = Array.make n None in
  let cursor = Atomic.make 0 in
  let chunk = max 1 (n / (jobs * 8)) in
  let forks = List.init jobs (fun _ -> Design.fork ctx) in
  let worker (fork : Design.context) () =
    let rec loop () =
      let start = Atomic.fetch_and_add cursor chunk in
      if start < n then begin
        for i = start to min (start + chunk) n - 1 do
          let v = vectors.(i) in
          results.(i) <- Some { vector = v; point = Design.evaluate fork v }
        done;
        loop ()
      end
    in
    loop ()
  in
  Engine.Pool.run pool (List.map worker forks);
  List.iter (fun fork -> Design.absorb ~into:ctx fork) forks;
  Array.map (function Some sp -> sp | None -> assert false) results

let sweep ?eligible ?(max_product = max_int) ?jobs ?pool (ctx : Design.context) : t =
  let sat =
    lazy
      (Saturation.compute ~pipeline:ctx.Design.pipeline
         ~num_memories:ctx.Design.profile.Hls.Estimate.device.Hls.Device.num_memories
         ctx.Design.source)
  in
  let eligible =
    match eligible with
    | Some e -> e
    | None -> (Lazy.force sat).Saturation.eligible
  in
  let vectors = divisor_vectors ~max_product ctx ~eligible in
  let jobs =
    match (jobs, pool) with
    | Some j, _ -> max 1 j
    | None, Some p -> Engine.Pool.size p
    | None, None -> Engine.Pool.default_size ()
  in
  let points =
    if jobs <= 1 || List.length vectors < 2 * jobs then
      List.map (fun v -> { vector = v; point = Design.evaluate ctx v }) vectors
    else
      let run pool =
        Array.to_list (evaluate_parallel pool ~jobs ctx (Array.of_list vectors))
      in
      match pool with
      | Some p -> run p
      | None -> Engine.Pool.with_pool jobs run
  in
  let total_designs =
    List.fold_left
      (fun acc (l : Ast.loop) ->
        if List.mem l.index eligible then acc * Ast.loop_trip l else acc)
      1 ctx.Design.spine
  in
  { points; total_designs }

(** Best-performing design in the space that fits the device. *)
let best_fitting (ctx : Design.context) (t : t) : sweep_point option =
  let fitting =
    List.filter (fun sp -> Design.space sp.point <= ctx.Design.capacity) t.points
  in
  match fitting with
  | [] -> None
  | p :: rest ->
      Some
        (List.fold_left
           (fun best sp ->
             if Design.cycles sp.point < Design.cycles best.point then sp else best)
           p rest)

(** Smallest design whose performance is within [slack] (e.g. 0.05) of
    the best fitting design — the paper's third optimization criterion. *)
let smallest_comparable ?(slack = 0.05) (ctx : Design.context) (t : t) :
    sweep_point option =
  match best_fitting ctx t with
  | None -> None
  | Some best ->
      let limit =
        int_of_float
          (Float.ceil (float_of_int (Design.cycles best.point) *. (1.0 +. slack)))
      in
      let comparable =
        List.filter
          (fun sp ->
            Design.space sp.point <= ctx.Design.capacity
            && Design.cycles sp.point <= limit)
          t.points
      in
      List.fold_left
        (fun acc sp ->
          match acc with
          | None -> Some sp
          | Some cur ->
              if Design.space sp.point < Design.space cur.point then Some sp
              else acc)
        None comparable

(** Fraction of the paper-style design space a search visited. *)
let fraction_searched (t : t) ~(visited : int) : float =
  float_of_int visited /. float_of_int (max 1 t.total_designs)

(* ------------------------------------------------------------------ *)
(* The joint configuration space *)

type joint_point = {
  config : Design.config;
  point : Design.point;
}

type joint = {
  points : joint_point list;
      (** the evaluated configurations, in enumeration order *)
  space_size : int;
      (** joint lattice size before any pruning: unroll vectors x tile
          options x toggle combinations *)
  pruned_illegal : int;  (** dropped by the legality pre-pruner *)
  pruned_redundant : int;
      (** dropped as another spelling of a configuration already
          enumerated (canonicalization + dedupe) *)
  pruned_bound : int;  (** skipped on tier-1 lower bounds *)
  total_designs : int;
      (** paper-style accounting over the joint space: all integer
          unroll factors x tile options x toggles *)
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
        let divs = Util.spine_divisors_of ctx l in
        List.filter_map
          (fun t ->
            let t = max 1 (min t trip) in
            let d =
              List.fold_left (fun best d -> if d <= t then d else best) 1 divs
            in
            if d <= 1 || d >= trip then None else Some (l.Ast.index, d))
          candidates)
      ctx.Design.spine
    |> List.sort_uniq compare
  in
  None :: List.map (fun x -> Some x) tiles

(* All eight toggle combinations, the base pipeline's first so the
   unroll-only sub-space is enumerated (and, small spaces, evaluated)
   before any variation — ties in the selection then resolve toward the
   design the vector-only sweep would pick. *)
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

let sweep_joint ?eligible ?(max_product = max_int)
    ?(tile_candidates = default_tile_candidates) ?(exhaustive_below = 64)
    (ctx : Design.context) : joint =
  let eligible =
    match eligible with
    | Some e -> e
    | None ->
        (Saturation.compute ~pipeline:ctx.Design.pipeline
           ~num_memories:
             ctx.Design.profile.Hls.Estimate.device.Hls.Device.num_memories
           ctx.Design.source)
          .Saturation.eligible
  in
  let vectors = divisor_vectors ~max_product ctx ~eligible in
  let tiles = joint_tile_options ctx ~candidates:tile_candidates in
  let toggles = toggle_combos ctx in
  (* One flow graph of the source serves every legality verdict. *)
  let graph = Analysis.Flowgraph.build ctx.Design.source in
  let enumerated = ref 0 and ill = ref 0 and red = ref 0 in
  let seen : (Design.config, unit) Hashtbl.t = Hashtbl.create 64 in
  let survivors = ref [] in
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
              match
                Check.Legality.config_verdict ~graph ctx.Design.source c
              with
              | Check.Legality.Config_illegal _ -> incr ill
              | Check.Legality.Config_redundant _ ->
                  (* Its canonical spelling is elsewhere in the cube. *)
                  incr red
              | Check.Legality.Config_legal ->
                  let key = Design.normalize_config ctx c in
                  if Hashtbl.mem seen key then incr red
                  else begin
                    Hashtbl.replace seen key ();
                    survivors := key :: !survivors
                  end)
            vectors)
        tiles)
    toggles;
  let survivors = Array.of_list (List.rev !survivors) in
  let n = Array.length survivors in
  let bounds = Array.map (fun c -> Design.quick_config ctx c) survivors in
  (* Below the threshold, evaluate every legal configuration in
     enumeration order (ascending-bound visiting buys nothing a cache
     this small cannot absorb, and the full point set is the oracle the
     tests want). Above it, best-first: visit in ascending cycle lower
     bound so the incumbent tightens immediately, and skip every
     configuration whose bound already proves it cannot beat the
     incumbent or fit the device — admissible, so the selection is the
     one the exhaustive sweep would make. *)
  let exhaustive = n <= exhaustive_below in
  let order = Array.init n (fun i -> i) in
  if not exhaustive then begin
    let lb i =
      match bounds.(i) with
      | Some q -> q.Hls.Quick.cycles_lb
      | None -> 0
    in
    Array.sort (fun a b -> compare (lb a, a) (lb b, b)) order
  end;
  (* Survivors that differ only in their peel and LICM toggles share one
     pipeline front (tile, unroll-and-jam, scalar replacement): the
     first synthesis of a front key builds it into [fronts], the others
     finish from it. [pending] counts each key's survivors still to be
     visited; a front is dropped with its key's last survivor, evaluated
     or pruned, so the table holds only live fronts. *)
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
  let results : joint_point option array = Array.make n None in
  let incumbent = ref max_int in
  let bound_pruned = ref 0 in
  Array.iter
    (fun i ->
      let c = survivors.(i) in
      let skip =
        match bounds.(i) with
        | None -> false
        | Some q ->
            q.Hls.Quick.slices_lb > ctx.Design.capacity
            || ((not exhaustive) && q.Hls.Quick.cycles_lb > !incumbent)
      in
      if skip then begin
        incr bound_pruned;
        Design.note_pruned ctx
      end
      else begin
        let p = Design.evaluate_config ~fronts ctx c in
        results.(i) <- Some { config = c; point = p };
        if Design.space p <= ctx.Design.capacity then
          incumbent := min !incumbent (Design.cycles p)
      end;
      visited c)
    order;
  let total_designs =
    List.fold_left
      (fun acc (l : Ast.loop) ->
        if List.mem l.index eligible then acc * Ast.loop_trip l else acc)
      1 ctx.Design.spine
    * List.length tiles * List.length toggles
  in
  {
    points = List.filter_map (fun x -> x) (Array.to_list results);
    space_size = !enumerated;
    pruned_illegal = !ill;
    pruned_redundant = !red;
    pruned_bound = !bound_pruned;
    total_designs;
  }

(** Best configuration of the joint space: fewest cycles among the
    fitting points, ties to the smaller design, then to enumeration
    order (which puts the unroll-only sub-space first). *)
let joint_best (ctx : Design.context) (j : joint) : joint_point option =
  List.fold_left
    (fun best jp ->
      if Design.space jp.point > ctx.Design.capacity then best
      else
        match best with
        | None -> Some jp
        | Some b ->
            let c = Design.cycles jp.point and cb = Design.cycles b.point in
            if c < cb || (c = cb && Design.space jp.point < Design.space b.point)
            then Some jp
            else best)
    None j.points
