(** Reuse analysis: uniformly generated sets and the reuse each carries.

    Scalar replacement consumes this analysis to decide, per set, whether
    the data can live in on-chip registers (and how many); the saturation
    point computation consumes the set counts R and W (Section 5.1). *)

open Ir

type group = {
  array : string;
  kind : Access.kind;
  members : Access.t list;  (** in execution order *)
}

(* Equal coefficients of [fa] and [fb] on every index. *)
let rec same_coeffs fa fb = function
  | [] -> true
  | v :: rest -> Affine.coeff fa v = Affine.coeff fb v && same_coeffs fa fb rest

(** Same coefficients on every dimension over the given index set. *)
let same_pattern indices (a : Access.t) (b : Access.t) =
  let rec dims indices fas fbs =
    match (fas, fbs) with
    | [], [] -> true
    | Some fa :: fas, Some fb :: fbs -> same_coeffs fa fb indices && dims indices fas fbs
    | _ -> false
  in
  dims indices a.affine b.affine

(** Hash of an affine access's array and per-dimension coefficient
    vectors over [indices], kind left out: accesses with the same
    pattern hash equally, so grouping buckets on this integer and
    confirms with {!same_pattern}. *)
let pattern_hash indices (a : Access.t) =
  let rec coeffs h f = function
    | [] -> h
    | v :: rest -> coeffs ((h * 31) + Affine.coeff f v) f rest
  in
  let rec dims indices h = function
    | [] -> h
    | Some f :: rest -> dims indices (coeffs ((h * 17) + 1) f indices) rest
    | None :: rest -> dims indices (h * 17) rest
  in
  dims indices (Hashtbl.hash a.array) a.affine

(* A group being built: its members in reverse execution order. *)
type building = { first : Access.t; mutable rev_members : Access.t list }

(** {!groups} over already collected accesses, uniform generation taken
    over [indices]. *)
let group_accesses indices (accesses : Access.t list) : group list =
  let tbl : (int, building list) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  let singles = ref [] in
  let rec find (a : Access.t) = function
    | [] -> None
    | b :: rest ->
        if
          b.first.kind = a.kind
          && String.equal b.first.array a.array
          && same_pattern indices b.first a
        then Some b
        else find a rest
  in
  List.iter
    (fun (a : Access.t) ->
      if not (Access.is_affine a) then
        singles := { array = a.array; kind = a.kind; members = [ a ] } :: !singles
      else begin
        let h = (2 * pattern_hash indices a) + if a.kind = Access.Read then 0 else 1 in
        let bucket = try Hashtbl.find tbl h with Not_found -> [] in
        match find a bucket with
        | Some b -> b.rev_members <- a :: b.rev_members
        | None ->
            let b = { first = a; rev_members = [ a ] } in
            order := b :: !order;
            Hashtbl.replace tbl h (b :: bucket)
      end)
    accesses;
  List.rev_map
    (fun b -> { array = b.first.array; kind = b.first.kind; members = List.rev b.rev_members })
    !order
  @ List.rev !singles

(** Partition accesses into uniformly generated sets, reads and writes
    separately. Non-affine accesses land in singleton groups. *)
let groups (body : Ast.stmt list) : group list =
  group_accesses (Loop_nest.spine_indices body) (Access.collect body)

let read_sets body = List.filter (fun g -> g.kind = Access.Read) (groups body)

(** R and W of the saturation-point formula: the number of uniformly
    generated read and write sets of the body. *)
let set_counts body =
  List.fold_left
    (fun (r, w) g -> if g.kind = Access.Read then (r + 1, w) else (r, w + 1))
    (0, 0) (groups body)

(** Distinct subscript-expression members of a group (members that appear
    several times syntactically count once — a single load serves all). *)
let distinct_members (g : group) : Access.t list =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (a : Access.t) ->
      if Hashtbl.mem seen a.subs then false
      else begin
        Hashtbl.replace seen a.subs ();
        true
      end)
    g.members

(** Loops of the group's enclosing nest that the group's subscripts do not
    vary with — temporal reuse is carried by each of them (every iteration
    of such a loop touches the same elements). *)
let invariant_loops (g : group) : Ast.loop list =
  match g.members with
  | [] -> []
  | m :: _ ->
      List.filter
        (fun (l : Ast.loop) ->
          List.for_all (fun (a : Access.t) -> not (Access.varies_with a l.index)) g.members)
        m.loops

(** Number of registers needed to hold the group's data across one
    traversal of the loops deeper than [carrier]: the product of inner
    trip counts that the group varies with, times the number of distinct
    members. This is the register pressure of exploiting reuse carried by
    [carrier] (Section 5.4 bounds it with tiling). *)
let bank_size (g : group) ~(carrier : Ast.loop) : int =
  match g.members with
  | [] -> 0
  | m :: _ ->
      let rec inner_of = function
        | [] -> []
        | (l : Ast.loop) :: rest ->
            if l.index = carrier.index then rest else inner_of rest
      in
      let inner = inner_of m.Access.loops in
      let varying =
        List.filter
          (fun (l : Ast.loop) ->
            List.exists (fun a -> Access.varies_with a l.index) g.members)
          inner
      in
      List.fold_left (fun acc l -> acc * Ast.loop_trip l) 1 varying
      * List.length (distinct_members g)
