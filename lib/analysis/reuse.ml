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

(** Same coefficients on every dimension over the given index set. *)
let same_pattern indices (a : Access.t) (b : Access.t) =
  Access.is_affine a && Access.is_affine b
  && List.length a.affine = List.length b.affine
  && List.for_all2
       (fun fa fb ->
         match (fa, fb) with
         | Some fa, Some fb ->
             List.for_all (fun v -> Affine.coeff fa v = Affine.coeff fb v) indices
         | _ -> false)
       a.affine b.affine

(** Structural key of an access's per-dimension coefficient vectors over
    [indices]: uniform generation is equality of these keys, which lets
    grouping run in linear time instead of pairwise comparison. *)
let pattern_key indices (a : Access.t) : string option =
  if not (Access.is_affine a) then None
  else
    Some
      (String.concat "|"
         (List.map
            (fun f ->
              match f with
              | Some f ->
                  String.concat ","
                    (List.map (fun v -> string_of_int (Affine.coeff f v)) indices)
              | None -> "?")
            a.affine))

(** Partition accesses into uniformly generated sets, reads and writes
    separately. Non-affine accesses land in singleton groups. *)
let groups (body : Ast.stmt list) : group list =
  let indices = Loop_nest.spine_indices body in
  let accesses = Access.collect body in
  let tbl : (string * Access.kind * string, Access.t list) Hashtbl.t =
    Hashtbl.create 32
  in
  let order = ref [] in
  let singles = ref [] in
  List.iter
    (fun (a : Access.t) ->
      match pattern_key indices a with
      | None -> singles := { array = a.array; kind = a.kind; members = [ a ] } :: !singles
      | Some key ->
          let k = (a.array, a.kind, key) in
          (match Hashtbl.find_opt tbl k with
          | None ->
              order := k :: !order;
              Hashtbl.replace tbl k [ a ]
          | Some ms -> Hashtbl.replace tbl k (a :: ms)))
    accesses;
  List.rev_map
    (fun ((array, kind, _) as k) ->
      { array; kind; members = List.rev (Hashtbl.find tbl k) })
    !order
  @ List.rev !singles

let read_sets body = List.filter (fun g -> g.kind = Access.Read) (groups body)
let write_sets body = List.filter (fun g -> g.kind = Access.Write) (groups body)

(** R and W of the saturation-point formula: the number of uniformly
    generated read and write sets of the body. *)
let set_counts body = (List.length (read_sets body), List.length (write_sets body))

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
