(** Loop tiling (Section 5.4 of the paper): bounds the register pressure
    of scalar replacement by strip-mining a bank's varying loop and
    moving the tile loop outside the reuse carrier. *)

open Ir

(** [clamp ~trip tile] is the tile {!strip_mine} makes of a request of
    [tile] on a loop of [trip] iterations: the largest divisor of [trip]
    no greater than the request, or 1 (no tile) when that divisor is 1
    or [trip] and so splits nothing. *)
val clamp : trip:int -> int -> int

(** [strip_mine ~index ~tile names body] splits the spine loop into a
    tile loop (stride [tile * step]) and a unit intra-tile loop; always
    legal (iteration order unchanged). The tile is {!clamp}ed. Returns
    the rewritten body and the tile loop's index
    when one was created. *)
val strip_mine :
  index:string ->
  tile:int ->
  Names.t ->
  Ast.stmt list ->
  Ast.stmt list * string option

(** Interchange two adjacent perfectly nested spine loops, the outer one
    named [outer]. [None] when not adjacent/perfect or when a dependence
    distance would turn lexicographically negative. *)
val interchange : outer:string -> Ast.kernel -> Ast.kernel option

(** Strip-mine [index] to [tile] iterations and bubble the tile loop as
    far out as dependences allow; banks over [index] built by a later
    scalar replacement then hold [tile] elements. *)
val tile_for_registers : index:string -> tile:int -> Ast.kernel -> Ast.kernel
