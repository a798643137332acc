(** Loop peeling.

    Scalar replacement emits register-bank loads guarded by
    [if (c == lo)] on the first iteration of the carrier loop
    (Figure 1(c) of the paper); peeling the first iteration specialises
    those guards away so every remaining iteration has the same memory
    schedule (Figure 1(d)). *)

open Ir

(** Peel the first iteration of every loop with the given index on the
    body's spine; [index == lo] guards in the remaining loop fold to
    false. *)
val peel_first : index:string -> Ast.stmt list -> Ast.stmt list

(** Peel the last iteration instead (store sinking epilogues). *)
val peel_last : index:string -> Ast.stmt list -> Ast.stmt list
