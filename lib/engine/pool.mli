(** A reusable worker-domain pool: spawn the domains once, run many
    batches of thunks over them, join once at shutdown. Every parallel
    sweep runs on one, its caller's or its own. *)

type t

type task = unit -> unit

(** Spawn a pool of [max 1 n] worker domains. *)
val create : int -> t

val size : t -> int

(** Run a batch of thunks to completion on the pool's workers. Blocks
    until every thunk has finished; if any thunk raised, re-raises the
    first such exception (with its backtrace) after the batch drains.
    Batches do not overlap — callers serialize. *)
val run : t -> task list -> unit

(** Join all worker domains. The pool cannot be used afterwards;
    calling {!run} then raises [Invalid_argument]. Idempotent. *)
val shutdown : t -> unit

(** [with_pool n f] runs [f pool] and always shuts the pool down. *)
val with_pool : int -> (t -> 'a) -> 'a

(** One fewer than the recommended domain count, clamped to [1, 8] —
    the parallel sweep's default worker count. *)
val default_size : unit -> int
