(** The one timestamp source for every phase timer (evaluation
    statistics, flow-graph costs, estimator stage timers). *)

(** Seconds on a monotonic clock: differences are elapsed time, immune
    to wall-clock adjustments; the origin is arbitrary. *)
val now : unit -> float
