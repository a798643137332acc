(** Human-readable exploration reports: the saturation analysis, the
    search trace with verdicts, the selected design's estimates, resource
    and replacement breakdown, its data layout, the baseline comparison,
    and the generated code — rendered as markdown from a session's
    outcome ({!Driver.run_many}). *)

(** The report of one explored kernel. *)
val render : Format.formatter -> Driver.outcome -> unit

val to_string : Driver.outcome -> string
