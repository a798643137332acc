(** The code-transformation pipeline applied to every design point the
    search visits: optional tiling, unroll-and-jam at the candidate
    vector, scalar replacement, loop peeling to specialise the
    first-iteration guards, LICM, and cleanup simplification (Figure 3 of
    the paper; data layout is a separate stage, see {!Data_layout}). *)

open Ir

type options = {
  vector : Unroll.vector;
  scalar : Scalar_replace.config;
  peel : bool;  (** peel carrier / leading iterations to remove guards *)
  licm : bool;
  tile : (string * int) option;
      (** strip-mine this loop to the given tile before replacement
          (register-pressure control, Section 5.4) *)
}

val default : options

(** A first-class design-point configuration: the searched knobs of the
    joint transform space, one value per design point. [options] is the
    full pipeline parameterization of a session (scalar-replacement
    budget, chain span, ...); a [config] picks the per-point transform
    decisions on top of it. *)
type config = {
  vector : Unroll.vector;  (** unroll factor per spine loop *)
  tile : (string * int) option;  (** strip-mine this loop to this tile *)
  scalar_replace : bool;
  peel : bool;
  licm : bool;
}

(** Whether a scalar-replacement configuration performs any replacement
    ([max_registers > 0]) — the boolean the joint space toggles. *)
val scalar_enabled : Scalar_replace.config -> bool

(** Project the searched knobs out of full pipeline options. *)
val config_of_options : options -> config

(** Concrete options for one design point: the config's knobs over
    [base]'s non-searched parameters. With replacement off the scalar
    configuration is [base]'s with a zero register budget, no cross-loop
    banks and no chains; with replacement on over a disabled base it is
    {!Scalar_replace.default_config}. Inverse of {!config_of_options}
    on the searched fields. *)
val apply_config : base:options -> config -> options

val pp_config : Format.formatter -> config -> unit
val config_to_string : config -> string

type result = {
  kernel : Ast.kernel;
  report : Scalar_replace.report;
  options : options;
}

(** Pipeline stages in application order. [Tile] runs only when
    [options.tile] is set, [Peel]/[Licm] only when enabled. A tile index
    naming no loop of the kernel raises {!Stage_error} (a named loop the
    strip-mine cannot split is a silent no-op). *)
type stage = Tile | Unroll_jam | Scalar_replace | Peel | Licm | Simplify

val stage_name : stage -> string

(** A [Failure] or [Invalid_argument] escaping a rewrite stage is
    re-raised as [Stage_error] naming the stage and the kernel, so
    pipeline failures are attributable instead of a naked string. *)
exception
  Stage_error of { stage : stage; kernel : string; message : string }

(** A front: the pipeline's output after its first three stages (tile,
    unroll-and-jam, scalar replacement) for one kernel, with the
    scalar-replacement report. The stages after it (peel, LICM,
    simplify) read nothing else, so every configuration that differs
    only in its peel and LICM toggles can be finished from one front.
    A front remembers the tile, vector and scalar-replacement settings
    it was built with — its key. *)
type front

(** [front ?observe opts k] runs the first three stages. [observe] sees
    each of them exactly as under {!apply}; a stage failure raises
    {!Stage_error}. *)
val front :
  ?observe:(stage -> before:Ast.kernel -> after:Ast.kernel -> unit) ->
  options ->
  Ast.kernel ->
  front

(** [apply ?observe ?front opts k] runs the pipeline. When given,
    [observe] is called after every executed stage with the kernel
    before and after that stage — the hook the checker's translation
    validation uses. The returned kernel is bit-identical whether or not
    it is passed.

    With [front] (built by {!front} from the same [k]), [apply] starts at
    the peel stage and [observe] sees only the stages after the front;
    the result is bit-identical to [apply opts k]. A front whose tile,
    vector or scalar-replacement configuration differs from [opts]'s
    raises [Invalid_argument]. *)
val apply :
  ?observe:(stage -> before:Ast.kernel -> after:Ast.kernel -> unit) ->
  ?front:front ->
  options ->
  Ast.kernel ->
  result
