(** Datapath operator characterisation for a Virtex-class device.

    Behavioral synthesis binds each operation in the specification to a
    hardware operator; the estimator needs, per operator class and bit
    width, the area (device slices) and the combinational delay (which
    decides how many operations chain within one 40 ns clock cycle).
    Values are calibrated to late-1990s Virtex data books: ripple-carry
    adders use half a slice per bit, array multipliers grow quadratically,
    constant shifts are free routing. Absolute accuracy is not required —
    the DSE algorithm consumes relative areas and schedule lengths. *)

type op_class =
  | Add  (** also subtract *)
  | Mul
  | Div  (** iterative divider, non-constant divisor *)
  | Cmp
  | Logic  (** bitwise and boolean *)
  | Shift_const
  | Shift_var
  | Mux
  | Abs_op
  | Min_max

(** Position of a class in declaration order, which is the order
    [compare] sorts classes in. *)
let class_index = function
  | Add -> 0
  | Mul -> 1
  | Div -> 2
  | Cmp -> 3
  | Logic -> 4
  | Shift_const -> 5
  | Shift_var -> 6
  | Mux -> 7
  | Abs_op -> 8
  | Min_max -> 9

(** Every class, at its {!class_index}. *)
let classes =
  [| Add; Mul; Div; Cmp; Logic; Shift_const; Shift_var; Mux; Abs_op; Min_max |]

let class_name = function
  | Add -> "add"
  | Mul -> "mul"
  | Div -> "div"
  | Cmp -> "cmp"
  | Logic -> "logic"
  | Shift_const -> "shiftc"
  | Shift_var -> "shiftv"
  | Mux -> "mux"
  | Abs_op -> "abs"
  | Min_max -> "minmax"

(** Area in slices of one operator instance. *)
let area (c : op_class) ~width =
  let w = max 1 width in
  match c with
  | Add -> (w + 1) / 2
  | Mul -> max 4 (w * w / 3)
  | Div -> max 8 (w * w / 2)
  | Cmp -> (w + 1) / 2
  | Logic -> (w + 1) / 2
  | Shift_const -> 0
  | Shift_var -> w
  | Mux -> (w + 1) / 2
  | Abs_op -> w
  | Min_max -> w

(** Combinational delay in nanoseconds; operations chain within a clock
    cycle as long as the accumulated delay fits the period. *)
let delay_ns (c : op_class) ~width =
  let w = float_of_int (max 1 width) in
  match c with
  | Add -> 5.0 +. (0.35 *. w)
  | Mul -> 18.0 +. (0.55 *. w)
  | Div -> 10.0 *. w (* iterative; effectively multi-cycle *)
  | Cmp -> 4.0 +. (0.30 *. w)
  | Logic -> 3.0
  | Shift_const -> 0.5
  | Shift_var -> 8.0
  | Mux -> 3.5
  | Abs_op -> 6.0 +. (0.35 *. w)
  | Min_max -> 8.0 +. (0.30 *. w)

(** Bucket widths so that operator sharing treats near-equal widths as
    compatible (synthesis widens the narrower operand). [buckets] lists
    them in ascending order; [bucket_index w] is the position of [w]'s. *)
let buckets = [| 8; 16; 32 |]

let bucket_index w = if w <= 8 then 0 else if w <= 16 then 1 else 2
let width_bucket w = buckets.(bucket_index w)
