(** Datapath operator characterisation for a Virtex-class device: per
    operator class and bit width, the area in device slices and the
    combinational delay deciding how operations pack into the 40 ns
    cycle. Absolute accuracy is not required — the DSE algorithm consumes
    relative areas and schedule lengths. *)

type op_class =
  | Add  (** also subtract and shift-add decompositions *)
  | Mul
  | Div  (** iterative divider, non-constant divisor *)
  | Cmp
  | Logic
  | Shift_const  (** free: routing only *)
  | Shift_var
  | Mux
  | Abs_op
  | Min_max

(** Position of a class in declaration order, which is the order
    [compare] sorts classes in. *)
val class_index : op_class -> int

(** Every class, at its {!class_index}. *)
val classes : op_class array

val class_name : op_class -> string

(** Area in slices of one operator instance. *)
val area : op_class -> width:int -> int

(** Combinational delay in nanoseconds. *)
val delay_ns : op_class -> width:int -> float

(** Bucket widths so operator sharing treats near-equal widths as
    compatible. *)
val width_bucket : int -> int

(** Every bucket width, ascending. *)
val buckets : int array

(** Position of {!width_bucket}[ w] in {!buckets}. *)
val bucket_index : int -> int
