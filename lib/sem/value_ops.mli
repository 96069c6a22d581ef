(** Runtime support: the predefined VHDL operations.

    This is the paper's "runtime support functions [that] perform all the
    predefined VHDL operations" — one of the four modules of the target
    virtual machine.  The closures {!Kir_eval} translates expressions into
    apply every KIR operator through this module, statically and at run
    time. *)

exception Runtime_error of string
(** Raised by every operation on a dynamic error: division by zero,
    out-of-bounds index, constraint violation, shape mismatch. *)

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Runtime_error} with a formatted message. *)

(** {1 Integer arithmetic with VHDL semantics} *)

val vhdl_mod : int -> int -> int
(** LRM 7.2.4: the result has the sign of the divisor. *)

val vhdl_rem : int -> int -> int
(** LRM 7.2.4: the result has the sign of the dividend. *)

val int_pow : int -> int -> int
(** [int_pow base exp] by repeated squaring; negative exponents raise. *)

(** {1 Operator dispatch} *)

val binop : Kir.binop -> Value.t -> Value.t -> Value.t
(** Apply a binary operator: arithmetic, logical (on BOOLEAN/BIT and
    one-dimensional arrays thereof), ordering (lexicographic on arrays),
    equality, and concatenation. *)

val unop : Kir.unop -> Value.t -> Value.t

val concat : Value.t -> Value.t -> Value.t
(** Array concatenation; the result keeps the left operand's left bound
    and direction (LRM 7.2.3). *)

(** {1 Composite access} *)

val index : Value.t -> int -> Value.t
val slice : Value.t -> int * Value.dir * int -> Value.t
val field : Value.t -> string -> Value.t

(** {1 Functional update (assignment to parts of composites)} *)

val update_index : Value.t -> int -> Value.t -> Value.t
val update_slice : Value.t -> int * Value.dir * int -> Value.t -> Value.t
val update_field : Value.t -> string -> Value.t -> Value.t

(** {1 Constraint checks} *)

val to_subtype : Types.t -> Value.t -> Value.t
(** The value an assignment gives an object of subtype [ty] (LRM 8.3,
    8.5): an array value of a constrained array subtype's length takes the
    subtype's index range (it slides); a scalar is range checked.  Raises
    {!Runtime_error} on a length mismatch or a value outside the
    subtype's range. *)

(** {1 Conversions, array attributes, dereference} *)

val convert : Kir.conv -> Value.t -> Value.t
(** INTEGER and REAL conversions, ['POS], and ['VAL] (range checked). *)

val array_attr : Kir.array_attr -> Value.t -> Value.t
(** ['LEFT], ['RIGHT], ['HIGH], ['LOW], ['LENGTH] of an array value. *)

val deref : Value.t -> Value.t
(** The object an access value designates (LRM 3.3); fails on [null] or a
    non-access value. *)
