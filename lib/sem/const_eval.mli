(** Static evaluation of KIR expressions.

    Used for constant declarations, type ranges, case choices, and generic
    defaults at analysis time, and again at elaboration time once generic
    actuals are known.  Signals and user subprogram calls are not static in
    this subset. *)

exception Not_static of string
(** Raised by {!eval} when the expression depends on a signal, an unbound
    generic, or anything else only known at simulation time. *)

type ctx = {
  generics : (int * Value.t) list;  (** generic index -> value *)
  frame : Value.t option array list;  (** innermost first; loop vars etc. *)
}

val empty : ctx

val eval : ctx -> Kir.expr -> Value.t
(** @raise Not_static when the expression is not locally static.
    @raise Value_ops.Runtime_error on dynamic errors in static operands
      (division by zero in a constant, out-of-range index, ...). *)

val fold : ctx -> Kir.expr -> Kir.expr
(** Best-effort fold: a literal when static, the original expression
    otherwise.  Never raises. *)

val eval_opt : ctx -> Kir.expr -> Value.t option
(** [Some] iff {!eval} succeeds.  Never raises. *)
