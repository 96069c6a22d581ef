(** Static evaluation of KIR expressions.

    Used for constant declarations, type ranges, case choices, and generic
    defaults at analysis time, and again at elaboration time for generic
    actuals, generate ranges and port indices.  It runs {!Kir_eval}'s
    translation over leaves that are static only when {!consts} knows
    them: a generic or unit constant translates to its value when the
    record has one.  Variables, unknown generics and unit constants,
    signals, user subprogram calls and allocators each translate to a
    closure that answers "not static" only if it runs. *)

type consts = {
  generic : int -> Value.t option;  (** by the generic's index *)
  unit_const : string -> Value.t option;
      (** an architecture constant or generate parameter by name, or a
          deferred package constant by ["PKG.NAME"] *)
}
(** The elaboration-time values an instance's code is linked with.  The
    interpreter's translation resolves the same leaves from it. *)

val none : consts
(** Knows nothing: what the front end folds with, before elaboration. *)

val eval : consts -> Kir.expr -> Value.t option
(** [Some v] when the expression is static, [None] when it is not.
    @raise Value_ops.Runtime_error when a static expression's evaluation
      fails (division by zero, a ['VAL] outside its type, ...). *)

val eval_opt : consts -> Kir.expr -> Value.t option
(** {!eval}, with a failing evaluation answered [None].  Never raises. *)
