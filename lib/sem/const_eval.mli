(** Static evaluation of KIR expressions.

    Used for constant declarations, type ranges, case choices, and generic
    defaults at analysis time, and again at elaboration time once generic
    actuals are substituted.  It runs {!Kir_eval}'s translation over leaves
    that are never static: variables, unsubstituted generics and unit
    constants, signals, user subprogram calls and allocators each translate
    to a closure that answers "not static" only if it runs. *)

val eval : Kir.expr -> Value.t option
(** [Some v] when the expression is static, [None] when it is not.
    @raise Value_ops.Runtime_error when a static expression's evaluation
      fails (division by zero, a ['VAL] outside its type, ...). *)

val eval_opt : Kir.expr -> Value.t option
(** {!eval}, with a failing evaluation answered [None].  Never raises. *)
