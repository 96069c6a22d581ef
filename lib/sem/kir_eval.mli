(** The one translator of KIR expressions.

    The paper's [exprEval] returns an expression's static value beside its
    code (§4.1), and the simulator computes the same expression again at
    run time.  Both run the closure this module translates an expression
    into: static folding at analysis, evaluation at elaboration and
    simulation differ only in their {!leaves}, the references whose value
    depends on where the expression runs.  A leaf is resolved once, when
    the expression is translated, and the closure it returns runs as often
    as the expression does.  Operators go through {!Value_ops}, the
    runtime support library.

    Errors happen when the code runs, never when it is translated: a leaf
    that cannot resolve returns a closure that raises, so static
    [false and X] still short-circuits.  The closures' own checks (an
    aggregate choice out of bounds, a record aggregate missing a field)
    raise {!Value_ops.Runtime_error}, as every {!Value_ops} operation
    does.  The caller turns that one exception into its own
    error: the static folder into "not static", elaboration into an
    elaboration error, the kernel into a simulation error at the current
    time. *)

type 'env code = 'env -> Value.t
(** A translated expression: run it in an environment for its value. *)

(** What the translation cannot resolve by itself.  Built once per kind of
    evaluation; each leaf takes the translation's context and returns the
    closure that computes the reference's value. *)
type ('ctx, 'env) leaves = {
  var : 'ctx -> level:int -> index:int -> name:string -> 'env code;
      (** a variable or constant in a frame (negative index: loop variable) *)
  generic : 'ctx -> index:int -> name:string -> 'env code;
  unit_const : 'ctx -> string -> 'env code;
      (** an elaboration-time constant or a deferred package constant *)
  signal : 'ctx -> Kir.sig_ref -> 'env code;  (** its current value *)
  signal_attr : 'ctx -> Kir.sig_ref -> Kir.sattr -> 'env code;
  call : 'ctx -> string -> 'env code list -> 'env code;
      (** a user function by mangled name over its translated arguments,
          which the closure computes left to right *)
  alloc : 'ctx -> 'env code -> 'env code;
      (** an allocator's access value for its translated initial value *)
}

val translate : ('ctx, 'env) leaves -> 'ctx -> Kir.expr -> 'env code

val eval : ('ctx, 'env) leaves -> 'ctx -> 'env -> Kir.expr -> Value.t
(** Translate, then run once.
    @raise Value_ops.Runtime_error on a dynamic error; leaves raise what
    they raise. *)
