(** The one evaluator of KIR expressions.

    The paper's [exprEval] returns an expression's static value beside its
    code (§4.1), and the simulator computes the same expression again at
    run time.  Both are this walk: static folding at analysis, evaluation
    at elaboration and simulation differ only in their {!leaves}, the
    references whose value depends on where the expression runs.  Operators
    go through {!Value_ops}, the runtime support library.

    Errors: the walk's own checks (a ['VAL] outside its type, an aggregate
    choice out of bounds, a null dereference) raise
    {!Value_ops.Runtime_error}, as every {!Value_ops} operation does.  The
    caller turns that one exception into its own error: the static folder
    into "not static", elaboration into an elaboration error, the kernel
    into a simulation error at the current time. *)

(** What the walk cannot compute by itself.  Built once per kind of
    evaluation; each function takes the evaluation's environment. *)
type 'env leaves = {
  var : 'env -> level:int -> index:int -> name:string -> Value.t;
      (** a variable or constant in a frame (negative index: loop variable) *)
  generic : 'env -> index:int -> name:string -> Value.t;
  unit_const : 'env -> string -> Value.t;
      (** an elaboration-time constant or a deferred package constant *)
  signal : 'env -> Kir.sig_ref -> Value.t;  (** its current value *)
  signal_attr : 'env -> Kir.sig_ref -> Kir.sattr -> Value.t;
  call : 'env -> string -> Value.t list -> Value.t;
      (** a user function by mangled name, arguments evaluated left to right *)
  alloc : 'env -> Value.t -> Value.t;
      (** an allocator's access value for its evaluated initial value *)
}

val eval : 'env leaves -> 'env -> Kir.expr -> Value.t
(** @raise Value_ops.Runtime_error on a dynamic error; leaves raise what
    they raise. *)

val deref : Value.t -> Value.t
(** The object an access value designates (LRM 3.3).
    @raise Value_ops.Runtime_error on [null] or a non-access value. *)
