(** The KIR translator: process bodies and subprograms become closures.

    This is the "programmable in terms of C primitives" half of the paper's
    virtual machine.  Where their generated C is compiled once and runs
    natively, our KIR is translated once, at elaboration, into OCaml
    closures that the kernel runs; no tree walk runs inside {!Kernel.run}.
    Expressions are translated by {!Kir_eval} over this module's run-time
    leaves: frames, signals, subprogram calls and allocators.  A process
    that waits mid-body suspends by performing the {!Rt.Wait} effect,
    captured by the kernel scheduler.

    What the translation resolves: each generic and unit constant (from
    the record the code is linked with), each signal reference (an
    instance signal, GUARD or a global signal of a process body; signal
    parameters and a subprogram's instance signals are the caller's and
    are read when the code runs), each callee and each frame slot.  Each
    signal assignment caches its driver on first execution.  A subprogram
    body is translated on its first call and the translation lives in its
    function-table {!entry}.  A reference that cannot resolve translates
    to a closure that raises {!Rt.Simulation_error} when it runs, so a
    process that never reaches it still runs. *)

type frame = Value.t array
(** A process's or subprogram's variables, then its loop variables from
    the end: loop-variable slot [k] (KIR frame index [-k - 1]) is at
    [length - k - 1]. *)

type entry
(** A function-table entry: a subprogram, the generics and unit constants
    it is linked with, and, after its first call, its translation. *)

val entry : Const_eval.consts -> Kir.subprogram -> entry
(** [entry consts sub]: the body's generic and unit-constant leaves
    resolve from [consts] when it is translated, on its first call, not
    from its caller's.  An architecture's subprograms are linked once per
    instance; a constant a subprogram reads is declared before it, so it
    has its value by the first call (VHDL declares before use). *)

type env
(** Where translated code runs: one per process, plus one signal-less
    environment per instance for elaboration-time values and resolution
    functions. *)

val env :
  consts:Const_eval.consts ->
  signals:Rt.signal array ->
  guard:Rt.signal option ->
  globals:(string * string, Rt.signal) Hashtbl.t ->
  functions:(string, entry) Hashtbl.t ->
  proc_id:int ->
  name:string ->
  kernel:Kernel.t ->
  emit:(severity:int -> line:int -> string -> unit) ->
  ?frame:frame ->
  unit ->
  env
(** [consts] are the generics and unit constants a process body or an
    elaboration-time value reads (its instance's, plus any generate
    parameter), [signals] is the instance signal table (ports first),
    [guard] the enclosing block's GUARD, [functions] the instance's
    function table by mangled name, [proc_id] the process whose drivers
    signal assignments use, [name] the path errors name, [kernel] the
    clock, [emit] where assert/report messages go, and [frame] the
    process's own variables (display level 0). *)

val eval : env -> Kir.expr -> Value.t
(** Evaluate an expression outside a process body (at elaboration):
    translate it over the environment's frames, signals and functions, then
    run it once.  Raises {!Rt.Simulation_error} on dynamic errors (division
    by zero, constraint violations, unbound references). *)

val process_body : env -> Kir.stmt list -> Kernel.body
(** Translate a process body once; the kernel runs it inside {!Kernel.run}.
    A body whose only wait is its last statement (and whose procedure
    calls cannot wait) is an [Until_wait] and runs without an effect fiber;
    any other may perform {!Rt.Wait}.  A dynamic error raised by the
    translated code or by {!Value_ops} escapes it as
    {!Value_ops.Runtime_error}; the kernel's one handler per run turns it
    into {!Rt.Simulation_error} at the current time. *)

val call_function : env -> string -> Value.t list -> Value.t
(** [call_function env name] resolves a function by mangled name once;
    applied to evaluated arguments, it calls it (resolution functions). *)
