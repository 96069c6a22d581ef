(** The KIR interpreter: executes process bodies and subprograms.

    This is the "programmable in terms of C primitives" half of the paper's
    virtual machine — where their generated C executes natively, our KIR is
    interpreted.  Processes suspend on wait statements by performing the
    {!Wait} effect, captured by the kernel scheduler.  Expressions are
    evaluated by the one walk, {!Kir_eval}, over this module's run-time
    leaves: frames, signals, subprogram calls and allocators. *)

type frame = {
  vars : Value.t array;
  loop_vars : Value.t array;  (** by nesting depth; negative frame indices *)
}

type env = {
  e_signals : Rt.signal array;  (** instance signal table (ports first) *)
  e_guard : Rt.signal option;
  e_globals : (string * string, Rt.signal) Hashtbl.t;
  e_functions : (string, Kir.subprogram) Hashtbl.t;
  e_proc_id : int;
  e_proc_name : string;
  e_now : unit -> Rt.time;
  e_sig_params : Rt.signal option array;
      (** by parameter index: the signals bound to the running procedure's
          signal-class parameters ([None] for value parameters) *)
  e_display : frame option array;  (** by absolute level (shallow binding) *)
  e_level : int;  (** absolute level of the running frame *)
  e_emit : severity:int -> line:int -> string -> unit;  (** assert/report *)
}

type wait_req = {
  wr_on : Rt.signal list;
  wr_until : (unit -> bool) option;
  wr_for : Rt.time option;  (** absolute wake time *)
}

type _ Effect.t += Wait : wait_req -> unit Effect.t
(** Performed by a wait statement; the kernel's effect handler captures the
    continuation and resumes it when a wake condition holds. *)

exception Return_exc of Value.t option

val eval : env -> Kir.expr -> Value.t
(** Evaluate an expression outside a process body (at elaboration): the
    one walk, {!Kir_eval}, over the environment's frames, signals and
    functions.  Raises {!Rt.Simulation_error} on dynamic errors (division
    by zero, constraint violations, unbound references). *)

(** {1 Process bodies}

    These run inside {!Kernel.run}.  A dynamic error raised by the walk or
    by {!Value_ops} escapes them as {!Value_ops.Runtime_error}; the kernel's
    one handler per run turns it into {!Rt.Simulation_error} at the current
    time. *)

val exec : env -> Kir.stmt -> unit
(** Execute one statement; may perform {!Wait}. *)

val exec_list : env -> Kir.stmt list -> unit
(** Execute statements in order (a process body, a branch). *)

val call_function : env -> string -> Value.t list -> Value.t
(** Call a function by mangled name with evaluated arguments (used by
    resolution closures). *)
