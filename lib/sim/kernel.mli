(** The simulation kernel: IEEE 1076 simulation-cycle semantics.

    Event-driven scheduler with delta cycles.  Pending transactions and
    timeouts wait in time-ordered heaps and each signal lists the processes
    waiting on it, so a cycle costs what is due, not the design's size.
    Process bodies arrive translated to closures ({!Interp.process_body});
    the kernel runs no KIR tree walk.  A body that waits only at its end,
    or only through its sensitivity list, runs as a plain call per
    resumption; one that waits mid-body is an OCaml-5 effect fiber
    suspended on the {!Rt.Wait} effect.  While telemetry tracing is on,
    [sim.exec_ns] estimates the time inside process bodies from a random
    sample of one process run in eight; the rest of the simulation's time
    is scheduling. *)

type severity_counts = {
  mutable notes : int;
  mutable warnings : int;
  mutable errors : int;
  mutable failures : int;
}

type stats = {
  mutable delta_cycles : int;
  mutable time_steps : int;
  mutable events : int;
  mutable transactions : int;
  mutable process_runs : int;
  severities : severity_counts;
}

type t

exception Failure_severity of { time : Rt.time; msg : string }

val severity_name : int -> string
(** 0 = note, 1 = warning, 2 = error, 3+ = failure. *)

val create : unit -> t
(** A fresh kernel.  It allows 5000 delta cycles per simulated instant
    before it reports a combinational loop, and no step fuel until
    {!set_step_fuel}. *)

val set_step_fuel : t -> int option -> unit
(** Bound (or unbound, with [None]) the number of process resumptions the
    kernel will perform within one simulated instant, across its delta
    cycles.  Exhaustion ends {!run} with the {!Fuel_exhausted} outcome
    rather than hanging or raising. *)

val now : t -> Rt.time
val stats : t -> stats
(** The kernel's counts.  [run] adds its share to the [sim.*] telemetry
    counters when it returns. *)

val set_message_handler : t -> (Rt.time -> severity:int -> string -> unit) -> unit
(** Where assert/report messages go (default: stderr). *)

val register_signal : t -> Rt.signal -> unit
(** Connect a signal to the kernel: its drivers' transactions (from
    {!Rt.schedule}) join the kernel's queue.  Unregistered signals never
    update. *)

val emit : t -> severity:int -> line:int -> string -> unit
(** Record an assertion/report message; severity >= 3 (FAILURE) stops the
    simulation by raising {!Failure_severity}. *)

(** A process body. *)
type body =
  | Body of (unit -> unit)
      (** runs the statement list once; may perform {!Rt.Wait} *)
  | Until_wait of (unit -> Rt.wait_req)
      (** runs the statement list up to its only wait, its last statement,
          and returns what that wait waits for *)

val add_process :
  t ->
  name:string ->
  sensitivity:Rt.signal list ->
  has_wait:bool ->
  body:(Rt.proc -> body) ->
  Rt.proc
(** Register a process; [body] is built once for the new process.  The
    kernel restarts a [Body] forever, appending the implicit wait when
    [sensitivity] is non-empty (LRM 9.2).  [has_wait] says whether it can
    suspend at all (for a process with a sensitivity list, count procedure
    calls that might wait).  A sensitivity-free body without waits runs once
    and terminates; one with a sensitivity list, and every [Until_wait],
    runs as a plain call per resumption instead of an effect fiber. *)

type outcome =
  | Quiescent (* no more events scheduled *)
  | Time_limit (* reached max_time *)
  | Stopped (* a FAILURE assertion *)
  | Fuel_exhausted (* the per-instant process-step fuel ran out *)

val run : t -> max_time:Rt.time -> outcome
(** Initialization phase (every process runs to its first wait), then the
    cycle loop up to [max_time] inclusive.
    @raise Rt.Simulation_error on a dynamic error in a process body or a
      resolution function ({!Value_ops.Runtime_error} included), at the
      time it happened. *)
