(** Simulation runtime data: signals, drivers, processes.

    This is the paper's simulation-kernel substrate, IEEE-1076 semantics:
    every process driving a signal owns one {!driver} whose *projected
    output waveform* the kernel matures; signals resolve their connected
    drivers' values (through a resolution function when there are several)
    and record events for the waiting processes. *)

type time = int
(** Simulation time in femtoseconds (the primary unit of TIME). *)

val fs : time
val ns : time

type signal = {
  sig_id : int;
  sig_name : string;  (** hierarchical path, e.g. [":top:u1:q"] *)
  sig_ty : Types.t;
  sig_kind : [ `Plain | `Bus | `Register ];
  sig_resolution : (Value.t list -> Value.t) option;
  mutable current : Value.t;
  mutable last_value : Value.t;  (** value before the last event *)
  mutable last_event : time;
  mutable active : bool;  (** a transaction occurred this cycle *)
  mutable event : bool;  (** the value changed this cycle *)
  mutable drivers : driver list;
  mutable sig_disconnect : time;
      (** disconnection specification (LRM 5.3): delay before a guarded
          disconnect takes effect; 0 = immediate *)
  mutable watchers : proc list;
      (** fanout: the waiting processes whose wait lists this signal (kept
          by the kernel) *)
  mutable observers : (time -> signal -> unit) list;  (** tracing hooks *)
  mutable sig_enqueue : driver -> unit;
      (** called by {!schedule} when a driver's earliest pending transaction
          changes; the kernel installs it to queue the driver under that
          time ([ignore] until the signal is registered) *)
}

and driver = {
  drv_signal : signal;
  drv_owner : int;  (** process id *)
  mutable drv_value : Value.t;  (** current driving value *)
  mutable drv_connected : bool;  (** false after a guarded disconnect *)
  mutable drv_wave : (time * Value.t option) list;
      (** projected output waveform, ascending times; [None] is a null
          transaction: the driver disconnects when it matures *)
  mutable drv_indices : int list option;
      (** LRM drivers are per scalar subelement: a driver created by element
          association owns only these indices of a composite signal, and
          disjoint element drivers merge without a resolution function *)
}

and proc_state =
  | Ready  (** run (again) this delta *)
  | Waiting
  | Terminated  (** ran off a wait-free body or was killed *)

and proc = {
  proc_id : int;
  proc_name : string;
  mutable proc_state : proc_state;
  mutable resume : unit -> unit;  (** continues the fiber *)
  mutable wake_signals : signal list;
      (** the signals of the last wait; the process is in their [watchers] *)
  mutable wake_until : (unit -> bool) option;
  mutable wake_at : time option;
}

type wait_req = {
  wr_on : signal list;
  wr_until : (unit -> bool) option;
  wr_for : time option;  (** absolute wake time *)
}
(** What a wait statement waits for. *)

type _ Effect.t += Wait : wait_req -> unit Effect.t
(** Performed by a wait statement in a translated process body; the
    kernel's effect handler captures the continuation and resumes it when
    a wake condition holds. *)

exception Simulation_error of { time : time; msg : string }

val sim_error : time:time -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Simulation_error} with a formatted message. *)

val make_signal :
  id:int ->
  name:string ->
  ty:Types.t ->
  kind:[ `Plain | `Bus | `Register ] ->
  resolution:(Value.t list -> Value.t) option ->
  init:Value.t ->
  signal

val driver_of : signal -> proc_id:int -> driver
(** The driver of [proc_id] on the signal, created on first use (LRM: one
    driver per process per driven signal). *)

val schedule :
  driver -> mode:Kir.delay_mode -> transactions:(time * Value.t option) list -> unit
(** Edit the projected output waveform.  Transport delay deletes pending
    transactions at or after the first new one; inertial delay deletes all
    pending transactions (pulse rejection).  A leading value transaction
    reconnects the driver; null transactions disconnect when they mature.
    When the earliest pending transaction changes, the signal's
    [sig_enqueue] hears of it. *)

val disconnect : driver -> unit
(** Immediate disconnect (a guarded assignment whose guard fell, with no
    disconnection specification). *)

val head_time : driver -> time
(** Time of the driver's earliest pending transaction; [max_int] if none. *)

val update_signal : now:time -> signal -> bool
(** Resolve the connected drivers into a new current value: single driver
    passes through (via the resolution function if one exists), several
    resolve or merge element-wise when they own disjoint indices.  Returns
    [true] if an event occurred (and notifies observers). *)

val format_time : time -> string
(** ["15 ns"], ["20 ps"], ["7 fs"] — smallest exact unit. *)
