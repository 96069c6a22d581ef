(** Compilation session, the one per-compile context: how semantic rules
    reach foreign compilation units (the paper's working library +
    reference library arguments) and how the cascade runs, including the
    compile's phase timer it charges.

    A session is read-only: rules look units up, and the driver places a
    unit in the library only once its analysis is error-free.  The active
    session is installed around attribute evaluation; the compiler is
    single-threaded, as was the original. *)

val work : string
(** ["WORK"]: LRM 11.2's name for the working library, the one design
    units are analyzed into. *)

type t = {
  find_unit : library:string -> key:string -> Unit_info.compiled_unit option;
  known_library : string -> bool;
  provenance : Provenance.t option;  (** the recorder the cascade records into *)
  reference : bool;  (** the oracle's reference side: no copy elision in the expression AG *)
  timer : Vhdl_util.Phase_timer.t;  (** the compile's phase timer, which the cascade charges *)
}

val in_memory : Unit_info.compiled_unit list -> t
(** A session over an in-memory unit list (tests, benches), with a fresh
    phase timer. *)

val with_session : t -> (unit -> 'a) -> 'a
val get : unit -> t

val find_unit : library:string -> key:string -> Unit_info.compiled_unit option
val known_library : string -> bool

val provenance : unit -> Provenance.t option
val reference : unit -> bool
val timer : unit -> Vhdl_util.Phase_timer.t option
(** The active session's fields; [None] and [false] outside any session. *)
