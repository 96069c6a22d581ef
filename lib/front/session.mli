(** Compilation session, the one per-compile context: how semantic rules
    reach foreign compilation units (the paper's working library +
    reference library arguments) and how the cascade runs.

    The active session is installed around attribute evaluation; the
    compiler is single-threaded, as was the original. *)

type t = {
  work_library : string;
  find_unit : library:string -> key:string -> Unit_info.compiled_unit option;
  insert : Unit_info.compiled_unit -> unit;
  known_library : string -> bool;
  subprogs : (string, Denot.subprog_sig) Hashtbl.t;
  provenance : Provenance.t option;  (** the recorder the cascade records into *)
  reference : bool;  (** the oracle's reference side: no cascade memo, no copy elision *)
}

val in_memory : ?work:string -> Unit_info.compiled_unit list -> t
(** A session over an in-memory unit list (tests, benches). *)

val with_session : t -> (unit -> 'a) -> 'a
val get : unit -> t

val find_unit : library:string -> key:string -> Unit_info.compiled_unit option
val work : unit -> string
val known_library : string -> bool

val provenance : unit -> Provenance.t option
val reference : unit -> bool
(** The active session's fields; [None] and [false] outside any session. *)

val insert_unit : Unit_info.compiled_unit -> unit
(** Called as each unit finishes analysis, so later units in the same file
    can reference it. *)

val insert_hook : (Unit_info.compiled_unit -> unit) ref
(** Observation / fault-injection point: invoked with each unit before
    {!insert_unit} stores it.  Default: no-op.  The differential-testing
    harness poisons selected units through it. *)

val register_subprog : Denot.subprog_sig -> unit
(** Record a signature by mangled name (procedure-call statements need
    parameter modes for copy-back). *)

val find_subprog : string -> Denot.subprog_sig option
