(** The daemon's worker: each request compiles with a fresh compiler (an
    empty in-memory WORK library over the reference libraries), behind a
    request-level firewall and an out-of-band watchdog.

    {!handle} is total: every admitted request gets a structured response.
    Budget escapes become [timeout], contained internal escapes become
    [internal], and a request wedged past its deadline is broken by the
    SIGALRM watchdog and answered [timeout wedged=1].  Only process-fatal
    conditions ([Out_of_memory], [Sys.Break]) propagate. *)

type config = {
  w_default_deadline_s : float; (* when the request names none *)
  w_watchdog_grace_s : float; (* watchdog = deadline + grace *)
  w_allow_faults : bool; (* honor poison= / spin_ms= / hog_kb= request fields *)
  w_budgets : Supervisor.budgets; (* base limits under request overrides *)
  w_ref_libs : (string * string) list; (* reference libraries (name, dir) *)
}

val default_config : config

type t

val create : config -> t

val served : t -> int
(** Requests handled so far. *)

val last_phases : t -> (string * float) list
(** Per-phase self-time (compiler phase name, seconds) charged by the
    last {!handle}: the phase table of that request's own compiler. *)

val last_allocs : t -> (string * float) list
(** Per-phase self-allocated words charged by the last {!handle}, from
    the same phase timer as {!last_phases}. *)

val last_alloc_w : t -> float
(** Words the last {!handle} allocated (minor + direct-major, promotions
    excluded), read with {!Vhdl_telemetry.Telemetry.allocated_words_now}. *)

exception Wedged of { after_s : float }
(** Raised by the watchdog's SIGALRM handler inside the wedged request. *)

val with_watchdog : seconds:float -> (unit -> 'a) -> 'a
(** Run [f] under an interval-timer watchdog that raises {!Wedged} in it
    after [seconds].  Exposed for the unit battery. *)

val handle : t -> Serve_protocol.request -> Serve_protocol.response
(** Process one admitted request (see module description). *)
