(** Per-phase wall-clock accounting, for the paper's §2.2 phase-breakdown
    experiment (PERF-PHASE).

    Built on the telemetry span layer: every timed frame is also recorded
    as a telemetry span (category ["phase"]) from the same clock reads, and
    nested frames charge only their self time, so the phase table sums to
    wall clock and cannot disagree with the span tree.

    Each timer owns its frame stack.  There is no process-wide or ambient
    timer: a layer that charges a phase is handed the timer to charge. *)

type t

val create : unit -> t

val time : t -> string -> (unit -> 'a) -> 'a
(** Run a thunk, charging its self time (total minus nested frames of [t])
    to the named phase of [t].  Frames of other timers nested inside it
    are not subtracted.  Re-entrant uses accumulate. *)

val total : t -> float

val total_alloc : t -> float
(** Summed self-allocated words across all phases. *)

val report : t -> (string * float) list
(** Phases in order of first use with accumulated self-time seconds. *)

val report_alloc : t -> (string * float) list
(** Phases in order of first use with accumulated self-allocated words
    (minor + direct-major, promotions excluded) — same child-subtraction
    discipline as {!report}, so the table sums to the run's allocation
    delta.  Each phase's self-allocation is also published as the
    [phase.alloc_b.<name>] telemetry counter, in bytes. *)

val pp : Format.formatter -> t -> unit
