(** Crash containment: the per-unit exception firewall and resource
    budgets.

    {!guard} runs one phase of work for one design unit and converts every
    internal escape ([Pval.Internal], [Grammar.Ill_formed], evaluator
    cycles, [Stack_overflow], [Failure], ...) into a structured {!Diag.t}
    with an [Internal] origin, and every budget exhaustion
    ([Evaluator.Fuel_exhausted], [Elaborate.Budget_exhausted],
    {!Deadline}) into one with a [Budget] origin — both tagged with the
    phase and unit.  A corrupt VIF file ([Library.Library_error]) becomes
    an ordinary error on the unit that referenced it.  Fatal conditions
    ([Out_of_memory], [Sys.Break]) and unrecognized exceptions still
    propagate. *)

type phase =
  | Scan
  | Parse
  | Analysis
  | Elaboration
  | Simulation

val phase_name : phase -> string

(** Optional resource limits; [None] means unlimited. *)
type budgets = {
  eval_fuel : int option; (* semantic-rule applications per compile *)
  elab_steps : int option; (* signals + processes + instances elaborated *)
  deadline_s : float option; (* wall-clock seconds per compile *)
  sim_step_fuel : int option; (* process resumptions per simulated instant *)
}

val no_budgets : budgets
(** All limits off — the default everywhere. *)

exception Deadline of { seconds : float; elapsed_s : float }
(** The configured limit and the wall time actually spent when the clock
    tripped — both surface in the [budget:…] diagnostic so deadline
    responses are self-describing. *)

type clock
(** A started deadline clock. *)

val start_clock : ?deadline_s:float -> unit -> clock

val check : clock -> unit
(** @raise Deadline once the clock's limit has passed.  Cheap; called from
    the evaluator's tick hook. *)

val guard :
  phase:phase -> ?unit_name:string -> ?line:int -> (unit -> 'a) -> ('a, Diag.t) result
(** Run [f] under the firewall (see the module description). *)

val diag_of_exn :
  phase:phase ->
  ?unit_name:string ->
  ?elapsed_s:float ->
  line:int ->
  exn ->
  Diag.t option
(** The classification [guard] uses; [None] for exceptions the firewall
    does not contain.  [elapsed_s] (wall time spent in the guarded work)
    is appended to budget diagnostics so they report both the configured
    limit and the time actually consumed. *)

(** {1 Partial-result reporting} *)

type unit_status =
  | Compiled (* analysis succeeded *)
  | Errored (* user-level errors in the unit *)
  | Poisoned (* the firewall contained an internal escape here *)
  | Skipped (* not attempted: a budget died before reaching it *)

val status_name : unit_status -> string

val count_status : unit_status -> unit
(** Bump the [supervisor.units_*] telemetry counter for a status — called
    once per design unit as its report line is recorded. *)

type unit_report = {
  ur_name : string;
  ur_line : int;
  ur_status : unit_status;
  ur_node : int;
      (** provenance node id of the unit's site — where [vhdlc explain]
          resolves the unit's goal attributes *)
  ur_counters : (string * int) list;
      (** telemetry-counter delta across this unit's analysis: the
          supervisor snapshots at the unit boundary, so a failing unit's
          report line carries the counts of the work that failed *)
}

val pp_report : Format.formatter -> unit_report list -> unit
(** One line per unit — status, name, line, and the headline counter
    deltas ([rules]/[attrs]/[cascade]) when non-zero. *)
