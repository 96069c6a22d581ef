(** Crash containment: the per-unit exception firewall and resource budgets.

    The paper's compiler was a batch tool — an internal error killed the
    run.  This module keeps one poisoned design unit (or one exhausted
    budget) from taking the whole compilation down: {!guard} runs a phase
    of work for one unit and converts every internal escape into a
    structured {!Diag.t} with an [Internal] or [Budget] origin, tagged with
    the phase and the unit being processed.

    Resource budgets are a record of optional limits; [None] means
    unlimited, and {!no_budgets} (the default everywhere) disables all of
    them, so the ordinary pipeline pays nothing. *)

module Tm = Vhdl_telemetry.Telemetry

let m_units_compiled = Tm.counter "supervisor.units_compiled"
let m_units_errored = Tm.counter "supervisor.units_errored"
let m_units_poisoned = Tm.counter "supervisor.units_poisoned"
let m_units_skipped = Tm.counter "supervisor.units_skipped"
let m_budget_exhaustions = Tm.counter "supervisor.budget_exhaustions"
let m_internal_escapes = Tm.counter "supervisor.internal_escapes"

(** Pipeline phases, for tagging diagnostics. *)
type phase =
  | Analysis
  | Elaboration
  | Simulation

let phase_name = function
  | Analysis -> "analysis"
  | Elaboration -> "elaboration"
  | Simulation -> "simulation"

(** Optional resource limits; [None] everywhere means "no budget". *)
type budgets = {
  eval_fuel : int option; (* semantic-rule applications per compile *)
  elab_steps : int option; (* signals + processes + instances elaborated *)
  deadline_s : float option; (* wall-clock seconds per compile *)
  sim_step_fuel : int option; (* process resumptions per simulated instant *)
}

let no_budgets =
  { eval_fuel = None; elab_steps = None; deadline_s = None; sim_step_fuel = None }

exception Deadline of { seconds : float; elapsed_s : float }

(** A started deadline clock.  [check] is cheap enough to call from the
    evaluator's tick hook (every 256 rule applications). *)
type clock = {
  c_start : float;
  c_limit : float option;
}

let start_clock ?deadline_s () =
  { c_start = Vhdl_util.Unix_compat.now (); c_limit = deadline_s }

let check clock =
  match clock.c_limit with
  | None -> ()
  | Some limit ->
    let elapsed = Vhdl_util.Unix_compat.now () -. clock.c_start in
    if elapsed > limit then raise (Deadline { seconds = limit; elapsed_s = elapsed })

(* ------------------------------------------------------------------ *)
(* The firewall proper *)

(* exceptions the firewall must never swallow: resource death the process
   cannot recover from, interactive interrupts, and the compiler's own
   already-structured error carriers *)
let is_fatal = function
  | Out_of_memory | Sys.Break -> true
  | _ -> false

let diag_of_exn ~phase ?unit_name ?elapsed_s ~line exn : Diag.t option =
  let p = phase_name phase in
  let internal msg =
    Tm.incr m_internal_escapes;
    Some (Diag.internal_error ~phase:p ?unit_name ~line "%s" msg)
  in
  (* budget diagnostics are self-describing: they name the configured limit
     and — when the caller timed the guarded work — the wall time spent
     before the budget died, so a shed/deadline response from a long-lived
     service needs no daemon-side context to interpret *)
  let elapsed_suffix =
    match elapsed_s with
    | Some e -> Printf.sprintf "; %.3fs elapsed" e
    | None -> ""
  in
  let budget_plain msg =
    Tm.incr m_budget_exhaustions;
    Some (Diag.budget_error ~phase:p ?unit_name ~line "%s" msg)
  in
  let budget msg = budget_plain (msg ^ elapsed_suffix) in
  match exn with
  (* budgets *)
  | Evaluator.Fuel_exhausted { applications; limit } ->
    budget
      (Printf.sprintf
         "evaluation fuel exhausted after %d rule applications (limit %d)"
         applications limit)
  | Elaborate.Budget_exhausted { steps; limit } ->
    budget
      (Printf.sprintf "elaboration budget exhausted after %d steps (limit %d)"
         steps limit)
  | Deadline { seconds; elapsed_s } ->
    (* the deadline exception carries its own wall-time measurement, taken
       at the clock that tripped — more precise than the guard's *)
    budget_plain
      (Printf.sprintf "compilation deadline of %gs exceeded after %.3fs of wall time"
         seconds elapsed_s)
  (* a corrupt VIF file is the user's library, not a compiler defect *)
  | Library.Library_error msg -> Some (Diag.error ~line "%s" msg)
  (* internal escapes *)
  | Pval.Internal msg -> internal (Printf.sprintf "internal error: %s" msg)
  | Grammar.Ill_formed msg ->
    internal (Printf.sprintf "internal error: ill-formed grammar: %s" msg)
  | Evaluator.Cycle { prod_name; attr_name } ->
    internal
      (Printf.sprintf "internal error: attribute cycle at %s.%s" prod_name attr_name)
  | Evaluator.Missing_rule { prod_name; attr_name; pos } ->
    internal
      (Printf.sprintf "internal error: missing rule for %s at position %d of %s"
         attr_name pos prod_name)
  | Stack_overflow -> internal "internal error: stack overflow"
  | Failure msg -> internal (Printf.sprintf "internal error: %s" msg)
  | Invalid_argument msg -> internal (Printf.sprintf "internal error: %s" msg)
  | Not_found -> internal "internal error: uncaught Not_found"
  | Assert_failure (file, ln, _) ->
    internal (Printf.sprintf "internal error: assertion failed at %s:%d" file ln)
  | _ -> None

(** Run [f] under the firewall.  Internal escapes and budget exhaustions
    become [Error diag]; fatal conditions and unrecognized exceptions
    propagate. *)
let guard ~phase ?unit_name ?(line = 0) f : ('a, Diag.t) result =
  let start = Vhdl_util.Unix_compat.now () in
  try Ok (f ())
  with exn when not (is_fatal exn) -> (
    let elapsed_s = Vhdl_util.Unix_compat.now () -. start in
    match diag_of_exn ~phase ?unit_name ~elapsed_s ~line exn with
    | Some d -> Error d
    | None -> raise exn)

(* ------------------------------------------------------------------ *)
(* Partial-result reporting *)

type unit_status =
  | Compiled (* analysis succeeded *)
  | Errored (* user-level errors in the unit *)
  | Poisoned (* the firewall contained an internal escape here *)
  | Skipped (* not attempted: a budget died before reaching it *)

let status_name = function
  | Compiled -> "compiled"
  | Errored -> "errored"
  | Poisoned -> "poisoned"
  | Skipped -> "skipped"

(** Bump the per-unit outcome counter for [status] — called once per design
    unit as its report line is recorded. *)
let count_status = function
  | Compiled -> Tm.incr m_units_compiled
  | Errored -> Tm.incr m_units_errored
  | Poisoned -> Tm.incr m_units_poisoned
  | Skipped -> Tm.incr m_units_skipped

(** One line of the per-compile partial-result report.  [ur_counters] is
    the telemetry-counter delta across this unit's analysis (snapshot at
    the unit boundary, so counts attribute to the unit that did the work,
    not to the whole run); [ur_node] is the unit site's provenance node id,
    the address [vhdlc explain] resolves goal attributes at. *)
type unit_report = {
  ur_name : string;
  ur_line : int;
  ur_status : unit_status;
  ur_node : int;
  ur_counters : (string * int) list;
}

(* the headline subset of a unit's counter delta shown in the report line *)
let headline_counters =
  [
    ("ag.rule_applications", "rules");
    ("ag.attrs_evaluated", "attrs");
    ("cascade.evaluations", "cascade");
  ]

let pp_report fmt (rs : unit_report list) =
  List.iter
    (fun r ->
      Format.fprintf fmt "%-10s %s (line %d)" (status_name r.ur_status) r.ur_name
        r.ur_line;
      let shown =
        List.filter_map
          (fun (name, label) ->
            match List.assoc_opt name r.ur_counters with
            | Some n when n <> 0 -> Some (Printf.sprintf "%s %d" label n)
            | _ -> None)
          headline_counters
      in
      if shown <> [] then Format.fprintf fmt "  [%s]" (String.concat ", " shown);
      Format.fprintf fmt "@.")
    rs
