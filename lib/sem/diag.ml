(** Compiler diagnostics — the values of the ubiquitous MSGS attribute.

    In the paper, messages "must be concatenated with other messages and
    propagated to the root of the semantic tree", which is exactly how the
    MSGS merge class uses {!merge}.

    Beyond ordinary user diagnostics, two structured origins exist for the
    crash-containment subsystem: [Internal] marks a compiler defect that
    the per-unit exception firewall converted into a report instead of a
    process death, and [Budget] marks a resource budget (evaluation fuel,
    elaboration steps, wall-clock deadline, simulation step fuel) running
    out.  Both carry the pipeline phase and, when known, the design unit
    being processed. *)

type severity =
  | Warning
  | Error

(** Where a diagnostic came from.  [User] is a property of the source text;
    the other two describe the compiler's own behavior on it. *)
type origin =
  | User
  | Internal of { phase : string; unit_name : string option }
  | Budget of { phase : string; unit_name : string option }

type t = {
  line : int;
  severity : severity;
  message : string;
  origin : origin;
}

let make ?(severity = Error) ?(origin = User) ~line fmt =
  Format.kasprintf (fun message -> { line; severity; message; origin }) fmt

let error ~line fmt = make ~severity:Error ~line fmt
let warning ~line fmt = make ~severity:Warning ~line fmt

let internal_error ~phase ?unit_name ~line fmt =
  make ~severity:Error ~origin:(Internal { phase; unit_name }) ~line fmt

let budget_error ~phase ?unit_name ~line fmt =
  make ~severity:Error ~origin:(Budget { phase; unit_name }) ~line fmt

let is_error d = d.severity = Error

let is_internal d =
  match d.origin with
  | Internal _ -> true
  | User | Budget _ -> false

let is_budget d =
  match d.origin with
  | Budget _ -> true
  | User | Internal _ -> false

let severity_string = function
  | Warning -> "warning"
  | Error -> "error"

let origin_tag = function
  | User -> ""
  | Internal { phase; unit_name } ->
    Printf.sprintf "[internal:%s%s] " phase
      (match unit_name with Some u -> ":" ^ u | None -> "")
  | Budget { phase; unit_name } ->
    Printf.sprintf "[budget:%s%s] " phase
      (match unit_name with Some u -> ":" ^ u | None -> "")

let pp fmt d =
  Format.fprintf fmt "line %d: %s: %s%s" d.line (severity_string d.severity)
    (origin_tag d.origin) d.message

let pp_list fmt ds =
  Format.pp_print_list ~pp_sep:Format.pp_print_newline pp fmt ds

let has_errors ds = List.exists is_error ds
let has_internal ds = List.exists is_internal ds
let has_budget ds = List.exists is_budget ds
