(** Compiler diagnostics — the values of the ubiquitous MSGS attribute,
    "concatenated with other messages and propagated to the root of the
    semantic tree" by the MSGS merge class. *)

type severity =
  | Warning
  | Error

(** Where a diagnostic came from: [User] diagnostics describe the source
    text; [Internal] ones are compiler defects the exception firewall
    contained; [Budget] ones report an exhausted resource budget.  The
    latter two carry the pipeline phase and, when known, the design unit
    being processed. *)
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

val make :
  ?severity:severity ->
  ?origin:origin ->
  line:int ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val error : line:int -> ('a, Format.formatter, unit, t) format4 -> 'a
val warning : line:int -> ('a, Format.formatter, unit, t) format4 -> 'a

val internal_error :
  phase:string ->
  ?unit_name:string ->
  line:int ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** An [Internal]-origin error: an escape the firewall converted into a
    report. *)

val budget_error :
  phase:string ->
  ?unit_name:string ->
  line:int ->
  ('a, Format.formatter, unit, t) format4 ->
  'a
(** A [Budget]-origin error: a resource budget ran out. *)

val is_error : t -> bool
val is_internal : t -> bool
val is_budget : t -> bool
val severity_string : severity -> string
val pp : Format.formatter -> t -> unit
val pp_list : Format.formatter -> t list -> unit
val has_errors : t list -> bool
val has_internal : t list -> bool
val has_budget : t list -> bool
