(** Typed events of the compile-service event log: the unit of the JSONL
    sink and of the in-memory flight recorder.  Request-correlated events
    carry the request id that the daemon also echoes in the response
    header and threads into telemetry spans.

    Request lifecycle grammar, validated by {!check_log}:
    [accept (admit start finish | shed | reject)]. *)

type kind =
  | Accept (* connection accepted; the request id is assigned here *)
  | Admit (* past admission control, into the queue *)
  | Shed (* admission rejection: overload or draining *)
  | Start (* response computation begins *)
  | Finish (* response delivered (or the client was gone) *)
  | Reject (* frame never became a request; no response was owed *)
  | Drain (* lifecycle: drain begins / daemon stopped *)
  | Breach (* a rolling SLO objective was violated *)
  | Heap_breach (* the heap-health watchdog detected sustained growth *)
  | Dump (* a flight-recorder dump was written *)
  | Flush (* periodic metrics flush *)

val kind_name : kind -> string
val kind_of_name : string -> kind option

type field_value =
  | S of string
  | I of int
  | F of float

type t = {
  e_ts : float; (* seconds since process start (the telemetry clock) *)
  e_kind : kind;
  e_rid : int option; (* request id, when the event is about one *)
  e_fields : (string * field_value) list;
}

val make : ?rid:int -> ?fields:(string * field_value) list -> kind -> t
(** Stamp an event with the telemetry clock. *)

val field : t -> string -> field_value option
val field_str : t -> string -> string option

val field_num : t -> string -> float option
(** Numeric field ([F] or [I]); [None] for strings and absences. *)

val phase_prefix : string
(** ["ph_"] — the field-name prefix of per-phase attribution. *)

val phase_fields : t -> (string * float) list
(** The phase breakdown a finish event carries: [(short name,
    microseconds)] for every numeric ["ph_<name>"] field. *)

val alloc_prefix : string
(** ["al_"] — the field-name prefix of per-phase allocation attribution
    (bytes).  Distinct from the ["alloc_b"] total, which does not start
    with ["al_"]. *)

val alloc_fields : t -> (string * float) list
(** The allocation breakdown a finish event carries: [(short name,
    bytes)] for every numeric ["al_<name>"] field. *)

val to_json : t -> string
val to_line : t -> string
(** One flat JSON object, newline-terminated. *)

val of_line : string -> (t, string) result

val read_log : string -> (t list * string list, string) result
(** Parse a whole JSONL event log.  A final line that is not JSON (crash
    mid-write) is skipped and reported as a warning in the second
    component; such a line with well-formed lines after them is real
    corruption and fails the read, as does a JSON line that is no event
    (e.g. an unknown [ev] kind) anywhere in the log. *)

val check_log : t list -> string list
(** Violations of the request-lifecycle grammar: monotone accept rids,
    exactly one start/finish pair per substantive response, no orphan
    rids, and — on finish events carrying both — the per-phase
    attribution summing to within 10% of [service_us], and the [al_*]
    allocation attribution summing to within 10% of [alloc_b] (4 KiB
    floor).  Empty means well-formed. *)
