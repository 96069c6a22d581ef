(** The observability hub a daemon carries: events go to the always-on
    flight-recorder ring and, when configured, to a per-event-flushed
    append-only JSONL sink; {!dump} serializes the ring plus a metrics
    snapshot to a timestamped file for post-mortems. *)

type config = {
  o_events_out : string option; (* JSONL sink; None = ring only *)
  o_ring_events : int; (* flight-recorder event capacity *)
  o_ring_requests : int; (* per-request counter-delta capacity *)
  o_flight_dir : string; (* where flight dumps land *)
  o_max_dumps : int; (* retention cap on dump files; 0 = unlimited *)
  o_exemplar_min_gap_s : float; (* rate limit between exemplar dumps *)
}

val default_config : config

type t

val create : config -> t
(** Opens the sink in append mode when [o_events_out] is set; raises
    [Sys_error] when it cannot be opened. *)

val event :
  t -> ?rid:int -> ?fields:(string * Obs_event.field_value) list ->
  Obs_event.kind -> unit
(** Stamp an event with the telemetry clock, push it into the ring, and
    write it as a durable JSONL line (flushed before returning). *)

val note_request_delta : t -> rid:int -> (string * int) list -> unit

val dump :
  reason:string -> ?rid:int -> fields:(string * string) list -> t ->
  (string option, string) result
(** Write [FLIGHT_DIR/flight-<utc>-<pid>-<seq>[-rid<N>]-<reason>.json]
    and emit a [dump] event naming it; returns the path written.  Every
    dump has one schema: [dumped_at_s], [reason], [rid] ([null] when
    none is implicated), [events_recorded], [events], [request_deltas],
    [metrics], then the caller's [fields] (rendered JSON values).  A dump
    whose reason is ["exemplar"] is rate-limited to one per
    [o_exemplar_min_gap_s] on the telemetry clock ([Ok None] when
    suppressed).  Retention ([o_max_dumps]) is enforced after every
    write. *)

val close : t -> unit
