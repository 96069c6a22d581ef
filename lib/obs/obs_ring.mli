(** The flight recorder's memory: fixed-size rings of the last N events
    and the per-request telemetry-counter deltas of the last M requests.
    Always on (a push is an array store), dumped on demand by
    {!Obs_log.dump}. *)

(** {1 Bounded rings} *)

type 'a ring
(** The last [capacity] values pushed; older ones are overwritten. *)

val ring_create : int -> 'a ring
val ring_push : 'a ring -> 'a -> unit

val ring_to_list : 'a ring -> 'a list
(** The values still held, oldest first. *)

val ring_clear : 'a ring -> unit

(** {1 The flight recorder} *)

type t

type request_delta = {
  rd_rid : int;
  rd_counters : (string * int) list; (* telemetry counters this request moved *)
}

val create : ?events:int -> ?requests:int -> unit -> t
(** Capacities: last [events] events (default 256), last [requests]
    per-request counter deltas (default 32). *)

val push : t -> Obs_event.t -> unit
val note_request_delta : t -> rid:int -> (string * int) list -> unit

val events : t -> Obs_event.t list
(** Recorded window, oldest first. *)

val request_deltas : t -> request_delta list

val pushed : t -> int
(** Total events ever pushed (≥ the recorded window). *)
