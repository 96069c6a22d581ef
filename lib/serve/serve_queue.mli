(** Bounded admission queue with load shedding and an honest retry-after
    hint (EWMA of recent service times x backlog depth). *)

type 'a t

val create : capacity:int -> 'a t
val length : 'a t -> int
val capacity : 'a t -> int

val note_service_time : 'a t -> float -> unit
(** Record a completed request's service time — feeds the retry hint. *)

val retry_after_s : 'a t -> float
(** Expected time for the current backlog (plus in-flight work) to drain. *)

type 'a admission =
  | Admitted
  | Shed of { retry_after_s : float }

val admit : 'a t -> 'a -> 'a admission
(** Enqueue, or shed with a retry hint when the queue is at capacity. *)

val pop : 'a t -> 'a option
