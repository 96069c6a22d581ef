(** Bounded admission queue with load shedding.

    Admission control is the first robustness layer of the daemon: a
    traffic spike must turn into explicit, cheap [overload] rejections
    carrying a retry-after hint, never into unbounded queueing (memory
    growth + every queued client timing out at once).

    The retry-after hint is honest: an exponentially-weighted moving
    average of recent service times, multiplied by the backlog a new
    request would sit behind.  A client that waits that long and retries
    lands in a queue that has (on average) just drained. *)

type 'a t = {
  capacity : int;
  q : 'a Queue.t;
  mutable ewma_service_s : float; (* EWMA of recent service times *)
}

let ewma_alpha = 0.2
let default_service_s = 0.05 (* before any request has been measured *)

let create ~capacity =
  { capacity = max 0 capacity; q = Queue.create (); ewma_service_s = default_service_s }

let length t = Queue.length t.q
let capacity t = t.capacity

(** Record a completed request's service time — feeds the retry hint. *)
let note_service_time t seconds =
  if seconds >= 0.0 then
    t.ewma_service_s <-
      ((1.0 -. ewma_alpha) *. t.ewma_service_s) +. (ewma_alpha *. seconds)

(** The hint given to a shed client: expected time for the current backlog
    (plus the in-flight request) to drain. *)
let retry_after_s t =
  Float.max 0.05 (t.ewma_service_s *. float_of_int (Queue.length t.q + 1))

type 'a admission =
  | Admitted
  | Shed of { retry_after_s : float }

let admit t x =
  if Queue.length t.q >= t.capacity then Shed { retry_after_s = retry_after_s t }
  else begin
    Queue.push x t.q;
    Admitted
  end

let pop t = Queue.take_opt t.q
