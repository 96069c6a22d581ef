(** The flight recorder's memory: two fixed-size rings — the last N
    events, and the per-request telemetry-counter deltas of the last M
    requests.

    The ring is always on: pushing is an array store and an index bump,
    so the daemon records continuously without the cost (or the disk) of
    always-on logging.  The recorded window only leaves memory when a
    dump is asked for — on a firewall trip, a watchdog fire, or
    SIGUSR1 — which is exactly when the last few hundred events and the
    counter profile of the offending request are the evidence a
    post-mortem needs. *)

type 'a ring = {
  slots : 'a option array;
  mutable next : int; (* total pushes; next mod capacity is the slot *)
}

let ring_create capacity = { slots = Array.make (max 1 capacity) None; next = 0 }

let ring_push r x =
  r.slots.(r.next mod Array.length r.slots) <- Some x;
  r.next <- r.next + 1

(* oldest first *)
let ring_to_list r =
  let n = Array.length r.slots in
  let start = if r.next <= n then 0 else r.next - n in
  List.filter_map
    (fun i -> r.slots.(i mod n))
    (List.init (r.next - start) (fun k -> start + k))

let ring_clear r =
  Array.fill r.slots 0 (Array.length r.slots) None;
  r.next <- 0

type request_delta = {
  rd_rid : int;
  rd_counters : (string * int) list; (* telemetry counters this request moved *)
}

type t = {
  events : Obs_event.t ring;
  deltas : request_delta ring;
}

let create ?(events = 256) ?(requests = 32) () =
  { events = ring_create events; deltas = ring_create requests }

let push t e = ring_push t.events e

let note_request_delta t ~rid counters =
  ring_push t.deltas { rd_rid = rid; rd_counters = counters }

let events t = ring_to_list t.events
let request_deltas t = ring_to_list t.deltas
let pushed t = t.events.next
