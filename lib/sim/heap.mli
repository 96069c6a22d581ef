(** A binary min-heap of values under integer keys.  The simulation kernel
    keeps its pending driver transactions and process timeouts in heaps
    keyed by time, so finding the next point of interest costs O(log n)
    instead of a scan of every driver and process; heaps keyed by process
    and signal id hand it the ready processes and the updated signals in
    registration order.  Entries with equal keys come out in no particular
    order. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> int -> 'a -> unit

val min_key : 'a t -> int
(** Key of the smallest entry; [max_int] when the heap is empty. *)

val top : 'a t -> 'a
(** Value of the smallest entry.  The heap must not be empty. *)

val pop : 'a t -> unit
(** Drop the smallest entry (no-op on an empty heap). *)
