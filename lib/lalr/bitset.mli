(** Dense bit sets over [0, n): terminal sets in the LALR construction. *)

type t

val create : int -> t
val copy : t -> t
val mem : t -> int -> bool
val add : t -> int -> unit

val union_into : into:t -> t -> bool
(** Add all elements of the second set; [true] if the target changed. *)

val elements : t -> int list
