(** Nullability and FIRST sets. *)

type t = {
  nullable : bool array; (* by symbol id *)
  first : Bitset.t array; (* terminal members, by symbol id *)
}

val compute : Cfg.t -> t
val nullable : t -> int -> bool

val nullable_seq : t -> int array -> int -> bool
(** Is the suffix [rhs.(i)..] entirely nullable? *)
