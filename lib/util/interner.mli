(** String interning: dense integer ids for grammar symbols and attribute
    names, so the engines can use arrays indexed by id. *)

type t

val create : unit -> t
val intern : t -> string -> int
(** Id for a name, allocating on first use. *)

val find_opt : t -> string -> int option
val name : t -> int -> string
val count : t -> int
