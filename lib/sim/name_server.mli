(** The Name Server — "the means of identifying by name each object in the
    simulated system" (paper §2.1).  Hierarchical paths use colons:
    [:top:u1:q]. *)

type entry =
  | Signal of Rt.signal
  | Process of Rt.proc
  | Instance of { instance_path : string; entity : string; architecture : string }

type t

val create : unit -> t
val register : t -> string -> entry -> unit
val find : t -> string -> entry option
val find_signal : t -> string -> Rt.signal option

val instances : t -> (string * string * string) list
(** (path, entity, architecture) of every instance. *)

val pp : Format.formatter -> t -> unit
