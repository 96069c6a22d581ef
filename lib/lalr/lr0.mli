(** LR(0) automaton construction.

    Items are packed into single integers: [prod_id * stride + dot], with a
    virtual augmented production standing for [S' ::= start].  States are
    canonical sorted arrays of kernel items; the closure is recomputed on
    demand (cheap, and keeps states small and hashable). *)

type item = int

type t = {
  cfg : Cfg.t;
  stride : int;
  aug_prod : int;  (** id of the virtual production [S' ::= start] *)
  states : item array array;  (** kernel item sets *)
  transitions : (int * int) list array;  (** state -> (symbol, next state) *)
  n_states : int;
}

val item : stride:int -> int -> int -> item
val item_prod : stride:int -> item -> int
val item_dot : stride:int -> item -> int

val prod_rhs : t -> int -> int array
(** Right-hand side of a production; the augmented production yields
    [[| start |]]. *)

val build : Cfg.t -> t
(** The canonical LR(0) collection by worklist over kernel item sets. *)

val goto : t -> int -> int -> int option
(** [goto t state symbol] — the successor state, if any. *)

val items : t -> int -> item list
(** Kernel plus closure items of a state, sorted. *)

val reductions : t -> int -> int list
(** Complete items (dot at end) of a state, as production ids. *)
