(** Attributed derivation trees: the one node type of the AG engine.

    {!Parsing}'s shift/reduce callbacks build the nodes, parent links and
    empty attribute cells included; {!Evaluator.create} numbers them and
    the evaluator fills the cells in place.  A tree therefore belongs to at
    most one evaluator.  Leaves carry token values — the paper's mechanism
    for attaching symbol-table entries to LEF tokens. *)

type 'v cell =
  | In_progress
  | Done of 'v

type 'v t = {
  prod : int;  (** production id; -1 for leaves *)
  term : int;  (** terminal id; -1 for interior nodes *)
  value : 'v option;  (** token value, for leaves *)
  line : int;
      (** leaves: the token's line; interior: the first non-zero line among
          the children, so 0 only for a region that derives no token *)
  children : 'v t array;
  mutable parent : 'v t option;
  mutable index : int;  (** position among the parent's children *)
  mutable id : int;  (** 0 until {!Evaluator.create} numbers the tree *)
  cells : (int, 'v cell) Hashtbl.t;  (** attribute id -> evaluation state *)
}

val node : int -> 'v t list -> 'v t
(** [node prod children] reduces [children] (in source order) by [prod]
    and links them to the new node. *)

val leaf : term:int -> value:'v -> line:int -> 'v t
val size : 'v t -> int
