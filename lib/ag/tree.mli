(** Attributed derivation trees: the one node type of the AG engine.

    {!Parsing}'s shift/reduce callbacks build the nodes and their parent
    links; {!Evaluator.create} numbers them and the evaluator fills their
    attribute cells in place.  A tree therefore belongs to at most one
    evaluator.  Leaves carry token values — the paper's mechanism for
    attaching symbol-table entries to LEF tokens.

    A node's cells are one array indexed by its symbol's attribute slots
    ({!Grammar.slot}: each symbol's attributes numbered once, at
    {!Grammar.Builder.freeze}) — fixed per-symbol storage, as in a
    Linguist-generated evaluator.  The parser allocates no cells: every
    node starts with the shared empty array, and the evaluator allocates
    [Grammar.n_slots] cells on the node's first write.  The same slot
    numbering indexes each production's rule table
    ({!Grammar.production.rule_at}), so the slot that holds an attribute
    instance also finds the rule that defines it. *)

type 'v cell =
  | Empty  (** not evaluated yet (or cleared after an escaped rule) *)
  | In_progress  (** being evaluated: asking again is a cycle *)
  | Done of 'v

type 'v t = {
  prod : int;  (** production id; -1 for leaves *)
  term : int;  (** terminal id; -1 for interior nodes *)
  value : 'v option;  (** token value, for leaves *)
  line : int;
      (** leaves: the token's line; interior: the first non-zero line among
          the children, so 0 only for a region that derives no token *)
  children : 'v t array;
  mutable parent : 'v t;
      (** the node itself at the root; a leaf's [stub] until a [node] adopts it *)
  mutable index : int;  (** position among the parent's children *)
  mutable id : int;  (** 0 until {!Evaluator.create} numbers the tree *)
  mutable cells : 'v cell array;
      (** slot -> evaluation state; [[||]] until the first write *)
}

val stub : unit -> 'v t
(** The first [parent] of new nodes, never part of a tree; one serves any
    number of trees. *)

val node : stub:'v t -> int -> 'v t array -> 'v t
(** [node ~stub prod children] reduces [children] (in source order) by
    [prod]: the new node keeps the array as its [children], becomes their
    parent, and is its own parent until a later [node] adopts it. *)

val leaf : stub:'v t -> term:int -> value:'v -> line:int -> 'v t
(** A token leaf, under [stub] until a [node] adopts it. *)

val size : 'v t -> int
