(** Attribute grammars: symbols, attributes, productions, semantic rules.

    The formalism of the paper's Linguist system: a context-free grammar
    whose nonterminals carry inherited and synthesized attributes defined by
    semantic rules attached to productions, extended with *attribute
    classes* (paper §4.2) whose missing rules are completed implicitly by
    copy / unit-element / merge-function defaults.

    Polymorphic in the attribute-value type ['v]: the engine never inspects
    values, only moves them through semantic functions. *)

module Interner = Vhdl_util.Interner

type direction =
  | Inherited
  | Synthesized

(** An attribute occurrence inside a production: position 0 is the
    left-hand side, positions 1..n the right-hand-side symbols in order. *)
type occurrence = { pos : int; attr : int }

(** Implicit-rule policy of an attribute class: [Copy] threads a value
    unchanged, [Const u] supplies the unit element, [Merge (m, u)] folds an
    associative dyadic [m] over the right-hand-side occurrences. *)
type 'v default =
  | Copy
  | Const of 'v
  | Merge of ('v -> 'v -> 'v) * 'v

type 'v attr_decl = {
  attr_name : string;
  attr_id : int;
  dir : direction;
  default : 'v default option; (* Some _ iff the attribute is a class *)
}

type provenance =
  | Explicit
  | Implicit (* supplied by attribute-class completion *)

(** A semantic function by the number of dependency values it takes: one
    case each for 0 to 3 dependencies, and [Args] for 4 or more or a
    [Rest] tail, which takes the values as one list in [deps] order. *)
type ('v, 'r) compute =
  | Args0 of (unit -> 'r)
  | Args1 of ('v -> 'r)
  | Args2 of ('v -> 'v -> 'r)
  | Args3 of ('v -> 'v -> 'v -> 'r)
  | Args of ('v list -> 'r)

val map_result : ('r -> 's) -> ('v, 'r) compute -> ('v, 's) compute
(** [map_result wrap c] applies [wrap] to [c]'s result at each application. *)

type 'v rule = {
  target : occurrence;
  deps : occurrence list;
  compute : ('v, 'v) compute;
  provenance : provenance;
  copy_of : occurrence option;
      (** [Some src] iff the rule is a pure copy of [src].  Tagged at
          {!Builder.freeze} (implicit [Copy] completion, inherited [Merge]
          copy-down, explicit {!Builder.copy}) so plan-based evaluation can
          move the value by reference — {!Evaluator}'s copy elision. *)
}

type 'v production = {
  prod_id : int;
  prod_name : string;
  lhs : int;
  rhs : int array;
  rules : 'v rule array;
  rule_at : int array array;
      (** The production's rule index, built once at {!Builder.freeze}:
          [rule_at.(pos).(s)] is the position in [rules] of the rule
          defining the attribute in slot [s] of the symbol at [pos] (see
          {!slot}), or -1; read it through {!rule_for}.  It holds
          positions, not rules, so a rule replaced in place in [rules]
          (fault injection) is the one every later evaluation applies. *)
  chain : bool;
      (** A chain production, marked at {!Builder.freeze}: a unit
          production [A -> B] where [B] is a nonterminal, [A] is not the
          start symbol, every rule is a same-attribute copy between [A] and
          [B] or a dependency-free constant for a synthesized attribute of
          [A] that no rule reads at a child position, and [B] declares every
          other attribute of [A].  A parser may hand [B]'s node up in its
          place ({!Parsing.parse}): what a parent reads of [A] is then what
          [B] has. *)
}

type 'v t = {
  symbols : Interner.t;
  attrs : 'v attr_decl array;
  attr_ids : (string, int) Hashtbl.t;
  is_terminal : bool array;
  sym_attrs : int list array;
  slots : int array array;  (** symbol -> attribute id -> slot, or -1 *)
  n_slots : int array;  (** slots per symbol *)
  productions : 'v production array;
  prods_of : int list array;
  start : int;
  token_value_attr : int; (* the implicit VAL attribute of every terminal *)
  token_line_attr : int; (* the implicit LINE attribute of every terminal *)
}

val symbol_name : 'v t -> int -> string
val attr_name : 'v t -> int -> string
val attr_dir : 'v t -> int -> direction
val is_terminal : 'v t -> int -> bool
val production : 'v t -> int -> 'v production
val n_symbols : 'v t -> int
val n_productions : 'v t -> int
val attrs_of : 'v t -> int -> int list

val slot : 'v t -> int -> int -> int
(** [slot g sym attr]: the slot of [attr] on [sym], its index in
    [attrs_of g sym], numbered once at {!Builder.freeze}; -1 if [sym] does
    not declare [attr].  A tree node keeps its attribute cells in this
    order, and [rule_at] is indexed by it. *)

val n_slots : 'v t -> int -> int
(** Number of slots of a symbol: the length of [attrs_of]. *)

val rule_for : 'v production -> pos:int -> slot:int -> 'v rule
(** The rule of the production that defines the attribute in slot [slot]
    of the symbol at position [pos]: one lookup in [rule_at], read from
    [rules] at call time.
    @raise Not_found if no rule defines it, or [slot] is -1. *)

val find_symbol : 'v t -> string -> int
val find_attr : 'v t -> string -> int

val token_value_name : string
(** Name of the implicit token-value attribute of every terminal — the
    mechanism the paper uses to attach symbol-table entries to LEF tokens. *)

val token_line_name : string

type 'v grammar = 'v t

exception Ill_formed of string
(** Raised at {!Builder.freeze} for malformed grammars: missing or
    duplicate rules, bad positions, terminals with attributes, etc. *)

(** The dependencies of a semantic rule, typed by the function they feed:
    each [(pos, attr)] occurrence adds one parameter of type ['v], and a
    [Rest] tail adds one ['v list] parameter for its occurrences.  A call
    site writes a list literal, [~deps:[ (1, "VAL"); (1, "LINE") ]], and
    the type checker resolves it against [fun v line -> ...]. *)
type ('v, 'f, 'r) deps =
  | [] : ('v, 'r, 'r) deps
  | ( :: ) : (int * string) * ('v, 'f, 'r) deps -> ('v, 'v -> 'f, 'r) deps
  | Rest : (int * string) list -> ('v, 'v list -> 'r, 'r) deps

module Builder : sig
  type 'v rule_spec
  type 'v t

  val create : unit -> 'v t
  val terminal : 'v t -> string -> int
  val nonterminal : 'v t -> string -> int

  val attr : 'v t -> sym:string -> name:string -> dir:direction -> unit
  (** Declare a plain attribute on a symbol: every production of (or
      around) the symbol must define it explicitly. *)

  val attr_class : 'v t -> name:string -> dir:direction -> default:'v default -> unit
  (** Declare an attribute class (paper §4.2): missing rules are completed
      per [default] at freeze time. *)

  val attr_member : 'v t -> sym:string -> cls:string -> unit

  val rule : target:int * string -> deps:('v, 'f, 'v) deps -> 'f -> 'v rule_spec
  (** A semantic rule: [target] receives the result of applying the
      function to the dependency values, one argument per dependency in
      order, so the type checker checks the rule's arity.  Targets must be
      synthesized-of-LHS or inherited-of-RHS; dependencies may reference
      any occurrence (local chaining included). *)

  val rule_map :
    ('r -> 'v) -> target:int * string -> deps:('v, 'f, 'r) deps -> 'f -> 'v rule_spec
  (** [rule_map wrap]: a rule whose function's result [wrap] turns into
      the attribute value. *)

  val const : target:int * string -> 'v -> 'v rule_spec
  val copy : target:int * string -> from:int * string -> 'v rule_spec

  val production :
    'v t -> name:string -> lhs:string -> rhs:string list -> rules:'v rule_spec list -> unit

  val freeze : 'v t -> start:string -> 'v grammar
  (** Validate, complete implicit rules, and seal the grammar.
      @raise Ill_formed on any inconsistency. *)
end
