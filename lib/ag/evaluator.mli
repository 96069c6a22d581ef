(** Attribute evaluation over derivation trees.

    Demand-driven and memoizing: asking for any attribute triggers exactly
    the semantic-rule applications its value transitively depends on, each
    at most once.  {!evaluate_plan} drives it pass by pass from the static
    plan {!Analysis.plan} builds, the way Linguist's generated evaluators
    proceed; plain demand evaluation is the reference oracle. *)

type 'v t

exception Cycle of { prod_name : string; attr_name : string }
(** Raised when demand evaluation encounters a genuine circularity (caught
    statically by {!Analysis.compute} for strongly noncircular grammars). *)

exception
  Missing_rule of {
    prod_name : string;
    attr_name : string;
    pos : int;
  }

exception Fuel_exhausted of { applications : int; limit : int }
(** Raised when the rule-application budget given to {!create} runs out —
    the resource-containment hook: a runaway evaluation surfaces as a
    catchable, structured condition. *)

type 'v provenance = Provenance.t * string * ('v -> string)
(** A provenance hook: the recorder, the AG's label in the records (e.g.
    ["vhdl"], ["expr"]), and a compact value summarizer. *)

val create :
  ?token_line:(int -> 'v) ->
  ?fuel:int ->
  ?tick:(unit -> unit) ->
  ?provenance:'v provenance ->
  ?copy_elide:bool ->
  'v Grammar.t ->
  root_inherited:(string * 'v) list ->
  'v Tree.t ->
  'v t
(** Prepare a derivation tree for evaluation: number its nodes in one
    post-order walk (children before parents, left to right) and take
    ownership of their attribute cells, which evaluation fills in place.
    A tree belongs to one evaluator: evaluating the same input twice means
    parsing it twice.  [root_inherited] supplies the root's inherited
    attributes by name; [token_line] injects a token's
    source line into the value type for rules depending on the LINE token
    attribute.  [fuel] bounds the total number of semantic-rule
    applications ({!Fuel_exhausted} beyond it); [tick] is called every 256
    applications — the wall-clock deadline hook.  [provenance] records
    every attribute-instance computation into the given recorder; without
    it the only residue is one option test per evaluation.  [copy_elide]
    (default [true]) moves copy-rule values by reference instead of
    applying the identity rule — see {!Grammar.rule.copy_of}; the
    differential oracle's reference side turns it off.
    @raise Invalid_argument if another evaluator has already numbered
    [tree]. *)

val goal : 'v t -> string -> 'v
(** Value of a synthesized attribute at the root — the paper's "goal
    attributes", the results of the translation. *)

val rule_applications : 'v t -> int
(** Semantic-rule applications so far (bench instrumentation). *)

(** {1 Per-region evaluation}

    The exception firewall (lib/core/supervisor) evaluates each design
    unit's goal attributes at its own subtree root so one poisoned unit
    cannot take down its siblings. *)

type 'v site
(** An interior node of the decorated tree. *)

val sites : 'v t -> symbol:string -> 'v site list
(** Nodes whose production's left-hand side is [symbol], in source order.
    @raise Invalid_argument if [symbol] is the left-hand side of a chain
    production ({!Grammar.production.chain}): a tree may lack its nodes. *)

val eval_at : 'v t -> 'v site -> string -> 'v
(** Value of attribute [name] at the site; inherited attributes resolve
    through the parent chain. *)

val evaluate_plan : ?site:'v site -> 'v t -> plan:Analysis.plan -> int
(** Drive evaluation from a static plan ({!Analysis.plan}): pass by pass,
    bottom-up over the tree (or the subtree under [site]), forcing per
    production exactly the non-copy synthesized attributes the plan
    assigned to the pass.  Copy targets move by reference on first read
    (elision); inherited attributes are pulled on demand.  Returns the
    number of passes run. *)

val site_id : 'v site -> int
(** Provenance node id of the site: the key under which the site's goal
    attributes appear in a {!Provenance} recorder. *)

val site_line : 'v site -> int
(** Source line of the site's first token (0 for an empty region): the
    node's {!Tree.t.line}. *)

val site_leaf_values : ?limit:int -> 'v site -> 'v list
(** Token values of the first [limit] (default 64) leaves under the site,
    in source order — for labelling the region in diagnostics. *)

val clear_in_progress : 'v t -> unit
(** Reset to [Empty] the in-progress cells left by an evaluation that
    escaped mid-rule, so sibling regions do not see phantom cycles and a
    later request recomputes them; completed values are kept. *)
