(** From attribute grammar to LALR(1) parser (Linguist's parser half).

    The same machinery serves the principal VHDL grammar (tokens from the
    file scanner) and the expression grammar (tokens from a LEF list fed by
    the trivial list scanner of cascaded evaluation). *)

type 'v t = {
  grammar : 'v Grammar.t;
  table : Vhdl_lalr.Table.t;
  eof : int;
  stub : 'v Tree.t;  (** the {!Tree.stub} of the nodes this parser builds *)
}

exception
  Conflicts of {
    grammar_name : string;
    report : string;
  }

val create : ?name:string -> 'v Grammar.t -> eof:string -> 'v t
(** Build the LALR(1) tables.  @raise Conflicts on any conflict (the
    paper's authors had to track conflict resolution by hand when uniting
    productions; we reject instead). *)

val of_tables :
  'v Grammar.t ->
  eof:string ->
  action:Vhdl_lalr.Table.action array array ->
  goto:int array array ->
  'v t
(** A parser over conflict-free tables built earlier for the same grammar
    — the run-time half of build-time generation ({!Generated.load} checks
    the grammar's fingerprint first). *)

val parse :
  'v t -> elide_chains:bool -> lexer:(unit -> 'v Vhdl_lalr.Driver.token) -> 'v Tree.t
(** Parse a token stream into a derivation tree.  The shift/reduce
    callbacks build {!Tree.t} nodes directly, parent links and empty
    attribute cells included, for one {!Evaluator} to number and decorate.
    With [elide_chains], a reduce by a chain production
    ({!Grammar.production.chain}) builds no node and hands its one child
    up: the staged compile path's trees.  The reference path passes
    [false] and gets every node, so the differential oracle checks the
    elision. *)

val parse_list :
  'v t -> elide_chains:bool -> eof_value:'v -> 'v Vhdl_lalr.Driver.token list -> 'v Tree.t
(** Parse a pre-materialized token list (the LEF case: the scanner "just
    takes the next LEF token off the front of the list"). *)

val parse_list_recovering :
  ?max_errors:int ->
  ?max_depth:int ->
  'v t ->
  elide_chains:bool ->
  eof_value:'v ->
  checkpoint:(int -> bool) ->
  classify:(int -> Vhdl_lalr.Driver.sync_class) ->
  'v Vhdl_lalr.Driver.token list ->
  'v Tree.t Vhdl_lalr.Driver.recovery
(** Parse a token list with panic-mode error recovery: all syntax errors
    are reported in one run, and design units outside the damaged regions
    survive into the salvaged derivation tree. *)
