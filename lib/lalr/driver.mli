(** Table-driven LALR(1) parser, agnostic to what it builds.

    The AG layer instantiates [shift]/[reduce] with derivation-tree
    constructors, so the same driver parses VHDL source (fed by the file
    scanner) and LEF token lists (fed by the trivial list scanner of
    cascaded evaluation). *)

type 'v token = {
  t_sym : int;
  t_value : 'v;
  t_line : int;
}

exception
  Syntax_error of {
    line : int;
    found : string;
    expected : string list;
  }

val parse :
  ?max_depth:int ->
  Table.t ->
  lexer:(unit -> 'v token) ->
  shift:(int -> 'v -> int -> 'n) ->
  reduce:(int -> 'n array -> int -> 'n) ->
  'n
(** [parse tbl ~lexer ~shift ~reduce] runs the automaton: [shift sym value
    line] builds a leaf, [reduce prod stack base] a node from the children
    [stack.(base)] .. [stack.(base + n - 1)] of the [n]-symbol [prod].  The
    [stack] is the driver's own, overwritten after the call: a callback
    keeps children by copying them.  The driver allocates nothing per
    shift or reduce.  Stops at the first error.  [max_depth] bounds the
    parse stack
    so pathological nesting (thousands of unclosed parentheses) becomes a
    {!Syntax_error} instead of an eventual [Stack_overflow] downstream. *)

(** {1 Panic-mode error recovery} *)

(** How a terminal behaves during resynchronization: [Sync_start] tokens
    may begin a fresh segment (design-unit starters); an ["end" ... ";"]
    pair ([Sync_end] then [Sync_semi]) also closes a skipped region. *)
type sync_class =
  | Sync_start
  | Sync_end
  | Sync_semi
  | Sync_other

type error = {
  e_line : int;
  e_found : string;
  e_expected : string list;
  e_skipped : int; (* tokens discarded while resynchronizing *)
}

type 'n recovery = {
  r_root : 'n option; (* the salvaged derivation, if any prefix accepted *)
  r_errors : error list; (* oldest first *)
}

val parse_recovering :
  ?max_errors:int ->
  ?max_depth:int ->
  Table.t ->
  lexer:(unit -> 'v token) ->
  eof:int ->
  shift:(int -> 'v -> int -> 'n) ->
  reduce:(int -> 'n array -> int -> 'n) ->
  checkpoint:(int -> bool) ->
  classify:(int -> sync_class) ->
  'n recovery
(** Parse with phrase-level panic-mode recovery: on error, record a
    located diagnostic, restore the stack to the copy of its prefix taken
    at the last reduce of a [checkpoint] production (for a design file: the
    design-unit list, so well-formed sibling units survive), discard tokens
    to a synchronizing point per [classify], and resume.  Cascade errors
    that follow a resynchronization without any input progress are
    suppressed.  Collects
    at most [max_errors] diagnostics. *)
