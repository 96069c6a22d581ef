(** From attribute grammar to LALR(1) parser.

    The paper's Linguist generates an LALR parser from the AG's underlying
    context-free grammar and an attribute evaluator from its semantic rules;
    this module is that first half.  The same machinery serves both the
    principal VHDL grammar (tokens from the file scanner) and the expression
    grammar (tokens from a LEF list). *)

module Cfg = Vhdl_lalr.Cfg
module Table = Vhdl_lalr.Table
module Driver = Vhdl_lalr.Driver

type 'v t = {
  grammar : 'v Grammar.t;
  table : Table.t;
  eof : int;
  stub : 'v Tree.t; (* the {!Tree.stub} of the nodes this parser builds *)
}

exception
  Conflicts of {
    grammar_name : string;
    report : string;
  }

(** Underlying CFG of an attribute grammar.  [eof] names a declared terminal
    that the lexer emits at end of input. *)
let cfg_of_grammar (g : 'v Grammar.t) ~eof =
  let eof_id = Grammar.find_symbol g eof in
  let n = Grammar.n_symbols g in
  let is_terminal = Array.init n (Grammar.is_terminal g) in
  let productions =
    Array.init (Grammar.n_productions g) (fun id ->
        let p = Grammar.production g id in
        { Cfg.id; lhs = p.Grammar.lhs; rhs = p.Grammar.rhs })
  in
  Cfg.create ~n_symbols:n ~is_terminal ~productions ~start:g.Grammar.start ~eof:eof_id
    ~symbol_name:(Grammar.symbol_name g)

(** Build the parser.  Any LALR conflict is an error: the AG author must
    resolve it by restructuring, per the paper's discussion. *)
let create ?(name = "grammar") (g : 'v Grammar.t) ~eof =
  let cfg = cfg_of_grammar g ~eof in
  let table = Table.build cfg in
  if table.Table.conflicts <> [] then begin
    let report =
      Format.asprintf "@[<v>%a@]"
        (Format.pp_print_list (Table.pp_conflict table))
        table.Table.conflicts
    in
    raise (Conflicts { grammar_name = name; report })
  end;
  { grammar = g; table; eof = Grammar.find_symbol g eof; stub = Tree.stub () }

(** A parser over tables generated earlier from the same grammar (see
    {!Generated}): only the grammar's context-free skeleton is rebuilt. *)
let of_tables (g : 'v Grammar.t) ~eof ~action ~goto =
  let cfg = cfg_of_grammar g ~eof in
  let table =
    { Table.cfg; action; goto; conflicts = []; n_states = Array.length action }
  in
  { grammar = g; table; eof = Grammar.find_symbol g eof; stub = Tree.stub () }

let shift t term value line = Tree.leaf ~stub:t.stub ~term ~value ~line

(* The reduce callback: the children are [stack.(base ..)], copied into
   the new node's own array.  With [elide_chains], a chain production (see
   {!Grammar.production.chain}) builds no node: its one child stands in
   its place. *)
let reduce t ~elide_chains prod stack base =
  let p = Grammar.production t.grammar prod in
  if elide_chains && p.Grammar.chain then stack.(base)
  else Tree.node ~stub:t.stub prod (Array.sub stack base (Array.length p.Grammar.rhs))

(** Parse a token stream into a derivation tree of the AG. *)
let parse t ~elide_chains ~lexer =
  Driver.parse t.table ~lexer ~shift:(shift t) ~reduce:(reduce t ~elide_chains)

let list_lexer t ~eof_value tokens =
  let remaining = ref tokens in
  let last_line = ref 0 in
  fun () ->
    match !remaining with
    | tok :: rest ->
      remaining := rest;
      last_line := tok.Driver.t_line;
      tok
    | [] -> { Driver.t_sym = t.eof; t_value = eof_value; t_line = !last_line }

(** Parse a pre-materialized token list (the LEF case: the scanner "just
    takes the next LEF token off the front of the list"). *)
let parse_list t ~elide_chains ~eof_value tokens =
  parse t ~elide_chains ~lexer:(list_lexer t ~eof_value tokens)

(** Parse a token list with panic-mode error recovery (see
    {!Vhdl_lalr.Driver.parse_recovering}): every syntax error in the list
    is reported, and the well-formed regions between the checkpoints
    survive into the returned derivation tree. *)
let parse_list_recovering ?max_errors ?max_depth t ~elide_chains ~eof_value
    ~checkpoint ~classify tokens : 'v Tree.t Driver.recovery =
  Driver.parse_recovering ?max_errors ?max_depth t.table
    ~lexer:(list_lexer t ~eof_value tokens)
    ~eof:t.eof ~shift:(shift t) ~reduce:(reduce t ~elide_chains) ~checkpoint ~classify
