(** The principal VHDL attribute grammar: symbols, attribute classes, and
    the assembly of the region files.

    The paper's VHDL AG "is one 500,000-byte file whereas the rest of the
    compiler consists of about 50 modules" (§5.2, "AGs are monolithic");
    cascaded evaluation plus these region modules is exactly the
    decomposition remedy the paper proposes to investigate. *)

open Pval
module B = Grammar.Builder

let terminals =
  Token.reserved_words @ Token.punct_terminals
  @ [ "ID"; "INT"; "REAL"; "CHAR"; "STRING"; "BITSTR"; "EOF" ]

let all_nonterminals =
  Grammar_exprs.nonterminals @ Grammar_decls.nonterminals @ Grammar_stmts.nonterminals
  @ Grammar_units.nonterminals

let build () =
  let b = B.create () in
  List.iter (fun t -> ignore (B.terminal b t)) terminals;
  List.iter (fun n -> ignore (B.nonterminal b n)) all_nonterminals;

  (* ---- attribute classes (paper §4.2) ---- *)
  (* synthesized classes *)
  B.attr_class b ~name:"MSGS" ~dir:Grammar.Synthesized
    ~default:(Grammar.Merge (merge_msgs, Msgs []));
  B.attr_class b ~name:"OUT" ~dir:Grammar.Synthesized
    ~default:(Grammar.Merge (merge_out, Out Nil));
  B.attr_class b ~name:"LEF" ~dir:Grammar.Synthesized
    ~default:(Grammar.Merge (merge_lef, Lef []));
  B.attr_class b ~name:"CODE" ~dir:Grammar.Synthesized
    ~default:(Grammar.Merge (merge_stmts, Stmts Nil));
  B.attr_class b ~name:"CONCS" ~dir:Grammar.Synthesized
    ~default:(Grammar.Merge (merge_concs, Concs Nil));
  B.attr_class b ~name:"UNITS" ~dir:Grammar.Synthesized
    ~default:(Grammar.Merge (merge_units, Units []));
  List.iter
    (fun name -> B.attr_class b ~name ~dir:Grammar.Synthesized ~default:Grammar.Copy)
    [ "LEFS"; "WAVES"; "IFACES"; "IDS"; "ASSOCS"; "ALTS" ];
  (* inherited classes *)
  B.attr_class b ~name:"ENV" ~dir:Grammar.Inherited ~default:Grammar.Copy;
  B.attr_class b ~name:"LEVEL" ~dir:Grammar.Inherited ~default:Grammar.Copy;
  B.attr_class b ~name:"UNITNAME" ~dir:Grammar.Inherited ~default:Grammar.Copy;
  B.attr_class b ~name:"CTX" ~dir:Grammar.Inherited ~default:Grammar.Copy;
  B.attr_class b ~name:"SLOTBASE" ~dir:Grammar.Inherited ~default:Grammar.Copy;
  B.attr_class b ~name:"SIGBASE" ~dir:Grammar.Inherited ~default:Grammar.Copy;
  B.attr_class b ~name:"LOOPDEPTH" ~dir:Grammar.Inherited ~default:Grammar.Copy;
  B.attr_class b ~name:"RETTY" ~dir:Grammar.Inherited ~default:Grammar.Copy;
  B.attr_class b ~name:"CTXOUT" ~dir:Grammar.Inherited ~default:Grammar.Copy;
  B.attr_class b ~name:"NLINES" ~dir:Grammar.Inherited ~default:Grammar.Copy;

  (* class membership: every nonterminal carries the context and diagnostic
     classes (the paper's ENV_ATTRS/STMT_ATTRS macro groups, systematized) *)
  List.iter
    (fun sym ->
      List.iter
        (fun cls -> B.attr_member b ~sym ~cls)
        [
          "MSGS"; "OUT"; "ENV"; "LEVEL"; "UNITNAME"; "CTX"; "SLOTBASE"; "SIGBASE";
          "LOOPDEPTH"; "RETTY"; "CTXOUT"; "NLINES";
        ])
    all_nonterminals;
  (* LEF on the expression region *)
  List.iter
    (fun sym -> B.attr_member b ~sym ~cls:"LEF")
    [
      "expr"; "relation"; "simpleexpr"; "term"; "factor"; "primary"; "name";
      "agg_items"; "agg_item"; "chlist"; "chitem"; "logop"; "relop"; "addop";
      "mulop"; "sign";
    ];
  List.iter
    (fun sym -> B.attr_member b ~sym ~cls:"CODE")
    [ "stmts"; "stmt"; "else_opt" ];
  List.iter (fun sym -> B.attr_member b ~sym ~cls:"CONCS") [ "concs"; "conc" ];
  List.iter
    (fun sym -> B.attr_member b ~sym ~cls:"UNITS")
    [
      "design_file"; "design_units"; "design_unit"; "library_unit"; "entity_decl";
      "arch_body"; "package_decl"; "package_body_u"; "config_decl";
    ];
  List.iter (fun sym -> B.attr_member b ~sym ~cls:"LEFS") [ "name_list"; "on_opt"; "sens_opt" ];
  List.iter (fun sym -> B.attr_member b ~sym ~cls:"WAVES") [ "waveform"; "wave_elem" ];
  List.iter
    (fun sym -> B.attr_member b ~sym ~cls:"IFACES")
    [
      "iface_list"; "iface_elem"; "record_elems"; "record_elem"; "params_opt";
      "generic_clause_opt"; "port_clause_opt";
    ];
  List.iter (fun sym -> B.attr_member b ~sym ~cls:"IDS") [ "id_list"; "enum_lits"; "enum_lit" ];
  List.iter
    (fun sym -> B.attr_member b ~sym ~cls:"ASSOCS")
    [ "assoc_list"; "assoc"; "gmap_opt"; "pmap_opt" ];
  List.iter (fun sym -> B.attr_member b ~sym ~cls:"ALTS") [ "case_alts"; "case_alt" ];

  (* ---- plain attributes ---- *)
  let syn sym name = B.attr b ~sym ~name ~dir:Grammar.Synthesized in
  List.iter
    (fun sym -> syn sym "SRES")
    [
      "name"; "primary"; "subtype_ind"; "type_decl"; "subtype_decl"; "constant_decl";
      "signal_decl"; "variable_decl"; "subprog_decl"; "component_decl"; "attribute_decl";
      "attribute_spec"; "alias_decl"; "use_names"; "library_clause"; "config_spec1";
      "disconnect_spec";
      "config_decl"; "stmt"; "conc";
    ];
  syn "name" "BASE";
  syn "direction" "DIR";
  List.iter (fun sym -> syn sym "CHS") [ "chlist"; "chitem" ];
  syn "discrete_range" "RNG";
  List.iter
    (fun sym -> syn sym "OLEF")
    [
      "init_opt"; "expr_opt"; "after_opt"; "until_opt"; "forts_opt"; "report_opt";
      "severity_opt"; "when_opt";
    ];
  List.iter (fun sym -> syn sym "OID") [ "opt_id"; "arch_opt" ];
  syn "type_def" "TYDEF";
  syn "index_spec" "IXS";
  syn "index_specs" "IXS";
  List.iter (fun sym -> syn sym "PUNITS") [ "unit_decls"; "units_part" ];
  syn "subtype_ind" "STY";
  syn "sig_kind_opt" "SKIND";
  syn "class_opt" "OCLS";
  syn "mode_opt" "OMODE";
  syn "subprog_spec" "SPEC";
  syn "use_name" "UPARTS";
  List.iter
    (fun sym -> syn sym "LINE1")
    [
      "use_name"; "process_head"; "decl_item"; "type_decl"; "subtype_decl";
      "constant_decl"; "signal_decl"; "variable_decl"; "subprog_spec"; "subprog_decl";
      "subprog_body"; "component_decl"; "attribute_decl"; "attribute_spec"; "alias_decl";
      "use_clause"; "config_spec1"; "disconnect_spec";
    ];
  syn "decl_items" "ENVOUT";
  syn "decl_items" "REGION";
  syn "concs" "NSIGS";
  syn "inst_spec" "ISPEC";
  syn "binding_ind" "BIND";
  syn "elsif_list" "ARMS";
  List.iter (fun sym -> syn sym "BOOLV") [ "transport_opt"; "guarded_opt" ];
  syn "process_head" "LBL";
  syn "process_head" "SENS";
  syn "cond_waves" "CWAVES";
  syn "selected_waves" "SWAVES";
  syn "guard_opt" "OGUARD";

  (* ---- productions ---- *)
  Grammar_exprs.add b;
  Grammar_decls.add b;
  Grammar_stmts.add b;
  Grammar_units.add b;

  B.freeze b ~start:"design_file"

let name = "principal VHDL AG"
let eof = "EOF"

(** The grammar's LALR(1) tables and evaluation plan, encoded — run once,
    at build time, by the table generator. *)
let generate () = Generated.generate ~name (build ()) ~eof

(** The grammar, its parser and its evaluation plan, loaded once.  Only
    the grammar's closures are built here; the tables and the plan were
    generated at build time (as Linguist generated its parser and
    evaluator offline) and load against the grammar's fingerprint. *)
let instance =
  lazy
    (let grammar = build () in
     let parser_, plan = Generated.load ~name grammar ~eof Grammar_tables.principal in
     (grammar, parser_, plan))

let grammar () = let g, _, _ = Lazy.force instance in g
let parser_ () = let _, p, _ = Lazy.force instance in p
let plan () = let _, _, pl = Lazy.force instance in pl

(** Scan [src] into the parser's token stream.
    @raise Lexer.Lex_error on a lexical error. *)
let tokens_of_source src =
  let grammar = grammar () in
  List.map
    (fun (tok, line) ->
      {
        Vhdl_lalr.Driver.t_sym = Grammar.find_symbol grammar (Token.terminal_name tok);
        t_value = Tok tok;
        t_line = line;
      })
    (Lexer.tokenize src)

(** The principal AG's ten root inherited attributes, for a design file
    of [source_lines] lines analyzed under the provisional unit name
    [unit_name]. *)
let root_inherited ~unit_name ~source_lines =
  [
    ("ENV", Env Env.empty);
    ("LEVEL", Int (-1));
    ("UNITNAME", Str unit_name);
    ("CTX", Str "arch");
    ("SLOTBASE", Int 0);
    ("SIGBASE", Int 0);
    ("LOOPDEPTH", Int 0);
    ("RETTY", Opt None);
    ("CTXOUT", Out Nil);
    ("NLINES", Int source_lines);
  ]
