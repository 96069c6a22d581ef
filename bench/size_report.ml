(* FIG2: regenerate the shape of the paper's Figure 2 — the compiler size
   summary, with stripped source-line counts per component and the sizes of
   the artifacts the toolset generates from the AG (parse tables and
   implicit semantic rules, our analog of the generated C). *)

module U = Vhdl_util.Unix_compat

let count_dir ?(ext = ".ml") files =
  List.fold_left
    (fun acc path ->
      if Sys.file_exists path && Filename.check_suffix path ext then
        acc + U.stripped_line_count (U.read_file path)
      else acc)
    0 files

let ls dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.map (Filename.concat dir)
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
  else []

(* component map mirroring Figure 2's rows (see DESIGN.md): the AG
   definitions, the VIF description, the out-of-line semantic functions,
   and the interface code.  The AG engine, LALR generator, simulation
   kernel, and elaborator are counted separately, as the paper excludes the
   kernel and the TWS from its 46 kloc. *)
let components root =
  let p f = Filename.concat root f in
  [
    ( "AG (grammar definitions)",
      [
        p "lib/front/main_grammar.ml"; p "lib/front/grammar_exprs.ml";
        p "lib/front/grammar_decls.ml"; p "lib/front/grammar_stmts.ml";
        p "lib/front/grammar_units.ml"; p "lib/front/expr_grammar.ml";
        p "lib/front/gram_util.ml"; p "lib/front/pval.ml"; p "lib/front/lef.ml";
      ] );
    ("VIF description", ls (p "lib/vif"));
    ( "out-of-line functions",
      [
        p "lib/front/decl_sem.ml"; p "lib/front/stmt_sem.ml"; p "lib/front/conc_sem.ml";
        p "lib/front/unit_sem.ml"; p "lib/front/expr_sem.ml"; p "lib/front/expr_eval.ml";
        p "lib/sem/types.ml"; p "lib/sem/value.ml"; p "lib/sem/value_ops.ml";
        p "lib/sem/const_eval.ml"; p "lib/sem/denot.ml"; p "lib/sem/env.ml";
        p "lib/sem/std.ml"; p "lib/sem/kir.ml"; p "lib/sem/kir_util.ml";
        p "lib/sem/diag.ml"; p "lib/sem/unit_info.ml";
      ] );
    ( "interface code",
      [
        p "lib/front/lexer.ml"; p "lib/front/token.ml"; p "lib/front/session.ml";
        p "lib/core/vhdl_compiler.ml"; p "bin/vhdlc.ml";
      ] @ ls (p "lib/util") );
  ]

let excluded_components root =
  let p f = Filename.concat root f in
  [
    ("AG engine + LALR generator (the 'Linguist')", ls (p "lib/ag") @ ls (p "lib/lalr"));
    ("simulation kernel + runtime", ls (p "lib/sim") @ [ p "lib/elab/elaborate.ml" ]);
  ]

let table_entries (tbl : Vhdl_lalr.Table.t) =
  tbl.Vhdl_lalr.Table.n_states * tbl.Vhdl_lalr.Table.cfg.Vhdl_lalr.Cfg.n_symbols * 2

let print root =
  Printf.printf "FIG2: compiler size summary (cf. paper Figure 2)\n\n";
  let comps = components root in
  let counts = List.map (fun (name, files) -> (name, count_dir files)) comps in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 counts in
  Printf.printf "%-38s %8s\n" "" "source";
  List.iter
    (fun (name, n) ->
      Printf.printf "%-38s %8d  (%3.0f%%)\n" name n
        (100.0 *. float_of_int n /. float_of_int (max 1 total)))
    counts;
  Printf.printf "%-38s %8s\n" "" "--------";
  Printf.printf "%-38s %8d  (100%%)\n\n" "total (compiler proper)" total;
  Printf.printf "excluded, as in the paper (kernel, TWS):\n";
  List.iter
    (fun (name, files) -> Printf.printf "%-38s %8d\n" name (count_dir files))
    (excluded_components root);
  (* generated artifacts: our analog of the paper's generated-C column *)
  Printf.printf "\ngenerated artifacts (analog of the [generated] C column):\n";
  let g_princ = Main_grammar.grammar () in
  let g_expr = Expr_eval.grammar () in
  let stats name g =
    let s = Stats.of_grammar ~name g in
    Printf.printf "  %-22s %5d total rules, %5d implicit (%.0f%%)\n" name
      s.Stats.rules_total s.Stats.rules_implicit
      (100.0 *. Stats.implicit_fraction s)
  in
  stats "principal AG" g_princ;
  stats "expression AG" g_expr;
  let t1 = Main_grammar.parser_ () and t2 = Expr_eval.parser_ () in
  Printf.printf "  %-22s %5d states, %d table entries\n" "principal parse table"
    (t1.Parsing.table.Vhdl_lalr.Table.n_states)
    (table_entries t1.Parsing.table);
  Printf.printf "  %-22s %5d states, %d table entries\n" "expression parse table"
    (t2.Parsing.table.Vhdl_lalr.Table.n_states)
    (table_entries t2.Parsing.table)
