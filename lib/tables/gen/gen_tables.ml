(* Print the [Grammar_tables] module: both grammars' generated forms.  A
   grammar with LALR conflicts, a circular one, or one no fixed plan can
   order is reported on stderr and fails the build. *)

let generate (key, name, generate) =
  let fail fmt = Format.kasprintf (fun msg -> prerr_endline (name ^ ": " ^ msg); exit 1) fmt in
  match generate () with
  | blob -> (key, blob)
  | exception Parsing.Conflicts { report; _ } -> fail "LALR(1) conflicts:\n%s" report
  | exception Analysis.Circular { prod_name; cycle } ->
    fail "circular attribute dependencies in production %s: %s" prod_name
      (String.concat " -> "
         (List.map (fun (pos, attr) -> Printf.sprintf "%d.%s" pos attr) cycle))
  | exception Analysis.Not_orderable { symbol } ->
    fail "no fixed evaluation plan orders the attributes of %s" symbol

let () =
  print_string
    "(* Generated at build time by lib/tables/gen/gen_tables.exe: the LALR(1)\n\
    \   tables and evaluation plans of the compiler's grammars.  Do not edit. *)\n";
  List.iter
    (fun (key, blob) -> Printf.printf "\nlet %s =\n  %S\n" key blob)
    (List.map generate
       [
         ("principal", Main_grammar.name, Main_grammar.generate);
         ("expression", Expr_eval.name, Expr_eval.generate);
       ])
