(* LALR(1) generator: automaton construction, lookaheads, conflicts,
   and end-to-end parsing through the driver. *)

module Cfg = Vhdl_lalr.Cfg
module Table = Vhdl_lalr.Table
module Driver = Vhdl_lalr.Driver
module First = Vhdl_lalr.First

(* A tiny grammar-building kit for the tests. *)
type spec = {
  terminals : string list;
  nonterminals : string list;
  prods : (string * string list) list;
  start : string;
}

let build_cfg spec =
  let names = Array.of_list (spec.terminals @ [ "$" ] @ spec.nonterminals) in
  let id_of name =
    let rec find i = if names.(i) = name then i else find (i + 1) in
    find 0
  in
  let n = Array.length names in
  let is_terminal = Array.make n false in
  List.iteri (fun i _ -> is_terminal.(i) <- true) spec.terminals;
  is_terminal.(List.length spec.terminals) <- true (* $ *);
  let productions =
    Array.of_list
      (List.mapi
         (fun id (lhs, rhs) ->
           { Cfg.id; lhs = id_of lhs; rhs = Array.of_list (List.map id_of rhs) })
         spec.prods)
  in
  ( Cfg.create ~n_symbols:n ~is_terminal ~productions ~start:(id_of spec.start)
      ~eof:(id_of "$") ~symbol_name:(fun i -> names.(i)),
    id_of )

(* The classic LALR-but-not-SLR expression grammar. *)
let expr_spec =
  {
    terminals = [ "id"; "+"; "*"; "("; ")" ];
    nonterminals = [ "E"; "T"; "F" ];
    prods =
      [
        ("E", [ "E"; "+"; "T" ]);
        ("E", [ "T" ]);
        ("T", [ "T"; "*"; "F" ]);
        ("T", [ "F" ]);
        ("F", [ "("; "E"; ")" ]);
        ("F", [ "id" ]);
      ];
    start = "E";
  }

(* Parse tokens into an arithmetic value: id carries an int. *)
let eval_arith table id_of input =
  let tokens =
    List.map
      (fun (name, v) -> { Driver.t_sym = id_of name; t_value = v; t_line = 1 })
      input
    @ [ { Driver.t_sym = id_of "$"; t_value = 0; t_line = 99 } ]
  in
  let remaining = ref tokens in
  let lexer () =
    match !remaining with
    | t :: rest ->
      remaining := rest;
      t
    | [] -> assert false
  in
  Driver.parse table ~lexer
    ~shift:(fun _ v _ -> v)
    ~reduce:(fun prod stack i ->
      match prod with
      | 0 -> stack.(i) + stack.(i + 2)
      | 2 -> stack.(i) * stack.(i + 2)
      | 4 -> stack.(i + 1)
      | 1 | 3 | 5 -> stack.(i)
      | _ -> assert false)

let test_expr_parse () =
  let cfg, id_of = build_cfg expr_spec in
  let table = Table.build cfg in
  Alcotest.(check int) "no conflicts" 0 (List.length table.Table.conflicts);
  let v =
    eval_arith table id_of
      [ ("id", 2); ("+", 0); ("id", 3); ("*", 0); ("id", 4) ]
  in
  Alcotest.(check int) "2+3*4" 14 v;
  let v =
    eval_arith table id_of
      [ ("(", 0); ("id", 2); ("+", 0); ("id", 3); (")", 0); ("*", 0); ("id", 4) ]
  in
  Alcotest.(check int) "(2+3)*4" 20 v

let test_syntax_error () =
  let cfg, id_of = build_cfg expr_spec in
  let table = Table.build cfg in
  match eval_arith table id_of [ ("id", 1); ("+", 0); ("+", 0); ("id", 2) ] with
  | _ -> Alcotest.fail "expected syntax error"
  | exception Driver.Syntax_error { found; expected; _ } ->
    Alcotest.(check string) "found" "+" found;
    Alcotest.(check bool) "id expected" true (List.mem "id" expected)

(* Nullable productions: S ::= A a ; A ::= B C ; B ::= b | ε ; C ::= c | ε.
   Exercises the reads relation (nullable nonterminal transitions after a
   goto) while staying LALR(1). *)
let nullable_spec =
  {
    terminals = [ "a"; "b"; "c" ];
    nonterminals = [ "S"; "A"; "B"; "C" ];
    prods =
      [
        ("S", [ "A"; "a" ]);
        ("A", [ "B"; "C" ]);
        ("B", [ "b" ]);
        ("B", []);
        ("C", [ "c" ]);
        ("C", []);
      ];
    start = "S";
  }

let parse_words cfg id_of table words =
  let tokens =
    List.map (fun w -> { Driver.t_sym = id_of w; t_value = (); t_line = 1 }) words
    @ [ { Driver.t_sym = cfg.Cfg.eof; t_value = (); t_line = 1 } ]
  in
  let remaining = ref tokens in
  let lexer () =
    match !remaining with
    | t :: rest ->
      remaining := rest;
      t
    | [] -> assert false
  in
  Driver.parse table ~lexer ~shift:(fun _ _ _ -> ()) ~reduce:(fun _ _ _ -> ())

let test_nullable () =
  let cfg, id_of = build_cfg nullable_spec in
  let table = Table.build cfg in
  Alcotest.(check int) "no conflicts" 0 (List.length table.Table.conflicts);
  parse_words cfg id_of table [ "a" ];
  parse_words cfg id_of table [ "b"; "a" ];
  parse_words cfg id_of table [ "c"; "a" ];
  parse_words cfg id_of table [ "b"; "c"; "a" ];
  (match parse_words cfg id_of table [ "c"; "b" ] with
  | () -> Alcotest.fail "expected error"
  | exception Driver.Syntax_error _ -> ())

let test_first_sets () =
  let cfg, id_of = build_cfg nullable_spec in
  let fi = First.compute cfg in
  Alcotest.(check bool) "A nullable" true (First.nullable fi (id_of "A"));
  Alcotest.(check bool) "S not nullable" false (First.nullable fi (id_of "S"))

(* The dangling-else shape produces a shift/reduce conflict resolved in
   favor of shift. *)
let dangling_spec =
  {
    terminals = [ "if"; "then"; "else"; "x" ];
    nonterminals = [ "S" ];
    prods =
      [
        ("S", [ "if"; "S"; "then"; "S" ]);
        ("S", [ "if"; "S"; "then"; "S"; "else"; "S" ]);
        ("S", [ "x" ]);
      ];
    start = "S";
  }

let test_conflict_reported () =
  let cfg, id_of = build_cfg dangling_spec in
  let table = Table.build cfg in
  Alcotest.(check bool) "has conflicts" true (table.Table.conflicts <> []);
  List.iter
    (fun c ->
      match c.Table.c_kind with
      | `Shift_reduce _ -> ()
      | `Reduce_reduce _ -> Alcotest.fail "unexpected reduce/reduce")
    table.Table.conflicts;
  (* shift preference associates the else with the inner if *)
  parse_words cfg id_of table
    [ "if"; "x"; "then"; "if"; "x"; "then"; "x"; "else"; "x" ]

(* The canonical LALR-but-not-SLR grammar (assignments with dereference):
   S ::= L = R | R ; L ::= * R | id ; R ::= L.  SLR conflicts on '=' because
   '=' is in FOLLOW(R); the contextual LALR lookaheads stay deterministic. *)
let lalr_not_slr_spec =
  {
    terminals = [ "id"; "="; "*" ];
    nonterminals = [ "S"; "L"; "R" ];
    prods =
      [
        ("S", [ "L"; "="; "R" ]);
        ("S", [ "R" ]);
        ("L", [ "*"; "R" ]);
        ("L", [ "id" ]);
        ("R", [ "L" ]);
      ];
    start = "S";
  }

let test_lalr_power () =
  let cfg, id_of = build_cfg lalr_not_slr_spec in
  let table = Table.build cfg in
  Alcotest.(check int) "no conflicts" 0 (List.length table.Table.conflicts);
  parse_words cfg id_of table [ "id" ];
  parse_words cfg id_of table [ "id"; "="; "id" ];
  parse_words cfg id_of table [ "*"; "id"; "="; "*"; "*"; "id" ]

(* The canonical LR(1)-but-not-LALR grammar: merging the LR(0) states after
   "a c" and "b c" unions the lookaheads of [A ::= c .] and [B ::= c .],
   producing reduce/reduce conflicts the generator must report. *)
let lr1_not_lalr_spec =
  {
    terminals = [ "a"; "b"; "c"; "d"; "e" ];
    nonterminals = [ "S"; "A"; "B" ];
    prods =
      [
        ("S", [ "a"; "A"; "d" ]);
        ("S", [ "b"; "B"; "d" ]);
        ("S", [ "a"; "B"; "e" ]);
        ("S", [ "b"; "A"; "e" ]);
        ("A", [ "c" ]);
        ("B", [ "c" ]);
      ];
    start = "S";
  }

let test_lr1_not_lalr_detected () =
  let cfg, _ = build_cfg lr1_not_lalr_spec in
  let table = Table.build cfg in
  let rr =
    List.filter
      (fun c ->
        match c.Table.c_kind with
        | `Reduce_reduce _ -> true
        | `Shift_reduce _ -> false)
      table.Table.conflicts
  in
  Alcotest.(check int) "two reduce/reduce conflicts" 2 (List.length rr)

(* Property: random arithmetic expressions evaluate identically through the
   parser and through a reference recursive evaluator. *)
let arith_roundtrip =
  let open QCheck in
  (* generate a random expression as (tokens, value) *)
  let rec gen_expr depth st =
    if depth = 0 then
      let n = Gen.int_range 0 9 st in
      ([ ("id", n) ], n)
    else
      match Gen.int_range 0 3 st with
      | 0 ->
        let t1, v1 = gen_expr (depth - 1) st in
        let t2, v2 = gen_expr (depth - 1) st in
        (t1 @ [ ("+", 0) ] @ t2, v1 + v2)
      | 1 ->
        let t1, v1 = gen_expr (depth - 1) st in
        let t2, v2 = gen_expr (depth - 1) st in
        (t1 @ [ ("*", 0) ] @ t2, v1 * v2)
      | 2 ->
        let t, v = gen_expr (depth - 1) st in
        (([ ("(", 0) ] @ t @ [ (")", 0) ]), v)
      | _ ->
        let n = Gen.int_range 0 9 st in
        ([ ("id", n) ], n)
  in
  (* note: generation builds values with standard precedence because we
     produce fully parenthesized-equivalent structure positions; + and * at
     the same depth compose left-to-right in token order, so the reference
     value must come from the parser-independent grammar precedence.  To
     keep the oracle exact we only generate either parenthesized or
     single-operator forms. *)
  let gen = Gen.sized_size (Gen.int_range 0 4) (fun d st -> gen_expr d st) in
  Test.make ~name:"arithmetic parse respects precedence oracle" ~count:200 (make gen)
    (fun (tokens, _) ->
      let cfg, id_of = build_cfg expr_spec in
      let table = Table.build cfg in
      (* oracle: shunting-yard evaluation with * over + *)
      let oracle tokens =
        let out = ref [] and ops = ref [] in
        let prec = function
          | "+" -> 1
          | "*" -> 2
          | _ -> 0
        in
        let apply op =
          match !out with
          | b :: a :: rest ->
            out := (if op = "+" then a + b else a * b) :: rest
          | _ -> assert false
        in
        List.iter
          (fun (name, v) ->
            match name with
            | "id" -> out := v :: !out
            | "(" -> ops := "(" :: !ops
            | ")" ->
              let rec pop () =
                match !ops with
                | "(" :: rest -> ops := rest
                | op :: rest ->
                  ops := rest;
                  apply op;
                  pop ()
                | [] -> assert false
              in
              pop ()
            | op ->
              let rec pop () =
                match !ops with
                | top :: rest when top <> "(" && prec top >= prec op ->
                  ops := rest;
                  apply top;
                  pop ()
                | _ -> ()
              in
              pop ();
              ops := op :: !ops)
          tokens;
        List.iter (fun op -> apply op) !ops;
        match !out with
        | [ v ] -> v
        | _ -> assert false
      in
      eval_arith table id_of tokens = oracle tokens)

(* Panic-mode recovery on a toy grammar of units, each [unit E ;] with E a
   nest of parentheses around [x].  The reduce of the unit list is the
   checkpoint, and [unit] starts a fresh segment.  The second unit nests
   40 deep, past the parse stack's first capacity, before the checkpoint
   that closes it; the third and fifth units are malformed. *)
let units_spec =
  {
    terminals = [ "unit"; "x"; "("; ")"; ";" ];
    nonterminals = [ "S"; "Us"; "U"; "E" ];
    prods =
      [
        ("S", [ "Us" ]);
        ("Us", [ "Us"; "U" ]);
        ("Us", [ "U" ]);
        ("U", [ "unit"; "E"; ";" ]);
        ("E", [ "("; "E"; ")" ]);
        ("E", [ "x" ]);
      ];
    start = "S";
  }

type unit_value =
  | Tok
  | Depth of int
  | Units of int list

let test_recovery () =
  let cfg, id_of = build_cfg units_spec in
  let table = Table.build cfg in
  Alcotest.(check int) "no conflicts" 0 (List.length table.Table.conflicts);
  let nest n = List.init n (fun _ -> "(") @ [ "x" ] @ List.init n (fun _ -> ")") in
  let units =
    [ nest 0; nest 40; [ "("; "x"; "x"; ")" ]; nest 0; []; nest 2 ]
  in
  let tokens =
    List.concat
      (List.mapi
         (fun i body ->
           List.map
             (fun w -> { Driver.t_sym = id_of w; t_value = (); t_line = i + 1 })
             (("unit" :: body) @ [ ";" ]))
         units)
  in
  let remaining = ref tokens in
  let lexer () =
    match !remaining with
    | t :: rest ->
      remaining := rest;
      t
    | [] -> { Driver.t_sym = id_of "$"; t_value = (); t_line = 7 }
  in
  let depth = function Depth d -> d | Tok | Units _ -> assert false in
  let reduce prod stack i =
    match prod with
    | 0 -> stack.(i)
    | 1 -> (
      match stack.(i) with
      | Units ds -> Units (ds @ [ depth stack.(i + 1) ])
      | Tok | Depth _ -> assert false)
    | 2 -> Units [ depth stack.(i) ]
    | 3 -> stack.(i + 1)
    | 4 -> Depth (depth stack.(i + 1) + 1)
    | 5 -> Depth 0
    | _ -> assert false
  in
  let r =
    Driver.parse_recovering table ~lexer ~eof:(id_of "$")
      ~shift:(fun _ () _ -> Tok)
      ~reduce
      ~checkpoint:(fun prod -> prod = 1 || prod = 2)
      ~classify:(fun sym ->
        if sym = id_of "unit" then Driver.Sync_start
        else if sym = id_of ";" then Driver.Sync_semi
        else Driver.Sync_other)
  in
  Alcotest.(check (list (pair int string)))
    "one error per malformed unit, at its line" [ (3, "x"); (5, ";") ]
    (List.map (fun e -> (e.Driver.e_line, e.Driver.e_found)) r.Driver.r_errors);
  Alcotest.(check (list (list string)))
    "expected sets (LALR merges the two contexts of x)" [ [ ")"; ";" ]; [ "("; "x" ] ]
    (List.map (fun e -> List.sort compare e.Driver.e_expected) r.Driver.r_errors);
  Alcotest.(check (list int))
    "tokens skipped to the next unit" [ 3; 1 ]
    (List.map (fun e -> e.Driver.e_skipped) r.Driver.r_errors);
  match r.Driver.r_root with
  | Some (Units ds) ->
    Alcotest.(check (list int)) "salvaged units, by nesting depth" [ 0; 40; 0; 2 ] ds
  | Some (Tok | Depth _) | None -> Alcotest.fail "expected the salvaged unit list"

let suite =
  [
    Alcotest.test_case "expression grammar parses and evaluates" `Quick test_expr_parse;
    Alcotest.test_case "syntax errors carry expected sets" `Quick test_syntax_error;
    Alcotest.test_case "nullable productions (reads relation)" `Quick test_nullable;
    Alcotest.test_case "first/nullable computation" `Quick test_first_sets;
    Alcotest.test_case "dangling else: shift wins, conflict recorded" `Quick
      test_conflict_reported;
    Alcotest.test_case "LALR-not-SLR grammar is conflict free" `Quick test_lalr_power;
    Alcotest.test_case "LR(1)-not-LALR conflicts are reported" `Quick test_lr1_not_lalr_detected;
    Alcotest.test_case "recovery past a deep nest: errors, skips, salvaged root" `Quick
      test_recovery;
    QCheck_alcotest.to_alcotest arith_roundtrip;
  ]
