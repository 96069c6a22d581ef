(* The VHDL scanner: IEEE 1076-1987 lexical rules. *)

let toks src = List.map fst (Lexer.tokenize src)

let kinds src =
  toks src
  |> List.filter_map (fun t ->
         match t with
         | Token.Teof -> None
         | t -> Some (Token.terminal_name t))

let test_identifiers_case () =
  (match toks "Foo fOO FOO" with
  | [ Token.Tid a; Token.Tid b; Token.Tid c; Token.Teof ] ->
    Alcotest.(check string) "normalized" "FOO" a;
    Alcotest.(check string) "same" a b;
    Alcotest.(check string) "same again" b c
  | _ -> Alcotest.fail "expected three identifiers");
  match toks "Entity ENTITY entity" with
  | [ Token.Tkw a; Token.Tkw b; Token.Tkw c; Token.Teof ] ->
    Alcotest.(check string) "keyword lowercase" "entity" a;
    Alcotest.(check string) "kw2" "entity" b;
    Alcotest.(check string) "kw3" "entity" c
  | _ -> Alcotest.fail "expected keywords"

let test_numbers () =
  (match toks "42 16#FF# 2#1010# 1_000_000 1E3" with
  | [ Token.Tint a; Token.Tint b; Token.Tint c; Token.Tint d; Token.Tint e; Token.Teof ] ->
    Alcotest.(check int) "decimal" 42 a;
    Alcotest.(check int) "hex" 255 b;
    Alcotest.(check int) "binary" 10 c;
    Alcotest.(check int) "underscores" 1_000_000 d;
    Alcotest.(check int) "exponent" 1000 e
  | _ -> Alcotest.fail "expected five integers");
  (* INTEGER'HIGH (max_int) itself is a literal; zero scales to zero *)
  Alcotest.(check bool) "largest integers" true
    (toks (string_of_int max_int ^ " 16#3FFF_FFFF_FFFF_FFFF# 4E18 0E99999999999999999999")
    = [ Token.Tint max_int; Token.Tint max_int; Token.Tint 4_000_000_000_000_000_000; Token.Tint 0;
        Token.Teof ]);
  match toks "3.14 2.5E2" with
  | [ Token.Treal a; Token.Treal b; Token.Teof ] ->
    Alcotest.(check (float 1e-9)) "real" 3.14 a;
    Alcotest.(check (float 1e-9)) "real exponent" 250.0 b
  | _ -> Alcotest.fail "expected two reals"

let test_strings_and_bitstrings () =
  (match toks {|"hello" "say ""hi"""|} with
  | [ Token.Tstring a; Token.Tstring b; Token.Teof ] ->
    Alcotest.(check string) "plain" "hello" a;
    Alcotest.(check string) "doubled quote" {|say "hi"|} b
  | _ -> Alcotest.fail "expected two strings");
  match toks {|B"1010" X"A5" O"17"|} with
  | [ Token.Tbitstr a; Token.Tbitstr b; Token.Tbitstr c; Token.Teof ] ->
    Alcotest.(check string) "binary" "1010" a;
    Alcotest.(check string) "hex expanded" "10100101" b;
    Alcotest.(check string) "octal expanded" "001111" c
  | _ -> Alcotest.fail "expected three bit strings"

(* the classic tick ambiguity: attribute mark vs character literal *)
let test_tick_disambiguation () =
  Alcotest.(check (list string)) "char literal" [ "CHAR" ] (kinds "'a'");
  Alcotest.(check (list string)) "attribute after identifier"
    [ "ID"; "'"; "ID" ] (kinds "X'LEFT");
  Alcotest.(check (list string)) "attribute then char"
    [ "ID"; "'"; "ID"; "("; "CHAR"; ")" ]
    (kinds "T'VAL('a')");
  Alcotest.(check (list string)) "qualified char literal"
    [ "ID"; "'"; "("; "CHAR"; ")" ]
    (kinds "bit'('1')")

let test_comments_and_lines () =
  let src = "a -- comment ' \" ( \nb\n-- whole line\nc" in
  (match Lexer.tokenize src with
  | [ (Token.Tid "A", 1); (Token.Tid "B", 2); (Token.Tid "C", 4); (Token.Teof, 4) ] -> ()
  | l ->
    Alcotest.failf "unexpected tokens/lines: %s"
      (String.concat ";" (List.map (fun (t, n) -> Printf.sprintf "%s@%d" (Token.describe t) n) l)));
  Alcotest.(check int) "stripped count ignores comments and blanks" 2
    (Lexer.source_lines "a := 1;\n-- note\n\nb := 2;\n")

let test_compound_delimiters () =
  Alcotest.(check (list string)) "compound"
    [ "**"; ":="; "<="; ">="; "=>"; "/="; "<>" ]
    (kinds "** := <= >= => /= <>");
  Alcotest.(check (list string)) "adjacent" [ "<"; "=>" ] (kinds "< =>")

let test_errors () =
  let expect_error src =
    match Lexer.tokenize src with
    | _ -> Alcotest.failf "expected lexical error for %s" src
    | exception Lexer.Lex_error _ -> ()
  in
  expect_error "\"unterminated";
  expect_error "16#GG#";
  expect_error "B\"012\"";
  expect_error "$";
  (* a missing exponent, integers past INTEGER'HIGH in each notation, and
     reals past REAL'HIGH *)
  List.iter expect_error
    [
      "1e"; "1.0E+"; "4611686018427387904"; "5E18"; "1E99999999999999999999";
      "16#4000000000000000#"; "1.0E999"; "9.9E99999999999999999999";
    ]

let roundtrip_ident =
  QCheck.Test.make ~name:"identifier lexing is total and stable" ~count:300
    QCheck.(string_gen_of_size (Gen.int_range 1 12) (Gen.char_range 'a' 'z'))
    (fun s ->
      match toks s with
      | [ Token.Tid up; Token.Teof ] -> String.lowercase_ascii up = s
      | [ Token.Tkw kw; Token.Teof ] -> kw = s && Token.is_reserved s
      | _ -> false)

let suite =
  [
    Alcotest.test_case "case-insensitive identifiers and keywords" `Quick test_identifiers_case;
    Alcotest.test_case "abstract literals (based, underscores, exponents)" `Quick test_numbers;
    Alcotest.test_case "string and bit-string literals" `Quick test_strings_and_bitstrings;
    Alcotest.test_case "tick disambiguation" `Quick test_tick_disambiguation;
    Alcotest.test_case "comments and line numbers" `Quick test_comments_and_lines;
    Alcotest.test_case "compound delimiters" `Quick test_compound_delimiters;
    Alcotest.test_case "lexical errors" `Quick test_errors;
    QCheck_alcotest.to_alcotest roundtrip_ident;
  ]
