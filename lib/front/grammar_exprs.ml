(** Principal AG, expression region.

    "The principal AG does not contain semantic rules for most of the
    aspects of compiling expressions; instead it merely synthesizes a
    simplified list of tokens" — these productions give expressions their
    natural phrase structure and emit LEF.  Identifier classification
    consults ENV here; everything else is token plumbing, mostly via the
    implicit merge rules of the LEF class. *)

open Pval
open Gram_util
module B = Grammar.Builder

let nonterminals =
  [
    "expr"; "relation"; "simpleexpr"; "term"; "factor"; "primary"; "name";
    "agg_items"; "agg_item"; "chlist"; "chitem"; "logop"; "relop"; "addop";
    "mulop"; "sign"; "direction"; "name_list"; "discrete_range"; "expr_opt";
  ]

(* hidden-pair rule set for name productions: (LEF, BASE, MSGS) *)
let name_rules ~deps ~msg_deps f =
  [
    B.rule_map
      (fun (lef, base, msgs) -> Pair (Pair (Lef lef, Str base), Msgs msgs))
      ~target:(0, "SRES") ~deps f;
    rule ~target:(0, "LEF") ~deps:[ (0, "SRES") ] (fun v -> fst (as_pair (fst_of v)));
    rule ~target:(0, "BASE") ~deps:[ (0, "SRES") ] (fun v -> snd (as_pair (fst_of v)));
    msgs_rule msg_deps;
  ]

(* plain LEF+MSGS hidden pair (primary with classification) *)
let lef_rules ~deps ~msg_deps f =
  [
    B.rule_map (fun (lef, msgs) -> Pair (Lef lef, Msgs msgs)) ~target:(0, "SRES") ~deps f;
    rule ~target:(0, "LEF") ~deps:[ (0, "SRES") ] fst_of;
    msgs_rule msg_deps;
  ]

(* explicit LEF rule splicing terminal punctuation between child LEFs:
   spec is a list of [`C pos] (child LEF) / [`P (pos, text)] (punct token at
   position pos, for its line) / [`Op (pos, op)] *)
let splice_lef spec =
  let dep = function
    | `C pos -> (pos, "LEF")
    | `P (pos, _) | `Op (pos, _) -> (pos, "LINE")
  in
  rule ~target:(0, "LEF") ~deps:((0, "ENV") :: Rest (List.map dep spec)) (fun env vs ->
      let env = as_env env in
      let part part v =
        match part with
        | `C _ -> as_lef v
        | `P (_, text) -> [ Lef.punct ~line:(as_int v) text ]
        | `Op (_, op) -> [ Decl_sem.classify_op ~env ~line:(as_int v) op ]
      in
      Lef (List.concat (List.map2 part spec vs)))

let add b =
  List.iter (fun n -> ignore (B.nonterminal b n)) nonterminals;
  let prod = B.production b in

  (* operator wrapper nonterminals *)
  let op_wrapper lhs tokens =
    List.iter
      (fun (term, op) ->
        prod ~name:(lhs ^ "_" ^ op) ~lhs ~rhs:[ term ]
          ~rules:
            [
              rule ~target:(0, "LEF") ~deps:[ (0, "ENV"); (1, "LINE") ] (fun env line ->
                  Lef [ Decl_sem.classify_op ~env:(as_env env) ~line:(as_int line) op ]);
            ])
      tokens
  in
  op_wrapper "logop" [ ("and", "and"); ("or", "or"); ("nand", "nand"); ("nor", "nor"); ("xor", "xor") ];
  op_wrapper "relop"
    [ ("=", "="); ("/=", "/="); ("<", "<"); ("<=", "<="); (">", ">"); (">=", ">=") ];
  op_wrapper "addop" [ ("+", "+"); ("-", "-"); ("&", "&") ];
  op_wrapper "mulop" [ ("*", "*"); ("/", "/"); ("mod", "mod"); ("rem", "rem") ];
  op_wrapper "sign" [ ("+", "+"); ("-", "-") ];

  prod ~name:"direction_to" ~lhs:"direction" ~rhs:[ "to" ]
    ~rules:[ const ~target:(0, "DIR") (Str "to") ];
  prod ~name:"direction_downto" ~lhs:"direction" ~rhs:[ "downto" ]
    ~rules:[ const ~target:(0, "DIR") (Str "downto") ];

  (* precedence chain; implicit LEF merges everywhere no terminal appears *)
  prod ~name:"expr_relation" ~lhs:"expr" ~rhs:[ "relation" ] ~rules:[];
  prod ~name:"expr_logop" ~lhs:"expr" ~rhs:[ "expr"; "logop"; "relation" ] ~rules:[];
  prod ~name:"relation_simple" ~lhs:"relation" ~rhs:[ "simpleexpr" ] ~rules:[];
  prod ~name:"relation_rel" ~lhs:"relation" ~rhs:[ "simpleexpr"; "relop"; "simpleexpr" ]
    ~rules:[];
  prod ~name:"simple_term" ~lhs:"simpleexpr" ~rhs:[ "term" ] ~rules:[];
  prod ~name:"simple_sign" ~lhs:"simpleexpr" ~rhs:[ "sign"; "term" ] ~rules:[];
  prod ~name:"simple_add" ~lhs:"simpleexpr" ~rhs:[ "simpleexpr"; "addop"; "term" ] ~rules:[];
  prod ~name:"term_factor" ~lhs:"term" ~rhs:[ "factor" ] ~rules:[];
  prod ~name:"term_mul" ~lhs:"term" ~rhs:[ "term"; "mulop"; "factor" ] ~rules:[];
  prod ~name:"factor_primary" ~lhs:"factor" ~rhs:[ "primary" ] ~rules:[];
  prod ~name:"factor_exp" ~lhs:"factor" ~rhs:[ "primary"; "**"; "primary" ]
    ~rules:[ splice_lef [ `C 1; `Op (2, "**"); `C 3 ] ];
  prod ~name:"factor_abs" ~lhs:"factor" ~rhs:[ "abs"; "primary" ]
    ~rules:[ splice_lef [ `Op (1, "abs"); `C 2 ] ];
  prod ~name:"factor_not" ~lhs:"factor" ~rhs:[ "not"; "primary" ]
    ~rules:[ splice_lef [ `Op (1, "not"); `C 2 ] ];

  (* primaries *)
  prod ~name:"primary_name" ~lhs:"primary" ~rhs:[ "name" ] ~rules:[ dummy_sres ];
  let literal term =
    prod ~name:("primary_" ^ String.lowercase_ascii term) ~lhs:"primary" ~rhs:[ term ]
      ~rules:
        [
          dummy_sres;
          rule ~target:(0, "LEF") ~deps:[ (1, "VAL"); (1, "LINE") ] (fun v line ->
              let kind =
                match as_tok v with
                | Token.Tint n -> Lef.Kint n
                | Token.Treal x -> Lef.Kreal x
                | Token.Tstring s -> Lef.Kstr s
                | Token.Tbitstr s -> Lef.Kbitstr s
                | _ -> internal "literal token"
              in
              lef1 kind (as_int line));
        ]
  in
  literal "INT";
  literal "REAL";
  (* physical literals: INT unit / REAL unit *)
  let physical name term =
    prod ~name ~lhs:"primary" ~rhs:[ term; "ID" ]
      ~rules:
        (lef_rules
           ~deps:[ (0, "ENV"); (1, "VAL"); (2, "VAL"); (2, "LINE") ]
           ~msg_deps:[]
           (fun env v unit_v line ->
             let abstract =
               match as_tok v with
               | Token.Tint n -> `Int n
               | Token.Treal x -> `Real x
               | _ -> internal "abstract literal token"
             in
             Decl_sem.classify_physical ~env:(as_env env) ~line:(as_int line) ~abstract
               (tok_id unit_v)))
  in
  physical "primary_phys_int" "INT";
  physical "primary_phys_real" "REAL";
  prod ~name:"primary_char" ~lhs:"primary" ~rhs:[ "CHAR" ]
    ~rules:
      (lef_rules ~deps:[ (0, "ENV"); (1, "VAL"); (1, "LINE") ] ~msg_deps:[] (fun env v line ->
          match as_tok v with
          | Token.Tchar image -> (
            let line = as_int line in
            let denots = Env.lookup (as_env env) image in
            let enums =
              List.filter_map
                (function
                  | Denot.Denum_lit { ty; pos; image } -> Some (ty, pos, image)
                  | _ -> None)
                denots
            in
            match enums with
            | [] ->
              ( [ { Lef.l_kind = Lef.Kident image; l_line = line } ],
                [ Diag.error ~line "character literal %s is not declared" image ] )
            | _ -> ([ { Lef.l_kind = Lef.Kenum enums; l_line = line } ], []))
          | _ -> internal "CHAR token"));
  literal "STRING";
  literal "BITSTR";
  prod ~name:"primary_paren" ~lhs:"primary" ~rhs:[ "("; "agg_items"; ")" ]
    ~rules:[ dummy_sres; splice_lef [ `P (1, "("); `C 2; `P (3, ")") ] ];

  (* names *)
  prod ~name:"name_id" ~lhs:"name" ~rhs:[ "ID" ]
    ~rules:
      (name_rules ~deps:[ (0, "ENV"); (1, "VAL"); (1, "LINE") ] ~msg_deps:[] (fun env v line ->
          let id = tok_id v in
          let lef, msgs = Decl_sem.classify ~env:(as_env env) ~line:(as_int line) id in
          (lef, id, msgs)));
  prod ~name:"name_selected" ~lhs:"name" ~rhs:[ "name"; "."; "ID" ]
    ~rules:
      (name_rules
         ~deps:[ (0, "ENV"); (1, "LEF"); (1, "BASE"); (3, "VAL"); (3, "LINE") ]
         ~msg_deps:[ 1 ]
         (fun env plef pbase v line ->
           let id = tok_id v in
           let lef, msgs =
             Decl_sem.classify_selected ~env:(as_env env) ~line:(as_int line) (as_lef plef) id
           in
           (lef, as_str pbase ^ "." ^ id, msgs)));
  prod ~name:"name_args" ~lhs:"name" ~rhs:[ "name"; "("; "agg_items"; ")" ]
    ~rules:
      (name_rules
         ~deps:[ (1, "LEF"); (1, "BASE"); (2, "LINE"); (3, "LEF"); (4, "LINE") ]
         ~msg_deps:[ 1; 3 ]
         (fun plef pbase lp items rp ->
           ( as_lef plef
             @ [ Lef.punct ~line:(as_int lp) "(" ]
             @ as_lef items
             @ [ Lef.punct ~line:(as_int rp) ")" ],
             as_str pbase,
             [] )));
  prod ~name:"name_attr" ~lhs:"name" ~rhs:[ "name"; "'"; "ID" ]
    ~rules:
      (name_rules
         ~deps:[ (0, "ENV"); (1, "LEF"); (1, "BASE"); (3, "VAL"); (3, "LINE") ]
         ~msg_deps:[ 1 ]
         (fun env plef pbase v line ->
           let id = tok_id v in
           let base = as_str pbase in
           let lef, msgs =
             Decl_sem.classify_attribute ~env:(as_env env) ~line:(as_int line) ~base
               (as_lef plef) id
           in
           (lef, base, msgs)));
  (* allocators: new T / new T'(e) — the name covers both via the
     qualified-expression production *)
  prod ~name:"primary_new" ~lhs:"primary" ~rhs:[ "new"; "name" ]
    ~rules:
      (lef_rules ~deps:[ (1, "LINE"); (2, "LEF") ] ~msg_deps:[ 2 ] (fun line name_lef ->
          ({ Lef.l_kind = Lef.Knew; l_line = as_int line } :: as_lef name_lef, [])));
  (* the null access literal *)
  prod ~name:"primary_null" ~lhs:"primary" ~rhs:[ "null" ]
    ~rules:
      (lef_rules ~deps:[ (1, "LINE") ] ~msg_deps:[] (fun line ->
          ([ { Lef.l_kind = Lef.Knull; l_line = as_int line } ], [])));

  (* qualified expression / attribute function argument: name ' ( items ) *)
  prod ~name:"name_qualified" ~lhs:"name" ~rhs:[ "name"; "'"; "("; "agg_items"; ")" ]
    ~rules:
      (name_rules
         ~deps:[ (1, "LEF"); (1, "BASE"); (2, "LINE"); (4, "LEF"); (5, "LINE") ]
         ~msg_deps:[ 1; 4 ]
         (fun plef pbase tick_line items rp ->
           ( as_lef plef
             @ [
                 Lef.punct ~line:(as_int tick_line) "'";
                 Lef.punct ~line:(as_int tick_line) "(";
               ]
             @ as_lef items
             @ [ Lef.punct ~line:(as_int rp) ")" ],
             as_str pbase,
             [] )));
  (* dereference: p.all *)
  prod ~name:"name_all_deref" ~lhs:"name" ~rhs:[ "name"; "."; "all" ]
    ~rules:
      (name_rules
         ~deps:[ (1, "LEF"); (1, "BASE"); (2, "LINE"); (3, "LINE") ]
         ~msg_deps:[ 1 ]
         (fun plef pbase dot_line all_line ->
           ( as_lef plef
             @ [
                 Lef.punct ~line:(as_int dot_line) ".";
                 Lef.punct ~line:(as_int all_line) "all";
               ],
             as_str pbase,
             [] )));
  prod ~name:"name_attr_range" ~lhs:"name" ~rhs:[ "name"; "'"; "range" ]
    ~rules:
      (name_rules ~deps:[ (1, "LEF"); (1, "BASE"); (3, "LINE") ] ~msg_deps:[ 1 ]
         (fun plef pbase line ->
           let line = as_int line in
           ( as_lef plef
             @ [ Lef.punct ~line "'"; { Lef.l_kind = Lef.Kattr "RANGE"; l_line = line } ],
             as_str pbase,
             [] )));

  (* aggregate / argument items *)
  prod ~name:"agg_items_one" ~lhs:"agg_items" ~rhs:[ "agg_item" ] ~rules:[];
  prod ~name:"agg_items_more" ~lhs:"agg_items" ~rhs:[ "agg_items"; ","; "agg_item" ]
    ~rules:[ splice_lef [ `C 1; `P (2, ","); `C 3 ] ];
  prod ~name:"agg_item_expr" ~lhs:"agg_item" ~rhs:[ "expr" ] ~rules:[];
  prod ~name:"agg_item_range" ~lhs:"agg_item" ~rhs:[ "simpleexpr"; "direction"; "simpleexpr" ]
    ~rules:
      [
        rule ~target:(0, "LEF")
          ~deps:[ (1, "LEF"); (2, "DIR"); (3, "LEF") ]
          (fun lo d hi ->
            let lo = as_lef lo and hi = as_lef hi in
            let line = match lo with t :: _ -> t.Lef.l_line | [] -> 0 in
            Lef (lo @ [ Lef.punct ~line (as_str d) ] @ hi));
      ];
  prod ~name:"agg_item_named" ~lhs:"agg_item" ~rhs:[ "chlist"; "=>"; "expr" ]
    ~rules:[ splice_lef [ `C 1; `P (2, "=>"); `C 3 ] ];
  prod ~name:"agg_item_open" ~lhs:"agg_item" ~rhs:[ "chlist"; "=>"; "open" ]
    ~rules:[ splice_lef [ `C 1; `P (2, "=>"); `P (3, "open") ] ];

  (* choices: dual LEF (for aggregates) and CHS (for case statements) *)
  prod ~name:"chlist_one" ~lhs:"chlist" ~rhs:[ "chitem" ]
    ~rules:
      [
        rule ~target:(0, "CHS") ~deps:[ (1, "CHS") ] (fun c -> c);
      ];
  prod ~name:"chlist_more" ~lhs:"chlist" ~rhs:[ "chlist"; "|"; "chitem" ]
    ~rules:
      [
        splice_lef [ `C 1; `P (2, "|"); `C 3 ];
        rule ~target:(0, "CHS") ~deps:[ (1, "CHS"); (3, "CHS") ] (fun a c ->
            Choices (as_choices a @ as_choices c));
      ];
  prod ~name:"chitem_expr" ~lhs:"chitem" ~rhs:[ "simpleexpr" ]
    ~rules:
      [
        rule ~target:(0, "CHS") ~deps:[ (1, "LEF") ] (fun lef ->
            Choices [ CSlef (as_lef lef) ]);
      ];
  prod ~name:"chitem_range" ~lhs:"chitem" ~rhs:[ "simpleexpr"; "direction"; "simpleexpr" ]
    ~rules:
      [
        rule ~target:(0, "LEF")
          ~deps:[ (1, "LEF"); (2, "DIR"); (3, "LEF") ]
          (fun lo d hi ->
            let lo = as_lef lo and hi = as_lef hi in
            let line = match lo with t :: _ -> t.Lef.l_line | [] -> 0 in
            Lef (lo @ [ Lef.punct ~line (as_str d) ] @ hi));
        rule ~target:(0, "CHS")
          ~deps:[ (1, "LEF"); (2, "DIR"); (3, "LEF") ]
          (fun lo d hi ->
            let dir = if as_str d = "to" then Types.To else Types.Downto in
            Choices [ CSrange (as_lef lo, dir, as_lef hi) ]);
      ];
  prod ~name:"chitem_others" ~lhs:"chitem" ~rhs:[ "others" ]
    ~rules:
      [
        rule ~target:(0, "LEF") ~deps:[ (1, "LINE") ] (fun line ->
            Lef [ Lef.punct ~line:(as_int line) "others" ]);
        const ~target:(0, "CHS") (Choices [ CSothers ]);
      ];

  (* name lists (sensitivity lists, wait on) *)
  prod ~name:"name_list_one" ~lhs:"name_list" ~rhs:[ "name" ]
    ~rules:
      [
        rule ~target:(0, "LEFS") ~deps:[ (1, "LEF") ] (fun l -> Lefs [ as_lef l ]);
      ];
  prod ~name:"name_list_more" ~lhs:"name_list" ~rhs:[ "name_list"; ","; "name" ]
    ~rules:
      [
        rule ~target:(0, "LEFS") ~deps:[ (1, "LEFS"); (3, "LEF") ] (fun ls l ->
            Lefs (as_lef l :: as_lefs ls));
      ];

  (* discrete ranges (for loops, array index specs) *)
  prod ~name:"discrete_range_expr" ~lhs:"discrete_range" ~rhs:[ "expr" ]
    ~rules:
      [
        rule ~target:(0, "RNG") ~deps:[ (1, "LEF") ] (fun lef -> Rng (`Lef (as_lef lef)));
      ];
  prod ~name:"discrete_range_bounds" ~lhs:"discrete_range"
    ~rhs:[ "simpleexpr"; "direction"; "simpleexpr" ]
    ~rules:
      [
        rule ~target:(0, "RNG")
          ~deps:[ (1, "LEF"); (2, "DIR"); (3, "LEF") ]
          (fun lo d hi ->
            let dir = if as_str d = "to" then Types.To else Types.Downto in
            Rng (`Bounds (as_lef lo, dir, as_lef hi)));
      ];

  (* optional expression *)
  prod ~name:"expr_opt_none" ~lhs:"expr_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "OLEF") (Opt None) ];
  prod ~name:"expr_opt_some" ~lhs:"expr_opt" ~rhs:[ "expr" ]
    ~rules:
      [
        rule ~target:(0, "OLEF") ~deps:[ (1, "LEF") ] (fun l -> Opt (Some l));
      ]
