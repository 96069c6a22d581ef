(** The expression attribute grammar (paper §4.1).

    Parses LEF token lists — identifiers pre-resolved into classified tokens
    by the principal AG — so "very different phrase structure can be built
    for two identical pieces of VHDL source text, depending on to what the
    names in that source text are bound".

    Attributes:
    - CANDS (synthesized, copy class): overload candidate sets;
    - MSGS (synthesized, merge class): diagnostics;
    - ITEMS / CHS: aggregate and argument structure;
    - HEAD: the classified head token of a name, for overload resolution;
    - XLEVEL (inherited, copy class): subprogram nesting level of the
      occurrence, supplied by [exprEval] as an argument (paper: "other
      arguments are the nesting level at which this expression occurs"). *)

module B = Grammar.Builder
open Pval
open Gram_util

(* a production whose CANDS/MSGS come from a helper returning a pair, held
   by the hidden RES attribute; [msg_deps] lists the children whose MSGS
   must still be merged in *)
let helper_rules ~deps ~msg_deps f =
  [
    B.rule_map (fun (cands, msgs) -> Pair (Cands cands, Msgs msgs)) ~target:(0, "RES") ~deps f;
    rule ~target:(0, "CANDS") ~deps:[ (0, "RES") ] Gram_util.fst_of;
    Gram_util.msgs_rule ~res:"RES" msg_deps;
  ]

let line_of_ltok v = (as_ltok v).Lef.l_line

(* payloads of classified tokens *)
let operator tok =
  match tok.Lef.l_kind with
  | Lef.Kop o -> (o, [])
  | Lef.Kop_user { op; cands } -> (op, cands)
  | _ -> internal "operator token expected"

let type_of v =
  match (as_ltok v).Lef.l_kind with
  | Lef.Ktype t -> t
  | _ -> internal "TYPE token"

(* ITEMS accumulates newest first, one cons per item; its readers put it
   in source order once *)
let items_of v = List.rev (as_aitems v)

let build () =
  let b = B.create () in
  List.iter (fun t -> ignore (B.terminal b t)) Lef.all_terminals;
  let nonterminals =
    [ "xgoal"; "xexpr"; "relation"; "simple"; "xterm"; "factor"; "primary";
      "pname"; "items"; "item"; "chlist"; "choice" ]
  in
  List.iter (fun n -> ignore (B.nonterminal b n)) nonterminals;
  (* classes *)
  B.attr_class b ~name:"MSGS" ~dir:Grammar.Synthesized
    ~default:(Grammar.Merge ((fun a c -> Msgs (as_msgs a @ as_msgs c)), Msgs []));
  B.attr_class b ~name:"CANDS" ~dir:Grammar.Synthesized ~default:Grammar.Copy;
  B.attr_class b ~name:"XLEVEL" ~dir:Grammar.Inherited ~default:Grammar.Copy;
  List.iter
    (fun sym ->
      B.attr_member b ~sym ~cls:"MSGS";
      B.attr_member b ~sym ~cls:"XLEVEL")
    nonterminals;
  List.iter
    (fun sym -> B.attr_member b ~sym ~cls:"CANDS")
    [ "xgoal"; "xexpr"; "relation"; "simple"; "xterm"; "factor"; "primary"; "pname" ];
  (* hidden helper attribute *)
  List.iter
    (fun sym -> B.attr b ~sym ~name:"RES" ~dir:Grammar.Synthesized)
    [ "xexpr"; "relation"; "simple"; "xterm"; "factor"; "primary"; "pname" ];
  B.attr b ~sym:"pname" ~name:"HEAD" ~dir:Grammar.Synthesized;
  B.attr b ~sym:"items" ~name:"ITEMS" ~dir:Grammar.Synthesized;
  B.attr b ~sym:"item" ~name:"ITEM" ~dir:Grammar.Synthesized;
  B.attr b ~sym:"chlist" ~name:"CHS" ~dir:Grammar.Synthesized;
  B.attr b ~sym:"choice" ~name:"CH" ~dir:Grammar.Synthesized;

  let prod = B.production b in
  (* productions relying on the implicit CANDS copy still must define RES
     (it has no class); give it a dummy *)
  let no_res = B.const ~target:(0, "RES") Unit in

  (* ---- goal ---- *)
  prod ~name:"xgoal" ~lhs:"xgoal" ~rhs:[ "xexpr" ] ~rules:[];

  (* ---- binary operator levels ---- *)
  let binop_prod ~name ~lhs ~rhs ~op_pos ~l_pos ~r_pos =
    prod ~name ~lhs ~rhs
      ~rules:
        (helper_rules
           ~deps:[ (l_pos, "CANDS"); (op_pos, "VAL"); (r_pos, "CANDS") ]
           ~msg_deps:[ l_pos; r_pos ]
           (fun l opv r ->
             let tok = as_ltok opv in
             let op, user = operator tok in
             Expr_sem.apply_binop ~line:tok.Lef.l_line ~user op (as_cands l)
               (as_cands r)))
  in
  prod ~name:"xexpr_rel" ~lhs:"xexpr" ~rhs:[ "relation" ] ~rules:[ no_res ];
  binop_prod ~name:"xexpr_logop" ~lhs:"xexpr" ~rhs:[ "xexpr"; "LOGOP"; "relation" ]
    ~op_pos:2 ~l_pos:1 ~r_pos:3;
  prod ~name:"relation_simple" ~lhs:"relation" ~rhs:[ "simple" ] ~rules:[ no_res ];
  binop_prod ~name:"relation_rel" ~lhs:"relation" ~rhs:[ "simple"; "RELOP"; "simple" ]
    ~op_pos:2 ~l_pos:1 ~r_pos:3;
  prod ~name:"simple_term" ~lhs:"simple" ~rhs:[ "xterm" ] ~rules:[ no_res ];
  prod ~name:"simple_sign" ~lhs:"simple" ~rhs:[ "ADDOP"; "xterm" ]
    ~rules:
      (helper_rules ~deps:[ (1, "VAL"); (2, "CANDS") ] ~msg_deps:[ 2 ] (fun opv c ->
          let tok = as_ltok opv in
          let op, user = operator tok in
          if op = "&" then
            ([ Expr_sem.error_cand ], [ Diag.error ~line:tok.Lef.l_line "misplaced operator &" ])
          else Expr_sem.apply_unop ~line:tok.Lef.l_line ~user op (as_cands c)));
  binop_prod ~name:"simple_add" ~lhs:"simple" ~rhs:[ "simple"; "ADDOP"; "xterm" ]
    ~op_pos:2 ~l_pos:1 ~r_pos:3;
  prod ~name:"term_factor" ~lhs:"xterm" ~rhs:[ "factor" ] ~rules:[ no_res ];
  binop_prod ~name:"term_mul" ~lhs:"xterm" ~rhs:[ "xterm"; "MULOP"; "factor" ]
    ~op_pos:2 ~l_pos:1 ~r_pos:3;
  prod ~name:"factor_primary" ~lhs:"factor" ~rhs:[ "primary" ] ~rules:[ no_res ];
  binop_prod ~name:"factor_exp" ~lhs:"factor" ~rhs:[ "primary"; "EXPOP"; "primary" ]
    ~op_pos:2 ~l_pos:1 ~r_pos:3;
  let unop_prod ~name ~kw ~op =
    prod ~name ~lhs:"factor" ~rhs:[ kw; "primary" ]
      ~rules:
        (helper_rules ~deps:[ (1, "VAL"); (2, "CANDS") ] ~msg_deps:[ 2 ] (fun opv c ->
            let user =
              match (as_ltok opv).Lef.l_kind with
              | Lef.Kop_user { cands; _ } -> cands
              | _ -> []
            in
            Expr_sem.apply_unop ~line:(line_of_ltok opv) ~user op (as_cands c)))
  in
  unop_prod ~name:"factor_abs" ~kw:"ABS" ~op:"abs";
  unop_prod ~name:"factor_not" ~kw:"NOT" ~op:"not";

  (* ---- primaries ---- *)
  prod ~name:"primary_name" ~lhs:"primary" ~rhs:[ "pname" ]
    ~rules:
      (helper_rules ~deps:[ (1, "CANDS"); (1, "HEAD") ] ~msg_deps:[ 1 ] (fun c head ->
          match as_opt head with
          | Some (Ltok { Lef.l_kind = Lef.Kfunc sigs | Lef.Kproc sigs; l_line }) ->
            Expr_sem.func_cands ~line:l_line sigs
          | _ -> (as_cands c, [])));
  let literal_prod term =
    prod ~name:("primary_" ^ term) ~lhs:"primary" ~rhs:[ term ]
      ~rules:
        [
          no_res;
          rule ~target:(0, "CANDS") ~deps:[ (1, "VAL") ] (fun v ->
              Cands (Expr_sem.literal_cands (as_ltok v)));
        ]
  in
  List.iter literal_prod [ "LINT"; "LREAL"; "LPHYS"; "LSTR"; "LBITSTR"; "ENUMLIT" ];
  prod ~name:"primary_attrval" ~lhs:"primary" ~rhs:[ "ATTRVAL" ]
    ~rules:
      [
        no_res;
        rule ~target:(0, "CANDS") ~deps:[ (1, "VAL") ] (fun v ->
            Cands (Expr_sem.head_cands ~level:0 (as_ltok v)));
      ];
  (* parenthesized expression or aggregate *)
  prod ~name:"primary_paren" ~lhs:"primary" ~rhs:[ "("; "items"; ")" ]
    ~rules:
      [
        no_res;
        rule ~target:(0, "CANDS") ~deps:[ (2, "ITEMS") ] (fun items ->
            match items_of items with
            | [ Ipos cands ] -> Cands cands (* plain parentheses *)
            | items -> Cands [ Cagg items ]);
      ];
  (* type conversion *)
  prod ~name:"primary_conversion" ~lhs:"primary" ~rhs:[ "TYPE"; "("; "items"; ")" ]
    ~rules:
      (helper_rules ~deps:[ (1, "VAL"); (3, "ITEMS") ] ~msg_deps:[ 3 ] (fun tyv items ->
          let tok = as_ltok tyv and ty = type_of tyv in
          match items_of items with
          | [ Ipos cands ] -> Expr_sem.conversion ~line:tok.Lef.l_line ty cands
          | _ ->
            ( [ Expr_sem.error_cand ],
              [ Diag.error ~line:tok.Lef.l_line "type conversion takes a single expression" ] )));
  (* qualified expression *)
  prod ~name:"primary_qualified" ~lhs:"primary" ~rhs:[ "TYPE"; "'"; "("; "items"; ")" ]
    ~rules:
      (helper_rules ~deps:[ (1, "VAL"); (4, "ITEMS") ] ~msg_deps:[ 4 ] (fun tyv items ->
          let tok = as_ltok tyv and ty = type_of tyv in
          match items_of items with
          | [ Ipos cands ] -> Expr_sem.qualified ~line:tok.Lef.l_line ty cands
          | items -> Expr_sem.qualified ~line:tok.Lef.l_line ty [ Cagg items ]));
  (* allocators: new T, new T'(e) — the result adapts to any access type
     designating T (resolved by the expected type, like null) *)
  prod ~name:"primary_new" ~lhs:"primary" ~rhs:[ "NEW"; "TYPE" ]
    ~rules:
      (helper_rules ~deps:[ (2, "VAL") ] ~msg_deps:[] (fun tyv ->
          let t = type_of tyv in
          let ty = Expr_sem.anon_access_ty t in
          ([ Cv { ty; code = Kir.Enew (t, None); static = None } ], [])));
  prod ~name:"primary_new_init" ~lhs:"primary"
    ~rhs:[ "NEW"; "TYPE"; "'"; "("; "items"; ")" ]
    ~rules:
      (helper_rules ~deps:[ (2, "VAL"); (5, "ITEMS") ] ~msg_deps:[ 5 ] (fun tyv items ->
          let tok = as_ltok tyv and t = type_of tyv in
          let qcands, msgs =
            match items_of items with
            | [ Ipos cands ] -> Expr_sem.qualified ~line:tok.Lef.l_line t cands
            | its -> Expr_sem.qualified ~line:tok.Lef.l_line t [ Cagg its ]
          in
          match qcands with
          | Cv { code; _ } :: _ ->
            let ty = Expr_sem.anon_access_ty t in
            ([ Cv { ty; code = Kir.Enew (t, Some code); static = None } ], msgs)
          | _ -> ([ Expr_sem.error_cand ], msgs)));
  (* the null access literal *)
  prod ~name:"primary_null" ~lhs:"primary" ~rhs:[ "LNULL" ]
    ~rules:(helper_rules ~deps:[] ~msg_deps:[] ([ Expr_sem.null_cand ], []));

  (* type attribute: INTEGER'LOW, T'RANGE, ... *)
  prod ~name:"primary_type_attr" ~lhs:"primary" ~rhs:[ "TYPE"; "'"; "ATTR" ]
    ~rules:
      (helper_rules ~deps:[ (1, "VAL"); (3, "VAL") ] ~msg_deps:[] (fun tyv attrv ->
          let ty = type_of tyv in
          let atok = as_ltok attrv in
          match atok.Lef.l_kind with
          | Lef.Kattr a ->
            if Expr_sem.type_attr_is_function a then
              ( [ Expr_sem.error_cand ],
                [ Diag.error ~line:atok.Lef.l_line "attribute '%s requires an argument" a ] )
            else Expr_sem.scalar_type_attr ~line:atok.Lef.l_line ty a
          | _ -> internal "ATTR token"));
  (* attribute function: T'POS(x), T'VAL(n), T'SUCC(x)... *)
  prod ~name:"primary_type_attr_fn" ~lhs:"primary"
    ~rhs:[ "TYPE"; "'"; "ATTR"; "("; "items"; ")" ]
    ~rules:
      (helper_rules
         ~deps:[ (1, "VAL"); (3, "VAL"); (5, "ITEMS") ]
         ~msg_deps:[ 5 ]
         (fun tyv attrv items ->
           let ty = type_of tyv in
           let atok = as_ltok attrv in
           match atok.Lef.l_kind with
           | Lef.Kattr a ->
             Expr_sem.apply_type_attr_args ~line:atok.Lef.l_line ty a (items_of items)
           | _ -> internal "ATTR token"));

  (* ---- names ---- *)
  let head_prod term =
    prod ~name:("pname_" ^ term) ~lhs:"pname" ~rhs:[ term ]
      ~rules:
        [
          no_res;
          rule ~target:(0, "CANDS") ~deps:[ (1, "VAL"); (0, "XLEVEL") ] (fun v lvl ->
              Cands (Expr_sem.head_cands ~level:(as_int lvl) (as_ltok v)));
          rule ~target:(0, "HEAD") ~deps:[ (1, "VAL") ] (fun v -> Opt (Some v));
        ]
  in
  List.iter head_prod [ "VAR"; "SIG"; "GEN"; "CONSTV"; "FUNC"; "PROC" ];
  prod ~name:"pname_args" ~lhs:"pname" ~rhs:[ "pname"; "("; "items"; ")" ]
    ~rules:
      (const ~target:(0, "HEAD") (Opt None)
      :: helper_rules
           ~deps:[ (1, "HEAD"); (1, "CANDS"); (2, "VAL"); (3, "ITEMS") ]
           ~msg_deps:[ 1; 3 ]
           (fun head cands lp items ->
             let head_tok =
               match as_opt head with
               | Some (Ltok t) -> Some t
               | _ -> None
             in
             Expr_sem.apply_args ~line:(line_of_ltok lp) head_tok (as_cands cands)
               (items_of items)));
  prod ~name:"pname_field" ~lhs:"pname" ~rhs:[ "pname"; "."; "IDENT" ]
    ~rules:
      (const ~target:(0, "HEAD") (Opt None)
      :: helper_rules ~deps:[ (1, "CANDS"); (3, "VAL") ] ~msg_deps:[ 1 ] (fun cands fv ->
             let tok = as_ltok fv in
             match tok.Lef.l_kind with
             | Lef.Kident f -> Expr_sem.select_field ~line:tok.Lef.l_line (as_cands cands) f
             | _ -> internal "field token"));
  (* dereference: p.all *)
  prod ~name:"pname_deref" ~lhs:"pname" ~rhs:[ "pname"; "."; "all" ]
    ~rules:
      (const ~target:(0, "HEAD") (Opt None)
      :: helper_rules ~deps:[ (1, "CANDS"); (2, "LINE") ] ~msg_deps:[ 1 ] (fun cands line ->
          Expr_sem.deref ~line:(as_int line) (as_cands cands)));
  prod ~name:"pname_attr" ~lhs:"pname" ~rhs:[ "pname"; "'"; "ATTR" ]
    ~rules:
      (const ~target:(0, "HEAD") (Opt None)
      :: helper_rules ~deps:[ (1, "CANDS"); (3, "VAL") ] ~msg_deps:[ 1 ] (fun cands av ->
             let tok = as_ltok av in
             match tok.Lef.l_kind with
             | Lef.Kattr a -> Expr_sem.apply_name_attr ~line:tok.Lef.l_line (as_cands cands) a
             | _ -> internal "attr token"));

  (* ---- aggregate / argument items ---- *)
  prod ~name:"items_one" ~lhs:"items" ~rhs:[ "item" ]
    ~rules:
      [
        rule ~target:(0, "ITEMS") ~deps:[ (1, "ITEM") ] (fun i ->
            Aitems (List.rev (as_aitems i)));
      ];
  prod ~name:"items_more" ~lhs:"items" ~rhs:[ "items"; ","; "item" ]
    ~rules:
      [
        rule ~target:(0, "ITEMS") ~deps:[ (1, "ITEMS"); (3, "ITEM") ] (fun l i ->
            Aitems (List.rev_append (as_aitems i) (as_aitems l)));
      ];
  prod ~name:"item_expr" ~lhs:"item" ~rhs:[ "xexpr" ]
    ~rules:
      [
        rule ~target:(0, "ITEM") ~deps:[ (1, "CANDS") ] (fun c ->
            Aitems [ Ipos (as_cands c) ]);
      ];
  let item_range ~name ~dir_term ~dir =
    prod ~name ~lhs:"item" ~rhs:[ "simple"; dir_term; "simple" ]
      ~rules:
        [
          rule ~target:(0, "ITEM") ~deps:[ (1, "CANDS"); (3, "CANDS") ] (fun lo hi ->
              (* a positional range item: used by slices; encode as a Crng
                 candidate built from the extreme expressions *)
              let pick cands =
                List.find_map
                  (function Cv { code; _ } -> Some code | _ -> None)
                  (as_cands cands)
              in
              match (pick lo, pick hi) with
              | Some l, Some h -> Aitems [ Ipos [ Crng ((l, dir, h), None) ] ]
              | _ -> Aitems [ Ipos [ Expr_sem.error_cand ] ]);
        ]
  in
  item_range ~name:"item_range_to" ~dir_term:"to" ~dir:Types.To;
  item_range ~name:"item_range_downto" ~dir_term:"downto" ~dir:Types.Downto;
  prod ~name:"item_named" ~lhs:"item" ~rhs:[ "chlist"; "=>"; "xexpr" ]
    ~rules:
      [
        rule ~target:(0, "ITEM") ~deps:[ (1, "CHS"); (3, "CANDS") ] (fun chs c ->
            Aitems [ Inamed (as_achoices chs, as_cands c) ]);
      ];
  prod ~name:"item_named_open" ~lhs:"item" ~rhs:[ "chlist"; "=>"; "open" ]
    ~rules:
      [
        rule ~target:(0, "ITEM") ~deps:[ (1, "CHS") ] (fun chs ->
            Aitems [ Inamed (as_achoices chs, []) ]);
      ];
  prod ~name:"chlist_one" ~lhs:"chlist" ~rhs:[ "choice" ]
    ~rules:
      [
        rule ~target:(0, "CHS") ~deps:[ (1, "CH") ] (fun c -> Achoices (as_achoices c));
      ];
  prod ~name:"chlist_more" ~lhs:"chlist" ~rhs:[ "chlist"; "|"; "choice" ]
    ~rules:
      [
        rule ~target:(0, "CHS") ~deps:[ (1, "CHS"); (3, "CH") ] (fun l c ->
            Achoices (as_achoices l @ as_achoices c));
      ];
  prod ~name:"choice_expr" ~lhs:"choice" ~rhs:[ "simple" ]
    ~rules:
      [
        rule ~target:(0, "CH") ~deps:[ (1, "CANDS") ] (fun c ->
            Achoices [ Cexpr (as_cands c) ]);
      ];
  let choice_range ~name ~dir_term ~dir =
    prod ~name ~lhs:"choice" ~rhs:[ "simple"; dir_term; "simple" ]
      ~rules:
        [
          rule ~target:(0, "CH") ~deps:[ (1, "CANDS"); (3, "CANDS") ] (fun lo hi ->
              Achoices [ Cchoice_range (as_cands lo, dir, as_cands hi) ]);
        ]
  in
  choice_range ~name:"choice_range_to" ~dir_term:"to" ~dir:Types.To;
  choice_range ~name:"choice_range_downto" ~dir_term:"downto" ~dir:Types.Downto;
  prod ~name:"choice_others" ~lhs:"choice" ~rhs:[ "others" ]
    ~rules:[ const ~target:(0, "CH") (Achoices [ Cothers ]) ];
  prod ~name:"choice_ident" ~lhs:"choice" ~rhs:[ "IDENT" ]
    ~rules:
      [
        rule ~target:(0, "CH") ~deps:[ (1, "VAL") ] (fun v ->
            match (as_ltok v).Lef.l_kind with
            | Lef.Kident s -> Achoices [ Cident s ]
            | _ -> internal "choice ident token");
      ];
  B.freeze b ~start:"xgoal"
