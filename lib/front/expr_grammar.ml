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

let rule = B.rule
let copy = B.copy

(* projections of the hidden RES pair: (CANDS, extra MSGS) *)
let res_pair (cands, msgs) = Pair (Cands cands, Msgs msgs)

let cands_of_res = function
  | [ v ] -> fst (as_pair v)
  | _ -> internal "cands_of_res"

let msgs_of_res vs =
  (* first dep is RES; the rest are children MSGS *)
  match vs with
  | res :: children ->
    let _, m = as_pair res in
    Msgs (List.concat_map as_msgs children @ as_msgs m)
  | [] -> internal "msgs_of_res"

(* a production whose CANDS/MSGS come from a helper returning a pair;
   [msg_deps] lists the children whose MSGS must still be merged in *)
let helper_rules ~deps ~msg_deps f =
  [
    rule ~target:(0, "RES") ~deps (fun vs -> res_pair (f vs));
    rule ~target:(0, "CANDS") ~deps:[ (0, "RES") ] cands_of_res;
    rule ~target:(0, "MSGS")
      ~deps:((0, "RES") :: List.map (fun p -> (p, "MSGS")) msg_deps)
      msgs_of_res;
  ]

let line_of_ltok v = (as_ltok v).Lef.l_line

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
  let no_res sym =
    (* productions relying on the implicit CANDS copy still must define RES
       (it has no class); give it a dummy *)
    rule ~target:(0, "RES") ~deps:[] (fun _ -> ignore sym; Unit)
  in

  (* ---- goal ---- *)
  prod ~name:"xgoal" ~lhs:"xgoal" ~rhs:[ "xexpr" ] ~rules:[];

  (* ---- binary operator levels ---- *)
  let binop_prod ~name ~lhs ~rhs ~op_pos ~l_pos ~r_pos =
    prod ~name ~lhs ~rhs
      ~rules:
        (helper_rules
           ~deps:[ (l_pos, "CANDS"); (op_pos, "VAL"); (r_pos, "CANDS") ]
           ~msg_deps:[ l_pos; r_pos ]
           (function
             | [ l; opv; r ] ->
               let tok = as_ltok opv in
               let op, user =
                 match tok.Lef.l_kind with
                 | Lef.Kop o -> (o, [])
                 | Lef.Kop_user { op; cands } -> (op, cands)
                 | _ -> internal "operator token expected"
               in
               Expr_sem.apply_binop ~line:tok.Lef.l_line ~user op (as_cands l)
                 (as_cands r)
             | _ -> internal "binop_prod"))
  in
  prod ~name:"xexpr_rel" ~lhs:"xexpr" ~rhs:[ "relation" ] ~rules:[ no_res "xexpr" ];
  binop_prod ~name:"xexpr_logop" ~lhs:"xexpr" ~rhs:[ "xexpr"; "LOGOP"; "relation" ]
    ~op_pos:2 ~l_pos:1 ~r_pos:3;
  prod ~name:"relation_simple" ~lhs:"relation" ~rhs:[ "simple" ] ~rules:[ no_res "relation" ];
  binop_prod ~name:"relation_rel" ~lhs:"relation" ~rhs:[ "simple"; "RELOP"; "simple" ]
    ~op_pos:2 ~l_pos:1 ~r_pos:3;
  prod ~name:"simple_term" ~lhs:"simple" ~rhs:[ "xterm" ] ~rules:[ no_res "simple" ];
  prod ~name:"simple_sign" ~lhs:"simple" ~rhs:[ "ADDOP"; "xterm" ]
    ~rules:
      (helper_rules ~deps:[ (1, "VAL"); (2, "CANDS") ] ~msg_deps:[ 2 ] (function
        | [ opv; c ] ->
          let tok = as_ltok opv in
          let op, user =
            match tok.Lef.l_kind with
            | Lef.Kop o -> (o, [])
            | Lef.Kop_user { op; cands } -> (op, cands)
            | _ -> internal "sign token"
          in
          if op = "&" then
            ([ Expr_sem.error_cand ], [ Diag.error ~line:tok.Lef.l_line "misplaced operator &" ])
          else Expr_sem.apply_unop ~line:tok.Lef.l_line ~user op (as_cands c)
        | _ -> internal "simple_sign"));
  binop_prod ~name:"simple_add" ~lhs:"simple" ~rhs:[ "simple"; "ADDOP"; "xterm" ]
    ~op_pos:2 ~l_pos:1 ~r_pos:3;
  prod ~name:"term_factor" ~lhs:"xterm" ~rhs:[ "factor" ] ~rules:[ no_res "xterm" ];
  binop_prod ~name:"term_mul" ~lhs:"xterm" ~rhs:[ "xterm"; "MULOP"; "factor" ]
    ~op_pos:2 ~l_pos:1 ~r_pos:3;
  prod ~name:"factor_primary" ~lhs:"factor" ~rhs:[ "primary" ] ~rules:[ no_res "factor" ];
  binop_prod ~name:"factor_exp" ~lhs:"factor" ~rhs:[ "primary"; "EXPOP"; "primary" ]
    ~op_pos:2 ~l_pos:1 ~r_pos:3;
  let unop_prod ~name ~kw ~op =
    prod ~name ~lhs:"factor" ~rhs:[ kw; "primary" ]
      ~rules:
        (helper_rules ~deps:[ (1, "VAL"); (2, "CANDS") ] ~msg_deps:[ 2 ] (function
          | [ opv; c ] ->
            let user =
              match (as_ltok opv).Lef.l_kind with
              | Lef.Kop_user { cands; _ } -> cands
              | _ -> []
            in
            Expr_sem.apply_unop ~line:(line_of_ltok opv) ~user op (as_cands c)
          | _ -> internal "unop_prod"))
  in
  unop_prod ~name:"factor_abs" ~kw:"ABS" ~op:"abs";
  unop_prod ~name:"factor_not" ~kw:"NOT" ~op:"not";

  (* ---- primaries ---- *)
  prod ~name:"primary_name" ~lhs:"primary" ~rhs:[ "pname" ]
    ~rules:
      (helper_rules ~deps:[ (1, "CANDS"); (1, "HEAD") ] ~msg_deps:[ 1 ] (function
        | [ c; head ] -> (
          match as_opt head with
          | Some (Ltok { Lef.l_kind = Lef.Kfunc sigs | Lef.Kproc sigs; l_line }) ->
            Expr_sem.func_cands ~line:l_line sigs
          | _ -> (as_cands c, []))
        | _ -> internal "primary_name"));
  let literal_prod term =
    prod ~name:("primary_" ^ term) ~lhs:"primary" ~rhs:[ term ]
      ~rules:
        [
          no_res "primary";
          rule ~target:(0, "CANDS") ~deps:[ (1, "VAL") ] (function
            | [ v ] -> Cands (Expr_sem.literal_cands (as_ltok v))
            | _ -> internal "literal");
        ]
  in
  List.iter literal_prod [ "LINT"; "LREAL"; "LPHYS"; "LSTR"; "LBITSTR"; "ENUMLIT" ];
  prod ~name:"primary_attrval" ~lhs:"primary" ~rhs:[ "ATTRVAL" ]
    ~rules:
      [
        no_res "primary";
        rule ~target:(0, "CANDS") ~deps:[ (1, "VAL") ] (function
          | [ v ] -> Cands (Expr_sem.head_cands ~level:0 (as_ltok v))
          | _ -> internal "attrval");
      ];
  (* parenthesized expression or aggregate *)
  prod ~name:"primary_paren" ~lhs:"primary" ~rhs:[ "("; "items"; ")" ]
    ~rules:
      [
        no_res "primary";
        rule ~target:(0, "CANDS") ~deps:[ (2, "ITEMS") ] (function
          | [ items ] -> (
            match items_of items with
            | [ Ipos cands ] -> Cands cands (* plain parentheses *)
            | items -> Cands [ Cagg items ])
          | _ -> internal "paren");
      ];
  (* type conversion *)
  prod ~name:"primary_conversion" ~lhs:"primary" ~rhs:[ "TYPE"; "("; "items"; ")" ]
    ~rules:
      (helper_rules ~deps:[ (1, "VAL"); (3, "ITEMS") ] ~msg_deps:[ 3 ] (function
        | [ tyv; items ] -> (
          let tok = as_ltok tyv in
          let ty =
            match tok.Lef.l_kind with
            | Lef.Ktype t -> t
            | _ -> internal "TYPE token"
          in
          match items_of items with
          | [ Ipos cands ] -> Expr_sem.conversion ~line:tok.Lef.l_line ty cands
          | _ ->
            ( [ Expr_sem.error_cand ],
              [ Diag.error ~line:tok.Lef.l_line "type conversion takes a single expression" ] ))
        | _ -> internal "conversion"));
  (* qualified expression *)
  prod ~name:"primary_qualified" ~lhs:"primary" ~rhs:[ "TYPE"; "'"; "("; "items"; ")" ]
    ~rules:
      (helper_rules ~deps:[ (1, "VAL"); (4, "ITEMS") ] ~msg_deps:[ 4 ] (function
        | [ tyv; items ] -> (
          let tok = as_ltok tyv in
          let ty =
            match tok.Lef.l_kind with
            | Lef.Ktype t -> t
            | _ -> internal "TYPE token"
          in
          match items_of items with
          | [ Ipos cands ] -> Expr_sem.qualified ~line:tok.Lef.l_line ty cands
          | items -> Expr_sem.qualified ~line:tok.Lef.l_line ty [ Cagg items ])
        | _ -> internal "qualified"));
  (* allocators: new T, new T'(e) — the result adapts to any access type
     designating T (resolved by the expected type, like null) *)
  prod ~name:"primary_new" ~lhs:"primary" ~rhs:[ "NEW"; "TYPE" ]
    ~rules:
      (helper_rules ~deps:[ (2, "VAL") ] ~msg_deps:[] (function
        | [ tyv ] -> (
          match (as_ltok tyv).Lef.l_kind with
          | Lef.Ktype t ->
            ( [
                Cv
                  {
                    ty = Expr_sem.anon_access_ty t;
                    code = Kir.Enew (t, None);
                    static = None;
                  };
              ],
              [] )
          | _ -> internal "TYPE token")
        | _ -> internal "primary_new"));
  prod ~name:"primary_new_init" ~lhs:"primary"
    ~rhs:[ "NEW"; "TYPE"; "'"; "("; "items"; ")" ]
    ~rules:
      (helper_rules ~deps:[ (2, "VAL"); (5, "ITEMS") ] ~msg_deps:[ 5 ] (function
        | [ tyv; items ] -> (
          let tok = as_ltok tyv in
          match tok.Lef.l_kind with
          | Lef.Ktype t -> (
            let qcands, msgs =
              match items_of items with
              | [ Ipos cands ] -> Expr_sem.qualified ~line:tok.Lef.l_line t cands
              | its -> Expr_sem.qualified ~line:tok.Lef.l_line t [ Cagg its ]
            in
            match qcands with
            | Cv { code; _ } :: _ ->
              ( [
                  Cv
                    {
                      ty = Expr_sem.anon_access_ty t;
                      code = Kir.Enew (t, Some code);
                      static = None;
                    };
                ],
                msgs )
            | _ -> ([ Expr_sem.error_cand ], msgs))
          | _ -> internal "TYPE token")
        | _ -> internal "primary_new_init"));
  (* the null access literal *)
  prod ~name:"primary_null" ~lhs:"primary" ~rhs:[ "LNULL" ]
    ~rules:
      (helper_rules ~deps:[] ~msg_deps:[] (function
        | [] -> ([ Expr_sem.null_cand ], [])
        | _ -> internal "primary_null"));

  (* type attribute: INTEGER'LOW, T'RANGE, ... *)
  prod ~name:"primary_type_attr" ~lhs:"primary" ~rhs:[ "TYPE"; "'"; "ATTR" ]
    ~rules:
      (helper_rules ~deps:[ (1, "VAL"); (3, "VAL") ] ~msg_deps:[] (function
        | [ tyv; attrv ] -> (
          let ty =
            match (as_ltok tyv).Lef.l_kind with
            | Lef.Ktype t -> t
            | _ -> internal "TYPE token"
          in
          let atok = as_ltok attrv in
          match atok.Lef.l_kind with
          | Lef.Kattr a ->
            if Expr_sem.type_attr_is_function a then
              ( [ Expr_sem.error_cand ],
                [ Diag.error ~line:atok.Lef.l_line "attribute '%s requires an argument" a ] )
            else Expr_sem.scalar_type_attr ~line:atok.Lef.l_line ty a
          | _ -> internal "ATTR token")
        | _ -> internal "type_attr"));
  (* attribute function: T'POS(x), T'VAL(n), T'SUCC(x)... *)
  prod ~name:"primary_type_attr_fn" ~lhs:"primary"
    ~rhs:[ "TYPE"; "'"; "ATTR"; "("; "items"; ")" ]
    ~rules:
      (helper_rules ~deps:[ (1, "VAL"); (3, "VAL"); (5, "ITEMS") ] ~msg_deps:[ 5 ] (function
        | [ tyv; attrv; items ] -> (
          let ty =
            match (as_ltok tyv).Lef.l_kind with
            | Lef.Ktype t -> t
            | _ -> internal "TYPE token"
          in
          let atok = as_ltok attrv in
          match atok.Lef.l_kind with
          | Lef.Kattr a ->
            Expr_sem.apply_type_attr_args ~line:atok.Lef.l_line ty a (items_of items)
          | _ -> internal "ATTR token")
        | _ -> internal "type_attr_fn"));

  (* ---- names ---- *)
  let head_prod term =
    prod ~name:("pname_" ^ term) ~lhs:"pname" ~rhs:[ term ]
      ~rules:
        [
          no_res "pname";
          rule ~target:(0, "CANDS") ~deps:[ (1, "VAL"); (0, "XLEVEL") ] (function
            | [ v; lvl ] -> Cands (Expr_sem.head_cands ~level:(as_int lvl) (as_ltok v))
            | _ -> internal "head");
          rule ~target:(0, "HEAD") ~deps:[ (1, "VAL") ] (function
            | [ v ] -> Opt (Some v)
            | _ -> internal "head2");
        ]
  in
  List.iter head_prod [ "VAR"; "SIG"; "GEN"; "CONSTV"; "FUNC"; "PROC" ];
  prod ~name:"pname_args" ~lhs:"pname" ~rhs:[ "pname"; "("; "items"; ")" ]
    ~rules:
      (rule ~target:(0, "HEAD") ~deps:[] (fun _ -> Opt None)
      :: helper_rules
           ~deps:[ (1, "HEAD"); (1, "CANDS"); (2, "VAL"); (3, "ITEMS") ]
           ~msg_deps:[ 1; 3 ]
           (function
             | [ head; cands; lp; items ] ->
               let head_tok =
                 match as_opt head with
                 | Some (Ltok t) -> Some t
                 | _ -> None
               in
               Expr_sem.apply_args ~line:(line_of_ltok lp) head_tok (as_cands cands)
                 (items_of items)
             | _ -> internal "pname_args"));
  prod ~name:"pname_field" ~lhs:"pname" ~rhs:[ "pname"; "."; "IDENT" ]
    ~rules:
      (rule ~target:(0, "HEAD") ~deps:[] (fun _ -> Opt None)
      :: helper_rules ~deps:[ (1, "CANDS"); (3, "VAL") ] ~msg_deps:[ 1 ] (function
           | [ cands; fv ] -> (
             let tok = as_ltok fv in
             match tok.Lef.l_kind with
             | Lef.Kident f -> Expr_sem.select_field ~line:tok.Lef.l_line (as_cands cands) f
             | _ -> internal "field token")
           | _ -> internal "pname_field"));
  (* dereference: p.all *)
  prod ~name:"pname_deref" ~lhs:"pname" ~rhs:[ "pname"; "."; "all" ]
    ~rules:
      (rule ~target:(0, "HEAD") ~deps:[] (fun _ -> Opt None)
      :: helper_rules ~deps:[ (1, "CANDS"); (2, "LINE") ] ~msg_deps:[ 1 ] (function
           | [ cands; line ] -> Expr_sem.deref ~line:(as_int line) (as_cands cands)
           | _ -> internal "pname_deref"));
  prod ~name:"pname_attr" ~lhs:"pname" ~rhs:[ "pname"; "'"; "ATTR" ]
    ~rules:
      (rule ~target:(0, "HEAD") ~deps:[] (fun _ -> Opt None)
      :: helper_rules ~deps:[ (1, "CANDS"); (3, "VAL") ] ~msg_deps:[ 1 ] (function
           | [ cands; av ] -> (
             let tok = as_ltok av in
             match tok.Lef.l_kind with
             | Lef.Kattr a -> Expr_sem.apply_name_attr ~line:tok.Lef.l_line (as_cands cands) a
             | _ -> internal "attr token")
           | _ -> internal "pname_attr"));

  (* ---- aggregate / argument items ---- *)
  prod ~name:"items_one" ~lhs:"items" ~rhs:[ "item" ]
    ~rules:
      [
        rule ~target:(0, "ITEMS") ~deps:[ (1, "ITEM") ] (function
          | [ i ] -> Aitems (List.rev (as_aitems i))
          | _ -> internal "items_one");
      ];
  prod ~name:"items_more" ~lhs:"items" ~rhs:[ "items"; ","; "item" ]
    ~rules:
      [
        rule ~target:(0, "ITEMS") ~deps:[ (1, "ITEMS"); (3, "ITEM") ] (function
          | [ l; i ] -> Aitems (List.rev_append (as_aitems i) (as_aitems l))
          | _ -> internal "items_more");
      ];
  prod ~name:"item_expr" ~lhs:"item" ~rhs:[ "xexpr" ]
    ~rules:
      [
        rule ~target:(0, "ITEM") ~deps:[ (1, "CANDS") ] (function
          | [ c ] -> Aitems [ Ipos (as_cands c) ]
          | _ -> internal "item_expr");
      ];
  let item_range ~name ~dir_term ~dir =
    prod ~name ~lhs:"item" ~rhs:[ "simple"; dir_term; "simple" ]
      ~rules:
        [
          rule ~target:(0, "ITEM") ~deps:[ (1, "CANDS"); (3, "CANDS") ] (function
            | [ lo; hi ] -> (
              (* a positional range item: used by slices; encode as a Crng
                 candidate built from the extreme expressions *)
              let pick cands =
                List.find_map
                  (function Cv { code; _ } -> Some code | _ -> None)
                  (as_cands cands)
              in
              match (pick lo, pick hi) with
              | Some l, Some h -> Aitems [ Ipos [ Crng ((l, dir, h), None) ] ]
              | _ -> Aitems [ Ipos [ Expr_sem.error_cand ] ])
            | _ -> internal "item_range");
        ]
  in
  item_range ~name:"item_range_to" ~dir_term:"to" ~dir:Types.To;
  item_range ~name:"item_range_downto" ~dir_term:"downto" ~dir:Types.Downto;
  prod ~name:"item_named" ~lhs:"item" ~rhs:[ "chlist"; "=>"; "xexpr" ]
    ~rules:
      [
        rule ~target:(0, "ITEM") ~deps:[ (1, "CHS"); (3, "CANDS") ] (function
          | [ chs; c ] -> Aitems [ Inamed (as_achoices chs, as_cands c) ]
          | _ -> internal "item_named");
      ];
  prod ~name:"item_named_open" ~lhs:"item" ~rhs:[ "chlist"; "=>"; "open" ]
    ~rules:
      [
        rule ~target:(0, "ITEM") ~deps:[ (1, "CHS") ] (function
          | [ chs ] -> Aitems [ Inamed (as_achoices chs, []) ]
          | _ -> internal "item_named_open");
      ];
  prod ~name:"chlist_one" ~lhs:"chlist" ~rhs:[ "choice" ]
    ~rules:
      [
        rule ~target:(0, "CHS") ~deps:[ (1, "CH") ] (function
          | [ c ] -> Achoices (as_achoices c)
          | _ -> internal "chlist_one");
      ];
  prod ~name:"chlist_more" ~lhs:"chlist" ~rhs:[ "chlist"; "|"; "choice" ]
    ~rules:
      [
        rule ~target:(0, "CHS") ~deps:[ (1, "CHS"); (3, "CH") ] (function
          | [ l; c ] -> Achoices (as_achoices l @ as_achoices c)
          | _ -> internal "chlist_more");
      ];
  prod ~name:"choice_expr" ~lhs:"choice" ~rhs:[ "simple" ]
    ~rules:
      [
        rule ~target:(0, "CH") ~deps:[ (1, "CANDS") ] (function
          | [ c ] -> Achoices [ Cexpr (as_cands c) ]
          | _ -> internal "choice_expr");
      ];
  let choice_range ~name ~dir_term ~dir =
    prod ~name ~lhs:"choice" ~rhs:[ "simple"; dir_term; "simple" ]
      ~rules:
        [
          rule ~target:(0, "CH") ~deps:[ (1, "CANDS"); (3, "CANDS") ] (function
            | [ lo; hi ] -> Achoices [ Cchoice_range (as_cands lo, dir, as_cands hi) ]
            | _ -> internal "choice_range");
        ]
  in
  choice_range ~name:"choice_range_to" ~dir_term:"to" ~dir:Types.To;
  choice_range ~name:"choice_range_downto" ~dir_term:"downto" ~dir:Types.Downto;
  prod ~name:"choice_others" ~lhs:"choice" ~rhs:[ "others" ]
    ~rules:[ rule ~target:(0, "CH") ~deps:[] (fun _ -> Achoices [ Cothers ]) ];
  prod ~name:"choice_ident" ~lhs:"choice" ~rhs:[ "IDENT" ]
    ~rules:
      [
        rule ~target:(0, "CH") ~deps:[ (1, "VAL") ] (function
          | [ v ] -> (
            match (as_ltok v).Lef.l_kind with
            | Lef.Kident s -> Achoices [ Cident s ]
            | _ -> internal "choice ident token")
          | _ -> internal "choice_ident");
      ];
  B.freeze b ~start:"xgoal"
