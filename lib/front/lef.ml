(** LEF — the intermediate language of cascaded evaluation (paper §4.1).

    "LEF consists of a flat list of tokens with no other structure imposed
    on them...  the symbol table is an attribute of the principal AG, not of
    the expression AG, and it is used to resolve identifiers so that ID is
    not a token of LEF; instead there are distinct tokens for variable,
    type, subprogram, attribute, enum_literal, etc."

    Each token carries the full denotation information through the
    token-value mechanism, so the expression AG never needs the symbol
    table. *)

type tok = {
  l_kind : kind;
  l_line : int;
}

and kind =
  | Kvar of { name : string; ty : Types.t; level : int; index : int }
  | Ksig of { name : string; ty : Types.t; sref : Kir.sig_ref; mode : Kir.arg_mode option }
  | Kconst_val of { name : string; ty : Types.t; value : Value.t }
  | Kgeneric of { name : string; ty : Types.t; index : int }
  | Kunitconst of { name : string; ty : Types.t }
      (* architecture constant whose value arrives at elaboration *)
  | Ktype of Types.t (* also subtypes: the constraint rides along *)
  | Kfunc of Denot.subprog_sig list (* overload candidate set *)
  | Kproc of Denot.subprog_sig list
  | Kenum of (Types.t * int * string) list (* candidate (type, pos, image) *)
  | Kattrval of { value : Value.t; ty : Types.t } (* user-defined attribute, resolved *)
  | Kint of int
  | Kreal of float
  | Kphys of { value : int; ty : Types.t } (* physical literal in primary units *)
  | Kstr of string
  | Kbitstr of string
  | Kident of string (* unresolved: formal names, record-field choices *)
  | Kattr of string (* attribute designator after the tick *)
  | Kop of string (* operator, lower case: and, or, =, <=, +, &, mod, ... *)
  | Kop_user of { op : string; cands : Denot.subprog_sig list }
      (* operator with user-defined overloads visible at this point; the
         candidate set rides along like Kfunc's (paper's token-value
         mechanism), so [apply_binop] can consider them without the
         symbol table *)
  | Knew (* allocator keyword in an expression *)
  | Knull (* the null access literal *)
  | Kpunct of string (* ( ) , => | ' . to downto others open all *)
  | Kscope of scope
      (* transient prefix during selected-name resolution in the principal
         AG; never legitimate inside a finished expression *)

and scope =
  | Slib of string
  | Sunit of { library : string; unit_name : string }

(** Terminal-symbol name in the expression grammar.  Operators collapse to
    precedence classes; the op itself rides in the token value. *)
let terminal_name tok =
  match tok.l_kind with
  | Kvar _ -> "VAR"
  | Ksig _ -> "SIG"
  | Kconst_val _ -> "CONSTV"
  | Kgeneric _ -> "GEN"
  | Kunitconst _ -> "GEN"
  | Ktype _ -> "TYPE"
  | Kfunc _ -> "FUNC"
  | Kproc _ -> "PROC"
  | Kenum _ -> "ENUMLIT"
  | Kattrval _ -> "ATTRVAL"
  | Kint _ -> "LINT"
  | Kreal _ -> "LREAL"
  | Kphys _ -> "LPHYS"
  | Kstr _ -> "LSTR"
  | Kbitstr _ -> "LBITSTR"
  | Kident _ -> "IDENT"
  | Kattr _ -> "ATTR"
  | Kop op | Kop_user { op; _ } -> (
    match op with
    | "and" | "or" | "nand" | "nor" | "xor" -> "LOGOP"
    | "=" | "/=" | "<" | "<=" | ">" | ">=" -> "RELOP"
    | "+" | "-" | "&" -> "ADDOP"
    | "*" | "/" | "mod" | "rem" -> "MULOP"
    | "**" -> "EXPOP"
    | "abs" -> "ABS"
    | "not" -> "NOT"
    | _ -> invalid_arg (Printf.sprintf "Lef.terminal_name: unknown operator %s" op))
  | Knew -> "NEW"
  | Knull -> "LNULL"
  | Kpunct p -> p
  | Kscope _ -> "IDENT" (* reaches the expression AG only on user error *)

(** All terminal names of the expression grammar. *)
let all_terminals =
  [
    "VAR"; "SIG"; "CONSTV"; "GEN"; "TYPE"; "FUNC"; "PROC"; "ENUMLIT"; "ATTRVAL";
    "LINT"; "LREAL"; "LPHYS"; "LSTR"; "LBITSTR"; "IDENT"; "ATTR"; "LOGOP";
    "RELOP"; "ADDOP"; "MULOP"; "EXPOP"; "ABS"; "NOT"; "("; ")"; ","; "=>"; "|";
    "'"; "."; "to"; "downto"; "others"; "open"; "all"; "NEW"; "LNULL"; "LEOF";
  ]

let punct ~line p = { l_kind = Kpunct p; l_line = line }
let op ~line o = { l_kind = Kop o; l_line = line }

(** The symbols that may name an operator function (LRM 2.1: a string
    literal used as a subprogram designator must be an operator symbol). *)
let operator_symbols =
  [
    "and"; "or"; "nand"; "nor"; "xor"; "="; "/="; "<"; "<="; ">"; ">="; "+";
    "-"; "&"; "*"; "/"; "mod"; "rem"; "**"; "abs"; "not";
  ]

(** Environment key an operator function is bound under: the quoted,
    lower-case symbol, so it can never collide with an identifier. *)
let operator_key o = "\"" ^ String.lowercase_ascii o ^ "\""

let describe tok =
  match tok.l_kind with
  | Kvar { name; _ } -> Printf.sprintf "variable %s" name
  | Ksig { name; _ } -> Printf.sprintf "signal %s" name
  | Kconst_val { name; _ } -> Printf.sprintf "constant %s" name
  | Kgeneric { name; _ } -> Printf.sprintf "generic %s" name
  | Kunitconst { name; _ } -> Printf.sprintf "constant %s" name
  | Ktype ty -> Printf.sprintf "type %s" (Types.short_name ty)
  | Kfunc (s :: _) -> Printf.sprintf "function %s" s.Denot.ss_name
  | Kfunc [] -> "function"
  | Kproc (s :: _) -> Printf.sprintf "procedure %s" s.Denot.ss_name
  | Kproc [] -> "procedure"
  | Kenum ((_, _, image) :: _) -> Printf.sprintf "enumeration literal %s" image
  | Kenum [] -> "enumeration literal"
  | Kattrval _ -> "attribute value"
  | Kint n -> string_of_int n
  | Kreal x -> Printf.sprintf "%g" x
  | Kphys { value; _ } -> Printf.sprintf "physical literal %d" value
  | Kstr s -> Printf.sprintf "string \"%s\"" s
  | Kbitstr s -> Printf.sprintf "bit string %s" s
  | Kident s -> Printf.sprintf "identifier %s" s
  | Kattr a -> Printf.sprintf "'%s" a
  | Knew -> "new"
  | Knull -> "null"
  | Kop o -> Printf.sprintf "operator %s" o
  | Kop_user { op; cands } ->
    Printf.sprintf "operator %s (%d user overload%s)" op (List.length cands)
      (if List.length cands = 1 then "" else "s")
  | Kpunct p -> Printf.sprintf "'%s'" p
  | Kscope (Slib l) -> Printf.sprintf "library %s" l
  | Kscope (Sunit { unit_name; _ }) -> Printf.sprintf "unit %s" unit_name
