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
      (** architecture constant whose value arrives at elaboration *)
  | Ktype of Types.t  (** also subtypes: the constraint rides along *)
  | Kfunc of Denot.subprog_sig list  (** overload candidate set *)
  | Kproc of Denot.subprog_sig list
  | Kenum of (Types.t * int * string) list  (** candidate (type, pos, image) *)
  | Kattrval of { value : Value.t; ty : Types.t }
      (** user-defined attribute, resolved *)
  | Kint of int
  | Kreal of float
  | Kphys of { value : int; ty : Types.t }  (** physical literal, primary units *)
  | Kstr of string
  | Kbitstr of string
  | Kident of string  (** unresolved: formal names, record-field choices *)
  | Kattr of string  (** attribute designator after the tick *)
  | Kop of string  (** operator, lower case: and, or, =, <=, +, &, mod, ... *)
  | Kop_user of { op : string; cands : Denot.subprog_sig list }
      (** operator with user-defined overloads visible at this point; the
          candidate set rides along like [Kfunc]'s, so the expression AG can
          consider them without the symbol table *)
  | Knew  (** allocator keyword in an expression *)
  | Knull  (** the null access literal *)
  | Kpunct of string  (** ( ) , => | ' . to downto others open all *)
  | Kscope of scope
      (** transient prefix during selected-name resolution in the principal
          AG; never legitimate inside a finished expression *)

and scope =
  | Slib of string
  | Sunit of { library : string; unit_name : string }

val terminal_name : tok -> string
(** Terminal-symbol name in the expression grammar.  Operators collapse to
    precedence classes (LOGOP, RELOP, ...); the op itself rides in the
    token value. *)

val all_terminals : string list
(** All terminal names of the expression grammar, including LEOF. *)

val punct : line:int -> string -> tok
val op : line:int -> string -> tok

val operator_symbols : string list
(** The symbols that may name an operator function (LRM 2.1: a string
    literal used as a subprogram designator must be an operator symbol). *)

val operator_key : string -> string
(** Environment key an operator function is bound under: the quoted,
    lower-case symbol, so it can never collide with an identifier. *)

val describe : tok -> string
(** Human-readable form for diagnostics and the cascade demo. *)
