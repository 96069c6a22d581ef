(** The generated form of the compiler's grammars ({!Generated.generate}),
    produced by [gen/gen_tables.exe] at build time. *)

val principal : string
(** The principal VHDL AG's LALR(1) tables and evaluation plan. *)

val expression : string
(** The expression AG's LALR(1) tables and evaluation plan. *)
