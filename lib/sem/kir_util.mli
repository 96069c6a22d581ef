(** KIR traversals shared by the front end and the elaborator. *)

(** {1 Signal usage} *)

val signals_read_expr : Kir.expr -> Kir.sig_ref list
(** Signals an expression reads, in first-occurrence order — the implicit
    sensitivity of concurrent signal assignments and until-clauses. *)

val signals_read_exprs : Kir.expr list -> Kir.sig_ref list

val signals_read_expr_acc : Kir.sig_ref list -> Kir.expr -> Kir.sig_ref list
(** Accumulating form (reverse order, deduplicated) for callers folding
    over several expressions. *)

val target_expr : Kir.target -> Kir.expr
(** The expression that reads a variable target (the old value a partial
    assignment modifies). *)

(** {1 Shape queries} *)

val loop_depth : Kir.stmt list -> int
(** Maximum for-loop nesting depth: sizes the loop-variable stack of a
    frame (loop variables live at negative frame indices). *)

val has_wait : Kir.stmt list -> bool
(** Whether a body contains a wait statement (process legality: a process
    has either a sensitivity list or waits, never both). *)

val may_wait : Kir.stmt list -> bool
(** Conservative form of {!has_wait}: procedure calls count, since the
    callee may wait. *)

(** {1 Anonymous-label normalization} *)

val normalize_labels : Kir.concurrent list -> Kir.concurrent list
(** Number the ['%']-prefixed labels of anonymous concurrent statements
    positionally (["%csa"] becomes ["csa_1"], ["csa_2"], ... per prefix, in
    source order), recursing into blocks and generates.  Called when an
    architecture is assembled so compiled units never depend on attribute
    evaluation order. *)
