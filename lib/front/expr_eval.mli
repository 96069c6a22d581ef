(** [exprEval] — the cascade point between the two AGs (paper §4.1): a
    parser and attribute evaluator generated from the expression AG, fed by
    the trivial scanner that "takes the next LEF token off the front of the
    list". *)

val grammar : unit -> Pval.t Grammar.t
(** The expression attribute grammar (built once, lazily). *)

val parser_ : unit -> Pval.t Parsing.t
(** Its parser, over the tables generated at build time. *)

val name : string
(** ["expression AG"], the grammar's name in generator diagnostics. *)

val generate : unit -> string
(** Build the grammar and its tables and plan, encoded for
    {!Grammar_tables.expression} — the table generator's entry point. *)

(** Instrumentation goes through the process-wide telemetry registry
    ([cascade.*] counters) and the active session's phase timer ("expression
    evaluation (cascade)" frames), not module-local mutable state. *)

(** Every call parses its LEF afresh and attribute-evaluates the tree; no
    parse tree outlives the call.  A reference session
    ({!Session.reference}) turns copy elision off in the expression AG, as
    on the principal AG's side of the differential oracle. *)

val eval :
  ?expected:Types.t -> level:int -> line:int -> Lef.tok list -> Pval.xres
(** Evaluate one maximal expression.  [expected] is the type required by
    context; [level] the subprogram nesting level of the occurrence (both
    are arguments of the paper's [exprEval]). *)

val eval_range :
  level:int ->
  line:int ->
  Lef.tok list ->
  (Kir.expr * Types.dir * Kir.expr) * Types.t option * Diag.t list
(** Evaluate a discrete range (attribute ranges included).  An empty token
    list yields a "missing range" diagnostic, and a syntax error a
    "cannot parse range" one at the parser's line naming the offending
    token, mirroring [eval]'s diagnostics. *)
