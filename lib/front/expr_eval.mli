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
    ([cascade.*] counters) and the ambient phase timer ("expression
    evaluation (cascade)" frames), not module-local mutable state. *)

(** {1 The LEF→parse-tree memo cache}

    The parse tree of a maximal expression is a pure function of its LEF
    token list, so it is cached process-wide under a structural content key
    ({!Lef.content_key}); evaluation context ([?expected], [~level],
    [~line]) stays outside the cached artifact and is re-applied per call.
    Hits and misses surface as [cascade.memo_hits] / [cascade.memo_misses];
    eviction is generational and bounded ([cascade.memo_evictions]).  A
    reference session ({!Session.reference}) bypasses the cache and turns
    copy elision off in the expression AG — the reference path the
    differential oracle's demand side compares the fast path against. *)

val clear_memo : unit -> unit
(** Drop every cached parse tree (the cache is process-global; tests call
    this to stay order-independent). *)

val memo_size : unit -> int
(** Number of distinct expressions currently cached. *)

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
    list yields a "missing range" diagnostic, mirroring [eval]'s
    missing-expression guard. *)
