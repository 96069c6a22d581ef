(** [exprEval] — the cascade point between the two AGs (paper §4.1).

    "The out-of-line function exprEval is itself a parser and attribute
    evaluator generated from the expression AG...  The expression evaluator
    is fed tokens by a trivial scanner that just takes the next LEF token
    off the front of the list."

    The expression grammar's parse tables are generated at build time, as
    Linguist generated its evaluator once; at run time only the grammar's
    closures are built, once, lazily. *)

type t = {
  grammar : Pval.t Grammar.t;
  parser_ : Pval.t Parsing.t;
}

let name = "expression AG"
let eof = "LEOF"
let generate () = Generated.generate ~name (Expr_grammar.build ()) ~eof

let instance = lazy (
  let grammar = Expr_grammar.build () in
  (* expressions are evaluated on demand: their plan is generated only so
     that a circular expression grammar fails the build *)
  let parser_, _plan = Generated.load ~name grammar ~eof Grammar_tables.expression in
  { grammar; parser_ })

let grammar () = (Lazy.force instance).grammar
let parser_ () = (Lazy.force instance).parser_

module Tm = Vhdl_telemetry.Telemetry
module Timer = Vhdl_util.Phase_timer

let m_evaluations = Tm.counter "cascade.evaluations"
let m_lef_tokens = Tm.counter "cascade.lef_tokens"
let m_reparses = Tm.counter "cascade.reparses"
let m_parse_errors = Tm.counter "cascade.parse_errors"
let m_memo_hits = Tm.counter "cascade.memo_hits"
let m_memo_misses = Tm.counter "cascade.memo_misses"
let m_memo_evictions = Tm.counter "cascade.memo_evictions"
let m_expr_lef_tokens = Tm.histogram "cascade.expr_lef_tokens"

(* ------------------------------------------------------------------ *)
(* The LEF→parse-tree memo cache.

   Telemetry used to show cascade.reparses == cascade.evaluations: every
   maximal expression re-ran the LALR parser on its token list at every
   evaluation, although designs repeat the same expressions constantly
   (clock edges, enable terms, loop bounds).  The parse tree is a pure
   function of the token list — context ([?expected], [~level]) enters
   only at attribute-evaluation and selection time, and [Evaluator.create]
   re-attaches fresh mutable nodes around the immutable [Tree.t] on every
   use — so the tree can be cached under a structural content key
   ({!Lef.content_key}: terminal kinds + payloads + lines; [eval] and
   [eval_range] get distinct keyspaces so the two entry points never
   alias).

   The cache is process-global, like the grammar and parse tables it
   derives from.  Eviction is generational: past [memo_limit] distinct
   expressions the whole table is dropped (counted by
   cascade.memo_evictions) — bounded memory, no LRU bookkeeping on the hot
   path.  Parse failures are never cached.  A reference session
   ({!Session.reference}) bypasses the cache and copy elision in the
   expression AG: the differential oracle's reference side must not share
   cached artifacts with the fast path it is checking.  Because the key is
   the tree's whole content, a hit returns what a miss would have built,
   and the cache never makes a compile depend on what ran before it. *)

let memo_limit = 512
let memo : (string, Pval.t Tree.t) Hashtbl.t = Hashtbl.create 256
let memo_size () = Hashtbl.length memo
let clear_memo () = Hashtbl.reset memo

(* Time spent here is charged to its own phase of the ambient compile timer
   — the nested-frame accounting in Phase_timer carves it out of "attribute
   evaluation" (its dynamically enclosing phase) without the mutable-global
   subtraction this module used to maintain. *)
let cascade_phase = "expression evaluation (cascade)"

let timed f = Timer.time_ambient cascade_phase f

(* The session's provenance recorder: with one armed, the expression
   evaluator records into it too, so its instances nest under the
   principal-AG attribute whose rule invoked the cascade — the explain
   chain crosses the AG boundary. *)
let provenance_hook () =
  Option.map (fun r -> (r, "expr", Pval.summary)) (Session.provenance ())

let driver_tokens t lef =
  List.map
    (fun tok ->
      {
        Vhdl_lalr.Driver.t_sym = Grammar.find_symbol t.grammar (Lef.terminal_name tok);
        t_value = Pval.Ltok tok;
        t_line = tok.Lef.l_line;
      })
    lef

type parse_outcome =
  | Parsed of Pval.t Tree.t
  | Syntax of { eline : int; found : string }

(* Parse [lef] through the memo cache: a hit returns the cached immutable
   tree without touching the parser; a miss parses, and caches successes. *)
let parse_cached t ~keyspace lef =
  let n = List.length lef in
  Tm.add m_lef_tokens n;
  Tm.observe m_expr_lef_tokens (float_of_int n);
  let key =
    if Session.reference () then None else Lef.content_key ~keyspace lef
  in
  match Option.bind key (Hashtbl.find_opt memo) with
  | Some tree ->
    Tm.incr m_memo_hits;
    Parsed tree
  | None -> (
    if key <> None then Tm.incr m_memo_misses;
    let tokens = driver_tokens t lef in
    Tm.incr m_reparses;
    match Parsing.parse_list t.parser_ ~eof_value:Pval.Unit tokens with
    | exception Vhdl_lalr.Driver.Syntax_error { line = eline; found; _ } ->
      Tm.incr m_parse_errors;
      Syntax { eline; found }
    | tree ->
      (match key with
      | Some k ->
        if Hashtbl.length memo >= memo_limit then begin
          Hashtbl.reset memo;
          Tm.incr m_memo_evictions
        end;
        Hashtbl.replace memo k tree
      | None -> ());
      Parsed tree)

(* Attribute-evaluate a (possibly cached) tree: [Evaluator.create] attaches
   fresh mutable nodes with empty per-node attribute caches around the
   immutable tree, so evaluation context never leaks between uses of one
   cached artifact.  Copy elision is off in a reference session, as on
   the oracle's principal-AG side. *)
let goals t ~level tree =
  let ev =
    Evaluator.create t.grammar
      ~token_line:(fun n -> Pval.Int n)
      ?provenance:(provenance_hook ())
      ~copy_elide:(not (Session.reference ()))
      ~root_inherited:[ ("XLEVEL", Pval.Int level) ]
      tree
  in
  let cands = Pval.as_cands (Evaluator.goal ev "CANDS") in
  let msgs = Pval.as_msgs (Evaluator.goal ev "MSGS") in
  (cands, msgs)

(** Evaluate one maximal expression.

    @param expected the type required by context, if known
    @param level subprogram nesting level of the occurrence
    @param line source line, for diagnostics *)
let eval ?expected ~level ~line (lef : Lef.tok list) : Pval.xres =
  let t = Lazy.force instance in
  Tm.incr m_evaluations;
  timed @@ fun () ->
  if lef = [] then
    {
      Pval.x_ty = Expr_sem.error_ty;
      x_code = Kir.Elit (Value.Vint 0);
      x_static = None;
      x_msgs = [ Diag.error ~line "missing expression" ];
    }
  else
    match parse_cached t ~keyspace:"E" lef with
    | Syntax { eline; found } ->
      {
        Pval.x_ty = Expr_sem.error_ty;
        x_code = Kir.Elit (Value.Vint 0);
        x_static = None;
        x_msgs =
          [
            Diag.error ~line:(if eline = 0 then line else eline)
              "cannot parse expression (unexpected %s)"
              (match
                 List.find_opt
                   (fun tok -> Lef.terminal_name tok = found)
                   lef
               with
              | Some tok -> Lef.describe tok
              | None -> found);
          ];
      }
    | Parsed tree ->
      (* selection happens per call: [?expected] and [~line] are context,
         deliberately outside the cached artifact *)
      let cands, msgs = goals t ~level tree in
      Expr_sem.select ~line ~expected cands msgs

(** Evaluate a discrete range (for loops, type ranges, slices written as
    ranges).  Accepts either an explicit [l to r] LEF sequence (the caller
    splits it) or an attribute range. *)
let eval_range ~level ~line (lef : Lef.tok list) :
    (Kir.expr * Types.dir * Kir.expr) * Types.t option * Diag.t list =
  let t = Lazy.force instance in
  Tm.incr m_evaluations;
  timed @@ fun () ->
  if lef = [] then
    (* same guard as [eval]: an empty token list (a dangling "for i in" or
       an empty slice) must produce a diagnostic, not reach the parser *)
    ( (Kir.Elit (Value.Vint 0), Types.To, Kir.Elit (Value.Vint 0)),
      None,
      [ Diag.error ~line "missing range" ] )
  else
    match parse_cached t ~keyspace:"R" lef with
    | Syntax _ ->
      ( (Kir.Elit (Value.Vint 0), Types.To, Kir.Elit (Value.Vint 0)),
        None,
        [ Diag.error ~line "cannot parse range" ] )
    | Parsed tree ->
      let cands, msgs = goals t ~level tree in
      Expr_sem.select_range ~line cands msgs
