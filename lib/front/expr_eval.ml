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
let m_expr_lef_tokens = Tm.histogram "cascade.expr_lef_tokens"

(* Time spent here is charged to its own phase of the session's timer —
   the nested-frame accounting in Phase_timer carves it out of "attribute
   evaluation", the compile phase that encloses it.  Outside any session
   the cascade is a plain call. *)
let timed f =
  match Session.timer () with
  | Some timer -> Timer.time timer "expression evaluation (cascade)" f
  | None -> f ()

(* The session's provenance recorder: with one armed, the expression
   evaluator records into it too, so its instances nest under the
   principal-AG attribute whose rule invoked the cascade — the explain
   chain crosses the AG boundary. *)
let provenance_hook () =
  Option.map (fun r -> (r, "expr", Pval.summary)) (Session.provenance ())

(* The paper's trivial scanner, [scanner(){ X = car(L); L = cdr(L); return
   X; }]: each call takes the next LEF token off the front of the list and
   builds the driver's token for it; past the end it answers LEOF at the
   last token's line. *)
let scanner t lef =
  let rest = ref lef and line = ref 0 in
  fun () ->
    match !rest with
    | tok :: l ->
      rest := l;
      line := tok.Lef.l_line;
      {
        Vhdl_lalr.Driver.t_sym = Grammar.find_symbol t.grammar (Lef.terminal_name tok);
        t_value = Pval.Ltok tok;
        t_line = tok.Lef.l_line;
      }
    | [] ->
      { Vhdl_lalr.Driver.t_sym = t.parser_.Parsing.eof; t_value = Pval.Unit; t_line = !line }

(* Parse [lef] afresh — the paper's trivial scanner feeding the generated
   parser.  A syntax error becomes the diagnostic both entry points report:
   at the parser's line when it has one, naming the offending token as its
   LEF denotation describes it. *)
let parse t ~what ~line lef =
  let n = List.length lef in
  Tm.add m_lef_tokens n;
  Tm.observe m_expr_lef_tokens (float_of_int n);
  Tm.incr m_reparses;
  match
    Parsing.parse t.parser_
      ~elide_chains:(not (Session.reference ()))
      ~lexer:(scanner t lef)
  with
  | tree -> Ok tree
  | exception Vhdl_lalr.Driver.Syntax_error { line = eline; found; _ } ->
    Tm.incr m_parse_errors;
    let culprit =
      match List.find_opt (fun tok -> Lef.terminal_name tok = found) lef with
      | Some tok -> Lef.describe tok
      | None -> found
    in
    Error
      (Diag.error ~line:(if eline = 0 then line else eline)
         "cannot parse %s (unexpected %s)" what culprit)

(* Attribute-evaluate a parse tree.  Copy elision is off in a reference
   session, as on the oracle's principal-AG side. *)
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

(* What a failed evaluation yields: placeholder code beside its diagnostic. *)
let zero = Kir.Elit (Value.Vint 0)

let failed_expr d =
  { Pval.x_ty = Expr_sem.error_ty; x_code = zero; x_static = None; x_msgs = [ d ] }

let failed_range d = ((zero, Types.To, zero), None, [ d ])

(** Evaluate one maximal expression.

    @param expected the type required by context, if known
    @param level subprogram nesting level of the occurrence
    @param line source line, for diagnostics *)
let eval ?expected ~level ~line (lef : Lef.tok list) : Pval.xres =
  let t = Lazy.force instance in
  Tm.incr m_evaluations;
  timed @@ fun () ->
  if lef = [] then failed_expr (Diag.error ~line "missing expression")
  else
    match parse t ~what:"expression" ~line lef with
    | Error d -> failed_expr d
    | Ok tree ->
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
  (* same guard as [eval]: an empty token list (a dangling "for i in" or
     an empty slice) must produce a diagnostic, not reach the parser *)
  if lef = [] then failed_range (Diag.error ~line "missing range")
  else
    match parse t ~what:"range" ~line lef with
    | Error d -> failed_range d
    | Ok tree ->
      let cands, msgs = goals t ~level tree in
      Expr_sem.select_range ~line cands msgs
