(* The cascade and the plan-based default, differentially tested.

   Expr_eval parses each maximal expression's LEF afresh at every call:
   evaluation context ([?expected], [~level], [~line]) reaches every
   result, a syntax error names its line and token on both entry points,
   and no compile leaves parse trees behind for the next one.  The
   plan-based strategy (the compiler default) must agree with the demand
   oracle over a fuzz campaign twice the size of the smoke run. *)

module Tm = Vhdl_telemetry.Telemetry

let line = 1

let itok kind = { Lef.l_kind = kind; l_line = line }
let int_t n = itok (Lef.Kint n)
let op o = Lef.op ~line o

let counter = Tm.counter_value

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let message d = Format.asprintf "%a" Diag.pp d

(* ------------------------------------------------------------------ *)
(* The eval_range empty-LEF guard (regression: an empty range used to
   reach the parser and die there instead of producing a diagnostic) *)

let test_empty_range_guard () =
  let r, ty, diags = Expr_eval.eval_range ~level:0 ~line:7 [] in
  Alcotest.(check bool) "no type" true (ty = None);
  (match r with
  | Kir.Elit (Value.Vint 0), Types.To, Kir.Elit (Value.Vint 0) -> ()
  | _ -> Alcotest.fail "empty range must yield the zero placeholder bounds");
  match diags with
  | [ d ] ->
    Alcotest.(check bool) "mentions the missing range" true
      (contains (message d) "missing range")
  | _ -> Alcotest.fail "expected exactly one diagnostic"

(* ------------------------------------------------------------------ *)
(* Every call parses and evaluates its own token list *)

let test_repeat_parses_twice () =
  let lef = [ int_t 2; op "+"; int_t 3 ] in
  let r0 = counter "cascade.reparses" in
  let a = Expr_eval.eval ~level:0 ~line lef in
  let b = Expr_eval.eval ~level:0 ~line lef in
  Alcotest.(check int) "two parses" (r0 + 2) (counter "cascade.reparses");
  Alcotest.(check string) "same type" (Types.short_name a.Pval.x_ty)
    (Types.short_name b.Pval.x_ty);
  Alcotest.(check bool) "same folded value" true (a.Pval.x_static = b.Pval.x_static);
  Alcotest.(check bool) "folds to 5" true (a.Pval.x_static = Some (Value.Vint 5))

let test_payloads_fold_separately () =
  (* identical terminal sequence LINT ADDOP LINT, different literal payloads *)
  let a = Expr_eval.eval ~level:0 ~line [ int_t 1; op "+"; int_t 2 ] in
  let b = Expr_eval.eval ~level:0 ~line [ int_t 1; op "+"; int_t 3 ] in
  Alcotest.(check bool) "1+2 folds to 3" true (a.Pval.x_static = Some (Value.Vint 3));
  Alcotest.(check bool) "1+3 folds to 4" true (b.Pval.x_static = Some (Value.Vint 4))

(* The same unparseable token list on two lines: each diagnostic names its
   own line and the offending token. *)
let test_syntax_error_lines () =
  let at l =
    match (Expr_eval.eval ~level:0 ~line:l [ Lef.op ~line:l "*" ]).Pval.x_msgs with
    | [ d ] ->
      Alcotest.(check int) (Printf.sprintf "reported at line %d" l) l d.Diag.line;
      Alcotest.(check bool) ("names the token: " ^ message d) true
        (contains (message d) "cannot parse expression (unexpected ")
    | _ -> Alcotest.fail "expected exactly one diagnostic"
  in
  at 1;
  at 2

(* Same LEF list, different [?expected]: overload selection runs per call —
   the '0' literal resolves to BIT or CHARACTER depending on what the
   context asks for. *)
let test_expected_selects_per_call () =
  let zero =
    itok (Lef.Kenum [ (Std.bit, 0, "'0'"); (Std.character, 48, "'0'") ])
  in
  let as_bit = Expr_eval.eval ~expected:Std.bit ~level:0 ~line [ zero ] in
  let as_char = Expr_eval.eval ~expected:Std.character ~level:0 ~line [ zero ] in
  Alcotest.(check string) "selected BIT" "BIT" (Types.short_name as_bit.Pval.x_ty);
  Alcotest.(check string) "selected CHARACTER" "CHARACTER"
    (Types.short_name as_char.Pval.x_ty)

(* One parser behind both entry points: [7] folds to 7 as an expression
   and is no range; a token list that does not parse reports the same
   kind of diagnostic through [eval_range] as through [eval], at its line
   with the token the parser stopped at. *)
let test_expression_and_range () =
  let at5 k = { Lef.l_kind = k; l_line = 5 } in
  let e = Expr_eval.eval ~level:0 ~line:5 [ at5 (Lef.Kint 7) ] in
  Alcotest.(check bool) "folds to 7" true (e.Pval.x_static = Some (Value.Vint 7));
  let range_error lef expected =
    match Expr_eval.eval_range ~level:0 ~line:5 lef with
    | _, None, [ d ] ->
      Alcotest.(check int) "at its line" 5 d.Diag.line;
      Alcotest.(check bool) (message d) true (contains (message d) expected)
    | _ -> Alcotest.fail "expected one diagnostic and no type"
  in
  range_error [ at5 (Lef.Kint 7) ] "a range is required here";
  range_error [ at5 (Lef.Kint 7); Lef.op ~line:5 "*" ] "cannot parse range (unexpected "

(* A reference session turns copy elision off in the expression AG and
   gets the fast path's result. *)
let test_reference_session () =
  let lef = [ int_t 6; op "*"; int_t 7 ] in
  let fast = Expr_eval.eval ~level:0 ~line lef in
  let c0 = counter "ag.copy_elisions" in
  let slow =
    Session.with_session { (Session.in_memory []) with Session.reference = true } (fun () ->
        Expr_eval.eval ~level:0 ~line lef)
  in
  Alcotest.(check int) "no copy elisions" c0 (counter "ag.copy_elisions");
  Alcotest.(check string) "same type" (Types.short_name fast.Pval.x_ty)
    (Types.short_name slow.Pval.x_ty);
  Alcotest.(check bool) "same folded value" true (fast.Pval.x_static = slow.Pval.x_static);
  Alcotest.(check bool) "same code" true (fast.Pval.x_code = slow.Pval.x_code)

(* The cascade charges the active session's timer, not the timer whose
   frame happens to enclose the call. *)
let test_session_timer () =
  let module Timer = Vhdl_util.Phase_timer in
  let session = Session.in_memory [] in
  let outer = Timer.create () in
  Timer.time outer "outer" (fun () ->
      Session.with_session session (fun () ->
          ignore (Expr_eval.eval ~level:0 ~line [ int_t 6; op "*"; int_t 7 ])));
  Alcotest.(check (list string)) "on the session's timer"
    [ "expression evaluation (cascade)" ]
    (List.map fst (Timer.report session.Session.timer));
  Alcotest.(check (list string)) "not on the outer one" [ "outer" ]
    (List.map fst (Timer.report outer))

(* ------------------------------------------------------------------ *)
(* Whole-compiler shape: every evaluation parses, in every compile *)

let multi_use_source =
  "entity m is\n\
  \  port (a : in bit; y : out bit);\n\
   end m;\n\n\
   architecture r of m is\n\
  \  signal s1 : bit;\n\
  \  signal s2 : bit;\n\
   begin\n\
  \  s1 <= not a after 1 ns;\n\
  \  s2 <= not a after 1 ns;\n\
  \  y <= s1 and s2 after 1 ns;\n\
   end r;"

let test_recompile_reparses () =
  let e0 = counter "cascade.evaluations" and r0 = counter "cascade.reparses" in
  ignore (Vhdl_compiler.compile (Vhdl_compiler.create ()) multi_use_source);
  ignore (Vhdl_compiler.compile (Vhdl_compiler.create ()) multi_use_source);
  let evaluations = counter "cascade.evaluations" - e0 in
  Alcotest.(check bool) "the cascade ran" true (evaluations > 0);
  Alcotest.(check int) "reparses = evaluations" evaluations (counter "cascade.reparses" - r0)

(* A compile is a pure function of its inputs: once the process-lifetime
   grammars and tables exist, compiling with fresh compilers leaves no
   live heap behind. *)
let test_no_retained_heap () =
  let compile name =
    ignore
      (Vhdl_compiler.compile (Vhdl_compiler.create ())
         (Workload.behavioral ~name ~states:20 ~exprs:40))
  in
  compile "WARMUP";
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  List.iter compile [ "RET_A"; "RET_B"; "RET_C" ];
  Gc.full_major ();
  let grown = ((Gc.stat ()).Gc.live_words - before) * (Sys.word_size / 8) in
  Alcotest.(check bool)
    (Printf.sprintf "live heap grew %d bytes (at most 1 kB)" grown)
    true (grown <= 1024)

(* Copy elision must show up in the whole-compiler counters: the staged
   default applies measurably fewer rules than the demand reference on
   the same source, while both report the same diagnostics. *)
let test_elision_reduces_applications () =
  let apps_of strategy =
    let a0 = counter "ag.rule_applications" in
    let c = Vhdl_compiler.create ~strategy () in
    ignore (Vhdl_compiler.compile c multi_use_source);
    (counter "ag.rule_applications" - a0, Vhdl_compiler.diagnostics c)
  in
  let staged_apps, staged_diags = apps_of Vhdl_compiler.Staged in
  let demand_apps, demand_diags = apps_of Vhdl_compiler.Demand in
  Alcotest.(check int) "same diagnostics" (List.length demand_diags)
    (List.length staged_diags);
  Alcotest.(check bool)
    (Printf.sprintf "staged apps (%d) < demand apps (%d)" staged_apps demand_apps)
    true
    (staged_apps < demand_apps);
  Alcotest.(check bool) "elisions happened" true (counter "ag.copy_elisions" > 0)

(* ------------------------------------------------------------------ *)
(* The 200-seed differential campaign: plan-with-copy-elision (staged)
   vs the demand oracle (no elision in either AG) must agree on units,
   VIF, diagnostics, traces, and messages. *)

let test_campaign_200 () =
  let seeds = List.init 200 (fun i -> 20_000 + i) in
  let summary = Difftest.run_campaign ~seeds ~size:2 () in
  Alcotest.(check int) "200 designs" 200 summary.Difftest.total;
  Alcotest.(check int) "no divergences" 0 summary.Difftest.divergences;
  Alcotest.(check int) "no crashes" 0 summary.Difftest.crashes;
  Alcotest.(check bool) "most designs compile on both sides" true
    (summary.Difftest.compiled + summary.Difftest.rejected = 200)

let suite =
  [
    Alcotest.test_case "empty range is a diagnostic" `Quick test_empty_range_guard;
    Alcotest.test_case "repeated expression parses twice" `Quick test_repeat_parses_twice;
    Alcotest.test_case "payloads fold separately" `Quick test_payloads_fold_separately;
    Alcotest.test_case "syntax errors report their line" `Quick test_syntax_error_lines;
    Alcotest.test_case "?expected selects per call" `Quick test_expected_selects_per_call;
    Alcotest.test_case "eval and eval_range on one token list" `Quick
      test_expression_and_range;
    Alcotest.test_case "reference session skips copy elision" `Quick test_reference_session;
    Alcotest.test_case "the cascade charges its session's timer" `Quick test_session_timer;
    Alcotest.test_case "fresh compilers leave no live heap" `Quick test_no_retained_heap;
    Alcotest.test_case "recompilation reparses every expression" `Quick
      test_recompile_reparses;
    Alcotest.test_case "copy elision reduces rule applications" `Quick
      test_elision_reduces_applications;
    Alcotest.test_case "200-seed demand-vs-plan campaign" `Slow test_campaign_200;
  ]
