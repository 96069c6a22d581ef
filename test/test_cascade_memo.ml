(* The cascade memo and the plan-based default, differentially tested.

   The LEF→parse-tree memo in Expr_eval must hit exactly when two token
   lists are structurally identical (terminal kinds, payloads, lines),
   keep evaluation context ([?expected], [~level]) outside the cached
   artifact, stay bounded, and never leak into the differential oracle's
   cold reference path.  The plan-based strategy (the compiler default)
   must agree with the demand oracle over a fuzz campaign twice the size
   of the smoke run. *)

module Tm = Vhdl_telemetry.Telemetry

let line = 1

let itok kind = { Lef.l_kind = kind; l_line = line }
let int_t n = itok (Lef.Kint n)
let op o = Lef.op ~line o

let counter = Tm.counter_value

(* Every test starts from an empty memo — the cache is process-global and
   alcotest runs suites in one process, so order independence demands it. *)
let fresh () = Expr_eval.clear_memo ()

(* ------------------------------------------------------------------ *)
(* The eval_range empty-LEF guard (regression: an empty range used to
   reach the parser and die there instead of producing a diagnostic) *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_empty_range_guard () =
  fresh ();
  let r, ty, diags = Expr_eval.eval_range ~level:0 ~line:7 [] in
  Alcotest.(check bool) "no type" true (ty = None);
  (match r with
  | Kir.Elit (Value.Vint 0), Types.To, Kir.Elit (Value.Vint 0) -> ()
  | _ -> Alcotest.fail "empty range must yield the zero placeholder bounds");
  match diags with
  | [ d ] ->
    Alcotest.(check bool) "mentions the missing range" true
      (contains (Format.asprintf "%a" Diag.pp d) "missing range")
  | _ -> Alcotest.fail "expected exactly one diagnostic"

(* ------------------------------------------------------------------ *)
(* Hit/miss semantics of the content key *)

let test_repeat_hits () =
  fresh ();
  let lef = [ int_t 2; op "+"; int_t 3 ] in
  let h0 = counter "cascade.memo_hits" and m0 = counter "cascade.memo_misses" in
  let r0 = counter "cascade.reparses" in
  let a = Expr_eval.eval ~level:0 ~line lef in
  let b = Expr_eval.eval ~level:0 ~line lef in
  Alcotest.(check int) "first parse is a miss" (m0 + 1) (counter "cascade.memo_misses");
  Alcotest.(check int) "second parse is a hit" (h0 + 1) (counter "cascade.memo_hits");
  Alcotest.(check int) "exactly one reparse" (r0 + 1) (counter "cascade.reparses");
  Alcotest.(check int) "one cached tree" 1 (Expr_eval.memo_size ());
  Alcotest.(check string) "same type" (Types.short_name a.Pval.x_ty)
    (Types.short_name b.Pval.x_ty);
  Alcotest.(check bool) "same folded value" true (a.Pval.x_static = b.Pval.x_static)

let test_payload_difference_misses () =
  fresh ();
  let h0 = counter "cascade.memo_hits" and m0 = counter "cascade.memo_misses" in
  (* identical terminal sequence LINT ADDOP LINT, different literal payloads *)
  ignore (Expr_eval.eval ~level:0 ~line [ int_t 1; op "+"; int_t 2 ]);
  ignore (Expr_eval.eval ~level:0 ~line [ int_t 1; op "+"; int_t 3 ]);
  Alcotest.(check int) "no hits" h0 (counter "cascade.memo_hits");
  Alcotest.(check int) "two misses" (m0 + 2) (counter "cascade.memo_misses");
  Alcotest.(check int) "two cached trees" 2 (Expr_eval.memo_size ())

let test_line_difference_misses () =
  fresh ();
  let h0 = counter "cascade.memo_hits" in
  ignore (Expr_eval.eval ~level:0 ~line:1 [ { Lef.l_kind = Lef.Kint 9; l_line = 1 } ]);
  ignore (Expr_eval.eval ~level:0 ~line:2 [ { Lef.l_kind = Lef.Kint 9; l_line = 2 } ]);
  (* token lines are embedded in the cached tree (diagnostics read them),
     so a different line is a different expression *)
  Alcotest.(check int) "no hits across lines" h0 (counter "cascade.memo_hits");
  Alcotest.(check int) "two cached trees" 2 (Expr_eval.memo_size ())

(* Same LEF list, different [?expected]: the tree cache must hit while
   overload selection re-runs per call — the '0' literal resolves to BIT
   or CHARACTER depending on what the context asks for. *)
let test_expected_outside_the_artifact () =
  fresh ();
  let zero =
    itok (Lef.Kenum [ (Std.bit, 0, "'0'"); (Std.character, 48, "'0'") ])
  in
  let h0 = counter "cascade.memo_hits" in
  let as_bit = Expr_eval.eval ~expected:Std.bit ~level:0 ~line [ zero ] in
  let as_char = Expr_eval.eval ~expected:Std.character ~level:0 ~line [ zero ] in
  Alcotest.(check int) "second call hit the tree cache" (h0 + 1)
    (counter "cascade.memo_hits");
  Alcotest.(check string) "selected BIT" "BIT" (Types.short_name as_bit.Pval.x_ty);
  Alcotest.(check string) "selection re-ran: CHARACTER" "CHARACTER"
    (Types.short_name as_char.Pval.x_ty)

(* [eval] and [eval_range] never alias: both entry points share one
   parser, so the same token list parses to the same tree either way —
   only the keyspace prefix keeps a cached expression from serving a
   range lookup (and vice versa). *)
let test_keyspaces_disjoint () =
  fresh ();
  let lef = [ int_t 7 ] in
  ignore (Expr_eval.eval ~level:0 ~line lef);
  Alcotest.(check int) "expression cached" 1 (Expr_eval.memo_size ());
  let h0 = counter "cascade.memo_hits" and m0 = counter "cascade.memo_misses" in
  ignore (Expr_eval.eval_range ~level:0 ~line lef);
  Alcotest.(check int) "range lookup does not hit the expression tree" h0
    (counter "cascade.memo_hits");
  Alcotest.(check int) "range lookup is its own miss" (m0 + 1)
    (counter "cascade.memo_misses");
  Alcotest.(check int) "two distinct entries" 2 (Expr_eval.memo_size ());
  ignore (Expr_eval.eval_range ~level:0 ~line lef);
  Alcotest.(check int) "second range lookup hits" (h0 + 1)
    (counter "cascade.memo_hits")

let test_cold_cascade_bypasses () =
  fresh ();
  let lef = [ int_t 6; op "*"; int_t 7 ] in
  let h0 = counter "cascade.memo_hits" and m0 = counter "cascade.memo_misses" in
  let r0 = counter "cascade.reparses" in
  Session.with_session { (Session.in_memory []) with Session.reference = true } (fun () ->
      ignore (Expr_eval.eval ~level:0 ~line lef);
      ignore (Expr_eval.eval ~level:0 ~line lef));
  Alcotest.(check int) "no hits when cold" h0 (counter "cascade.memo_hits");
  Alcotest.(check int) "no misses counted when cold" m0 (counter "cascade.memo_misses");
  Alcotest.(check int) "every evaluation reparses" (r0 + 2) (counter "cascade.reparses");
  Alcotest.(check int) "nothing cached" 0 (Expr_eval.memo_size ());
  (* and the cascade is warm again outside the reference session *)
  ignore (Expr_eval.eval ~level:0 ~line lef);
  Alcotest.(check int) "warm again" 1 (Expr_eval.memo_size ())

let test_eviction_is_bounded () =
  fresh ();
  let e0 = counter "cascade.memo_evictions" in
  (* one distinct single-literal expression per value: enough to cross the
     generational limit at least once *)
  for n = 1 to 600 do
    ignore (Expr_eval.eval ~level:0 ~line [ int_t n ])
  done;
  Alcotest.(check bool) "at least one eviction" true
    (counter "cascade.memo_evictions" > e0);
  Alcotest.(check bool) "cache stays bounded" true (Expr_eval.memo_size () <= 512)

(* ------------------------------------------------------------------ *)
(* Whole-compiler counter shape: on a multi-use design the reparse count
   is the distinct-expression count, not the evaluation count *)

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

let test_recompile_reuses_trees () =
  fresh ();
  let e0 = counter "cascade.evaluations" and r0 = counter "cascade.reparses" in
  let c1 = Vhdl_compiler.create () in
  ignore (Vhdl_compiler.compile c1 multi_use_source);
  let reparses_first = counter "cascade.reparses" - r0 in
  let c2 = Vhdl_compiler.create () in
  ignore (Vhdl_compiler.compile c2 multi_use_source);
  let evaluations = counter "cascade.evaluations" - e0 in
  let reparses = counter "cascade.reparses" - r0 in
  Alcotest.(check int) "recompilation parses nothing new" reparses_first reparses;
  Alcotest.(check bool)
    (Printf.sprintf "reparses (%d) < evaluations (%d)" reparses evaluations)
    true
    (reparses < evaluations);
  Alcotest.(check bool) "memo hits dominate the second compile" true
    (counter "cascade.memo_hits" >= reparses_first)

(* Copy elision must show up in the whole-compiler counters: the staged
   default applies measurably fewer rules than the demand reference on
   the same source, while both report the same diagnostics. *)
let test_elision_reduces_applications () =
  fresh ();
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
(* The 200-seed differential campaign: plan-with-copy-elision (staged,
   warm cascade) vs the demand oracle (cold cascade, no elision) must
   agree on units, VIF, diagnostics, traces, and messages. *)

let test_campaign_200 () =
  fresh ();
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
    Alcotest.test_case "repeated expression hits" `Quick test_repeat_hits;
    Alcotest.test_case "payload difference misses" `Quick test_payload_difference_misses;
    Alcotest.test_case "line difference misses" `Quick test_line_difference_misses;
    Alcotest.test_case "?expected stays outside the artifact" `Quick
      test_expected_outside_the_artifact;
    Alcotest.test_case "eval/eval_range keyspaces are disjoint" `Quick
      test_keyspaces_disjoint;
    Alcotest.test_case "cold cascade bypasses the memo" `Quick test_cold_cascade_bypasses;
    Alcotest.test_case "eviction keeps the cache bounded" `Quick test_eviction_is_bounded;
    Alcotest.test_case "recompilation reuses cached trees" `Quick
      test_recompile_reuses_trees;
    Alcotest.test_case "copy elision reduces rule applications" `Quick
      test_elision_reduces_applications;
    Alcotest.test_case "200-seed demand-vs-plan campaign" `Slow test_campaign_200;
  ]
