let () =
  Alcotest.run "vhdl_ag"
    [
      ("lexer", Test_lexer.suite);
      ("std", Test_std.suite);
      ("lalr", Test_lalr.suite);
      ("ag", Test_ag.suite);
      ("expr", Test_expr.suite);
      ("value_ops", Test_value_ops.suite);
      ("env", Test_env.suite);
      ("united", Test_united.suite);
      ("vif", Test_vif.suite);
      ("sim", Test_sim.suite);
      ("features", Test_features.suite);
      ("semantics", Test_semantics.suite);
      ("compiler", Test_compiler.suite);
      ("workload", Test_workload.suite);
      ("robustness", Test_robustness.suite);
      ("telemetry", Test_telemetry.suite);
      ("provenance", Test_provenance.suite);
      ("trace", Test_trace.suite);
      ("perf", Test_perf.suite);
      ("generated", Test_generated.suite);
      ("cascade", Test_cascade.suite);
      ("difftest", Test_difftest.suite);
      ("serve", Test_serve.suite);
      ("servobs", Test_obs.suite);
      ("analyze", Test_analyze.suite);
      ("alloc", Test_alloc.suite);
    ]
