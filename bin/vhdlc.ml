(* vhdlc — the command-line VHDL compiler and simulator.

   Mirrors the paper's invocation model: "The compiler accepts a file
   containing compilation units, a list of compiler directives, a working
   library where the successfully compiled units are placed and a reference
   library which can be referenced in addition to the work library but which
   can not be updated."

     vhdlc compile --work ./mylib a.vhd b.vhd
     vhdlc simulate --work ./mylib --top TB --ns 1000 --vcd out.vcd
     vhdlc dump --work ./mylib 'arch:TB(TEST)'
     vhdlc stats *)

open Cmdliner
module Telemetry = Vhdl_telemetry.Telemetry
module Perf = Vhdl_perf.Perf

let work_arg =
  let doc = "Working library directory (created if missing)." in
  Arg.(value & opt (some string) None & info [ "work" ] ~docv:"DIR" ~doc)

let ref_arg =
  let doc = "Reference library as NAME=DIR (read-only, repeatable)." in
  Arg.(value & opt_all string [] & info [ "ref" ] ~docv:"NAME=DIR" ~doc)

let make_compiler ?budgets ?provenance ?strategy work refs =
  let c = Vhdl_compiler.create ?work_dir:work ?budgets ?provenance ?strategy () in
  List.iter
    (fun spec ->
      match String.index_opt spec '=' with
      | Some i ->
        let name = String.uppercase_ascii (String.sub spec 0 i) in
        let dir = String.sub spec (i + 1) (String.length spec - i - 1) in
        Vhdl_compiler.add_reference_library c ~name ~dir
      | None ->
        Printf.eprintf "warning: ignoring malformed --ref %s (want NAME=DIR)\n" spec)
    refs;
  c

(* error diagnostics surface through Compile_error (printed per file); this
   reports the rest — warnings and notes *)
let report_diags c =
  List.iter
    (fun d -> if not (Diag.is_error d) then Format.eprintf "%a@." Diag.pp d)
    (Vhdl_compiler.diagnostics c)

let fuel_arg =
  let doc = "Bound semantic-rule applications per compile (budget)." in
  Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc = "Bound wall-clock seconds per compile (budget)." in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let budgets_of ?elab_steps ?sim_step_fuel fuel deadline =
  {
    Supervisor.eval_fuel = fuel;
    elab_steps;
    deadline_s = deadline;
    sim_step_fuel;
  }

(* ------------------------------------------------------------------ *)
(* Telemetry surface, shared by compile and simulate *)

let trace_arg =
  let doc =
    "Write Chrome trace-event JSON of the pipeline span tree to $(docv) \
     (loads in chrome://tracing or Perfetto)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ] ~doc:"Print the telemetry counter report after the run.")

let metrics_out_arg =
  let doc = "Write the telemetry metrics as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let flame_arg =
  let doc =
    "Write the span tree as collapsed stacks ('folded' format) to $(docv) \
     — load with speedscope or flamegraph.pl.  Line values are span self \
     time in microseconds."
  in
  Arg.(value & opt (some string) None & info [ "flame" ] ~docv:"FILE" ~doc)

let flame_alloc_arg =
  let doc =
    "Write the span tree as collapsed stacks to $(docv) with line values \
     in self-allocated bytes instead of self time — an allocation \
     flamegraph.  Same folded format as --flame; totals conserve the \
     measured allocation exactly."
  in
  Arg.(value & opt (some string) None & info [ "flame-alloc" ] ~docv:"FILE" ~doc)

(* Run [f] with tracing armed if a trace or flame file was requested, then
   write the requested exports.  Exports are written even when [f] exits
   non-zero — the trace of a failing compile is the one you want to look
   at. *)
let with_telemetry ?(flame = None) ?(flame_alloc = None) ~trace ~metrics
    ~metrics_out f =
  Telemetry.reset ();
  let tracing = trace <> None || flame <> None || flame_alloc <> None in
  if tracing then Telemetry.set_tracing true;
  Fun.protect
    ~finally:(fun () ->
      (match trace with
      | Some path ->
        Vhdl_util.Unix_compat.write_file path (Telemetry.to_chrome_trace ())
      | None -> ());
      (match flame with
      | Some path ->
        Vhdl_util.Unix_compat.write_file path (Perf.Flame.folded (Telemetry.spans ()))
      | None -> ());
      (match flame_alloc with
      | Some path ->
        Vhdl_util.Unix_compat.write_file path
          (Perf.Flame.folded_alloc (Telemetry.spans ()))
      | None -> ());
      if tracing then begin
        Telemetry.set_tracing false;
        Telemetry.clear_spans ()
      end;
      if metrics then Format.printf "%a@." (fun fmt () -> Telemetry.pp_metrics fmt ()) ();
      match metrics_out with
      | Some path -> Vhdl_util.Unix_compat.write_file path (Telemetry.metrics_json ())
      | None -> ())
    f

(* ------------------------------------------------------------------ *)

let compile_cmd =
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"VHDL source files.")
  in
  let phases =
    Arg.(value & flag & info [ "phases" ] ~doc:"Print the per-phase time breakdown.")
  in
  let report =
    Arg.(
      value & flag
      & info [ "report" ] ~doc:"Print the per-unit partial-result report.")
  in
  let profile_rules =
    Arg.(
      value & flag
      & info [ "profile-rules" ]
          ~doc:
            "Record attribute provenance and print the hot-rule profile \
             (per-production / per-attribute evaluation counts and self-cost).")
  in
  let reference =
    Arg.(
      value & flag
      & info [ "reference" ]
          ~doc:
            "Compile on the reference path: demand-driven evaluation with \
             copy elision off in both attribute grammars — the oracle the \
             plan-based default is differentially tested against. Slower; \
             results must be identical.")
  in
  let run work refs phases report profile_rules reference trace flame
      flame_alloc metrics metrics_out fuel deadline files =
    with_telemetry ~flame ~flame_alloc ~trace ~metrics ~metrics_out @@ fun () ->
    Vhdl_compiler.load_generated ();
    (* everything allocated before this point — runtime and module init,
       parse tables, cmdliner — predates any phase frame; it is published
       below as the "startup" pseudo-phase so the phase.alloc_b.* table
       sums to gc.allocated_words instead of silently undercounting *)
    let startup_w = Telemetry.allocated_words_now () in
    let recorder = if profile_rules then Some (Provenance.create ()) else None in
    let strategy = if reference then Some Vhdl_compiler.Demand else None in
    let c =
      make_compiler ~budgets:(budgets_of fuel deadline) ?provenance:recorder
        ?strategy work refs
    in
    let ok = ref true in
    List.iter
      (fun file ->
        match Vhdl_compiler.compile_file c file with
        | units ->
          List.iter
            (fun u -> Printf.printf "%s: compiled %s\n" file u.Unit_info.u_key)
            units
        | exception Vhdl_compiler.Compile_error msgs ->
          ok := false;
          List.iter (fun d -> Format.eprintf "%s: %a@." file Diag.pp d) msgs)
      files;
    report_diags c;
    if report then Format.printf "%a" Supervisor.pp_report (Vhdl_compiler.last_report c);
    (match recorder with
    | Some r ->
      Format.printf "%a@." (fun fmt rows -> Stats.pp_profile fmt rows) (Provenance.profile r)
    | None -> ());
    if phases then
      Format.printf "%a@." Vhdl_util.Phase_timer.pp (Vhdl_compiler.timer c);
    (* close the attribution ledger: "startup" is pre-driver allocation,
       "driver" the in-region residual outside every phase frame, so
       the phase.alloc_b counters sum to gc.allocated_words *)
    let attributed_w = Vhdl_util.Phase_timer.total_alloc (Vhdl_compiler.timer c) in
    let lifetime_w = Telemetry.allocated_words_now () in
    let publish name w =
      if w > 0.0 then
        Telemetry.add
          (Telemetry.counter ("phase.alloc_b." ^ name))
          (int_of_float (w *. float_of_int Telemetry.bytes_per_word))
    in
    publish "startup" startup_w;
    publish "driver" (Float.max 0.0 (lifetime_w -. startup_w -. attributed_w));
    if !ok then 0 else 1
  in
  let doc = "Compile VHDL source files into the working library." in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(
      const run $ work_arg $ ref_arg $ phases $ report $ profile_rules $ reference
      $ trace_arg $ flame_arg $ flame_alloc_arg $ metrics_arg $ metrics_out_arg
      $ fuel_arg $ deadline_arg $ files)

let simulate_cmd =
  let top =
    Arg.(
      required
      & opt (some string) None
      & info [ "top" ] ~docv:"ENTITY" ~doc:"Top-level entity to elaborate.")
  in
  let arch =
    Arg.(
      value
      & opt (some string) None
      & info [ "arch" ] ~docv:"NAME" ~doc:"Architecture (default: latest compiled).")
  in
  let configuration =
    Arg.(
      value
      & opt (some string) None
      & info [ "configuration" ] ~docv:"NAME" ~doc:"Elaborate through a configuration unit.")
  in
  let ns =
    Arg.(value & opt int 1000 & info [ "ns" ] ~docv:"N" ~doc:"Simulation horizon in ns.")
  in
  let vcd =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE" ~doc:"Write a VCD waveform dump.")
  in
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Sources to compile first.")
  in
  let hierarchy =
    Arg.(value & flag & info [ "hierarchy" ] ~doc:"Print the elaborated hierarchy.")
  in
  let elab_steps =
    let doc = "Bound signals + processes + instances elaborated (budget)." in
    Arg.(value & opt (some int) None & info [ "elab-steps" ] ~docv:"N" ~doc)
  in
  let sim_fuel =
    let doc = "Bound process resumptions per simulated instant (budget)." in
    Arg.(value & opt (some int) None & info [ "sim-fuel" ] ~docv:"N" ~doc)
  in
  let run work refs top arch configuration ns vcd hierarchy trace metrics metrics_out
      elab_steps sim_fuel files =
    with_telemetry ~trace ~metrics ~metrics_out @@ fun () ->
    let c =
      make_compiler ~budgets:(budgets_of ?elab_steps ?sim_step_fuel:sim_fuel None None)
        work refs
    in
    try
      List.iter (fun f -> ignore (Vhdl_compiler.compile_file c f)) files;
      let sim = Vhdl_compiler.elaborate ?arch ?configuration c ~top () in
      if hierarchy then
        Format.printf "%a@." Name_server.pp (Vhdl_compiler.name_server sim);
      let outcome = Vhdl_compiler.run c sim ~max_ns:ns in
      List.iter
        (fun (t, sev, msg) ->
          Printf.printf "%-10s %s: %s\n" (Rt.format_time t) (Kernel.severity_name sev) msg)
        (Vhdl_compiler.messages sim);
      let st = Kernel.stats (Vhdl_compiler.kernel sim) in
      Printf.printf
        "simulation %s at %s: %d time steps, %d delta cycles, %d events, %d process runs\n"
        (match outcome with
        | Kernel.Quiescent -> "quiescent"
        | Kernel.Time_limit -> "reached the horizon"
        | Kernel.Stopped -> "stopped on failure"
        | Kernel.Fuel_exhausted -> "ran out of process-step fuel")
        (Rt.format_time (Kernel.now (Vhdl_compiler.kernel sim)))
        st.Kernel.time_steps st.Kernel.delta_cycles st.Kernel.events st.Kernel.process_runs;
      (match vcd with
      | Some path ->
        Vhdl_util.Unix_compat.write_file path
          (Trace.to_vcd (Vhdl_compiler.trace sim) ~timescale_fs:1);
        Printf.printf "VCD written to %s\n" path
      | None -> ());
      if st.Kernel.severities.Kernel.failures > 0 || st.Kernel.severities.Kernel.errors > 0
      then 1
      else 0
    with
    | Vhdl_compiler.Compile_error msgs ->
      List.iter (fun d -> Format.eprintf "%a@." Diag.pp d) msgs;
      1
    | Elaborate.Elaboration_error msg ->
      Printf.eprintf "elaboration: %s\n" msg;
      1
    | Rt.Simulation_error { time; msg } ->
      Printf.eprintf "simulation error at %s: %s\n" (Rt.format_time time) msg;
      1
  in
  let doc = "Compile (optionally), elaborate, and simulate a design." in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ work_arg $ ref_arg $ top $ arch $ configuration $ ns $ vcd $ hierarchy
      $ trace_arg $ metrics_arg $ metrics_out_arg $ elab_steps $ sim_fuel $ files)

let dump_cmd =
  let key =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"KEY" ~doc:"Unit key, e.g. 'entity:ADDER' or 'arch:ADDER(RTL)'.")
  in
  let run work refs key =
    let c = make_compiler work refs in
    match Library.dump (Vhdl_compiler.work_library c) ~library:"WORK" ~key with
    | Some text ->
      print_endline text;
      0
    | None ->
      Printf.eprintf "no unit %s in the working library\n" key;
      1
    | exception Library.Library_error msg ->
      prerr_endline msg;
      1
  in
  let doc = "Print the human-readable VIF of a compiled unit." in
  Cmd.v (Cmd.info "dump" ~doc) Term.(const run $ work_arg $ ref_arg $ key)

(* ------------------------------------------------------------------ *)
(* explain: the provenance why-chain *)

(* "entity COUNTER" / "counter" / "unit@line 3" all name a report line *)
let unit_matches spec (r : Supervisor.unit_report) =
  let lc = String.lowercase_ascii in
  let name = lc r.Supervisor.ur_name and spec = lc spec in
  name = spec
  ||
  match String.rindex_opt name ' ' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1) = spec
  | None -> false

let explain_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"VHDL source file to compile and explain.")
  in
  let unit_ =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"UNIT"
          ~doc:"Design unit, e.g. 'COUNTER' or 'entity COUNTER' (case-insensitive).")
  in
  let spec =
    Arg.(
      required
      & pos 2 (some string) None
      & info [] ~docv:"NODE.ATTR"
          ~doc:
            "Attribute instance to explain: ATTR (on the unit's own node), \
             unit.ATTR, or n<ID>.ATTR with a node id from a previous slice.")
  in
  let depth =
    Arg.(
      value & opt int 6
      & info [ "depth" ] ~docv:"N" ~doc:"Depth bound of the printed why-chain.")
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Also write the slice as a GraphViz digraph (dot -Tsvg).")
  in
  let run work refs file unit_ spec depth dot =
    Telemetry.reset ();
    let recorder = Provenance.create () in
    let c = make_compiler ~provenance:recorder work refs in
    (try ignore (Vhdl_compiler.compile_file ~fail_on_error:false c file)
     with Vhdl_compiler.Compile_error msgs ->
       List.iter (fun d -> Format.eprintf "%s: %a@." file Diag.pp d) msgs);
    let report = Vhdl_compiler.last_report c in
    match List.find_opt (unit_matches unit_) report with
    | None ->
      Printf.eprintf "no design unit matching %s; units in %s:\n" unit_ file;
      List.iter
        (fun r -> Printf.eprintf "  %s\n" r.Supervisor.ur_name)
        report;
      1
    | Some r -> (
      let node, attr =
        match String.index_opt spec '.' with
        | None -> (r.Supervisor.ur_node, spec)
        | Some i -> (
          let node_spec = String.sub spec 0 i in
          let attr = String.sub spec (i + 1) (String.length spec - i - 1) in
          match node_spec with
          | "unit" -> (r.Supervisor.ur_node, attr)
          | _ when String.length node_spec > 1 && node_spec.[0] = 'n' -> (
            match int_of_string_opt (String.sub node_spec 1 (String.length node_spec - 1)) with
            | Some id -> (id, attr)
            | None ->
              Printf.eprintf "bad node spec %s (want 'unit' or n<ID>)\n" node_spec;
              exit 1)
          | _ ->
            Printf.eprintf "bad node spec %s (want 'unit' or n<ID>)\n" node_spec;
            exit 1)
      in
      match Provenance.find recorder ~node ~attr with
      | None ->
        Printf.eprintf "no recorded instance of %s at node n%d; attributes there:\n"
          attr node;
        List.iter
          (fun (rc : Provenance.record) -> Printf.eprintf "  %s\n" rc.Provenance.r_attr)
          (Provenance.instances_at recorder ~node);
        1
      | Some rc ->
        Format.printf "%a@."
          (fun fmt id -> Provenance.pp_why_chain ~depth recorder fmt id)
          rc.Provenance.r_id;
        (match dot with
        | Some path ->
          Vhdl_util.Unix_compat.write_file path
            (Provenance.to_dot ~depth recorder ~root:rc.Provenance.r_id);
          Printf.printf "DOT slice written to %s\n" path
        | None -> ());
        0)
  in
  let doc =
    "Explain why an attribute instance has its value: print the transitive \
     provenance slice (the why-chain) of its computation, crossing the \
     expression-AG cascade boundary."
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ work_arg $ ref_arg $ file $ unit_ $ spec $ depth $ dot)

let stats_cmd =
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the table as a JSON array.")
  in
  let files =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "VHDL sources to compile with provenance recording; adds the \
             hot-rule profile of the compilation to the output.")
  in
  let run json files =
    let s1 = Stats.of_grammar ~name:"VHDL AG" (Main_grammar.grammar ()) in
    let s2 = Stats.of_grammar ~name:"expr AG" (Expr_eval.grammar ()) in
    let profile =
      match files with
      | [] -> None
      | files ->
        Telemetry.reset ();
        let recorder = Provenance.create () in
        let c = make_compiler ~provenance:recorder None [] in
        List.iter
          (fun file ->
            try ignore (Vhdl_compiler.compile_file ~fail_on_error:false c file)
            with Vhdl_compiler.Compile_error msgs ->
              List.iter (fun d -> Format.eprintf "%s: %a@." file Diag.pp d) msgs)
          files;
        Some (Provenance.profile recorder)
    in
    if json then begin
      match profile with
      | None -> print_endline (Stats.table_json [ s1; s2 ])
      | Some rows ->
        Printf.printf "{\"grammars\": %s, \"profile\": %s}\n"
          (Stats.table_json [ s1; s2 ])
          (Stats.profile_json rows)
    end
    else begin
      Format.printf "%a@." Stats.pp_table [ s1; s2 ];
      match profile with
      | None -> ()
      | Some rows -> Format.printf "%a@." (fun fmt r -> Stats.pp_profile fmt r) rows
    end;
    0
  in
  let doc = "Print the attribute-grammar statistics table (and, given sources, the hot-rule profile)." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ json $ files)

(* ------------------------------------------------------------------ *)
(* bench: the performance observatory front end (lib/perf).

   Measures a fixed suite of workload-generated experiments as benchmark
   sessions (warmup + repetitions on the monotonic wall clock, median/MAD
   and bootstrap CI, GC and telemetry-counter deltas, phase self-times),
   serializes them to the canonical BENCH_report.json schema, and diffs
   against a persisted baseline with a noise-aware regression gate. *)

let pp_secs s =
  if s >= 1.0 then Printf.sprintf "%.3fs" s
  else if s >= 1e-3 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.1fus" (s *. 1e6)

let print_sample (s : Perf.Sample.t) =
  let lo, hi = Perf.Sample.ci s in
  Printf.printf "%-34s %2d reps  median %8s  mad %8s  ci [%s, %s]\n"
    s.Perf.Sample.s_name (Perf.Sample.reps s)
    (pp_secs (Perf.Sample.median s))
    (pp_secs (Perf.Sample.mad s))
    (pp_secs lo) (pp_secs hi);
  if s.Perf.Sample.s_metrics <> [] then begin
    Printf.printf "   ";
    List.iter
      (fun (k, v) -> Printf.printf " %s %.0f" k v)
      s.Perf.Sample.s_metrics;
    print_newline ()
  end

let bench_suite ~scaling ~warmup ~repeats ~quota =
  (* the phase self-times of an experiment come from the phase timer of
     the compiler its last repetition created *)
  let last_timer : Vhdl_util.Phase_timer.t option ref = ref None in
  let phases () =
    match !last_timer with
    | Some t -> Vhdl_util.Phase_timer.report t
    | None -> []
  in
  let compile_metrics lines (s : Perf.Sample.t) =
    let m = Perf.Sample.median s in
    let rated counter label =
      match Perf.Sample.rate s counter with
      | Some r -> [ (label, r) ]
      | None -> []
    in
    Perf.Sample.with_metrics s
      (List.concat
         [
           [ ("lines", float_of_int lines) ];
           (if m > 0.0 then
              [ ("lines_per_min", float_of_int lines /. m *. 60.0) ]
            else []);
           rated "lexer.tokens" "tokens_per_s";
           rated "ag.attrs_evaluated" "attrs_per_s";
         ])
  in
  let compile_experiment name srcs =
    let lines = List.fold_left (fun a s -> a + Lexer.source_lines s) 0 srcs in
    Perf.run ~warmup ~repeats ?quota_s:quota ~phases ~name (fun () ->
        let c = Vhdl_compiler.create () in
        last_timer := Some (Vhdl_compiler.timer c);
        List.iter (fun s -> ignore (Vhdl_compiler.compile c s)) srcs)
    |> compile_metrics lines
  in
  let sim_experiment name ~stages ~max_ns =
    let src = Workload.divider_chain ~stages in
    let s =
      Perf.run ~warmup ~repeats ?quota_s:quota ~phases ~name (fun () ->
          let c = Vhdl_compiler.create () in
          last_timer := Some (Vhdl_compiler.timer c);
          ignore (Vhdl_compiler.compile c src);
          let sim = Vhdl_compiler.elaborate ~trace:false c ~top:"chain" () in
          ignore (Vhdl_compiler.run c sim ~max_ns))
    in
    let rated counter label =
      match Perf.Sample.rate s counter with
      | Some r -> [ (label, r) ]
      | None -> []
    in
    Perf.Sample.with_metrics s
      (List.concat
         [
           [ ("sim_ns", float_of_int max_ns) ];
           rated "sim.delta_cycles" "delta_cycles_per_s";
           rated "sim.events" "events_per_s";
         ])
  in
  (* the VIF read path: a disk library of packages is populated once; each
     repetition drops the unit cache and resolves every unit from its file *)
  let vif_experiment name ~packages =
    let dir = Filename.temp_file "vhdlc-bench" ".lib" in
    Sys.remove dir;
    let c = Vhdl_compiler.create ~work_dir:dir () in
    for i = 1 to packages do
      ignore (Vhdl_compiler.compile c (Workload.package ~name:(Printf.sprintf "LIB%d" i) ~n:30))
    done;
    let lib = Library.create ~dir ~name:"WORK" ~timer:(Vhdl_util.Phase_timer.create ()) () in
    let keys = List.map (fun (u : Unit_info.compiled_unit) -> u.Unit_info.u_key) (Library.all lib) in
    let s =
      Fun.protect
        ~finally:(fun () ->
          Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
          Sys.rmdir dir)
        (fun () ->
          Perf.run ~warmup ~repeats ?quota_s:quota ~name (fun () ->
              Library.clear_cache lib;
              List.iter (fun key -> ignore (Library.find lib ~library:"WORK" ~key)) keys))
    in
    Perf.Sample.with_metrics s
      (("units", float_of_int (List.length keys))
      ::
      (match Perf.Sample.rate s "vif.read_bytes" with
      | Some r -> [ ("read_bytes_per_s", r) ]
      | None -> []))
  in
  if not scaling then
    [
      compile_experiment "compile/behavioral"
        [ Workload.behavioral ~name:"B1" ~states:12 ~exprs:24 ];
      compile_experiment "compile/structural"
        [ Workload.structural ~name:"N1" ~instances:30 ];
      compile_experiment "compile/expressions" [ Workload.expression_heavy ~n:60 ];
      compile_experiment "compile/packages" [ Workload.package ~name:"P1" ~n:20 ];
      sim_experiment "simulate/divider" ~stages:4 ~max_ns:4000;
      vif_experiment "vif/library" ~packages:12;
    ]
  else
    (* the scaling curve: the same generators swept across design size;
       tokens/s, attrs/s and delta-cycles/s per size expose where
       throughput bends as designs grow *)
    List.concat
      [
        List.map
          (fun states ->
            compile_experiment
              (Printf.sprintf "scaling/behavioral/states=%d" states)
              [ Workload.behavioral ~name:"SB" ~states ~exprs:(2 * states) ])
          [ 5; 10; 20; 40 ];
        List.map
          (fun instances ->
            compile_experiment
              (Printf.sprintf "scaling/structural/instances=%d" instances)
              [ Workload.structural ~name:"SN" ~instances ])
          [ 10; 20; 40; 80; 400 ];
        (* one declarative region growing: Workload.package ~n declares n
           constants and n functions *)
        List.map
          (fun decls ->
            compile_experiment
              (Printf.sprintf "scaling/packages/decls=%d" decls)
              [ Workload.package ~name:"SP" ~n:(decls / 2) ])
          [ 250; 1000; 4000 ];
        List.map
          (fun stages ->
            sim_experiment
              (Printf.sprintf "scaling/sim/stages=%d" stages)
              ~stages ~max_ns:4000)
          [ 2; 4; 8; 32 ];
      ]

let bench_cmd =
  let save_baseline =
    let doc = "Save this run's report (BENCH_report.json schema) as a baseline to $(docv)." in
    Arg.(value & opt (some string) None & info [ "save-baseline" ] ~docv:"FILE" ~doc)
  in
  let against =
    let doc =
      "Diff this run against the baseline report $(docv); exit non-zero if \
       any experiment regresses beyond the threshold and the noise, or if \
       an experiment of the baseline is missing from this run."
    in
    Arg.(value & opt (some string) None & info [ "against" ] ~docv:"FILE" ~doc)
  in
  let threshold =
    let doc = "Regression threshold as a fraction (0.25 = flag changes beyond +25%)." in
    Arg.(value & opt float 0.25 & info [ "threshold" ] ~docv:"FRACTION" ~doc)
  in
  let alloc_threshold =
    let doc =
      "Regression threshold for the allocation ([alloc]) rows: allocation \
       is near-deterministic rep to rep, so the default (0.5 = +50%) sits \
       far above its noise while catching real allocation regressions."
    in
    Arg.(value & opt float 0.5 & info [ "alloc-threshold" ] ~docv:"FRACTION" ~doc)
  in
  let repeats =
    Arg.(value & opt int 5 & info [ "repeats" ] ~docv:"N" ~doc:"Measured repetitions per experiment.")
  in
  let warmup =
    Arg.(value & opt int 1 & info [ "warmup" ] ~docv:"N" ~doc:"Unrecorded warmup runs per experiment.")
  in
  let quota =
    let doc = "Stop an experiment's repetitions once $(docv) seconds of measurement are spent." in
    Arg.(value & opt (some float) None & info [ "quota" ] ~docv:"SECONDS" ~doc)
  in
  let scaling =
    Arg.(
      value & flag
      & info [ "scaling" ]
          ~doc:
            "Run the scaling-curve suite instead: sweep generated designs \
             across sizes and report tokens/s, attrs/s, delta-cycles/s \
             versus design size.")
  in
  let run save against threshold alloc_threshold repeats warmup quota scaling =
    Telemetry.reset ();
    let samples = bench_suite ~scaling ~warmup ~repeats ~quota in
    List.iter print_sample samples;
    let report = Perf.Report.make samples in
    (match save with
    | Some path ->
      Perf.Report.save path report;
      Printf.printf "baseline saved to %s\n" path
    | None -> ());
    match against with
    | None -> 0
    | Some path -> (
      match Perf.Report.load path with
      | Error msg ->
        Printf.eprintf "cannot load baseline: %s\n" msg;
        2
      | Ok baseline ->
        let rows =
          Perf.Diff.compare_reports ~threshold ~alloc_threshold ~baseline
            ~current:report ()
        in
        Format.printf "%a@." Perf.Diff.pp rows;
        let regs = Perf.Diff.regressions rows in
        (* a baseline experiment this run did not measure is a failure, not
           a pass with nothing to compare *)
        let missing =
          List.filter (fun r -> r.Perf.Diff.d_verdict = Perf.Diff.Removed) rows
        in
        if regs <> [] then
          Printf.printf "%d regression(s) against %s (threshold +%.0f%%)\n"
            (List.length regs) path (100.0 *. threshold);
        if missing <> [] then
          Printf.printf "%d baseline experiment(s) missing from this run: %s\n"
            (List.length missing)
            (String.concat ", " (List.map (fun r -> r.Perf.Diff.d_name) missing));
        if regs = [] && missing = [] then begin
          Printf.printf "no regressions against %s (threshold +%.0f%%)\n" path
            (100.0 *. threshold);
          0
        end
        else 1)
  in
  let doc =
    "Run the benchmark suite as statistical sessions (warmup, repetitions, \
     median/MAD, bootstrap CI, GC and counter deltas); optionally save the \
     canonical report as a baseline, or gate against a persisted one."
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      const run $ save_baseline $ against $ threshold $ alloc_threshold
      $ repeats $ warmup $ quota $ scaling)

(* ------------------------------------------------------------------ *)
(* serve / request: the resilient long-lived compile service.

   `vhdlc serve` runs the daemon in the foreground until SIGTERM/SIGINT
   (graceful drain) or a shutdown request.  `vhdlc request` is the client:
   it maps each response status to a stable exit code so scripts, the cram
   tests, and the chaos smoke can branch on outcomes. *)

let socket_arg =
  let doc = "Unix-domain socket path of the compile service." in
  Arg.(value & opt string "vhdl-serve.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let queue =
    Arg.(
      value & opt int 16
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission-queue capacity; requests beyond it are shed with [overload].")
  in
  let max_frame =
    Arg.(
      value
      & opt int Serve_protocol.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES" ~doc:"Largest accepted request frame payload.")
  in
  let default_deadline =
    Arg.(
      value & opt float 10.0
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Default per-request wall-clock deadline (requests may lower it).")
  in
  let grace =
    Arg.(
      value & opt float 2.0
      & info [ "grace" ] ~docv:"SECONDS"
          ~doc:
            "Watchdog slack past the deadline before a wedged request is \
             broken and the worker recycled.")
  in
  let allow_faults =
    Arg.(
      value & flag
      & info [ "allow-faults" ]
          ~doc:
            "Honor the poison=/spin_ms= fault-injection request fields \
             (chaos campaigns only).")
  in
  let recycle_every =
    Arg.(
      value & opt int 256
      & info [ "recycle-every" ] ~docv:"N"
          ~doc:"Replace the warm compiler every N requests (0 = never).")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the lifecycle log.") in
  let events =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Append the structured event log (one JSON object per line: \
             accept/admit/shed/start/finish/... with request ids) here.")
  in
  let flight_dir =
    Arg.(
      value & opt string "."
      & info [ "flight-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for flight-recorder dumps (firewall trips, watchdog \
             fires, heap breaches, SIGUSR1, slow-request exemplars).")
  in
  let max_dumps =
    Arg.(
      value & opt int 32
      & info [ "max-dumps" ] ~docv:"N"
          ~doc:
            "Retention cap on flight dump files (exemplars included) in \
             --flight-dir: the oldest are deleted so a flapping firewall \
             cannot fill the disk (0 = unlimited).")
  in
  let span_cap =
    Arg.(
      value & opt int 512
      & info [ "span-cap" ] ~docv:"N"
          ~doc:
            "Per-request telemetry span buffer: each request's spans are \
             recorded (bounded by N) so slow requests can dump an exemplar \
             trace; 0 disables buffering and exemplars.")
  in
  let slo_p99_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo-p99-ms" ] ~docv:"MS"
          ~doc:"Objective: windowed p99 service latency; breaches are logged.")
  in
  let slo_shed_pct =
    Arg.(
      value
      & opt (some float) None
      & info [ "slo-shed-pct" ] ~docv:"PCT"
          ~doc:"Objective: windowed shed rate in percent; breaches are logged.")
  in
  let heap_growth_pct =
    Arg.(
      value & opt float 0.0
      & info [ "heap-growth-pct" ] ~docv:"PCT"
          ~doc:
            "Heap-health watchdog: when the linear fit over the sampled \
             live-words window grows past PCT percent, emit one heap_breach \
             event and dump the flight recorder (0 = disabled).")
  in
  let run socket queue max_frame default_deadline grace allow_faults recycle_every
      quiet refs fuel metrics_out events flight_dir max_dumps span_cap slo_p99_ms
      slo_shed_pct heap_growth_pct =
    Telemetry.reset ();
    let log = if quiet then ignore else fun m -> Printf.eprintf "vhdlc serve: %s\n%!" m in
    let worker =
      {
        Serve_worker.w_default_deadline_s = default_deadline;
        w_watchdog_grace_s = grace;
        w_allow_faults = allow_faults;
        w_recycle_every = recycle_every;
        w_budgets = budgets_of fuel None;
        w_ref_libs =
          List.filter_map
            (fun spec ->
              match String.index_opt spec '=' with
              | Some i ->
                Some
                  ( String.uppercase_ascii (String.sub spec 0 i),
                    String.sub spec (i + 1) (String.length spec - i - 1) )
              | None -> None)
            refs;
      }
    in
    match
      Serve_daemon.create
        {
          Serve_daemon.default_config with
          Serve_daemon.d_socket = socket;
          d_queue_capacity = queue;
          d_max_frame = max_frame;
          d_worker = worker;
          d_metrics_out = metrics_out;
          d_obs =
            {
              Obs_log.default_config with
              Obs_log.o_events_out = events;
              o_flight_dir = flight_dir;
              o_max_dumps = max_dumps;
            };
          d_slo = { Obs_slo.o_p99_ms = slo_p99_ms; o_shed_pct = slo_shed_pct };
          d_span_cap = span_cap;
          d_heap_growth_pct = heap_growth_pct;
          d_log = log;
        }
    with
    | Error msg ->
      Printf.eprintf "vhdlc serve: %s\n" msg;
      1
    | Ok daemon ->
      Serve_daemon.serve daemon;
      0
  in
  let doc =
    "Run the compile service: a long-lived daemon answering compile and \
     simulate requests from a warm compiler, with admission control, \
     per-request deadlines, a wedge watchdog, and graceful drain."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ queue $ max_frame $ default_deadline $ grace
      $ allow_faults $ recycle_every $ quiet $ ref_arg $ fuel_arg $ metrics_out_arg
      $ events $ flight_dir $ max_dumps $ span_cap $ slo_p99_ms $ slo_shed_pct
      $ heap_growth_pct)

let request_cmd =
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Send a liveness probe.") in
  let stats_serve =
    Arg.(value & flag & info [ "stats" ] ~doc:"Fetch the daemon's serve.* counters.")
  in
  let slo =
    Arg.(
      value & flag
      & info [ "slo" ]
          ~doc:
            "Fetch the daemon's rolling SLO window: p50/p95/p99 service \
             latency, shed and internal rates, objective status.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"With --stats or --slo: answer with a JSON body.")
  in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the daemon to drain and exit.")
  in
  let top =
    Arg.(
      value
      & opt (some string) None
      & info [ "top" ] ~docv:"ENTITY"
          ~doc:"Simulate: elaborate and run this entity (implies a simulate request).")
  in
  let ns =
    Arg.(value & opt int 1000 & info [ "ns" ] ~docv:"N" ~doc:"Simulate: horizon in ns.")
  in
  let poison =
    Arg.(
      value
      & opt (some string) None
      & info [ "poison" ] ~docv:"KEY"
          ~doc:
            "Fault injection: poison this unit key (e.g. entity:BAD); the \
             daemon must run with --allow-faults.")
  in
  let spin_ms =
    Arg.(
      value & opt int 0
      & info [ "spin-ms" ] ~docv:"MS"
          ~doc:"Fault injection: busy-wait this long before the work (wedge probe).")
  in
  let timeout =
    Arg.(
      value & opt float 30.0
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Give up on the response after this long.")
  in
  let wait_ready =
    Arg.(
      value & flag
      & info [ "wait-ready" ]
          ~doc:"Poll until the daemon answers pings before sending (startup races).")
  in
  let files =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"FILE" ~doc:"VHDL sources forming the request body.")
  in
  let run socket ping stats_serve slo json shutdown top ns poison spin_ms fuel
      deadline timeout wait_ xs =
    let source =
      String.concat "\n" (List.map Vhdl_util.Unix_compat.read_file xs)
    in
    let verb =
      if ping then Serve_protocol.Ping
      else if stats_serve then Serve_protocol.Stats
      else if slo then Serve_protocol.Slo
      else if shutdown then Serve_protocol.Shutdown
      else if top <> None then Serve_protocol.Simulate
      else Serve_protocol.Compile
    in
    let rq =
      Serve_protocol.request verb ?deadline_s:deadline ?fuel ?top ~max_ns:ns ?poison
        ~spin_ms ~json ~source
    in
    let ready =
      if wait_ then Serve_client.wait_ready ~socket () else Ok ()
    in
    match ready with
    | Error msg ->
      Printf.eprintf "vhdlc request: %s\n" msg;
      7
    | Ok () -> (
      match Serve_client.roundtrip ~timeout_s:timeout ~socket rq with
      | Error msg ->
        Printf.eprintf "vhdlc request: %s\n" msg;
        7
      | Ok resp ->
        print_string resp.Serve_protocol.rs_body;
        (match resp.Serve_protocol.rs_status with
        | Serve_protocol.Ok_ -> ()
        | st ->
          Printf.eprintf "vhdlc request: [%s]%s%s%s\n" (Serve_protocol.status_name st)
            (match resp.Serve_protocol.rs_request_id with
            | Some rid -> Printf.sprintf " rid=%d" rid
            | None -> "")
            (match resp.Serve_protocol.rs_retry_after_s with
            | Some s -> Printf.sprintf " retry after %.3fs" s
            | None -> "")
            (if resp.Serve_protocol.rs_wedged then " (request wedged; worker recycled)"
             else ""));
        Serve_protocol.status_exit_code resp.Serve_protocol.rs_status)
  in
  let doc =
    "Send one request to a running compile service and print the response; \
     the exit code encodes the response status (0 ok, 1 error, 2 internal, \
     3 timeout, 4 overload, 5 draining, 6 bad-request, 7 transport)."
  in
  Cmd.v (Cmd.info "request" ~doc)
    Term.(
      const run $ socket_arg $ ping $ stats_serve $ slo $ json $ shutdown $ top
      $ ns $ poison $ spin_ms $ fuel_arg $ deadline_arg $ timeout $ wait_ready
      $ files)

(* `vhdlc top`: a live dashboard over the daemon's machine-readable stats
   (the same JSON document `vhdlc request --stats --json` prints). *)

let top_cmd =
  let module J = Telemetry.Json in
  let once =
    Arg.(value & flag & info [ "once" ] ~doc:"Render one frame and exit.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the raw stats JSON instead of the dashboard (scripting).")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period.")
  in
  let jpath doc path = J.path path doc in
  let jint doc path =
    Option.value ~default:0 (Option.bind (jpath doc path) J.to_int)
  in
  let jnum doc path =
    Option.value ~default:0.0 (Option.bind (jpath doc path) J.to_num)
  in
  let jstr doc path =
    Option.value ~default:"-" (Option.bind (jpath doc path) J.to_str)
  in
  let ms us = Printf.sprintf "%.1fms" (us /. 1000.0) in
  let render socket doc =
    let b = Buffer.create 512 in
    let led k = jint doc [ "ledger"; "serve." ^ k ] in
    Printf.bprintf b "compile service @ %s — uptime %.1fs%s\n" socket
      (jnum doc [ "uptime_s" ])
      (if jpath doc [ "draining" ] = Some (J.Bool true) then " — DRAINING" else "");
    Printf.bprintf b "queue    %d/%d deep   retry-after %.3fs\n"
      (jint doc [ "queue"; "depth" ])
      (jint doc [ "queue"; "capacity" ])
      (jnum doc [ "queue"; "retry_after_s" ]);
    Printf.bprintf b "worker   generation %d   served %d\n"
      (jint doc [ "worker"; "generation" ])
      (jint doc [ "worker"; "served" ]);
    Printf.bprintf b "latency  p50 %s   p90 %s   p99 %s   (process lifetime)\n"
      (ms (jnum doc [ "latency_us"; "p50" ]))
      (ms (jnum doc [ "latency_us"; "p90" ]))
      (ms (jnum doc [ "latency_us"; "p99" ]));
    Printf.bprintf b
      "window   %.0fs: %d requests   p50 %s  p95 %s  p99 %s   shed %.1f%%  \
       internal %.1f%%\n"
      (jnum doc [ "slo"; "window_s" ])
      (jint doc [ "slo"; "requests" ])
      (ms (jnum doc [ "slo"; "p50_us" ]))
      (ms (jnum doc [ "slo"; "p95_us" ]))
      (ms (jnum doc [ "slo"; "p99_us" ]))
      (jnum doc [ "slo"; "shed_pct" ])
      (jnum doc [ "slo"; "internal_pct" ]);
    (match jpath doc [ "slo"; "phase_us" ] with
    | Some (J.Obj pairs) -> (
      let phases =
        List.filter_map
          (fun (k, v) -> Option.map (fun x -> (k, x)) (J.to_num v))
          pairs
      in
      match Obs_attr.attribution phases with
      | "" -> ()
      | att -> Printf.bprintf b "driven   by %s\n" att)
    | _ -> ());
    (match jpath doc [ "slo"; "alloc_phase_b" ] with
    | Some (J.Obj pairs) -> (
      let allocs =
        List.filter_map
          (fun (k, v) -> Option.map (fun x -> (k, x)) (J.to_num v))
          pairs
      in
      match Obs_attr.attribution allocs with
      | "" -> ()
      | att ->
        Printf.bprintf b "alloc    %.0fkB in window — by %s\n"
          (jnum doc [ "slo"; "alloc_b" ] /. 1024.0)
          att)
    | _ -> ());
    Printf.bprintf b "heap     live %.1fMB   top %.1fMB\n"
      (jnum doc [ "heap"; "live_words" ] *. 8.0 /. 1048576.0)
      (jnum doc [ "heap"; "top_words" ] *. 8.0 /. 1048576.0);
    (match jpath doc [ "last_request" ] with
    | Some (J.Obj _ as lr) ->
      Printf.bprintf b "last     rid %d  %s  [%s]  %s\n"
        (jint lr [ "rid" ]) (jstr lr [ "verb" ]) (jstr lr [ "status" ])
        (ms (jnum lr [ "service_us" ]))
    | _ -> Printf.bprintf b "last     (no request serviced yet)\n");
    Printf.bprintf b "ledger   requests %d = answered %d + shed %d + client_gone %d\n"
      (led "requests") (led "answered") (led "shed") (led "client_gone");
    Printf.bprintf b
      "faults   torn %d  oversized %d  bad-request %d  contained %d  timeouts \
       %d  wedges %d  recycles %d\n"
      (led "torn_frames") (led "oversized") (led "bad_requests")
      (led "faults_contained") (led "timeouts") (led "wedges")
      (led "worker_recycles");
    Printf.bprintf b
      "obs      events %d   flight-dumps %d   slo-breaches %d   heap-breaches \
       %d\n"
      (led "events") (led "flight_dumps") (led "slo_breaches")
      (led "heap_breaches");
    Buffer.contents b
  in
  let run socket once json interval =
    let rq = Serve_protocol.request ~json:true Serve_protocol.Stats in
    let rec loop n =
      match Serve_client.roundtrip ~timeout_s:5.0 ~socket rq with
      | Error msg ->
        Printf.eprintf "vhdlc top: %s\n" msg;
        7
      | Ok resp when resp.Serve_protocol.rs_status <> Serve_protocol.Ok_ ->
        Printf.eprintf "vhdlc top: [%s]\n"
          (Serve_protocol.status_name resp.Serve_protocol.rs_status);
        Serve_protocol.status_exit_code resp.Serve_protocol.rs_status
      | Ok resp -> (
        match J.parse (String.trim resp.Serve_protocol.rs_body) with
        | Error e ->
          Printf.eprintf "vhdlc top: unparseable stats body: %s\n" e;
          7
        | Ok doc ->
          if json then print_string resp.Serve_protocol.rs_body
          else begin
            if not once && n > 0 then print_string "\027[H\027[2J";
            print_string (render socket doc);
            flush stdout
          end;
          if once then 0
          else begin
            Unix.sleepf interval;
            loop (n + 1)
          end)
    in
    loop 0
  in
  let doc =
    "Live dashboard over a running compile service: queue depth, worker \
     state, latency percentiles, rolling SLO window, fate ledger.  Use \
     --once --json for scripting."
  in
  Cmd.v (Cmd.info "top" ~doc) Term.(const run $ socket_arg $ once $ json $ interval)

(* `vhdlc analyze`: offline analytics over a serve event log — the
   post-mortem counterpart of `vhdlc top`.  Percentiles replay the log
   through the live window's own estimator (Obs_analyze), so offline and
   online numbers agree; --against diffs two logs with the bench gate's
   noise-aware significance rule. *)

let analyze_cmd =
  let log_file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"EVENTS.jsonl"
          ~doc:"Event log written by `vhdlc serve --events`.")
  in
  let against =
    Arg.(
      value
      & opt (some file) None
      & info [ "against" ] ~docv:"BASE.jsonl"
          ~doc:
            "Baseline event log: diff per-request latency and per-phase \
             self-time against it; only median shifts that clear \
             --threshold with disjoint bootstrap confidence intervals are \
             called regressions (exit 1 when any are).")
  in
  let window =
    Arg.(
      value & opt float 60.0
      & info [ "window" ] ~docv:"SECONDS" ~doc:"Timeline slice width.")
  in
  let top_k =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K" ~doc:"How many slowest requests to list.")
  in
  let threshold =
    Arg.(
      value & opt float 0.25
      & info [ "threshold" ] ~docv:"FRACTION"
          ~doc:"--against significance threshold on the median ratio.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")
  in
  let load path =
    match Obs_event.read_log path with
    | Error msg -> Error msg
    | Ok (events, warnings) ->
      List.iter (fun w -> Printf.eprintf "vhdlc analyze: warning: %s\n" w) warnings;
      Ok events
  in
  let diff_row_json (r : Perf.Diff.row) =
    let module J = Telemetry.Json in
    let num x = if Float.is_nan x then "null" else J.float x in
    J.obj
      [
        ("name", J.str r.Perf.Diff.d_name);
        ("base_s", num r.Perf.Diff.d_base);
        ("cur_s", num r.Perf.Diff.d_cur);
        ("ratio", num r.Perf.Diff.d_ratio);
        ("verdict", J.str (Perf.Diff.verdict_name r.Perf.Diff.d_verdict));
      ]
  in
  let run log_file against window top_k threshold json =
    match load log_file with
    | Error msg ->
      Printf.eprintf "vhdlc analyze: %s\n" msg;
      2
    | Ok events -> (
      (match Obs_event.check_log events with
      | [] -> ()
      | v :: _ as vs ->
        Printf.eprintf "vhdlc analyze: %d event-grammar violation(s); first: %s\n"
          (List.length vs) v);
      let report = Obs_analyze.analyze ~window_s:window ~top_k events in
      match against with
      | None ->
        if json then print_endline (Obs_analyze.to_json report)
        else Format.printf "%a@." Obs_analyze.pp report;
        0
      | Some base_path -> (
        match load base_path with
        | Error msg ->
          Printf.eprintf "vhdlc analyze: %s\n" msg;
          2
        | Ok base_events ->
          let rows =
            Obs_analyze.against ~threshold ~base:base_events ~cur:events ()
          in
          let regressions = Perf.Diff.regressions rows in
          if json then
            print_endline
              (Telemetry.Json.obj
                 [
                   ("report", Obs_analyze.to_json report);
                   ("baseline", Telemetry.Json.str base_path);
                   ("diff", Telemetry.Json.arr (List.map diff_row_json rows));
                   ("regressions", Telemetry.Json.int (List.length regressions));
                 ])
          else begin
            Format.printf "%a@." Obs_analyze.pp report;
            Format.printf "vs %s:@.%a" base_path Perf.Diff.pp rows
          end;
          if regressions <> [] then 1 else 0))
  in
  let doc =
    "Offline analytics over a compile-service event log: windowed \
     percentiles with per-phase attribution, shed/internal breakdown, the \
     slowest requests, a timeline — and --against to flag real latency or \
     phase regressions between two serving runs."
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(
      const run $ log_file $ against $ window $ top_k $ threshold $ json)

let () =
  let doc = "a VHDL compiler and simulator built from attribute grammars" in
  let info = Cmd.info "vhdlc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            compile_cmd; simulate_cmd; dump_cmd; explain_cmd; stats_cmd; bench_cmd;
            serve_cmd; request_cmd; top_cmd; analyze_cmd;
          ]))
