(** The public compiler facade.

    Ties the pieces together exactly as Figure 1 of the paper organizes
    them: scanner and LALR parser feed the attribute evaluator generated
    from the principal AG; [exprEval] cascades into the expression AG;
    foreign references go through the VIF library manager; the "link" step
    (our analog of compiling the generated C) elaborates the design against
    the simulation kernel.

    Unlike the paper's batch compiler, compilation is crash-contained:
    the parser performs panic-mode error recovery so every syntax error in
    a file is reported in one run, each design unit's analysis runs under
    the {!Supervisor} exception firewall so one poisoned unit cannot take
    its siblings down, and optional {!Supervisor.budgets} bound evaluation
    fuel, elaboration steps, wall-clock time, and simulation steps.

    {[
      let c = Vhdl_compiler.create () in
      let _ = Vhdl_compiler.compile c source in
      let sim = Vhdl_compiler.elaborate c ~top:"TB" () in
      let _ = Vhdl_compiler.run sim ~max_ns:1000 in
      Vhdl_compiler.history sim ":tb:Q"
    ]} *)

module Timer = Vhdl_util.Phase_timer
module Driver = Vhdl_lalr.Driver
module Telemetry = Vhdl_telemetry.Telemetry

let m_compiles_demand = Telemetry.counter "compile.runs_demand"
let m_compiles_staged = Telemetry.counter "compile.runs_staged"

(** How the principal AG is evaluated during [compile].  [Staged] (the
    default) drives each design unit through the static plan generated at
    build time by {!Analysis.plan}, copy rules elided in both attribute
    grammars — the way a Linguist-generated (plan-based) evaluator
    proceeds.  [Demand] is the reference path: goal-directed memoizing
    evaluation with copy elision off in both grammars, demoted to the
    fuzz-oracle role.  Both must produce identical
    results — the differential fuzzer ([lib/difftest]) holds them to
    that. *)
type strategy =
  | Demand
  | Staged

type t = {
  work : Library.t;
  timer : Timer.t;
  strategy : strategy;
  budgets : Supervisor.budgets;
  provenance : Provenance.t option; (* attribute-dependency recorder *)
  mutable diagnostics : Diag.t list; (* newest first *)
  mutable last_report : Supervisor.unit_report list;
}

exception Compile_error of Diag.t list

(* Both grammars' tables and the principal plan were generated at build
   time (lib/tables); loading them is start-up work.  [compile] forces the
   load before it opens any frame, so no compile phase or design unit's
   frame is ever charged for it, and a compiler that never compiles never
   loads them.

   Unmarshalling puts about 3 MB of tables straight into the major heap.
   The load ends with one full major collection (about 4 ms), so every
   process starts compiling from the same collected heap and the first
   compile owes the collector nothing for the tables.  Without it the
   peak heap of a long run depended on where the input's first bursts of
   promotion fell in the major cycle: the claims benchmark's vif-library
   split into 23-28 MB and 30-33 MB seeds, against 27.6-29.2 MB
   quartiles with it (EXPERIMENTS.md BUILD-GEN). *)
let generated =
  lazy
    (ignore (Main_grammar.plan ());
     ignore (Expr_eval.parser_ ());
     Gc.full_major ())

let load_generated () = Lazy.force generated

(** Create a compiler.  [work_dir] makes the working library disk-backed
    (separate compilation across compiler instances); without it, the
    library lives in memory.  [budgets] turns on resource containment
    (default: everything unlimited).  [provenance] arms the
    attribute-dependency recorder: every compile records its dynamic
    dependency graph there (both AGs — the cascade records into the same
    recorder), feeding [vhdlc explain] and the hot-rule profiler. *)
let create ?work_dir ?(strategy = Staged) ?(budgets = Supervisor.no_budgets)
    ?provenance () =
  let timer = Timer.create () in
  {
    work = Library.create ?dir:work_dir ~name:"WORK" ~timer ();
    timer;
    strategy;
    budgets;
    provenance;
    diagnostics = [];
    last_report = [];
  }

(** Attach a read-only reference library (the paper's second library
    argument). *)
let add_reference_library t ~name ~dir =
  let lib = Library.create ~dir ~name ~timer:t.timer () in
  Library.add_reference t.work ~as_name:name lib

let session t : Session.t =
  {
    Session.find_unit = (fun ~library ~key -> Library.find t.work ~library ~key);
    known_library =
      (fun lib -> lib = Session.work || lib = "STD" || Library.resolve_library t.work lib <> None);
    provenance = t.provenance;
    (* a Demand compiler is the differential oracle's reference side: the
       expression AG must not elide copies either *)
    reference = t.strategy = Demand;
    timer = t.timer;
  }

let work_library t = t.work
let timer t = t.timer
let strategy t = t.strategy
let budgets t = t.budgets
let provenance t = t.provenance
let diagnostics t = List.rev t.diagnostics
let last_report t = t.last_report

(* ------------------------------------------------------------------ *)
(* Parser error recovery *)

(* Recovery checkpoints are the design-unit-list reduces: restoring the
   parse stack there leaves the parser ready to accept a fresh design unit,
   so the units before AND after a damaged region survive.  Sync tokens are
   the design-unit starters plus the "end ... ;" pair. *)
let recovery_hooks =
  lazy
    (let g = Main_grammar.grammar () in
     let checkpoint =
       Array.init (Grammar.n_productions g) (fun id ->
           match (Grammar.production g id).Grammar.prod_name with
           | "design_units_one" | "design_units_more" -> true
           | _ -> false)
     in
     let starters =
       [ "entity"; "architecture"; "package"; "configuration"; "library"; "use" ]
     in
     let classify =
       Array.init (Grammar.n_symbols g) (fun id ->
           if not (Grammar.is_terminal g id) then Driver.Sync_other
           else
             match Grammar.symbol_name g id with
             | "end" -> Driver.Sync_end
             | ";" -> Driver.Sync_semi
             | s when List.mem s starters -> Driver.Sync_start
             | _ -> Driver.Sync_other)
     in
     ((fun p -> checkpoint.(p)), fun s -> classify.(s)))

let diag_of_parse_error (e : Driver.error) =
  if e.Driver.e_skipped = 0 then
    Diag.error ~line:e.Driver.e_line "syntax error: unexpected %s" e.Driver.e_found
  else
    Diag.error ~line:e.Driver.e_line
      "syntax error: unexpected %s (skipped %d tokens to resynchronize)"
      e.Driver.e_found e.Driver.e_skipped

(* ------------------------------------------------------------------ *)
(* Per-unit analysis under the firewall *)

(* Label a design-unit region for diagnostics by its leading tokens,
   e.g. "entity COUNTER" (a design_unit site may start with context
   clauses, so scan forward for the library-unit keyword). *)
let unit_label site =
  let rec scan = function
    | Pval.Tok (Token.Tkw "package") :: Pval.Tok (Token.Tkw "body")
      :: Pval.Tok (Token.Tid id) :: _ ->
      Some ("package body " ^ id)
    | Pval.Tok (Token.Tkw kw) :: Pval.Tok (Token.Tid id) :: _
      when List.mem kw [ "entity"; "architecture"; "package"; "configuration" ] ->
      Some (kw ^ " " ^ id)
    | _ :: rest -> scan rest
    | [] -> None
  in
  match scan (Evaluator.site_leaf_values site) with
  | Some label -> label
  | None -> Printf.sprintf "unit@line %d" (Evaluator.site_line site)

(* Evaluate UNITS and MSGS per design-unit site so an escape in one unit is
   contained there: siblings still analyze (they communicate only through
   the session library, never through shared attributes).  A site's units
   enter the library only when its MSGS carry no error, so later units
   never see an erroneous one; the insert runs inside the site's guard and
   span, so its VIF write is charged to the unit that wrote it.  Once a
   budget diagnostic appears (fuel, deadline) the budget is dead for the
   whole compile, so the remaining units are reported as skipped rather
   than producing one exhaustion diagnostic each. *)
let analyze_units t ev =
  (match t.strategy with
  | Demand -> Telemetry.incr m_compiles_demand
  | Staged -> Telemetry.incr m_compiles_staged);
  let budget_dead = ref false in
  let units = ref [] in
  let msgs = ref [] in
  let report = ref [] in
  List.iter
    (fun site ->
      let line = Evaluator.site_line site in
      let name = unit_label site in
      (* counter snapshot at the unit boundary: the report line carries the
         delta, so work (and failures) attribute to the unit that did it *)
      let snap = Telemetry.snapshot () in
      let record status =
        Supervisor.count_status status;
        report :=
          {
            Supervisor.ur_name = name;
            ur_line = line;
            ur_status = status;
            ur_node = Evaluator.site_id site;
            ur_counters = Telemetry.delta snap;
          }
          :: !report
      in
      if !budget_dead then record Supervisor.Skipped
      else
        match
          Supervisor.guard ~phase:Supervisor.Analysis ~unit_name:name ~line (fun () ->
              Telemetry.with_span ~cat:"unit" name (fun () ->
                  (* plan-based pass over this unit's subtree first: forces
                     every non-copy synthesized attribute pass by pass, so
                     the goal pulls below find everything memoized.  Running
                     it inside the unit's guard keeps firewall containment
                     and counter attribution per unit. *)
                  (match t.strategy with
                  | Demand -> ()
                  | Staged ->
                    ignore
                      (Evaluator.evaluate_plan ~site ev
                         ~plan:(Main_grammar.plan ())));
                  let us = Pval.as_units (Evaluator.eval_at ev site "UNITS") in
                  let ms = Pval.as_msgs (Evaluator.eval_at ev site "MSGS") in
                  let placed = not (Diag.has_errors ms) in
                  if placed then List.iter (Library.insert t.work) us;
                  (us, ms, placed)))
        with
        | Ok (us, ms, placed) ->
          if placed then units := List.rev_append us !units;
          msgs := List.rev_append ms !msgs;
          record (if placed then Supervisor.Compiled else Supervisor.Errored)
        | Error d ->
          msgs := d :: !msgs;
          Evaluator.clear_in_progress ev;
          if Diag.is_budget d then begin
            budget_dead := true;
            record Supervisor.Skipped
          end
          else record (if Diag.is_internal d then Supervisor.Poisoned else Supervisor.Errored))
    (Evaluator.sites ev ~symbol:"design_unit");
  (List.rev !units, List.rev !msgs, List.rev !report)

(** Compile one source text into the working library.  Phases are timed
    individually for the PERF-PHASE experiment.  Returns the units placed
    in the working library (those whose analysis is error-free);
    diagnostics accumulate on the compiler ([diagnostics]) and a per-unit
    partial-result report on [last_report].  Raises
    {!Compile_error} when nothing parses, or when [fail_on_error] (the
    default) and errors of any origin exist. *)
let compile ?(fail_on_error = true) t source : Unit_info.compiled_unit list =
  load_generated ();
  let session = session t in
  Session.with_session session (fun () ->
      Telemetry.with_span ~cat:"pipeline" "compile" @@ fun () ->
      let grammar = Main_grammar.grammar () in
      let parser_ = Main_grammar.parser_ () in
      let source_lines = Lexer.source_lines source in
      let clock = Supervisor.start_clock ?deadline_s:t.budgets.Supervisor.deadline_s () in
      (* phase 1: scanning *)
      let tokens =
        Timer.time t.timer "scanner" (fun () ->
            try Main_grammar.tokens_of_source source
            with Lexer.Lex_error { line; msg } ->
              raise (Compile_error [ Diag.error ~line "%s" msg ]))
      in
      (* phase 2: LALR parsing with panic-mode recovery: every syntax error
         in the file is reported, and well-formed design units on either
         side of a damaged region survive into the tree *)
      let checkpoint, classify = Lazy.force recovery_hooks in
      let recovery =
        Timer.time t.timer "parser" (fun () ->
            Parsing.parse_list_recovering parser_
              ~elide_chains:(t.strategy = Staged)
              ~eof_value:Pval.Unit ~checkpoint ~classify tokens)
      in
      let parse_diags = List.map diag_of_parse_error recovery.Driver.r_errors in
      match recovery.Driver.r_root with
      | None ->
        (* nothing parsed at all: no units to analyze *)
        let parse_diags =
          if parse_diags <> [] then parse_diags
          else [ Diag.error ~line:0 "empty design file" ]
        in
        t.diagnostics <- List.rev_append parse_diags t.diagnostics;
        t.last_report <- [];
        raise (Compile_error parse_diags)
      | Some tree ->
        (* phases 3+4: attribute evaluation; the expression-AG cascade and
           the VIF I/O charge their own nested frames of this compiler's
           timer (through the session and the libraries), so its self-time
           accounting separates them without any bookkeeping here *)
        let ev =
          Evaluator.create
            ~token_line:(fun n -> Pval.Int n)
            ?fuel:t.budgets.Supervisor.eval_fuel
            ~tick:(fun () -> Supervisor.check clock)
            ~copy_elide:(t.strategy = Staged)
            ?provenance:
              (Option.map (fun r -> (r, "vhdl", Pval.summary)) t.provenance)
            grammar
            ~root_inherited:
              (Main_grammar.root_inherited ~unit_name:"WORK.%FILE%" ~source_lines)
            tree
        in
        let units, msgs, report =
          Timer.time t.timer "attribute evaluation" (fun () -> analyze_units t ev)
        in
        let all_msgs = parse_diags @ msgs in
        t.diagnostics <- List.rev_append all_msgs t.diagnostics;
        t.last_report <- report;
        if fail_on_error && Diag.has_errors all_msgs then
          raise (Compile_error (List.filter Diag.is_error all_msgs));
        units)

let compile_file ?fail_on_error t path =
  compile ?fail_on_error t (Vhdl_util.Unix_compat.read_file path)

(* ------------------------------------------------------------------ *)
(* Elaboration and simulation *)

type simulation = {
  top : string; (* the name elaborated, for diagnostics *)
  model : Elaborate.model;
  mutable messages : (Rt.time * int * string) list; (* newest first *)
}

let library_view t : Elaborate.library_view =
  {
    Elaborate.lv_find = (fun ~library ~key -> Library.find t.work ~library ~key);
    lv_all = (fun () -> Library.all t.work);
  }

(** Elaborate [top] (an entity name, optionally with [~arch], or
    [~configuration]) — the paper's link step, timed as "codegen+link".
    Runs under the firewall: internal escapes and an exhausted elaboration
    budget become {!Compile_error} with a structured diagnostic
    ([Elaboration_error], the expected user-level failure, still raises
    as itself). *)
let elaborate ?arch ?configuration ?(trace = true) t ~top () : simulation =
  Telemetry.with_span ~cat:"pipeline" "elaborate" @@ fun () ->
  (* VHDL identifiers ignore case; library keys hold them uppercased *)
  let upper = String.uppercase_ascii in
  let target =
    match configuration with
    | Some c -> Elaborate.Top_configuration (upper c)
    | None -> Elaborate.Top_entity { entity = upper top; arch = Option.map upper arch }
  in
  (* elaboration's own foreign-reference reads charge the nested "VIF read"
     phase frames the library opens, so they never pollute this phase *)
  let model =
    Timer.time t.timer "codegen+link (elaboration)" (fun () ->
        match
          Supervisor.guard ~phase:Supervisor.Elaboration ~unit_name:top (fun () ->
              Elaborate.elaborate ~trace_signals:trace
                ?step_budget:t.budgets.Supervisor.elab_steps (library_view t) target)
        with
        | Ok model -> model
        | Error d ->
          t.diagnostics <- d :: t.diagnostics;
          raise (Compile_error [ d ]))
  in
  Kernel.set_step_fuel model.Elaborate.m_kernel t.budgets.Supervisor.sim_step_fuel;
  let sim = { top; model; messages = [] } in
  Kernel.set_message_handler model.Elaborate.m_kernel (fun time ~severity msg ->
      sim.messages <- (time, severity, msg) :: sim.messages);
  sim

(** Run the simulation for [max_ns] nanoseconds of simulated time.  Runs
    under the firewall, as {!elaborate} does: an internal escape from the
    kernel becomes {!Compile_error} with a structured diagnostic
    ([Rt.Simulation_error], the expected user-level failure, still
    raises as itself). *)
let run t sim ~max_ns =
  Telemetry.with_span ~cat:"pipeline" "simulate" @@ fun () ->
  Timer.time t.timer "simulation" (fun () ->
      match
        Supervisor.guard ~phase:Supervisor.Simulation ~unit_name:sim.top (fun () ->
            Kernel.run sim.model.Elaborate.m_kernel ~max_time:(max_ns * Rt.ns))
      with
      | Ok outcome -> outcome
      | Error d ->
        t.diagnostics <- d :: t.diagnostics;
        raise (Compile_error [ d ]))

let kernel sim = sim.model.Elaborate.m_kernel
let name_server sim = sim.model.Elaborate.m_ns
let trace sim = sim.model.Elaborate.m_trace

(** assert/report messages so far, oldest first: (time, severity, text). *)
let messages sim = List.rev sim.messages

(** Signal-change history by hierarchical path, e.g. [":tb:Q"]. *)
let history sim path = Trace.history sim.model.Elaborate.m_trace ~path

(** Current value of a signal by path. *)
let value sim path =
  Option.map (fun s -> s.Rt.current) (Name_server.find_signal sim.model.Elaborate.m_ns path)
