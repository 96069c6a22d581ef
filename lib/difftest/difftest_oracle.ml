(** The dual-evaluator differential oracle (see the .mli).

    Rendering everything to strings before comparison keeps the diffing
    dumb and the failure reports readable; a divergence's [detail] is the
    first differing line of the first differing section. *)

type side = {
  s_label : string;
  s_phase : string;
  s_rejected : string option;
  s_crash : string option;
  s_units : string list;
  s_vif : string list;
  s_diags : string list;
  s_outcome : string;
  s_trace : string list;
  s_messages : string list;
}

type verdict =
  | Agree of {
      compiled : bool;
      simulated : bool;
      units : int;
      trace_changes : int;
    }
  | Divergence of { stage : string; detail : string }
  | Crash of { side_ : string; stage : string; detail : string }

let empty_side label phase =
  {
    s_label = label;
    s_phase = phase;
    s_rejected = None;
    s_crash = None;
    s_units = [];
    s_vif = [];
    s_diags = [];
    s_outcome = "";
    s_trace = [];
    s_messages = [];
  }

let render_diags diags =
  List.map (fun d -> Format.asprintf "%a" Diag.pp d) diags

let render_outcome = function
  | Kernel.Quiescent -> "quiescent"
  | Kernel.Time_limit -> "time-limit"
  | Kernel.Stopped -> "stopped"
  | Kernel.Fuel_exhausted -> "fuel-exhausted"

let render_change (c : Trace.change) =
  Printf.sprintf "%s %s = %a" (Rt.format_time c.Trace.c_time) c.Trace.c_path
    (fun () -> Format.asprintf "%a" Value.pp)
    c.Trace.c_value

let render_message (t, sev, msg) =
  Printf.sprintf "%s [%d] %s" (Rt.format_time t) sev msg

let label_of = function
  | Vhdl_compiler.Demand -> "demand"
  | Vhdl_compiler.Staged -> "staged"

(* Dynamic semantic errors (constraint violations, division by zero at
   simulation time) are legitimate VHDL behavior, deterministic, and must
   simply agree between the sides; evaluator escapes and internal errors
   are crashes the fuzzer exists to catch. *)
let classify_exn = function
  | Evaluator.Cycle { prod_name; attr_name } ->
    `Crash (Printf.sprintf "Evaluator.Cycle in %s.%s" prod_name attr_name)
  | Evaluator.Missing_rule { prod_name; attr_name; pos } ->
    `Crash
      (Printf.sprintf "Evaluator.Missing_rule %s.%s@%d" prod_name attr_name pos)
  | Pval.Internal msg -> `Crash (Printf.sprintf "Pval.Internal %s" msg)
  | Elaborate.Elaboration_error msg -> `Reject (Printf.sprintf "elaboration: %s" msg)
  | Rt.Simulation_error { time; msg } ->
    `Runtime (Printf.sprintf "simulation error at %s: %s" (Rt.format_time time) msg)
  | Stack_overflow -> `Crash "Stack_overflow"
  | e -> `Crash (Printexc.to_string e)

(* An [Internal]-origin diagnostic is a compiler defect the firewall
   contained — still a finding for the fuzzer, exactly like the raw escape
   it used to be.  [Budget]-origin diagnostics are expected behavior under
   a budget campaign and never count as crashes. *)
let internal_crash diags =
  match List.filter Diag.is_internal diags with
  | [] -> None
  | ds -> Some ("contained: " ^ String.concat "\n" (render_diags ds))

let run_side ~strategy ?(inject_fault = false) ~max_ns ~top source =
  let label = label_of strategy in
  let fault = inject_fault && strategy = Vhdl_compiler.Staged in
  Difftest_fault.with_active fault (fun () ->
      let c = Vhdl_compiler.create ~strategy () in
      let side = empty_side label "compile" in
      match Vhdl_compiler.compile c source with
      | exception Vhdl_compiler.Compile_error diags -> (
        match internal_crash diags with
        | Some d -> { side with s_crash = Some d }
        | None ->
          { side with s_rejected = Some (String.concat "\n" (render_diags diags)) })
      | exception e -> (
        match classify_exn e with
        | `Crash d -> { side with s_crash = Some d }
        | `Reject d | `Runtime d -> { side with s_rejected = Some d })
      | _ when internal_crash (Vhdl_compiler.diagnostics c) <> None ->
        { side with s_crash = internal_crash (Vhdl_compiler.diagnostics c) }
      | units -> (
        let keys = List.map (fun (u : Unit_info.compiled_unit) -> u.Unit_info.u_key) units in
        let vif =
          List.map
            (fun key ->
              match Library.dump (Vhdl_compiler.work_library c) ~library:"WORK" ~key with
              | Some text -> key ^ "\n" ^ text
              | None -> key ^ "\n<no VIF>")
            keys
        in
        let side =
          {
            side with
            s_units = keys;
            s_vif = vif;
            s_diags = render_diags (Vhdl_compiler.diagnostics c);
          }
        in
        match top with
        | None -> { side with s_phase = "done" }
        | Some top -> (
          let side = { side with s_phase = "elaborate" } in
          match Vhdl_compiler.elaborate c ~top () with
          | exception Vhdl_compiler.Compile_error diags -> (
            match internal_crash diags with
            | Some d -> { side with s_crash = Some d }
            | None ->
              { side with s_rejected = Some (String.concat "\n" (render_diags diags)) })
          | exception e -> (
            match classify_exn e with
            | `Crash d -> { side with s_crash = Some d }
            | `Reject d | `Runtime d -> { side with s_rejected = Some d })
          | sim -> (
            let side = { side with s_phase = "simulate" } in
            let finish side =
              {
                side with
                s_trace = List.map render_change (Trace.changes (Vhdl_compiler.trace sim));
                s_messages = List.map render_message (Vhdl_compiler.messages sim);
              }
            in
            match Vhdl_compiler.run c sim ~max_ns with
            | exception e -> (
              match classify_exn e with
              | `Crash d -> finish { side with s_crash = Some d }
              | `Reject d | `Runtime d ->
                finish { side with s_outcome = "error: " ^ d; s_phase = "done" })
            | outcome ->
              finish
                { side with s_outcome = render_outcome outcome; s_phase = "done" }))))

(* ------------------------------------------------------------------ *)
(* Comparison *)

let first_diff xs ys =
  let rec go i xs ys =
    match (xs, ys) with
    | [], [] -> None
    | x :: _, [] -> Some (Printf.sprintf "#%d only on demand side: %s" i x)
    | [], y :: _ -> Some (Printf.sprintf "#%d only on staged side: %s" i y)
    | x :: xs, y :: ys ->
      if String.equal x y then go (i + 1) xs ys
      else Some (Printf.sprintf "#%d demand: %s | staged: %s" i x y)
  in
  go 0 xs ys

let compare_sides (a : side) (b : side) =
  match (a.s_crash, b.s_crash) with
  | Some d, _ -> Crash { side_ = a.s_label; stage = a.s_phase; detail = d }
  | None, Some d -> Crash { side_ = b.s_label; stage = b.s_phase; detail = d }
  | None, None -> (
    match (a.s_rejected, b.s_rejected) with
    | Some da, Some db ->
      if String.equal da db then
        Agree { compiled = false; simulated = false; units = 0; trace_changes = 0 }
      else
        Divergence
          {
            stage = "diagnostics";
            detail = Printf.sprintf "demand: %s | staged: %s" da db;
          }
    | Some da, None ->
      Divergence
        { stage = a.s_phase; detail = "only demand side rejected: " ^ da }
    | None, Some db ->
      Divergence
        { stage = b.s_phase; detail = "only staged side rejected: " ^ db }
    | None, None -> (
      let sections =
        [
          ("units", a.s_units, b.s_units);
          ("vif", a.s_vif, b.s_vif);
          ("diagnostics", a.s_diags, b.s_diags);
          ("outcome", [ a.s_outcome ], [ b.s_outcome ]);
          ("trace", a.s_trace, b.s_trace);
          ("messages", a.s_messages, b.s_messages);
        ]
      in
      let rec scan = function
        | [] ->
          Agree
            {
              compiled = true;
              simulated = a.s_phase = "done" && a.s_outcome <> "";
              units = List.length a.s_units;
              trace_changes = List.length a.s_trace;
            }
        | (stage, xs, ys) :: rest -> (
          match first_diff xs ys with
          | None -> scan rest
          | Some detail -> Divergence { stage; detail })
      in
      scan sections))

let check_source ?(inject_fault = false) ?(max_ns = 50) ~top source =
  let demand =
    run_side ~strategy:Vhdl_compiler.Demand ~inject_fault ~max_ns ~top source
  in
  let staged =
    run_side ~strategy:Vhdl_compiler.Staged ~inject_fault ~max_ns ~top source
  in
  compare_sides demand staged

let check ?(inject_fault = false) (d : Difftest_gen.design) =
  check_source ~inject_fault ~max_ns:d.Difftest_gen.d_max_ns ~top:d.Difftest_gen.d_top
    d.Difftest_gen.d_source

(* ------------------------------------------------------------------ *)
(* Containment checking (budget campaigns) *)

(* Under resource budgets the demand and staged strategies legitimately
   disagree (staged applies more rules before the fuel dies), so the
   dual-evaluator comparison is invalid; instead a single side is held to
   the containment contract: every phase either succeeds, rejects with
   diagnostics, or reports a budget exhaustion — a raw exception escape or
   an internal-error diagnostic is the finding. *)
let check_contained ?(budgets = Supervisor.no_budgets) ?(max_ns = 50) ~top source =
  let c = Vhdl_compiler.create ~budgets () in
  let agree ~compiled ~simulated ~units =
    Agree { compiled; simulated; units; trace_changes = 0 }
  in
  let crash ~stage d = Crash { side_ = "contained"; stage; detail = d } in
  match Vhdl_compiler.compile c source with
  | exception Vhdl_compiler.Compile_error diags -> (
    match internal_crash diags with
    | Some d -> crash ~stage:"compile" d
    | None -> agree ~compiled:false ~simulated:false ~units:0)
  | exception e -> (
    match classify_exn e with
    | `Crash d -> crash ~stage:"compile" d
    | `Reject _ | `Runtime _ -> agree ~compiled:false ~simulated:false ~units:0)
  | units -> (
    let n = List.length units in
    match internal_crash (Vhdl_compiler.diagnostics c) with
    | Some d -> crash ~stage:"compile" d
    | None -> (
      match top with
      | None -> agree ~compiled:true ~simulated:false ~units:n
      | Some top -> (
        match Vhdl_compiler.elaborate c ~top () with
        | exception Vhdl_compiler.Compile_error diags -> (
          match internal_crash diags with
          | Some d -> crash ~stage:"elaborate" d
          | None -> agree ~compiled:true ~simulated:false ~units:n)
        | exception e -> (
          match classify_exn e with
          | `Crash d -> crash ~stage:"elaborate" d
          | `Reject _ | `Runtime _ -> agree ~compiled:true ~simulated:false ~units:n)
        | sim -> (
          match Vhdl_compiler.run c sim ~max_ns with
          | exception e -> (
            match classify_exn e with
            | `Crash d -> crash ~stage:"simulate" d
            | `Reject _ | `Runtime _ -> agree ~compiled:true ~simulated:true ~units:n)
          | _outcome -> agree ~compiled:true ~simulated:true ~units:n))))

let same_class v1 v2 =
  match (v1, v2) with
  | Agree _, Agree _ -> true
  | Divergence { stage = s1; _ }, Divergence { stage = s2; _ } -> String.equal s1 s2
  | Crash _, Crash _ -> true
  | _ -> false

let describe = function
  | Agree { compiled; simulated; units; trace_changes } ->
    if not compiled then "agree (rejected by both)"
    else
      Printf.sprintf "agree (%d units%s%s)" units
        (if simulated then ", simulated" else "")
        (if trace_changes > 0 then Printf.sprintf ", %d trace changes" trace_changes
         else "")
  | Divergence { stage; detail } -> Printf.sprintf "DIVERGENCE at %s: %s" stage detail
  | Crash { side_; stage; detail } ->
    Printf.sprintf "CRASH on %s side at %s: %s" side_ stage detail
