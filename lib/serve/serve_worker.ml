(** The daemon's worker: every request compiles with a fresh compiler,
    behind a request-level firewall and an out-of-band watchdog.

    The worker is where "one bad request must never take the process down"
    is enforced:

    - every request runs under a deadline wired into the {!Supervisor}
      budgets (the evaluator's tick hook trips {!Supervisor.Deadline}), so
      oversized work ends as a structured [timeout] response;
    - the request firewall converts {e every} non-fatal escape — including
      [Stack_overflow] and exceptions the per-unit supervisor does not
      classify — into an [internal] response while the daemon keeps
      serving;
    - a SIGALRM watchdog covers the escapes budgets cannot: code wedged
      outside the evaluator's tick hook (an injected spin, a pathological
      loop).  When it fires, the in-flight request is answered [timeout
      wedged=1].

    A request is a function of its source and the reference libraries
    only, as a one-shot compile is: its compiler has an empty in-memory
    WORK library over freshly opened [--ref] libraries, and is dropped with
    the response.  A request interrupted at an arbitrary safepoint
    therefore leaves nothing behind for the next one.  What stays warm is
    process-global and read-only: the LALR tables, both attribute grammars
    and the evaluation plan. *)

module Tm = Vhdl_telemetry.Telemetry

let m_faults_contained = Tm.counter "serve.faults_contained"
let m_timeouts = Tm.counter "serve.timeouts"
let m_wedges = Tm.counter "serve.wedges"

type config = {
  w_default_deadline_s : float; (* when the request names none *)
  w_watchdog_grace_s : float; (* watchdog = deadline + grace *)
  w_allow_faults : bool; (* honor poison= / spin_ms= / hog_kb= request fields *)
  w_budgets : Supervisor.budgets; (* base limits under request overrides *)
  w_ref_libs : (string * string) list; (* reference libraries (name, dir) *)
}

let default_config =
  {
    w_default_deadline_s = 10.0;
    w_watchdog_grace_s = 2.0;
    w_allow_faults = false;
    w_budgets = Supervisor.no_budgets;
    w_ref_libs = [];
  }

type t = {
  cfg : config;
  mutable served : int; (* requests handled by this worker *)
  mutable last_phases : (string * float) list;
      (* per-phase self-time (seconds) of the last handled request *)
  mutable last_allocs : (string * float) list;
      (* per-phase self-allocated words of the last handled request *)
  mutable last_alloc_w : float; (* words the last request allocated *)
  mutable hog : Bytes.t list;
      (* fault injection: blocks retained by hog_kb= requests — the planted
         leak the heap-health watchdog must catch *)
}

let fresh_compiler cfg budgets =
  let c = Vhdl_compiler.create ~budgets () in
  List.iter
    (fun (name, dir) -> Vhdl_compiler.add_reference_library c ~name ~dir)
    cfg.w_ref_libs;
  c

let create cfg =
  (* load the generated tables now, so the first request is not charged
     for them *)
  Vhdl_compiler.load_generated ();
  {
    cfg;
    served = 0;
    last_phases = [];
    last_allocs = [];
    last_alloc_w = 0.0;
    hog = [];
  }

let served t = t.served
let last_phases t = t.last_phases
let last_allocs t = t.last_allocs
let last_alloc_w t = t.last_alloc_w

(* ------------------------------------------------------------------ *)
(* Watchdog: an out-of-band interval timer that breaks wedged requests.

   Budgets only fire from the evaluator's tick hook; a request wedged
   anywhere else (fault injection proves these exist) would hang the
   daemon forever.  SIGALRM is delivered at allocation safepoints, so the
   handler's exception lands inside the wedged loop.  The [armed] flag
   closes the race where the alarm fires between the protected region
   ending and the timer being cleared. *)

exception Wedged of { after_s : float }

let watchdog_armed = ref false

let with_watchdog ~seconds f =
  if seconds <= 0.0 then f ()
  else begin
    let previous =
      Sys.signal Sys.sigalrm
        (Sys.Signal_handle
           (fun _ -> if !watchdog_armed then raise (Wedged { after_s = seconds })))
    in
    watchdog_armed := true;
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_value = seconds; Unix.it_interval = 0.0 });
    Fun.protect
      ~finally:(fun () ->
        watchdog_armed := false;
        ignore
          (Unix.setitimer Unix.ITIMER_REAL
             { Unix.it_value = 0.0; Unix.it_interval = 0.0 });
        Sys.set_signal Sys.sigalrm previous)
      f
  end

(* ------------------------------------------------------------------ *)
(* Request processing *)

(* the cap on any request's deadline: a minute, or the daemon's default
   deadline when that is longer *)
let max_deadline_s = 60.0

let effective_deadline cfg (rq : Serve_protocol.request) =
  let asked = Option.value rq.Serve_protocol.rq_deadline_s ~default:cfg.w_default_deadline_s in
  Float.min (Float.max asked 0.001) (Float.max cfg.w_default_deadline_s max_deadline_s)

let request_budgets cfg (rq : Serve_protocol.request) ~deadline_s =
  {
    Supervisor.eval_fuel =
      (match rq.Serve_protocol.rq_fuel with
      | Some f -> Some f
      | None -> cfg.w_budgets.Supervisor.eval_fuel);
    elab_steps = cfg.w_budgets.Supervisor.elab_steps;
    deadline_s = Some deadline_s;
    sim_step_fuel = cfg.w_budgets.Supervisor.sim_step_fuel;
  }

let pp_diag_lines buf diags =
  List.iter
    (fun d -> Buffer.add_string buf (Format.asprintf "diag %a\n" Diag.pp d))
    diags

(* classify the request's own diagnostics into a response status *)
let status_of_diags diags : Serve_protocol.status =
  if Diag.has_budget diags then Serve_protocol.Timeout
  else if Diag.has_internal diags then Serve_protocol.Internal
  else if Diag.has_errors diags then Serve_protocol.Error_
  else Serve_protocol.Ok_

let run_compile c (rq : Serve_protocol.request) : Serve_protocol.response =
  let units =
    try Vhdl_compiler.compile ~fail_on_error:false c rq.Serve_protocol.rq_source
    with Vhdl_compiler.Compile_error _ ->
      (* nothing parsed: the diagnostics carry the reason *)
      []
  in
  let diags = Vhdl_compiler.diagnostics c in
  let buf = Buffer.create 256 in
  List.iter
    (fun u -> Buffer.add_string buf (Printf.sprintf "compiled %s\n" u.Unit_info.u_key))
    units;
  pp_diag_lines buf diags;
  List.iter
    (fun (r : Supervisor.unit_report) ->
      Buffer.add_string buf
        (Printf.sprintf "unit %s %s\n"
           (Supervisor.status_name r.Supervisor.ur_status)
           r.Supervisor.ur_name))
    (Vhdl_compiler.last_report c);
  Serve_protocol.response (status_of_diags diags) ~body:(Buffer.contents buf)

let run_simulate c (rq : Serve_protocol.request) : Serve_protocol.response =
  let compile_ok =
    if rq.Serve_protocol.rq_source = "" then true
    else
      match Vhdl_compiler.compile ~fail_on_error:false c rq.Serve_protocol.rq_source with
      | _ -> not (Diag.has_errors (Vhdl_compiler.diagnostics c))
      | exception Vhdl_compiler.Compile_error _ -> false
  in
  let buf = Buffer.create 256 in
  if not compile_ok then begin
    pp_diag_lines buf (Vhdl_compiler.diagnostics c);
    Serve_protocol.response (status_of_diags (Vhdl_compiler.diagnostics c))
      ~body:(Buffer.contents buf)
  end
  else
    match rq.Serve_protocol.rq_top with
    | None ->
      Serve_protocol.response Serve_protocol.Bad_request
        ~body:"simulate needs top=ENTITY\n"
    | Some top -> (
      match
        let sim = Vhdl_compiler.elaborate ~trace:false c ~top () in
        let outcome = Vhdl_compiler.run c sim ~max_ns:rq.Serve_protocol.rq_max_ns in
        (sim, outcome)
      with
      | sim, outcome ->
        List.iter
          (fun (time, sev, msg) ->
            Buffer.add_string buf
              (Printf.sprintf "message %s %s: %s\n" (Rt.format_time time)
                 (Kernel.severity_name sev) msg))
          (Vhdl_compiler.messages sim);
        let st = Kernel.stats (Vhdl_compiler.kernel sim) in
        Buffer.add_string buf
          (Printf.sprintf "simulated %s at %s: %d delta cycles, %d events\n"
             (match outcome with
             | Kernel.Quiescent -> "quiescent"
             | Kernel.Time_limit -> "horizon"
             | Kernel.Stopped -> "stopped"
             | Kernel.Fuel_exhausted -> "fuel-exhausted")
             (Rt.format_time (Kernel.now (Vhdl_compiler.kernel sim)))
             st.Kernel.delta_cycles st.Kernel.events);
        pp_diag_lines buf (Vhdl_compiler.diagnostics c);
        Serve_protocol.response (status_of_diags (Vhdl_compiler.diagnostics c))
          ~body:(Buffer.contents buf)
      | exception Vhdl_compiler.Compile_error ds ->
        (* elaboration ran under the supervisor firewall: budget and
           internal escapes arrive here as structured diagnostics *)
        pp_diag_lines buf ds;
        Serve_protocol.response (status_of_diags ds) ~body:(Buffer.contents buf)
      | exception Elaborate.Elaboration_error msg ->
        Buffer.add_string buf (Printf.sprintf "diag elaboration: %s\n" msg);
        Serve_protocol.response Serve_protocol.Error_ ~body:(Buffer.contents buf)
      | exception Rt.Simulation_error { time; msg } ->
        Buffer.add_string buf
          (Printf.sprintf "diag simulation error at %s: %s\n" (Rt.format_time time) msg);
        Serve_protocol.response Serve_protocol.Error_ ~body:(Buffer.contents buf))

(* the injected busy-wait: allocates so the watchdog's SIGALRM lands *)
let spin_for ms =
  let until = Vhdl_util.Unix_compat.now () +. (float_of_int ms /. 1000.0) in
  while Vhdl_util.Unix_compat.now () < until do
    ignore (Sys.opaque_identity (ref 0))
  done

let run_verb c (rq : Serve_protocol.request) : Serve_protocol.response =
  match rq.Serve_protocol.rq_verb with
  | Serve_protocol.Ping -> Serve_protocol.response Serve_protocol.Ok_ ~body:"pong\n"
  | Serve_protocol.Compile -> run_compile c rq
  | Serve_protocol.Simulate -> run_simulate c rq
  | Serve_protocol.Stats | Serve_protocol.Slo | Serve_protocol.Shutdown ->
    (* daemon-level verbs; reaching the worker is a dispatch bug upstream *)
    Serve_protocol.response Serve_protocol.Bad_request
      ~body:"verb handled by the daemon\n"

(** Handle one admitted request.  Total: always returns a response, never
    raises (fatal conditions like [Out_of_memory] excepted). *)
let handle t (rq : Serve_protocol.request) : Serve_protocol.response =
  t.served <- t.served + 1;
  let aw0 = Tm.allocated_words_now () in
  let deadline_s = effective_deadline t.cfg rq in
  let c = fresh_compiler t.cfg (request_budgets t.cfg rq ~deadline_s) in
  let fault_denied =
    (not t.cfg.w_allow_faults)
    && (rq.Serve_protocol.rq_poison <> None
       || rq.Serve_protocol.rq_spin_ms > 0
       || rq.Serve_protocol.rq_hog_kb > 0)
  in
  let resp =
    if fault_denied then
      Serve_protocol.response Serve_protocol.Bad_request
        ~body:"fault-injection fields need a daemon started with --allow-faults\n"
    else
      match
        with_watchdog ~seconds:(deadline_s +. t.cfg.w_watchdog_grace_s) (fun () ->
            if rq.Serve_protocol.rq_spin_ms > 0 then spin_for rq.Serve_protocol.rq_spin_ms;
            (* the planted leak: retain the block on the worker so the live
               heap actually grows and stays grown *)
            if rq.Serve_protocol.rq_hog_kb > 0 then
              t.hog <- Bytes.create (rq.Serve_protocol.rq_hog_kb * 1024) :: t.hog;
            match rq.Serve_protocol.rq_poison with
            | Some key -> Difftest_fault.with_poison key (fun () -> run_verb c rq)
            | None -> run_verb c rq)
      with
      | resp -> resp
      | exception Wedged { after_s } ->
        (* the watchdog broke a wedged request: its compiler goes with
           the response, so no interrupted state outlives it *)
        Tm.incr m_wedges;
        Serve_protocol.response Serve_protocol.Timeout ~wedged:true
          ~body:
            (Printf.sprintf
               "diag [budget:serve] request wedged: watchdog fired after %.3fs \
                (deadline %.3fs + grace)\n"
               after_s deadline_s)
      | exception Out_of_memory -> raise Out_of_memory
      | exception Sys.Break -> raise Sys.Break
      | exception exn ->
        (* the request-level firewall: wider than the per-unit supervisor —
           whatever escaped, the daemon answers and keeps serving *)
        Serve_protocol.response Serve_protocol.Internal
          ~body:
            (Printf.sprintf "diag [internal:serve] request firewall: %s\n"
               (Printexc.to_string exn))
  in
  t.last_phases <- Vhdl_util.Phase_timer.report (Vhdl_compiler.timer c);
  t.last_allocs <- Vhdl_util.Phase_timer.report_alloc (Vhdl_compiler.timer c);
  t.last_alloc_w <- Float.max 0.0 (Tm.allocated_words_now () -. aw0);
  (match resp.Serve_protocol.rs_status with
  | Serve_protocol.Internal -> Tm.incr m_faults_contained
  | Serve_protocol.Timeout -> Tm.incr m_timeouts
  | _ -> ());
  resp
