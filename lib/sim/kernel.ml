(** The simulation kernel: IEEE 1076 simulation-cycle semantics.

    Event-driven scheduler with delta cycles: advance time to the next
    transaction or timeout, update signals (resolve drivers, detect events),
    resume processes whose wait conditions are met, repeat until quiescent
    at the current time, then advance again.  Processes that wait mid-body
    are OCaml-5 effect fibers suspended on {!Rt.Wait}.  A cycle touches only
    what is due: transactions and timeouts wait in time-ordered heaps, and
    each signal lists the processes waiting on it. *)

module Tm = Vhdl_telemetry.Telemetry

let m_delta_cycles = Tm.counter "sim.delta_cycles"
let m_time_steps = Tm.counter "sim.time_steps"
let m_events = Tm.counter "sim.events"
let m_transactions = Tm.counter "sim.transactions"
let m_process_runs = Tm.counter "sim.process_runs"
let m_messages = Tm.counter "sim.messages"
let m_exec_ns = Tm.counter "sim.exec_ns"

type severity_counts = {
  mutable notes : int;
  mutable warnings : int;
  mutable errors : int;
  mutable failures : int;
}

type stats = {
  mutable delta_cycles : int;
  mutable time_steps : int;
  mutable events : int;
  mutable transactions : int;
  mutable process_runs : int;
  severities : severity_counts;
}

type t = {
  mutable now : Rt.time;
  mutable next_proc_id : int;
  drivers : Rt.driver Heap.t; (* by earliest pending transaction *)
  timeouts : Rt.proc Heap.t; (* waiting processes by wake time *)
  ready : Rt.proc Heap.t; (* to run this delta, by process id *)
  touched : Rt.signal Heap.t; (* to update this cycle, by signal id *)
  mutable updated : Rt.signal list; (* updated in the last cycle *)
  stats : stats;
  mutable on_message : Rt.time -> severity:int -> string -> unit;
  mutable step_fuel : int option; (* process resumptions per instant *)
  mutable steps_this_instant : int;
  mutable sample_draw : int; (* xorshift state of the sim.exec_ns sample *)
}

exception Failure_severity of { time : Rt.time; msg : string }

let severity_name = function
  | 0 -> "note"
  | 1 -> "warning"
  | 2 -> "error"
  | _ -> "failure"

(* delta cycles per simulated instant before a combinational loop is reported *)
let delta_limit = 5000

let create () =
  {
    now = 0;
    next_proc_id = 0;
    drivers = Heap.create ();
    timeouts = Heap.create ();
    ready = Heap.create ();
    touched = Heap.create ();
    updated = [];
    stats =
      { delta_cycles = 0; time_steps = 0; events = 0; transactions = 0; process_runs = 0;
        severities = { notes = 0; warnings = 0; errors = 0; failures = 0 } };
    on_message =
      (fun time ~severity msg ->
        Printf.eprintf "%s: %s: %s\n%!" (Rt.format_time time) (severity_name severity) msg);
    step_fuel = None;
    steps_this_instant = 0;
    sample_draw = 0x2545F491;
  }

let set_step_fuel k fuel = k.step_fuel <- fuel

let now k = k.now
let stats k = k.stats

let set_message_handler k f = k.on_message <- f

(* a driver whose earliest transaction changed is queued under its new time;
   entries it left behind are dropped when they surface *)
let register_signal k (s : Rt.signal) =
  s.Rt.sig_enqueue <- (fun d -> Heap.push k.drivers (Rt.head_time d) d)

(** Record an assertion/report message; FAILURE stops the simulation. *)
let emit k ~severity ~line:_ msg =
  (match severity with
  | 0 -> k.stats.severities.notes <- k.stats.severities.notes + 1
  | 1 -> k.stats.severities.warnings <- k.stats.severities.warnings + 1
  | 2 -> k.stats.severities.errors <- k.stats.severities.errors + 1
  | _ -> k.stats.severities.failures <- k.stats.severities.failures + 1);
  k.on_message k.now ~severity msg;
  if severity >= 3 then raise (Failure_severity { time = k.now; msg })

(* move [p] onto the fanout lists of [signals]; a process that waits on the
   same signals again (every sensitivity list) keeps its entries *)
let watch (p : Rt.proc) signals =
  if signals != p.Rt.wake_signals && not (List.equal ( == ) signals p.Rt.wake_signals) then begin
    List.iter
      (fun s -> s.Rt.watchers <- List.filter (fun q -> q != p) s.Rt.watchers)
      p.Rt.wake_signals;
    List.iter (fun s -> s.Rt.watchers <- p :: s.Rt.watchers) signals;
    p.Rt.wake_signals <- signals
  end

let make_ready k (p : Rt.proc) =
  p.Rt.proc_state <- Rt.Ready;
  Heap.push k.ready p.Rt.proc_id p

type body =
  | Body of (unit -> unit)
  | Until_wait of (unit -> Rt.wait_req)

(** Register a process (LRM 9.2; see the interface).  A body that cannot
    suspend runs once if it has no sensitivity list and as a plain call per
    resumption if it has one, as does a body whose only wait ends it; every
    other process is an effect fiber. *)
let add_process k ~name ~(sensitivity : Rt.signal list) ~has_wait ~(body : Rt.proc -> body) =
  k.next_proc_id <- k.next_proc_id + 1;
  let proc =
    { Rt.proc_id = k.next_proc_id - 1; proc_name = name; proc_state = Rt.Ready;
      resume = ignore; wake_signals = []; wake_until = None; wake_at = None }
  in
  let suspend_on (req : Rt.wait_req) =
    watch proc req.Rt.wr_on;
    proc.Rt.wake_until <- req.Rt.wr_until;
    proc.Rt.wake_at <- req.Rt.wr_for;
    (match req.Rt.wr_for with Some t -> Heap.push k.timeouts t proc | None -> ());
    proc.Rt.proc_state <- Rt.Waiting
  in
  let open Effect.Deep in
  let fiber body () =
    if sensitivity = [] && not has_wait then body ()
    else begin
      let implicit = Rt.Wait { Rt.wr_on = sensitivity; wr_until = None; wr_for = None } in
      while true do
        body ();
        if sensitivity <> [] then Effect.perform implicit
      done
    end
  in
  (* the wait conditions are recorded before the continuation is captured,
     so suspending allocates no per-wait handler *)
  let suspend = Some (fun (cont : (unit, unit) continuation) ->
      proc.Rt.resume <- (fun () -> continue cont ()))
  in
  let handler =
    {
      retc = (fun () -> watch proc []; proc.Rt.proc_state <- Rt.Terminated);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Rt.Wait req ->
            suspend_on req;
            suspend
          | _ -> None);
    }
  in
  proc.Rt.resume <-
    (match body proc with
    | Until_wait body -> fun () -> suspend_on (body ())
    | Body body when sensitivity <> [] && not has_wait -> fun () -> body (); watch proc sensitivity
    | Body body -> fun () -> match_with (fiber body) () handler);
  make_ready k proc;
  proc

(* While tracing, sim.exec_ns estimates the time spent inside process
   bodies (the rest of the sim layer's time is scheduling).  Two clock
   reads cost as much as the body of a small process, so one run in
   [exec_stride], on average, is timed and its time counted [exec_stride]
   times.  A xorshift draw picks the runs: a fixed stride could lock onto
   one process of a fixed per-delta order. *)
let exec_stride = 8

let sample_this_run k =
  let x = k.sample_draw in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  k.sample_draw <- x;
  (x lsr 24) land (exec_stride - 1) = 0

(* run the ready processes in registration order, which fixes the order of
   their messages and of the drivers they create *)
let run_ready k =
  let traced = Tm.tracing () in
  while Heap.min_key k.ready < max_int do
    let p = Heap.top k.ready in
    Heap.pop k.ready;
    k.steps_this_instant <- k.steps_this_instant + 1;
    p.Rt.proc_state <- Rt.Waiting;
    p.Rt.wake_until <- None;
    p.Rt.wake_at <- None;
    k.stats.process_runs <- k.stats.process_runs + 1;
    if traced && sample_this_run k then begin
      let t0 = Tm.now_ns () in
      p.Rt.resume ();
      Tm.add m_exec_ns (exec_stride * (Tm.now_ns () - t0))
    end
    else p.Rt.resume ()
  done

(* queue entries left behind by a rescheduled driver or an earlier wait *)
let live_driver t (d : Rt.driver) = Rt.head_time d = t

let live_timeout t (p : Rt.proc) =
  p.Rt.proc_state = Rt.Waiting
  && match p.Rt.wake_at with Some w -> w = t | None -> false

let rec earliest q live =
  let t = Heap.min_key q in
  if t = max_int || live t (Heap.top q) then t
  else begin
    Heap.pop q;
    earliest q live
  end

(* earliest point of interest: a driver transaction or a process timeout *)
let next_event_time k =
  let t = earliest k.drivers live_driver in
  let t' = earliest k.timeouts live_timeout in
  if t < t' then t else t'

let rec mature k (d : Rt.driver) =
  match d.Rt.drv_wave with
  | (t, v) :: rest when t <= k.now ->
    (match v with
    | Some v -> d.Rt.drv_value <- v; d.Rt.drv_connected <- true
    | None -> d.Rt.drv_connected <- false);
    d.Rt.drv_wave <- rest;
    k.stats.transactions <- k.stats.transactions + 1;
    mature k d
  | [] -> ()
  | (t, _) :: _ -> Heap.push k.drivers t d

(* mature every transaction due now, collecting the signals it touches *)
let apply_transactions k =
  while Heap.min_key k.drivers <= k.now do
    let d = Heap.top k.drivers in
    Heap.pop k.drivers;
    if Rt.head_time d <= k.now then begin
      mature k d;
      let s = d.Rt.drv_signal in
      if not s.Rt.active then begin
        s.Rt.active <- true;
        Heap.push k.touched s.Rt.sig_id s
      end
    end
  done

let rec update_touched k acc =
  if Heap.min_key k.touched = max_int then acc
  else begin
    let s = Heap.top k.touched in
    Heap.pop k.touched;
    if Rt.update_signal ~now:k.now s then k.stats.events <- k.stats.events + 1;
    update_touched k (s :: acc)
  end

let rec wake k = function
  | [] -> ()
  | (p : Rt.proc) :: rest ->
    (if p.Rt.proc_state = Rt.Waiting then
       match p.Rt.wake_until with
       | None -> make_ready k p
       | Some f -> if (try f () with _ -> false) then make_ready k p);
    wake k rest

(* resolve the touched signals in registration order, then wake the
   processes waiting on those with an event (their conditions see every
   new value) and those whose timeout is now *)
let update_and_wake k =
  k.updated <- update_touched k [];
  List.iter (fun (s : Rt.signal) -> if s.Rt.event then wake k s.Rt.watchers) k.updated;
  while Heap.min_key k.timeouts <= k.now do
    let p = Heap.top k.timeouts in
    Heap.pop k.timeouts;
    if live_timeout k.now p then make_ready k p
  done

type outcome =
  | Quiescent (* no more events scheduled *)
  | Time_limit (* reached max_time *)
  | Stopped (* a FAILURE assertion *)
  | Fuel_exhausted (* the per-instant process-step fuel ran out *)

(* the sim.* counters hear of a run's work once, when it returns *)
let exporting_stats k f =
  let counts () =
    let st = k.stats and sv = k.stats.severities in
    [ (m_delta_cycles, st.delta_cycles); (m_time_steps, st.time_steps); (m_events, st.events);
      (m_transactions, st.transactions); (m_process_runs, st.process_runs);
      (m_messages, sv.notes + sv.warnings + sv.errors + sv.failures) ]
  in
  let before = counts () in
  Fun.protect f ~finally:(fun () ->
      List.iter2 (fun (m, n0) (_, n) -> Tm.add m (n - n0)) before (counts ()))

(** Run the simulation until [max_time] (inclusive).  The initialization
    phase runs every process once, then the cycle loop proceeds. *)
let run k ~max_time =
  exporting_stats k @@ fun () ->
  let rec cycle deltas_here =
    let t = next_event_time k in
    if t = max_int then Quiescent
    else if t > max_time then begin
      k.now <- max_time;
      Time_limit
    end
    else begin
      let deltas_here = if t = k.now then deltas_here + 1 else 0 in
      if t = k.now then begin
        k.stats.delta_cycles <- k.stats.delta_cycles + 1;
        if deltas_here > delta_limit then
          Rt.sim_error ~time:k.now "delta-cycle limit exceeded (combinational loop?)"
      end
      else begin
        k.steps_this_instant <- 0;
        k.stats.time_steps <- k.stats.time_steps + 1;
        k.now <- t
      end;
      List.iter
        (fun (s : Rt.signal) ->
          s.Rt.active <- false;
          s.Rt.event <- false)
        k.updated;
      apply_transactions k;
      update_and_wake k;
      run_ready k;
      match k.step_fuel with
      | Some fuel when k.steps_this_instant > fuel -> Fuel_exhausted
      | _ -> cycle deltas_here
    end
  in
  (* initialization: every process executes until its first wait, then
     the cycle loop handles what it scheduled at time 0.  A dynamic error
     in a process body or a resolution function is the design's: it stops
     the run as a simulation error at the current time. *)
  try
    run_ready k;
    cycle 0
  with
  | Failure_severity _ -> Stopped
  | Value_ops.Runtime_error msg -> Rt.sim_error ~time:k.now "%s" msg
