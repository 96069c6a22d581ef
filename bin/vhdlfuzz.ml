(* vhdlfuzz — the differential fuzzing harness.

   Random VHDL designs are compiled twice (demand-driven vs staged
   attribute evaluation), elaborated, and simulated; any divergence in
   units, VIF, diagnostics, traces, or messages — or any evaluator escape —
   is delta-debugged down to a small reproducer.

     vhdlfuzz --smoke                          # fixed seeds, CI-sized
     vhdlfuzz --soak --seed 1234 --count 5000  # open-ended campaign
     vhdlfuzz --replay test/corpus/foo.vhd     # re-check one reproducer
     vhdlfuzz --smoke --inject-fault           # prove the oracle catches bugs *)

open Cmdliner
module Telemetry = Vhdl_telemetry.Telemetry
module Json = Telemetry.Json

(* headline telemetry counters accumulated over the whole campaign — how
   much work the pipeline actually did across every seed *)
let pp_campaign_telemetry fmt () =
  let c = Telemetry.counter_value in
  Telemetry.sample_gc ();
  Format.fprintf fmt
    "telemetry: %d tokens, %d attrs evaluated (%d memo hits), %d cascade \
     evaluations, %d resyncs, %d delta cycles, %d events, %.1f MW peak heap"
    (c "lexer.tokens") (c "ag.attrs_evaluated") (c "ag.memo_hits")
    (c "cascade.evaluations") (c "lalr.resyncs") (c "sim.delta_cycles")
    (c "sim.events")
    (Telemetry.gauge_value (Telemetry.gauge "gc.top_heap_words") /. 1e6)

(* Observability invariants checked over the chaos daemon's event log
   after the campaign drains:

   - the log is well-formed (the [Obs_event.check_log] grammar: monotone
     accept ids, every event names an accepted request, exactly one
     start per substantive response with balanced finishes);
   - every firewall trip (a [finish] with status [internal]) and every
     watchdog fire (a [finish] flagged wedged) produced a flight dump
     event naming the offending request id;
   - every dump event names a file of the one dump schema: it exists, is
     named after its rid, and carries the event's [reason] and [rid] and
     the recorded [events];
   - every [finish] carries a phase breakdown ([ph_*] fields) summing
     to within 10% of its [service_us] (the sum itself is checked by
     [Obs_event.check_log]; presence is checked here), and an allocation
     breakdown ([al_*] fields + [alloc_b], whose sum invariant
     [Obs_event.check_log] also enforces);
   - every [heap_breach] event left a flight dump with reason ["heap"];
   - at least one slow shot produced an exemplar dump whose embedded
     Chrome trace loads as a JSON array;
   - the number of dump files on disk never exceeds the retention cap;
   - the rolling SLO window's p99 agrees with the process-lifetime
     telemetry histogram within 20% (same bucketing, window spans the
     whole campaign), and [Obs_analyze] reproduces it offline within
     the same bound. *)
let check_chaos_obs ~events_path ~obs_dir ~max_dumps ~slo_p99_us ~hist_p99_us =
  let violations = ref [] in
  let notes = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (match Obs_event.read_log events_path with
  | Error msg -> violation "event log unreadable: %s" msg
  | Ok (events, warnings) ->
    List.iter (fun w -> notes := ("serve-chaos: " ^ w) :: !notes) warnings;
    List.iter (fun e -> violation "event log: %s" e) (Obs_event.check_log events);
    let finishes_with pred =
      List.filter
        (fun (e : Obs_event.t) -> e.Obs_event.e_kind = Obs_event.Finish && pred e)
        events
    in
    let dumps reason =
      List.filter
        (fun (e : Obs_event.t) ->
          e.Obs_event.e_kind = Obs_event.Dump
          && Obs_event.field_str e "reason" = Some reason)
        events
    in
    let check_dumped ~what ~reason culprits =
      let dump_rids =
        List.filter_map (fun (e : Obs_event.t) -> e.Obs_event.e_rid) (dumps reason)
      in
      List.iter
        (fun (e : Obs_event.t) ->
          match e.Obs_event.e_rid with
          | None -> violation "%s finish without a rid" what
          | Some rid ->
            if not (List.mem rid dump_rids) then
              violation "%s on rid %d left no %s flight dump" what rid reason)
        culprits
    in
    check_dumped ~what:"firewall trip" ~reason:"firewall"
      (finishes_with (fun e -> Obs_event.field_str e "status" = Some "internal"));
    check_dumped ~what:"watchdog fire" ~reason:"watchdog"
      (finishes_with (fun e -> Obs_event.field e "wedged" <> None));
    let contains s sub =
      let n = String.length sub in
      let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    List.iter
      (fun (e : Obs_event.t) ->
        match Obs_event.field_str e "path" with
        | None -> violation "dump event without a path field"
        | Some path -> (
          let reason = Obs_event.field_str e "reason" in
          (match e.Obs_event.e_rid with
          | Some r when not (contains (Filename.basename path) (Printf.sprintf "-rid%d-" r)) ->
            violation "dump for rid %d not named after it: %s" r path
          | _ -> ());
          match Json.parse (Vhdl_util.Unix_compat.read_file path) with
          | exception Sys_error _ -> violation "dump event names a missing file %s" path
          | Error msg -> violation "dump %s unparseable: %s" path msg
          | Ok doc ->
            if
              Option.bind (Json.mem "reason" doc) Json.to_str <> reason
              || Option.bind (Json.mem "rid" doc) Json.to_int <> e.Obs_event.e_rid
            then violation "dump %s: reason or rid disagrees with its dump event" path;
            (match Json.mem "events" doc with
            | Some (Json.Arr _) -> ()
            | _ -> violation "dump %s: no recorded events" path);
            if reason = Some "exemplar" then
              match Json.mem "trace" doc with
              | Some (Json.Arr _) -> ()
              | _ -> violation "exemplar %s: no loadable Chrome trace array" path))
      (List.filter (fun (e : Obs_event.t) -> e.Obs_event.e_kind = Obs_event.Dump) events);
    (* tail triage: every finish explains its latency phase by phase *)
    List.iter
      (fun (e : Obs_event.t) ->
        let rid = Option.value e.Obs_event.e_rid ~default:(-1) in
        if Obs_event.phase_fields e = [] then
          violation "finish rid %d carries no phase attribution" rid;
        if Obs_event.field_num e "service_us" = None then
          violation "finish rid %d carries no service_us" rid;
        if Obs_event.field_num e "alloc_b" = None then
          violation "finish rid %d carries no alloc_b" rid)
      (finishes_with (fun _ -> true));
    (* heap watchdog: every breach dumped the flight recorder *)
    let heap_breach_count =
      List.length
        (List.filter
           (fun (e : Obs_event.t) -> e.Obs_event.e_kind = Obs_event.Heap_breach)
           events)
    in
    let heap_dumps = List.length (dumps "heap") in
    if heap_dumps < heap_breach_count then
      violation "%d heap_breach event(s) but only %d heap flight dump(s)"
        heap_breach_count heap_dumps;
    (* slow shots leave exemplars (their files are checked above) *)
    (match dumps "exemplar" with
    | [] ->
      violation
        "no slow shot produced an exemplar dump (wedge shots should clear \
         the adaptive threshold)"
    | exemplars ->
      notes :=
        Printf.sprintf "serve-chaos: %d exemplar dump(s), traces load"
          (List.length exemplars)
        :: !notes);
    (* retention: dump files on disk never exceed the cap *)
    let dump_files =
      try
        Array.to_list (Sys.readdir obs_dir)
        |> List.filter (fun f ->
               Filename.check_suffix f ".json" && String.starts_with ~prefix:"flight-" f)
      with Sys_error _ -> []
    in
    if max_dumps > 0 && List.length dump_files > max_dumps then
      violation "%d dump files on disk exceed the --max-dumps cap %d"
        (List.length dump_files) max_dumps;
    (* offline analytics agree with the live window *)
    (match slo_p99_us with
    | Some slo when slo > 0.0 ->
      let offline =
        (Obs_analyze.analyze events).Obs_analyze.a_summary.Obs_slo.s_p99_us
      in
      let drift = abs_float (offline -. slo) /. slo in
      if drift > 0.20 then
        violation "analyze p99 %.0fus disagrees with live slo p99 %.0fus (%.0f%%)"
          offline slo (100.0 *. drift)
      else
        notes :=
          Printf.sprintf
            "serve-chaos: analyze p99 %.0fus vs live slo p99 %.0fus (%.1f%% apart)"
            offline slo (100.0 *. drift)
          :: !notes
    | _ -> ());
    let count k = List.length (List.filter (fun (e : Obs_event.t) -> e.Obs_event.e_kind = k) events) in
    notes :=
      Printf.sprintf
        "serve-chaos: event log OK — %d events (%d accepts, %d start/finish \
         pairs, %d sheds, %d dumps)"
        (List.length events) (count Obs_event.Accept) (count Obs_event.Finish)
        (count Obs_event.Shed) (count Obs_event.Dump)
      :: !notes);
  (match (slo_p99_us, hist_p99_us) with
  | Some slo, Some hist ->
    let drift = if hist = 0.0 then 0.0 else abs_float (slo -. hist) /. hist in
    if drift > 0.20 then
      violation "slo window p99 %.0fus disagrees with histogram p99 %.0fus (%.0f%%)"
        slo hist (100.0 *. drift)
    else
      notes :=
        Printf.sprintf
          "serve-chaos: slo window p99 %.0fus vs histogram p99 %.0fus (%.1f%% apart)"
          slo hist (100.0 *. drift)
        :: !notes
  | _ -> violation "could not compare slo p99 against the telemetry histogram");
  (List.rev !notes, List.rev !violations)

(* The serve chaos campaign: fork a daemon child with fault injection
   allowed and a deliberately small queue, fire hundreds of randomized
   healthy/faulty requests at it, then check the zero-deaths invariant —
   every shot resolved as the fault site predicts, the daemon's ledger
   balances, it still answers pings, and it drains to a clean exit.
   The child also keeps a structured event log and flight recorder,
   checked post-mortem by {!check_chaos_obs}. *)
let run_serve_chaos ~seed ~shots ~quiet =
  let log = if quiet then fun _ -> () else fun s -> print_endline s in
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vhdl-chaos-%d.sock" (Unix.getpid ()))
  in
  let obs_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vhdl-chaos-%d.obs" (Unix.getpid ()))
  in
  Vhdl_util.Unix_compat.mkdir_p obs_dir;
  let events_path = Filename.concat obs_dir "events.jsonl" in
  let daemon_cfg =
    {
      Serve_daemon.default_config with
      Serve_daemon.d_socket = socket;
      d_queue_capacity = 4 (* smaller than the campaign's burst width *);
      d_idle_timeout_s = 0.5;
      d_worker =
        {
          Serve_worker.default_config with
          Serve_worker.w_allow_faults = true;
          w_watchdog_grace_s = 0.3;
        };
      d_obs =
        {
          Obs_log.o_events_out = Some events_path;
          o_ring_events = 512;
          o_ring_requests = 64;
          o_flight_dir = obs_dir;
          (* generous cap: the per-fault dump-coverage checks need every
             flight dump to still exist; the count-vs-cap invariant is
             still asserted post-mortem (prune mechanics get a tight cap
             in the unit battery) *)
          o_max_dumps = 128;
          o_exemplar_min_gap_s = 0.5;
        };
      (* one window spanning the whole campaign, so the windowed p99 is
         comparable against the process-lifetime histogram *)
      d_slo_window_s = 3600.0;
      (* armed so the post-campaign planted hog has something to trip *)
      d_heap_growth_pct = 25.0;
    }
  in
  match Unix.fork () with
  | 0 ->
    (* child: the daemon under test *)
    Telemetry.reset ();
    Stdlib.exit
      (match Serve_daemon.create daemon_cfg with
      | Ok d ->
        Serve_daemon.serve d;
        0
      | Error msg ->
        prerr_endline ("serve-chaos: " ^ msg);
        1)
  | pid -> (
    let kill_daemon () =
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    in
    match Serve_client.wait_ready ~socket () with
    | Error msg ->
      kill_daemon ();
      Printf.eprintf "serve-chaos: %s\n" msg;
      1
    | Ok () ->
      log (Printf.sprintf "serve-chaos: daemon pid %d on %s; firing %d shots" pid
             socket shots);
      let s = Serve_chaos.run ~seed ~shots ~socket () in
      if not quiet then List.iter print_endline s.Serve_chaos.log;
      Format.printf "%a@?" Serve_chaos.pp_summary s;
      (* live SLO window and lifetime histogram, straight from the daemon *)
      let json_num rq path =
        match Serve_client.roundtrip ~timeout_s:10.0 ~socket rq with
        | Error _ -> None
        | Ok resp -> (
          match Json.parse (String.trim resp.Serve_protocol.rs_body) with
          | Error _ -> None
          | Ok doc -> Option.bind (Json.path path doc) Json.to_num)
      in
      let slo_p99_us =
        json_num (Serve_protocol.request ~json:true Serve_protocol.Slo)
          [ "slo"; "p99_us" ]
      in
      let hist_p99_us =
        json_num (Serve_protocol.request ~json:true Serve_protocol.Stats)
          [ "latency_us"; "p99" ]
      in
      (* planted hog: one request retains 64 MB on the worker; the heap
         watchdog must notice the step and — being edge-triggered — fire
         exactly one heap_breach for the whole episode *)
      let heap_breaches () =
        match
          json_num (Serve_protocol.request ~json:true Serve_protocol.Stats)
            [ "ledger"; "serve.heap_breaches" ]
        with
        | Some n -> int_of_float n
        | None -> -1
      in
      let hog_violation =
        let before = heap_breaches () in
        match
          Serve_client.roundtrip ~timeout_s:10.0 ~socket
            (Serve_protocol.request ~hog_kb:(64 * 1024) Serve_protocol.Ping)
        with
        | Error msg -> Some (Printf.sprintf "hog request failed: %s" msg)
        | Ok _ -> (
          (* the watchdog samples once per tick: give the ring time to
             see the step, then time to prove it does not re-fire *)
          let deadline = Unix.gettimeofday () +. 10.0 in
          let rec wait () =
            if heap_breaches () > before then None
            else if Unix.gettimeofday () > deadline then
              Some "planted 64MB hog tripped no heap_breach within 10s"
            else begin
              Unix.sleepf 0.2;
              wait ()
            end
          in
          match wait () with
          | Some v -> Some v
          | None ->
            Unix.sleepf 2.0;
            let fired = heap_breaches () - before in
            if fired <> 1 then
              Some
                (Printf.sprintf
                   "planted hog tripped %d heap_breaches; the edge trigger \
                    promises exactly 1"
                   fired)
            else None)
      in
      (match hog_violation with
      | Some v -> Printf.printf "VIOLATION: %s\n" v
      | None ->
        log "serve-chaos: planted hog tripped exactly one heap_breach + dump");
      (* graceful shutdown must leave a clean exit status *)
      let clean_exit =
        match
          Serve_client.roundtrip ~timeout_s:10.0 ~socket
            (Serve_protocol.request Serve_protocol.Shutdown)
        with
        | Ok _ -> (
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> true
          | _, _ -> false)
        | Error msg ->
          Printf.eprintf "serve-chaos: shutdown request failed: %s\n" msg;
          kill_daemon ();
          false
      in
      if not clean_exit then print_endline "VIOLATION: daemon did not exit cleanly";
      (* the drained daemon's log is complete: run the post-mortem checks *)
      let obs_notes, obs_violations =
        check_chaos_obs ~events_path ~obs_dir ~max_dumps:128 ~slo_p99_us
          ~hist_p99_us
      in
      List.iter print_endline obs_notes;
      List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) obs_violations;
      if
        s.Serve_chaos.violations = [] && obs_violations = [] && clean_exit
        && hog_violation = None
      then begin
        Printf.printf "serve-chaos: %d shots, zero daemon deaths, all invariants hold\n"
          s.Serve_chaos.shots;
        (* clean campaign: clear the scratch log and dumps *)
        Array.iter
          (fun f -> try Sys.remove (Filename.concat obs_dir f) with Sys_error _ -> ())
          (try Sys.readdir obs_dir with Sys_error _ -> [||]);
        (try Unix.rmdir obs_dir with Unix.Unix_error _ -> ());
        0
      end
      else begin
        Printf.printf "serve-chaos: forensics kept in %s\n" obs_dir;
        1
      end)

let run smoke soak replay_files seed count size max_ns inject_fault budget
    corpus_dir gen_only serve_chaos shots quiet =
  let log = if quiet then fun _ -> () else fun s -> print_endline s in
  if serve_chaos then run_serve_chaos ~seed ~shots ~quiet
  else if replay_files <> [] then begin
    if inject_fault then Difftest_fault.arm ();
    let bad = ref 0 in
    List.iter
      (fun path ->
        let v = Difftest.replay ~inject_fault path in
        Printf.printf "%s: %s\n" path (Difftest_oracle.describe v);
        match v with
        | Difftest_oracle.Agree _ -> ()
        | _ -> incr bad)
      replay_files;
    if !bad = 0 then 0 else 1
  end
  else if gen_only then begin
    (* print one generated design; handy when tuning the generator *)
    let d = Difftest_gen.generate ~seed ~size in
    Printf.printf "-- seed %d shape %s top %s max-ns %d\n%s"
      seed
      (Difftest_gen.shape_name ~seed)
      (Option.value d.Difftest_gen.d_top ~default:"-")
      d.Difftest_gen.d_max_ns d.Difftest_gen.d_source;
    0
  end
  else if smoke || soak then begin
    let seeds =
      if smoke then Difftest.smoke_seeds
      else List.init count (fun i -> seed + i)
    in
    let s =
      if budget then Difftest.run_budget_campaign ?corpus_dir ~log ~seeds ~size ()
      else Difftest.run_campaign ~inject_fault ?corpus_dir ~log ~seeds ~size ()
    in
    Format.printf "%a@." Difftest.pp_summary s;
    Format.printf "%a@." pp_campaign_telemetry ();
    ignore max_ns;
    if s.Difftest.divergences = 0 && s.Difftest.crashes = 0 then 0 else 1
  end
  else begin
    prerr_endline "nothing to do: pass --smoke, --soak, --gen, or --replay FILE";
    2
  end

let cmd =
  let smoke =
    Arg.(value & flag & info [ "smoke" ] ~doc:"Deterministic CI campaign: 100 fixed seeds.")
  in
  let soak =
    Arg.(value & flag & info [ "soak" ] ~doc:"Open-ended campaign from --seed, --count designs.")
  in
  let replay =
    Arg.(value & opt_all file [] & info [ "replay" ] ~docv:"FILE" ~doc:"Re-run the oracle on a corpus file (repeatable).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"First seed of a soak campaign.")
  in
  let count =
    Arg.(value & opt int 500 & info [ "count" ] ~docv:"N" ~doc:"Designs per soak campaign.")
  in
  let size =
    Arg.(value & opt int 2 & info [ "size" ] ~docv:"N" ~doc:"Design size factor (1 = tiny).")
  in
  let max_ns =
    Arg.(value & opt int 0 & info [ "max-ns" ] ~docv:"N" ~doc:"Override the simulation horizon (0 = per-design default).")
  in
  let inject_fault =
    Arg.(value & flag & info [ "inject-fault" ] ~doc:"Arm the semantic-rule flip (integer literals +1 on the staged side) to validate the oracle.")
  in
  let budget =
    Arg.(value & flag & info [ "budget" ] ~doc:"Containment campaign: run each design once under tight resource budgets; any raw exception escape or internal-error diagnostic is a finding (shrunk and archived like a divergence).")
  in
  let corpus_dir =
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR" ~doc:"Directory for shrunk reproducers (created if missing).")
  in
  let gen_only =
    Arg.(value & flag & info [ "gen" ] ~doc:"Print the design for --seed and exit.")
  in
  let serve_chaos =
    Arg.(
      value & flag
      & info [ "serve-chaos" ]
          ~doc:
            "Chaos campaign against a live compile-service daemon (forked as \
             a child): randomized healthy and faulty requests — torn frames, \
             bad magic, oversized declarations, poisoned units, wedged \
             requests, deadline busts, client aborts, overload bursts — with \
             a zero-daemon-deaths invariant and a telemetry-ledger check.")
  in
  let shots =
    Arg.(
      value & opt int 240
      & info [ "shots" ] ~docv:"N" ~doc:"Requests per serve-chaos campaign.")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Only print the final summary.") in
  let doc = "differential fuzzer: demand vs staged attribute evaluation" in
  Cmd.v
    (Cmd.info "vhdlfuzz" ~version:"1.0.0" ~doc)
    Term.(
      const run $ smoke $ soak $ replay $ seed $ count $ size $ max_ns
      $ inject_fault $ budget $ corpus_dir $ gen_only $ serve_chaos $ shots $ quiet)

let () = exit (Cmd.eval' cmd)
