(* The observability battery: event-line round-trips, the lifecycle
   grammar checker, flight-recorder ring semantics, dump documents, the
   JSONL sink, and the rolling SLO windows (including their agreement
   with the process-lifetime telemetry histograms, which the chaos
   campaign's ±20% acceptance check leans on). *)

module E = Obs_event
module Tm = Vhdl_telemetry.Telemetry
module J = Tm.Json

(* ------------------------------------------------------------------ *)
(* Events *)

let all_kinds =
  [
    E.Accept; E.Admit; E.Shed; E.Start; E.Finish; E.Reject; E.Drain;
    E.Breach; E.Heap_breach; E.Dump; E.Flush;
  ]

let test_kind_names_roundtrip () =
  List.iter
    (fun k ->
      match E.kind_of_name (E.kind_name k) with
      | Some k' -> Alcotest.(check bool) (E.kind_name k) true (k = k')
      | None -> Alcotest.failf "kind %s does not parse back" (E.kind_name k))
    all_kinds

let test_event_line_roundtrip () =
  let e =
    E.make ~rid:42
      ~fields:
        [ ("verb", E.S "compile"); ("queue_depth", E.I 3); ("service_us", E.F 1234.5) ]
      E.Finish
  in
  match E.of_line (E.to_line e) with
  | Error msg -> Alcotest.fail msg
  | Ok got ->
    Alcotest.(check bool) "kind" true (got.E.e_kind = E.Finish);
    Alcotest.(check (option int)) "rid" (Some 42) got.E.e_rid;
    Alcotest.(check (option string)) "string field" (Some "compile")
      (E.field_str got "verb");
    (match E.field got "queue_depth" with
    | Some (E.I 3) -> ()
    | _ -> Alcotest.fail "int field lost");
    (match E.field got "service_us" with
    | Some (E.F x) -> Alcotest.(check (float 1e-6)) "float field" 1234.5 x
    | _ -> Alcotest.fail "float field lost")

let test_event_line_no_rid () =
  let e = E.make ~fields:[ ("phase", E.S "begin") ] E.Drain in
  match E.of_line (E.to_line e) with
  | Ok got -> Alcotest.(check (option int)) "no rid" None got.E.e_rid
  | Error msg -> Alcotest.fail msg

let test_of_line_rejects_garbage () =
  List.iter
    (fun line ->
      match E.of_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" line)
    [ ""; "not json"; "{\"ts\":1.0}"; "{\"ts\":1.0,\"ev\":\"no-such-kind\"}" ]

(* a well-formed request lifecycle passes the checker *)
let test_check_log_accepts_valid () =
  let log =
    [
      E.make ~rid:1 E.Accept;
      E.make ~rid:1 ~fields:[ ("queue_depth", E.I 1) ] E.Admit;
      E.make ~rid:1 ~fields:[ ("verb", E.S "compile") ] E.Start;
      E.make ~rid:1 ~fields:[ ("status", E.S "ok") ] E.Finish;
      E.make ~rid:2 E.Accept;
      E.make ~rid:2 ~fields:[ ("reason", E.S "overload") ] E.Shed;
      E.make ~rid:3 E.Accept;
      E.make ~rid:3 ~fields:[ ("reason", E.S "torn") ] E.Reject;
      E.make ~fields:[ ("phase", E.S "stopped") ] E.Drain;
    ]
  in
  Alcotest.(check (list string)) "no violations" [] (E.check_log log)

let test_check_log_detects_violations () =
  let expect_violation name log =
    Alcotest.(check bool) name true (E.check_log log <> [])
  in
  expect_violation "non-monotone accept rids"
    [ E.make ~rid:2 E.Accept; E.make ~rid:1 E.Accept ];
  expect_violation "start for an unaccepted rid"
    [ E.make ~rid:1 E.Accept; E.make ~rid:7 E.Start ];
  expect_violation "two starts for one rid"
    [
      E.make ~rid:1 E.Accept; E.make ~rid:1 E.Start; E.make ~rid:1 E.Start;
      E.make ~rid:1 E.Finish;
    ];
  expect_violation "finish without start"
    [ E.make ~rid:1 E.Accept; E.make ~rid:1 E.Finish ];
  expect_violation "start without finish"
    [ E.make ~rid:1 E.Accept; E.make ~rid:1 E.Start ]

(* ------------------------------------------------------------------ *)
(* Flight-recorder ring *)

let test_ring_keeps_last_n () =
  let r = Obs_ring.create ~events:4 () in
  for i = 1 to 10 do
    Obs_ring.push r (E.make ~rid:i E.Accept)
  done;
  Alcotest.(check int) "pushed total" 10 (Obs_ring.pushed r);
  let rids = List.filter_map (fun e -> e.E.e_rid) (Obs_ring.events r) in
  Alcotest.(check (list int)) "last four, oldest first" [ 7; 8; 9; 10 ] rids

let test_ring_request_deltas () =
  let r = Obs_ring.create ~requests:2 () in
  Obs_ring.note_request_delta r ~rid:1 [ ("lexer.tokens", 10) ];
  Obs_ring.note_request_delta r ~rid:2 [ ("lexer.tokens", 20) ];
  Obs_ring.note_request_delta r ~rid:3 [ ("lexer.tokens", 30) ];
  let rids = List.map (fun d -> d.Obs_ring.rd_rid) (Obs_ring.request_deltas r) in
  Alcotest.(check (list int)) "last two requests" [ 2; 3 ] rids

(* ------------------------------------------------------------------ *)
(* The sink + dump hub *)

let temp_path suffix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "vhdl-obs-test-%d-%d%s" (Unix.getpid ()) (Random.int 100000) suffix)

let dump_ok ?rid ?(fields = []) ~reason t =
  match Obs_log.dump ~reason ?rid ~fields t with
  | Ok (Some path) -> path
  | Ok None -> Alcotest.failf "%s dump suppressed" reason
  | Error msg -> Alcotest.fail msg

(* a flight dump and an exemplar are one schema: each carries its reason,
   rid, the recorded events and request deltas, then its own fields *)
let test_dump_json_parses () =
  let dir = temp_path ".dumps" in
  let t =
    Obs_log.create
      { Obs_log.default_config with Obs_log.o_flight_dir = dir; o_ring_events = 8 }
  in
  Obs_log.event t ~rid:5 E.Accept;
  Obs_log.event t ~rid:5 ~fields:[ ("verb", E.S "compile") ] E.Start;
  Obs_log.note_request_delta t ~rid:5 [ ("ag.attrs_evaluated", 7) ];
  let firewall = dump_ok t ~reason:"firewall" ~rid:5 ~fields:[ ("answer", "42") ] in
  let exemplar = dump_ok t ~reason:"exemplar" ~rid:5 ~fields:[ ("trace", "[]") ] in
  List.iter
    (fun (path, reason, events) ->
      match J.parse (Vhdl_util.Unix_compat.read_file path) with
      | Error msg -> Alcotest.fail msg
      | Ok j ->
        Alcotest.(check (option string)) "reason" (Some reason)
          (Option.bind (J.mem "reason" j) J.to_str);
        Alcotest.(check (option int)) "rid" (Some 5) (Option.bind (J.mem "rid" j) J.to_int);
        (match J.mem "events" j with
        | Some (J.Arr evs) -> Alcotest.(check int) "events dumped" events (List.length evs)
        | _ -> Alcotest.fail "events array missing");
        (match J.mem "request_deltas" j with
        | Some (J.Arr [ d ]) ->
          Alcotest.(check (option int)) "delta rid" (Some 5)
            (Option.bind (J.mem "rid" d) J.to_int)
        | _ -> Alcotest.fail "request_deltas missing");
        Alcotest.(check bool) "metrics snapshot embedded" true (J.mem "metrics" j <> None))
    (* the exemplar's window also holds the firewall dump's own event *)
    [ (firewall, "firewall", 2); (exemplar, "exemplar", 3) ];
  (match J.parse (Vhdl_util.Unix_compat.read_file firewall) with
  | Ok j ->
    Alcotest.(check (option int)) "caller field" (Some 42)
      (Option.bind (J.mem "answer" j) J.to_int)
  | Error msg -> Alcotest.fail msg);
  Tmp_dir.rm_rf dir

let test_log_sink_roundtrip () =
  let path = temp_path ".jsonl" in
  let t =
    Obs_log.create
      { Obs_log.default_config with Obs_log.o_events_out = Some path }
  in
  Obs_log.event t ~rid:1 Obs_event.Accept;
  Obs_log.event t ~rid:1 ~fields:[ ("verb", E.S "ping") ] Obs_event.Start;
  Obs_log.event t ~rid:1 ~fields:[ ("status", E.S "ok") ] Obs_event.Finish;
  Obs_log.close t;
  (match E.read_log path with
  | Error msg -> Alcotest.fail msg
  | Ok (events, warnings) ->
    Alcotest.(check int) "three lines" 3 (List.length events);
    Alcotest.(check (list string)) "no warnings" [] warnings;
    Alcotest.(check (list string)) "grammar holds" [] (E.check_log events));
  Sys.remove path

let test_flight_dump_writes_file () =
  let dir = temp_path ".dumps" in
  let t =
    Obs_log.create { Obs_log.default_config with Obs_log.o_flight_dir = dir }
  in
  Obs_log.event t ~rid:9 Obs_event.Accept;
  let path = dump_ok t ~reason:"watchdog" ~rid:9 in
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  Alcotest.(check bool) "named after the rid" true
    (Astring_contains.contains (Filename.basename path) "-rid9-");
  Alcotest.(check bool) "named after the reason" true
    (Astring_contains.contains (Filename.basename path) "watchdog");
  Tmp_dir.rm_rf dir

let observe_each slo ~now latencies =
  List.iter
    (fun l -> Obs_slo.observe slo ~now ~latency_us:l ~shed:false ~internal:false ())
    latencies

(* ------------------------------------------------------------------ *)
(* Tail triage: phase attribution, exemplar thresholds, exemplar dumps,
   retention *)

let finish_with ~rid ~service_us phases =
  E.make ~rid
    ~fields:
      (( "status", E.S "ok" )
      :: ("service_us", E.F service_us)
      :: Obs_attr.fields ~prefix:E.phase_prefix phases)
    E.Finish

let lifecycle ~rid finish =
  [ E.make ~rid E.Accept; E.make ~rid ~fields:[ ("verb", E.S "compile") ] E.Start; finish ]

(* the tentpole invariant: a finish's ph_* fields must sum to within 10%
   of the service_us they explain *)
let test_check_log_phase_sum () =
  let ok =
    lifecycle ~rid:1
      (finish_with ~rid:1 ~service_us:1000.0
         [ ("parse", 300.0); ("attrs", 650.0); ("other", 50.0) ])
  in
  Alcotest.(check (list string)) "agreeing sum accepted" [] (E.check_log ok);
  let off =
    lifecycle ~rid:1
      (finish_with ~rid:1 ~service_us:1000.0 [ ("parse", 300.0); ("attrs", 400.0) ])
  in
  Alcotest.(check bool) "30% disagreement flagged" true (E.check_log off <> []);
  (* no phases at all is fine: pre-attribution logs still check clean *)
  let bare =
    lifecycle ~rid:1
      (E.make ~rid:1 ~fields:[ ("status", E.S "ok"); ("service_us", E.F 1000.0) ] E.Finish)
  in
  Alcotest.(check (list string)) "phase-free finish accepted" [] (E.check_log bare);
  (* sub-microsecond services never false-positive (1us tolerance floor) *)
  let tiny =
    lifecycle ~rid:1 (finish_with ~rid:1 ~service_us:0.4 [ ("other", 1.1) ])
  in
  Alcotest.(check (list string)) "tiny service tolerated" [] (E.check_log tiny)

let test_with_other_accounts_service () =
  let phases =
    Obs_attr.with_other ~total:1000.0
      [ ("parser", 200.0); ("attribute evaluation", 300.0); ("VIF write", 0.0) ]
  in
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 phases in
  Alcotest.(check (float 1e-6)) "phases sum to the service time" 1000.0 sum;
  Alcotest.(check (option (float 1e-6))) "residual is other" (Some 500.0)
    (List.assoc_opt "other" phases);
  Alcotest.(check (option (float 1e-6))) "prose names shortened" (Some 300.0)
    (List.assoc_opt "attrs" phases);
  Alcotest.(check (option (float 1e-6))) "zero phases elided" None
    (List.assoc_opt "vif_write" phases)

(* adaptive exemplar threshold: the p99 objective when configured, else
   k x window p50 once the window holds enough measurements *)
let test_exemplar_threshold_semantics () =
  let slo = Obs_slo.create ~window_s:60.0 () in
  let summary n =
    observe_each slo ~now:1.0 (List.init n (fun _ -> 100.0));
    Obs_slo.summary slo ~now:1.5
  in
  let thin = summary 4 in
  Alcotest.(check (option (float 1e-6))) "too few samples, no objective: off" None
    (Obs_attr.exemplar_threshold_us ~objectives:Obs_slo.no_objectives
       ~summary:thin ~k:4.0 ~min_observed:8);
  (* but an explicit objective arms it immediately *)
  Alcotest.(check (option (float 1e-6))) "objective p99 wins" (Some 50_000.0)
    (Obs_attr.exemplar_threshold_us
       ~objectives:{ Obs_slo.o_p99_ms = Some 50.0; o_shed_pct = None }
       ~summary:thin ~k:4.0 ~min_observed:8);
  let warm = summary 8 in
  Alcotest.(check bool) "window warm" true (warm.Obs_slo.s_observed >= 8);
  (match
     Obs_attr.exemplar_threshold_us ~objectives:Obs_slo.no_objectives
       ~summary:warm ~k:4.0 ~min_observed:8
   with
  | Some th ->
    Alcotest.(check (float 1e-6)) "k x window p50" (4.0 *. warm.Obs_slo.s_p50_us) th
  | None -> Alcotest.fail "warm window should arm the threshold")

(* the window aggregates per-phase time so a breach can say what drove it *)
let test_slo_phase_attribution () =
  let slo = Obs_slo.create ~window_s:60.0 () in
  Obs_slo.observe slo ~now:1.0 ~latency_us:1000.0
    ~phases:[ ("attrs", 600.0); ("other", 400.0) ] ~shed:false ~internal:false ();
  Obs_slo.observe slo ~now:1.1 ~latency_us:2000.0
    ~phases:[ ("attrs", 1400.0); ("cascade", 500.0); ("other", 100.0) ]
    ~shed:false ~internal:false ();
  let s = Obs_slo.summary slo ~now:1.5 in
  Alcotest.(check (option (float 1e-6))) "attrs merged" (Some 2000.0)
    (List.assoc_opt "attrs" s.Obs_slo.s_phase_us);
  (match s.Obs_slo.s_phase_us with
  | (top, _) :: _ -> Alcotest.(check string) "sorted by share" "attrs" top
  | [] -> Alcotest.fail "no phase table");
  let att = Obs_attr.attribution s.Obs_slo.s_phase_us in
  Alcotest.(check bool) "attribution names the top phase"
    true
    (Astring_contains.contains att "attrs 67%")

(* exemplars are rate-limited on the telemetry clock; other dumps are
   not, and do not restart the exemplar gap *)
let test_exemplar_dump_and_rate_limit () =
  let dir = temp_path ".exemplars" in
  let t =
    Obs_log.create
      { Obs_log.default_config with Obs_log.o_flight_dir = dir; o_exemplar_min_gap_s = 0.5 }
  in
  let exemplar rid = Obs_log.dump ~reason:"exemplar" ~rid ~fields:[ ("trace", "[]") ] t in
  let path = dump_ok t ~reason:"exemplar" ~rid:7 ~fields:[ ("trace", "[]") ] in
  Alcotest.(check bool) "named after the rid" true
    (Astring_contains.contains (Filename.basename path) "-rid7-exemplar");
  (match J.parse (Vhdl_util.Unix_compat.read_file path) with
  | Error msg -> Alcotest.fail msg
  | Ok j -> (
    match J.mem "trace" j with
    | Some (J.Arr _) -> ()
    | _ -> Alcotest.fail "trace array missing"));
  (* inside the min gap: suppressed, not an error — but a flight dump
     still goes through *)
  (match exemplar 8 with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "exemplar inside the min gap not suppressed"
  | Error msg -> Alcotest.fail msg);
  ignore (dump_ok t ~reason:"firewall" ~rid:8);
  (match exemplar 8 with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "a flight dump restarted the exemplar gap"
  | Error msg -> Alcotest.fail msg);
  (* past the gap: dumping resumes *)
  Unix.sleepf 0.6;
  (match exemplar 9 with
  | Ok (Some _) -> ()
  | Ok None -> Alcotest.fail "exemplar past the gap still suppressed"
  | Error msg -> Alcotest.fail msg);
  Tmp_dir.rm_rf dir

(* the cap counts flight dumps and exemplars alike *)
let test_dump_retention_cap () =
  let dir = temp_path ".retention" in
  let t =
    Obs_log.create
      {
        Obs_log.default_config with
        Obs_log.o_flight_dir = dir;
        o_max_dumps = 2;
        o_exemplar_min_gap_s = 0.0;
      }
  in
  let paths =
    List.map
      (fun (reason, rid) -> dump_ok t ~reason ~rid)
      [ ("exemplar", 1); ("firewall", 2); ("exemplar", 3); ("watchdog", 4) ]
  in
  let on_disk =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  Alcotest.(check int) "cap enforced" 2 (List.length on_disk);
  (* the survivors are the newest two (deletion is oldest-first) *)
  let newest =
    List.filteri (fun i _ -> i >= 2) (List.map Filename.basename paths)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "oldest deleted" newest on_disk;
  Tmp_dir.rm_rf dir

(* ------------------------------------------------------------------ *)
(* Rolling SLO windows *)

(* the acceptance property the chaos campaign checks end-to-end: a window
   spanning the samples reports the same percentiles as a telemetry
   histogram fed the same values (shared bucketing) *)
let test_slo_agrees_with_histogram () =
  let h = Tm.histogram "test.obs.slo_agreement" in
  let slo = Obs_slo.create ~window_s:60.0 () in
  let latencies =
    List.init 200 (fun i -> float_of_int ((i * 37 mod 997) + 1) *. 10.0)
  in
  List.iter (fun l -> Tm.observe h l) latencies;
  observe_each slo ~now:1.0 latencies;
  let s = Obs_slo.summary slo ~now:2.0 in
  List.iter
    (fun (p, got) ->
      let want = Tm.percentile h p in
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "p%.0f matches histogram" (p *. 100.0))
        want got)
    [ (0.50, s.Obs_slo.s_p50_us); (0.95, s.Obs_slo.s_p95_us); (0.99, s.Obs_slo.s_p99_us) ]

let test_slo_window_expires () =
  let slo = Obs_slo.create ~window_s:1.0 ~buckets:4 () in
  observe_each slo ~now:0.1 [ 100.0; 200.0; 300.0 ];
  let live = Obs_slo.summary slo ~now:0.5 in
  Alcotest.(check int) "inside the window" 3 live.Obs_slo.s_requests;
  let later = Obs_slo.summary slo ~now:10.0 in
  Alcotest.(check int) "expired" 0 later.Obs_slo.s_requests;
  Alcotest.(check (float 1e-9)) "empty window has no p99" 0.0 later.Obs_slo.s_p99_us

let test_slo_rates () =
  let slo = Obs_slo.create ~window_s:60.0 () in
  for _ = 1 to 8 do
    Obs_slo.observe slo ~now:1.0 ~latency_us:50.0 ~shed:false ~internal:false ()
  done;
  Obs_slo.observe slo ~now:1.0 ~shed:true ~internal:false ();
  Obs_slo.observe slo ~now:1.0 ~latency_us:70.0 ~shed:false ~internal:true ();
  let s = Obs_slo.summary slo ~now:1.5 in
  Alcotest.(check int) "requests" 10 s.Obs_slo.s_requests;
  Alcotest.(check int) "observed latencies" 9 s.Obs_slo.s_observed;
  Alcotest.(check (float 1e-6)) "shed rate" 10.0 s.Obs_slo.s_shed_pct;
  Alcotest.(check (float 1e-6)) "internal rate" 10.0 s.Obs_slo.s_internal_pct

let test_slo_breaches () =
  let slo = Obs_slo.create ~window_s:60.0 () in
  (* quiet window: objectives cannot breach on no traffic *)
  let empty = Obs_slo.summary slo ~now:0.5 in
  let strict = { Obs_slo.o_p99_ms = Some 0.001; o_shed_pct = Some 1.0 } in
  Alcotest.(check int) "empty window breaches nothing" 0
    (List.length (Obs_slo.breaches strict empty));
  (* slow, shedding window: both objectives blow *)
  observe_each slo ~now:1.0 [ 90_000.0; 95_000.0; 99_000.0 ];
  Obs_slo.observe slo ~now:1.0 ~shed:true ~internal:false ();
  let s = Obs_slo.summary slo ~now:1.5 in
  let brs = Obs_slo.breaches strict s in
  let metrics = List.sort compare (List.map (fun b -> b.Obs_slo.br_metric) brs) in
  Alcotest.(check (list string)) "both objectives breached" [ "p99_ms"; "shed_pct" ]
    metrics;
  List.iter
    (fun b ->
      Alcotest.(check bool) "breach value exceeds objective" true
        (b.Obs_slo.br_value > b.Obs_slo.br_objective))
    brs;
  (* generous objectives: the same window is healthy *)
  let lax = { Obs_slo.o_p99_ms = Some 10_000.0; o_shed_pct = Some 90.0 } in
  Alcotest.(check int) "lax objectives hold" 0 (List.length (Obs_slo.breaches lax s))

let suite =
  [
    Alcotest.test_case "event kind names round-trip" `Quick test_kind_names_roundtrip;
    Alcotest.test_case "event line round-trip" `Quick test_event_line_roundtrip;
    Alcotest.test_case "event without a rid" `Quick test_event_line_no_rid;
    Alcotest.test_case "garbage lines rejected" `Quick test_of_line_rejects_garbage;
    Alcotest.test_case "lifecycle grammar: valid log accepted" `Quick
      test_check_log_accepts_valid;
    Alcotest.test_case "lifecycle grammar: violations detected" `Quick
      test_check_log_detects_violations;
    Alcotest.test_case "ring keeps the last N events" `Quick test_ring_keeps_last_n;
    Alcotest.test_case "ring keeps the last M request deltas" `Quick
      test_ring_request_deltas;
    Alcotest.test_case "flight dump document parses" `Quick test_dump_json_parses;
    Alcotest.test_case "JSONL sink round-trips through read_log" `Quick
      test_log_sink_roundtrip;
    Alcotest.test_case "flight dump lands on disk, named for rid+reason" `Quick
      test_flight_dump_writes_file;
    Alcotest.test_case "phase sum vs service_us invariant" `Quick
      test_check_log_phase_sum;
    Alcotest.test_case "with_other accounts the full service time" `Quick
      test_with_other_accounts_service;
    Alcotest.test_case "adaptive exemplar threshold semantics" `Quick
      test_exemplar_threshold_semantics;
    Alcotest.test_case "slo window phase attribution" `Quick
      test_slo_phase_attribution;
    Alcotest.test_case "exemplar dump + rate limiting" `Quick
      test_exemplar_dump_and_rate_limit;
    Alcotest.test_case "dump retention cap deletes oldest" `Quick
      test_dump_retention_cap;
    Alcotest.test_case "slo window agrees with telemetry histogram" `Quick
      test_slo_agrees_with_histogram;
    Alcotest.test_case "slo window expires" `Quick test_slo_window_expires;
    Alcotest.test_case "slo shed/internal rates" `Quick test_slo_rates;
    Alcotest.test_case "slo breach detection" `Quick test_slo_breaches;
  ]
