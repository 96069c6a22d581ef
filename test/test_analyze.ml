(* The offline-analytics battery: the tolerant event-log reader (a torn
   trailing line is a warning, mid-file corruption an error), the
   analyze engine's aggregation (percentile agreement with a live
   window, tail attribution, slowest requests, timeline), and the
   --against diff — a planted 2x phase regression is flagged while
   sub-threshold jitter is not. *)

module E = Obs_event
module Perf = Vhdl_perf.Perf
module Json = Vhdl_telemetry.Telemetry.Json

let temp_path suffix =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "vhdl-analyze-test-%d-%d%s" (Unix.getpid ())
       (Random.int 100000) suffix)

(* ------------------------------------------------------------------ *)
(* Tolerant reader *)

let good_line ~ts ~rid kind fields =
  E.to_line { E.e_ts = ts; e_kind = kind; e_rid = Some rid; e_fields = fields }

let write_log path lines =
  Vhdl_util.Unix_compat.write_file path (String.concat "" lines)

let test_read_log_skips_torn_tail () =
  let path = temp_path ".jsonl" in
  write_log path
    [
      good_line ~ts:1.0 ~rid:1 E.Accept [];
      good_line ~ts:1.1 ~rid:1 E.Start [ ("verb", E.S "compile") ];
      (* the writer died mid-line: no trailing newline, no closing brace *)
      "{\"ts\":1.2,\"ev\":\"fini";
    ];
  (match E.read_log path with
  | Error msg -> Alcotest.failf "torn tail failed the read: %s" msg
  | Ok (events, warnings) ->
    Alcotest.(check int) "the well-formed prefix survives" 2 (List.length events);
    Alcotest.(check int) "one counted warning" 1 (List.length warnings);
    Alcotest.(check bool) "warning says truncated" true
      (Astring_contains.contains (List.hd warnings) "truncated"));
  Sys.remove path

let test_read_log_rejects_midfile_corruption () =
  let path = temp_path ".jsonl" in
  write_log path
    [
      good_line ~ts:1.0 ~rid:1 E.Accept [];
      "this is not json\n";
      good_line ~ts:1.2 ~rid:1 E.Start [ ("verb", E.S "compile") ];
    ];
  (match E.read_log path with
  | Error msg ->
    Alcotest.(check bool) "error names the line" true
      (Astring_contains.contains msg ":2:")
  | Ok _ -> Alcotest.fail "mid-file corruption must fail the read");
  Sys.remove path

(* A last line that parses but names no known event kind is no torn
   write: the read fails, as it would anywhere else in the log. *)
let test_read_log_rejects_unknown_kind () =
  let path = temp_path ".jsonl" in
  write_log path [ "{\"ts\":1.0,\"ev\":\"recycle\",\"rid\":1}\n" ];
  (match E.read_log path with
  | Error msg ->
    Alcotest.(check bool) "error names the line and the kind" true
      (Astring_contains.contains msg ":1: event without a known ev kind")
  | Ok _ -> Alcotest.fail "an unknown event kind must fail the read");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* The analyze engine over a synthetic log *)

(* one request's full lifecycle, finishing at [ts] having taken
   [service_us] split into [phases] *)
let request ~ts ~rid ?(verb = "compile") ?(status = "ok") ~service_us phases =
  [
    { E.e_ts = ts -. 0.002; e_kind = E.Accept; e_rid = Some rid; e_fields = [] };
    {
      E.e_ts = ts -. 0.001;
      e_kind = E.Start;
      e_rid = Some rid;
      e_fields = [ ("verb", E.S verb) ];
    };
    {
      E.e_ts = ts;
      e_kind = E.Finish;
      e_rid = Some rid;
      e_fields =
        ("status", E.S status)
        :: ("service_us", E.F service_us)
        :: Obs_attr.fields ~prefix:E.phase_prefix phases;
    };
  ]

(* a run whose cascade phase costs [cascade_us] (+- small jitter) on
   every request: the raw material for the --against tests *)
let run_with ~cascade_us ~n =
  List.concat
    (List.init n (fun i ->
         let jitter = float_of_int (i mod 5) in
         let cascade = cascade_us +. jitter in
         let parse = 50.0 +. jitter in
         let service = cascade +. parse +. 100.0 in
         request
           ~ts:(1.0 +. (0.1 *. float_of_int i))
           ~rid:(i + 1) ~service_us:service
           [ ("parse", parse); ("cascade", cascade); ("other", 100.0) ]))

let test_analyze_report () =
  let events =
    run_with ~cascade_us:100.0 ~n:20
    @ request ~ts:10.0 ~rid:100 ~service_us:50_000.0
        [ ("cascade", 49_000.0); ("other", 1000.0) ]
    @ [
        {
          E.e_ts = 10.1;
          e_kind = E.Shed;
          e_rid = Some 101;
          e_fields = [ ("reason", E.S "overload") ];
        };
      ]
  in
  (* the shed names an unaccepted rid only because we built it by hand;
     analyze is aggregation, not the grammar checker *)
  let r = Obs_analyze.analyze ~window_s:5.0 events in
  Alcotest.(check int) "finishes" 21 r.Obs_analyze.a_finishes;
  Alcotest.(check int) "sheds" 1 r.Obs_analyze.a_sheds;
  Alcotest.(check (option int)) "status table" (Some 21)
    (List.assoc_opt "ok" r.Obs_analyze.a_statuses);
  (* the whole-log percentiles are the live estimator's own numbers *)
  let slo = Obs_slo.create ~window_s:3600.0 () in
  List.iter
    (fun (e : E.t) ->
      if e.E.e_kind = E.Finish then
        Obs_slo.observe slo ~now:e.E.e_ts
          ?latency_us:(E.field_num e "service_us")
          ~shed:false ~internal:false ())
    events;
  let live = Obs_slo.summary slo ~now:10.2 in
  Alcotest.(check (float 1e-6)) "p99 matches a live window"
    live.Obs_slo.s_p99_us r.Obs_analyze.a_summary.Obs_slo.s_p99_us;
  (* the slow outlier leads the slowest table and dominates the tail *)
  (match r.Obs_analyze.a_slowest with
  | s :: _ ->
    Alcotest.(check int) "slowest rid" 100 s.Obs_analyze.sl_rid;
    Alcotest.(check (float 1e-6)) "slowest latency" 50_000.0 s.Obs_analyze.sl_service_us
  | [] -> Alcotest.fail "no slowest table");
  (match r.Obs_analyze.a_tail_phase_us with
  | (top, _) :: _ -> Alcotest.(check string) "tail driven by cascade" "cascade" top
  | [] -> Alcotest.fail "no tail attribution");
  Alcotest.(check bool) "timeline has multiple slices" true
    (List.length r.Obs_analyze.a_slices > 1);
  (* the JSON rendering parses and carries the schema marker *)
  match Json.parse (Obs_analyze.to_json r) with
  | Error msg -> Alcotest.failf "report JSON unparseable: %s" msg
  | Ok j ->
    Alcotest.(check (option string)) "schema" (Some "vhdl-analyze/1")
      (Option.bind (Json.mem "schema" j) Json.to_str)

(* daemon-verb answers are excluded from the latency replay, as the live
   window excludes them *)
let test_analyze_excludes_inline_verbs () =
  let events =
    run_with ~cascade_us:100.0 ~n:10
    @ request ~ts:20.0 ~rid:200 ~verb:"stats" ~service_us:2.0 [ ("other", 2.0) ]
  in
  let r = Obs_analyze.analyze events in
  Alcotest.(check int) "all finishes counted" 11 r.Obs_analyze.a_finishes;
  Alcotest.(check int) "inline latency not sampled" 10
    r.Obs_analyze.a_summary.Obs_slo.s_observed

(* ------------------------------------------------------------------ *)
(* --against: the noise-aware diff *)

let verdict_of rows name =
  List.find_map
    (fun (r : Perf.Diff.row) ->
      if r.Perf.Diff.d_name = name then Some r.Perf.Diff.d_verdict else None)
    rows

let test_against_flags_planted_regression () =
  let base = run_with ~cascade_us:100.0 ~n:20 in
  let cur = run_with ~cascade_us:200.0 ~n:20 in
  let rows = Obs_analyze.against ~base ~cur () in
  Alcotest.(check (option string)) "2x cascade flagged" (Some "REGRESSION")
    (Option.map Perf.Diff.verdict_name (verdict_of rows "cascade"));
  Alcotest.(check (option string)) "untouched phase unchanged" (Some "unchanged")
    (Option.map Perf.Diff.verdict_name (verdict_of rows "parse"));
  Alcotest.(check bool) "regressions nonempty" true
    (Perf.Diff.regressions rows <> [])

let test_against_ignores_jitter () =
  let base = run_with ~cascade_us:100.0 ~n:20 in
  (* 8% shift: well under the 25% threshold — noise, not a regression *)
  let cur = run_with ~cascade_us:108.0 ~n:20 in
  let rows = Obs_analyze.against ~base ~cur () in
  Alcotest.(check (list string)) "no regressions" []
    (List.map
       (fun (r : Perf.Diff.row) -> r.Perf.Diff.d_name)
       (Perf.Diff.regressions rows))

let test_against_improvement_direction () =
  let base = run_with ~cascade_us:200.0 ~n:20 in
  let cur = run_with ~cascade_us:100.0 ~n:20 in
  let rows = Obs_analyze.against ~base ~cur () in
  Alcotest.(check (option string)) "halved cascade is an improvement"
    (Some "improvement")
    (Option.map Perf.Diff.verdict_name (verdict_of rows "cascade"));
  Alcotest.(check (list string)) "improvements are not regressions" []
    (List.map
       (fun (r : Perf.Diff.row) -> r.Perf.Diff.d_name)
       (Perf.Diff.regressions rows))

let test_against_min_samples_guard () =
  let base = run_with ~cascade_us:100.0 ~n:2 in
  let cur = run_with ~cascade_us:500.0 ~n:2 in
  let rows = Obs_analyze.against ~base ~cur () in
  Alcotest.(check (option string)) "two samples prove nothing" (Some "unchanged")
    (Option.map Perf.Diff.verdict_name (verdict_of rows "cascade"))

let suite =
  [
    Alcotest.test_case "read_log skips a torn trailing line" `Quick
      test_read_log_skips_torn_tail;
    Alcotest.test_case "read_log rejects mid-file corruption" `Quick
      test_read_log_rejects_midfile_corruption;
    Alcotest.test_case "read_log rejects an unknown event kind" `Quick
      test_read_log_rejects_unknown_kind;
    Alcotest.test_case "analyze aggregates a synthetic log" `Quick
      test_analyze_report;
    Alcotest.test_case "analyze excludes inline daemon verbs" `Quick
      test_analyze_excludes_inline_verbs;
    Alcotest.test_case "against flags a planted 2x phase regression" `Quick
      test_against_flags_planted_regression;
    Alcotest.test_case "against ignores sub-threshold jitter" `Quick
      test_against_ignores_jitter;
    Alcotest.test_case "against classifies improvements" `Quick
      test_against_improvement_direction;
    Alcotest.test_case "against needs min samples" `Quick
      test_against_min_samples_guard;
  ]
