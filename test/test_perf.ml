(* The performance observatory (lib/perf): robust statistics, the
   benchmark session runner, BENCH_report.json round-trips, the
   noise-aware baseline diff (detects a 2x slowdown, ignores sub-noise
   jitter), and the collapsed-stack exporter whose folded totals must
   match the telemetry span self-times. *)

module Tm = Vhdl_telemetry.Telemetry
module P = Vhdl_perf.Perf

(* ------------------------------------------------------------------ *)
(* Statistics *)

let test_stat () =
  Alcotest.(check (float 1e-9)) "odd median" 3.0 (P.Stat.median [| 5.0; 1.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "even median" 2.5 (P.Stat.median [| 4.0; 1.0; 2.0; 3.0 |]);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (P.Stat.mean [| 1.0; 2.0; 3.0 |]);
  (* MAD of [1;2;3;4;100]: median 3, |x-3| = [2;1;0;1;97], median 1 — the
     outlier does not move it *)
  Alcotest.(check (float 1e-9)) "mad robust to outlier" 1.0
    (P.Stat.mad [| 1.0; 2.0; 3.0; 4.0; 100.0 |]);
  Alcotest.(check bool) "empty median is nan" true (Float.is_nan (P.Stat.median [||]))

let test_bootstrap_ci () =
  let lo, hi = P.Stat.bootstrap_ci [| 5.0; 5.0; 5.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "constant sample: lo" 5.0 lo;
  Alcotest.(check (float 1e-9)) "constant sample: hi" 5.0 hi;
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0 |] in
  let lo, hi = P.Stat.bootstrap_ci a in
  let m = P.Stat.median a in
  Alcotest.(check bool) "lo <= median" true (lo <= m);
  Alcotest.(check bool) "median <= hi" true (m <= hi);
  Alcotest.(check bool) "interval is proper" true (lo < hi);
  (* deterministic: same input, same interval *)
  let lo', hi' = P.Stat.bootstrap_ci a in
  Alcotest.(check (float 1e-12)) "deterministic lo" lo lo';
  Alcotest.(check (float 1e-12)) "deterministic hi" hi hi'

(* ------------------------------------------------------------------ *)
(* The session runner *)

let test_runner () =
  Tm.reset ();
  let scratch = Tm.counter "test.perf_runner_scratch" in
  let calls = ref 0 in
  let s =
    P.run ~warmup:2 ~repeats:3 ~name:"runner/unit" (fun () ->
        incr calls;
        Tm.add scratch 10)
  in
  Alcotest.(check int) "warmup + repeats calls" 5 !calls;
  Alcotest.(check int) "three repetitions recorded" 3 (P.Sample.reps s);
  Array.iter
    (fun t -> Alcotest.(check bool) "times non-negative" true (t >= 0.0))
    s.P.Sample.s_times;
  (* counter deltas cover the measured portion only, not the warmup *)
  Alcotest.(check (option int)) "counter delta excludes warmup" (Some 30)
    (List.assoc_opt "test.perf_runner_scratch" s.P.Sample.s_counters);
  match P.Sample.rate s "test.perf_runner_scratch" with
  | Some r -> Alcotest.(check bool) "rate is positive" true (r > 0.0)
  | None -> Alcotest.fail "rate of a bumped counter"

let test_runner_quota () =
  (* a generous repeat count under a tiny quota stops early, never below
     one repetition *)
  let s =
    P.run ~warmup:0 ~repeats:1000 ~quota_s:0.02 ~name:"runner/quota" (fun () ->
        let t0 = Tm.now_s () in
        while Tm.now_s () -. t0 < 0.005 do () done)
  in
  let n = P.Sample.reps s in
  Alcotest.(check bool) "at least one repetition" true (n >= 1);
  Alcotest.(check bool) (Printf.sprintf "stopped early (%d reps)" n) true (n < 1000)

let test_perturb_parsing () =
  Unix.putenv P.perturb_env "compile:50";
  Alcotest.(check (float 1e-9)) "matching experiment slowed" 0.05
    (P.perturb_s ~name:"compile/behavioral");
  Alcotest.(check (float 1e-9)) "other experiment untouched" 0.0
    (P.perturb_s ~name:"simulate/divider");
  Unix.putenv P.perturb_env "25";
  Alcotest.(check (float 1e-9)) "bare ms perturbs everything" 0.025
    (P.perturb_s ~name:"anything");
  Unix.putenv P.perturb_env "";
  Alcotest.(check (float 1e-9)) "empty value is inert" 0.0
    (P.perturb_s ~name:"anything")

(* ------------------------------------------------------------------ *)
(* Report round-trip *)

let sample_a =
  {
    P.Sample.s_name = "compile/alpha";
    s_warmup = 1;
    s_times = [| 0.011; 0.0105; 0.0112 |];
    s_allocs = [| 120000.0; 119000.0; 121000.0 |];
    s_gc =
      {
        P.Gc_delta.minor_collections = 7;
        major_collections = 2;
        compactions = 0;
        heap_words = 98304;
        top_heap_words = 131072;
      };
    s_counters = [ ("ag.attrs_evaluated", 2048); ("lexer.tokens", 512) ];
    s_phases = [ ("scanner", 0.001); ("attribute evaluation", 0.008) ];
    s_metrics = [ ("lines_per_min", 54000.0) ];
  }

let sample_b =
  {
    P.Sample.s_name = "simulate/beta";
    s_warmup = 0;
    s_times = [| 0.25 |];
    s_allocs = [||];
    s_gc = P.Gc_delta.zero;
    s_counters = [];
    s_phases = [];
    s_metrics = [];
  }

let test_report_roundtrip () =
  let report = P.Report.make ~meta:[ ("suite", "unit-test") ] [ sample_a; sample_b ] in
  let json = P.Report.to_json report in
  match P.Report.of_json json with
  | Error msg -> Alcotest.fail ("round-trip failed: " ^ msg)
  | Ok back ->
    Alcotest.(check string) "schema" P.Report.schema back.P.Report.r_schema;
    Alcotest.(check (option string)) "meta survives" (Some "unit-test")
      (List.assoc_opt "suite" back.P.Report.r_meta);
    Alcotest.(check bool) "machine meta present" true
      (List.mem_assoc "commit" back.P.Report.r_meta);
    Alcotest.(check int) "two experiments" 2 (List.length back.P.Report.r_samples);
    let a = List.nth back.P.Report.r_samples 0 in
    Alcotest.(check string) "name" "compile/alpha" a.P.Sample.s_name;
    Alcotest.(check int) "warmup" 1 a.P.Sample.s_warmup;
    Alcotest.(check int) "times length" 3 (Array.length a.P.Sample.s_times);
    Array.iteri
      (fun i t ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "time %d" i)
          sample_a.P.Sample.s_times.(i) t)
      a.P.Sample.s_times;
    Alcotest.(check int) "gc minors" 7 a.P.Sample.s_gc.P.Gc_delta.minor_collections;
    Alcotest.(check int) "gc peak heap" 131072 a.P.Sample.s_gc.P.Gc_delta.top_heap_words;
    Alcotest.(check (option int)) "counters survive" (Some 2048)
      (List.assoc_opt "ag.attrs_evaluated" a.P.Sample.s_counters);
    (match List.assoc_opt "attribute evaluation" a.P.Sample.s_phases with
    | Some v -> Alcotest.(check (float 1e-9)) "phase self-time survives" 0.008 v
    | None -> Alcotest.fail "phase entry lost");
    Alcotest.(check (option int)) "single-rep sample" (Some 1)
      (Option.map
         (fun (s : P.Sample.t) -> Array.length s.P.Sample.s_times)
         (List.nth_opt back.P.Report.r_samples 1))

let test_report_rejects_garbage () =
  (match P.Report.of_json "{\"schema\":\"somebody-else/9\",\"experiments\":[]}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign schema accepted");
  match P.Report.of_json "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

(* ------------------------------------------------------------------ *)
(* Baseline diff: the regression gate *)

let mk_sample name times =
  {
    P.Sample.s_name = name;
    s_warmup = 0;
    s_times = times;
    s_allocs = [||];
    s_gc = P.Gc_delta.zero;
    s_counters = [];
    s_phases = [];
    s_metrics = [];
  }

let report_of samples = P.Report.make samples

let diff ?threshold base cur =
  P.Diff.compare_reports ?threshold ~baseline:(report_of base) ~current:(report_of cur) ()

let verdict_of name rows =
  match List.find_opt (fun (r : P.Diff.row) -> r.P.Diff.d_name = name) rows with
  | Some r -> r.P.Diff.d_verdict
  | None -> Alcotest.fail ("no diff row for " ^ name)

let vrd = Alcotest.testable (Fmt.of_to_string P.Diff.verdict_name) ( = )

let test_diff_detects_2x () =
  let base = [ mk_sample "e" [| 0.100; 0.102; 0.098; 0.101; 0.099 |] ] in
  let cur = [ mk_sample "e" [| 0.203; 0.199; 0.201; 0.205; 0.198 |] ] in
  Alcotest.check vrd "2x slowdown flagged" P.Diff.Regression
    (verdict_of "e" (diff base cur));
  (* and symmetrically, the other direction is an improvement *)
  Alcotest.check vrd "2x speedup is improvement" P.Diff.Improvement
    (verdict_of "e" (diff cur base))

let test_diff_ignores_jitter () =
  let base = [ mk_sample "e" [| 0.100; 0.104; 0.097; 0.101; 0.099 |] ] in
  (* +3% median shift, well inside both the 25% threshold and the noise *)
  let cur = [ mk_sample "e" [| 0.103; 0.101; 0.106; 0.099; 0.102 |] ] in
  Alcotest.check vrd "sub-noise jitter ignored" P.Diff.Unchanged
    (verdict_of "e" (diff base cur))

let test_diff_noise_gate () =
  (* the ratio clears the threshold but the spread is so wide the
     bootstrap intervals overlap: not significant, not flagged *)
  let base = [ mk_sample "e" [| 0.05; 0.30; 0.10; 0.25; 0.15 |] ] in
  let cur = [ mk_sample "e" [| 0.10; 0.60; 0.20; 0.50; 0.08 |] ] in
  Alcotest.check vrd "noisy 2x not significant" P.Diff.Unchanged
    (verdict_of "e" (diff base cur));
  (* tightening the spread makes the same ratio significant *)
  let base = [ mk_sample "e" [| 0.14; 0.15; 0.16; 0.15; 0.15 |] ] in
  let cur = [ mk_sample "e" [| 0.29; 0.30; 0.31; 0.30; 0.30 |] ] in
  Alcotest.check vrd "tight 2x is significant" P.Diff.Regression
    (verdict_of "e" (diff base cur))

let test_diff_added_removed () =
  let base = [ mk_sample "old" [| 0.1 |] ] in
  let cur = [ mk_sample "new" [| 0.1 |] ] in
  let rows = diff base cur in
  Alcotest.check vrd "new experiment is added" P.Diff.Added (verdict_of "new" rows);
  Alcotest.check vrd "missing experiment is removed" P.Diff.Removed
    (verdict_of "old" rows);
  Alcotest.(check int) "no regressions from add/remove" 0
    (List.length (P.Diff.regressions rows))

(* ------------------------------------------------------------------ *)
(* Collapsed stacks *)

let spin_s seconds =
  let t0 = Tm.now_s () in
  while Tm.now_s () -. t0 < seconds do
    ()
  done

(* a small span tree with measurable self time at every level:
   root (5ms self) > left (2ms self) > leaf (2ms), root > right (2ms) *)
let record_tree () =
  Tm.with_span ~cat:"test" "root" (fun () ->
      spin_s 0.003;
      Tm.with_span ~cat:"test" "left" (fun () ->
          spin_s 0.002;
          Tm.with_span ~cat:"test" "leaf" (fun () -> spin_s 0.002));
      Tm.with_span ~cat:"test" "right" (fun () -> spin_s 0.002);
      spin_s 0.002)

let with_tracing f =
  Tm.reset ();
  Tm.set_tracing true;
  Fun.protect
    ~finally:(fun () ->
      Tm.set_tracing false;
      Tm.reset ())
    f

let parse_folded text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "")
  |> List.map (fun line ->
         match String.rindex_opt line ' ' with
         | None -> Alcotest.fail ("unparsable folded line: " ^ line)
         | Some i ->
           let stack = String.sub line 0 i in
           let v = String.sub line (i + 1) (String.length line - i - 1) in
           (match int_of_string_opt v with
           | Some n when n > 0 -> (String.split_on_char ';' stack, n)
           | _ -> Alcotest.fail ("bad folded value: " ^ line)))

let test_flame_folded () =
  with_tracing @@ fun () ->
  record_tree ();
  let spans = Tm.spans () in
  let folded = P.Flame.folded spans in
  let lines = parse_folded folded in
  Alcotest.(check bool) "has lines" true (lines <> []);
  (* every stack is rooted at "root" and nesting paths appear *)
  List.iter
    (fun (stack, _) ->
      Alcotest.(check string) "rooted" "root" (List.hd stack))
    lines;
  let find path =
    match List.assoc_opt path lines with
    | Some v -> v
    | None -> Alcotest.fail ("missing stack " ^ String.concat ";" path)
  in
  let root_self = find [ "root" ] in
  let leaf_self = find [ "root"; "left"; "leaf" ] in
  Alcotest.(check bool) "root self ~5ms" true
    (root_self > 3000 && root_self < 60_000);
  Alcotest.(check bool) "leaf self ~2ms" true
    (leaf_self > 1000 && leaf_self < 30_000);
  (* folded totals equal span self-times within rounding: group folded
     values by leaf frame and compare against Flame.self_times *)
  let selfs = P.Flame.self_times spans in
  List.iter
    (fun (name, self_s) ->
      let folded_us =
        List.fold_left
          (fun acc (stack, v) ->
            if List.nth stack (List.length stack - 1) = name then acc + v else acc)
          0 lines
      in
      let self_us = self_s *. 1e6 in
      let tolerance = 2.0 +. (self_us /. 100.0) (* rounding + 1% *) in
      Alcotest.(check bool)
        (Printf.sprintf "%s folded %dus matches self %.0fus" name folded_us self_us)
        true
        (Float.abs (float_of_int folded_us -. self_us) <= tolerance))
    selfs;
  (* conservation: total folded time equals the root span's duration *)
  let total_us = List.fold_left (fun acc (_, v) -> acc + v) 0 lines in
  let root_span = List.find (fun sp -> sp.Tm.sp_name = "root") spans in
  let dur_us = root_span.Tm.sp_dur *. 1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "folded total %dus ~ root duration %.0fus" total_us dur_us)
    true
    (Float.abs (float_of_int total_us -. dur_us) <= 10.0 +. (dur_us /. 50.0))

let test_flame_of_compile () =
  (* end to end over a real pipeline: the folded export of a compile's
     span tree parses and covers the phase frames *)
  with_tracing @@ fun () ->
  let c = Vhdl_compiler.create () in
  ignore (Vhdl_compiler.compile c (Workload.behavioral ~name:"FL" ~states:8 ~exprs:15));
  let folded = P.Flame.folded (Tm.spans ()) in
  let lines = parse_folded folded in
  Alcotest.(check bool) "compile appears as a root frame" true
    (List.exists (fun (stack, _) -> List.hd stack = "compile") lines);
  Alcotest.(check bool) "phase frames nest under compile" true
    (List.exists
       (fun (stack, _) ->
         match stack with
         | "compile" :: rest -> List.mem "attribute evaluation" rest
         | _ -> false)
       lines)

let suite =
  [
    Alcotest.test_case "median/mad/mean" `Quick test_stat;
    Alcotest.test_case "bootstrap CI" `Quick test_bootstrap_ci;
    Alcotest.test_case "session runner" `Quick test_runner;
    Alcotest.test_case "quota stops early" `Quick test_runner_quota;
    Alcotest.test_case "perturb hook parsing" `Quick test_perturb_parsing;
    Alcotest.test_case "report JSON round-trip" `Quick test_report_roundtrip;
    Alcotest.test_case "report rejects foreign schema" `Quick test_report_rejects_garbage;
    Alcotest.test_case "diff detects 2x slowdown" `Quick test_diff_detects_2x;
    Alcotest.test_case "diff ignores sub-noise jitter" `Quick test_diff_ignores_jitter;
    Alcotest.test_case "diff noise gate on wide spread" `Quick test_diff_noise_gate;
    Alcotest.test_case "diff added/removed" `Quick test_diff_added_removed;
    Alcotest.test_case "folded totals match self times" `Quick test_flame_folded;
    Alcotest.test_case "folded export of a compile" `Quick test_flame_of_compile;
  ]
