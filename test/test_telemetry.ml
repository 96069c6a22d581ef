(* The unified telemetry layer: counter/reset semantics, span nesting,
   Chrome trace-event export of a full compile+simulate, a golden metrics
   snapshot on a fixed corpus design, and the overhead guard for the
   always-on counters. *)

module Tm = Vhdl_telemetry.Telemetry

let corpus_path name =
  let dir =
    if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"
  in
  Filename.concat dir name

let read_corpus name = Vhdl_util.Unix_compat.read_file (corpus_path name)

(* Tests that arm tracing must disarm it on every exit path — the flag is
   process-wide and other suites assume the null sink. *)
(* a disk-backed compiler, so VIF writes actually hit files; its library
   is removed afterwards *)
let with_disk_compiler f =
  Tmp_dir.with_dir "vhdltelemetry" (fun dir -> f (Vhdl_compiler.create ~work_dir:dir ()))

let with_tracing f =
  Tm.reset ();
  Tm.set_tracing true;
  Fun.protect
    ~finally:(fun () ->
      Tm.set_tracing false;
      Tm.clear_spans ())
    f

(* ------------------------------------------------------------------ *)
(* Counters and reset *)

let test_counters () =
  Tm.reset ();
  let c = Tm.counter "test.scratch_counter" in
  Alcotest.(check int) "starts at zero" 0 (Tm.value c);
  Tm.incr c;
  Tm.incr c;
  Tm.add c 40;
  Alcotest.(check int) "monotone accumulation" 42 (Tm.value c);
  (* registration is idempotent: same name, same cell *)
  let c' = Tm.counter "test.scratch_counter" in
  Tm.incr c';
  Alcotest.(check int) "same cell by name" 43 (Tm.value c);
  Alcotest.(check int) "counter_value by name" 43
    (Tm.counter_value "test.scratch_counter");
  Alcotest.(check int) "unregistered name reads zero" 0
    (Tm.counter_value "test.never_registered");
  let h = Tm.histogram "test.scratch_histogram" in
  Tm.observe h 2.0;
  Tm.observe h 6.0;
  Alcotest.(check int) "histogram count" 2 h.Tm.h_count;
  Alcotest.(check (float 1e-9)) "histogram sum" 8.0 h.Tm.h_sum;
  Tm.reset ();
  Alcotest.(check int) "reset zeroes counters" 0 (Tm.value c);
  Alcotest.(check int) "reset zeroes histograms" 0 h.Tm.h_count;
  Tm.incr c;
  Alcotest.(check int) "usable after reset" 1 (Tm.value c)

(* histogram percentile estimates: power-of-two buckets, so estimates are
   exact at bucket boundaries and always clamped into [min, max] *)
let test_percentiles () =
  Tm.reset ();
  let h = Tm.histogram "test.scratch_percentiles" in
  (* 90 small observations and 10 large ones: p50 small, p99 large *)
  for _ = 1 to 90 do
    Tm.observe h 2.0
  done;
  for _ = 1 to 10 do
    Tm.observe h 1000.0
  done;
  let p50 = Tm.percentile h 0.50 in
  let p90 = Tm.percentile h 0.90 in
  let p99 = Tm.percentile h 0.99 in
  (* the estimate is exact to within a factor of two *)
  Alcotest.(check bool) "p50 lands in the small bucket" true
    (p50 >= 2.0 && p50 <= 4.0);
  Alcotest.(check bool) "p90 <= p99" true (p90 <= p99);
  Alcotest.(check bool) "p99 reaches the tail" true (p99 > 100.0);
  Alcotest.(check bool) "clamped to max" true (p99 <= 1000.0);
  Alcotest.(check bool) "p50 >= min" true (p50 >= 2.0);
  (* single observation: every percentile is that value *)
  Tm.reset ();
  Tm.observe h 7.0;
  List.iter
    (fun p ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "single observation p%.0f" (p *. 100.))
        7.0 (Tm.percentile h p))
    [ 0.5; 0.9; 0.99 ]

(* merging: two histograms merged report what one histogram fed every
   observation reports — the property the SLO windows rest on *)
let test_histogram_merge () =
  let a = Tm.unregistered_histogram "test.merge_a" in
  let b = Tm.unregistered_histogram "test.merge_b" in
  let whole = Tm.unregistered_histogram "test.merge_whole" in
  let rng = Random.State.make [| 20 |] in
  for i = 1 to 500 do
    let x = Random.State.float rng 5000.0 in
    Tm.observe (if i mod 3 = 0 then a else b) x;
    Tm.observe whole x
  done;
  let merged = Tm.unregistered_histogram "test.merge_into" in
  Tm.merge_histogram ~into:merged a;
  Tm.merge_histogram ~into:merged b;
  Alcotest.(check int) "count" whole.Tm.h_count merged.Tm.h_count;
  Alcotest.(check (float 0.0)) "min" whole.Tm.h_min merged.Tm.h_min;
  Alcotest.(check (float 0.0)) "max" whole.Tm.h_max merged.Tm.h_max;
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "p%.0f" (p *. 100.))
        (Tm.percentile whole p) (Tm.percentile merged p))
    [ 0.50; 0.95; 0.99 ];
  (* outside the registry: neither reports nor reset see them *)
  Alcotest.(check bool) "unregistered" false
    (List.mem_assoc "test.merge_whole" (Tm.instruments ()));
  Tm.reset ();
  Alcotest.(check int) "reset leaves it alone" 500 whole.Tm.h_count

(* counter snapshot/delta: the supervisor's per-unit attribution *)
let test_snapshot_delta () =
  Tm.reset ();
  let a = Tm.counter "test.delta_a" in
  let b = Tm.counter "test.delta_b" in
  Tm.add a 5;
  let snap = Tm.snapshot () in
  Tm.add a 3;
  Tm.incr b;
  let d = Tm.delta snap in
  Alcotest.(check (option int)) "a delta" (Some 3) (List.assoc_opt "test.delta_a" d);
  Alcotest.(check (option int)) "b delta" (Some 1) (List.assoc_opt "test.delta_b" d);
  (* untouched counters do not appear *)
  Alcotest.(check bool) "only nonzero increments" true
    (List.for_all (fun (_, n) -> n <> 0) d)

(* ------------------------------------------------------------------ *)
(* Span nesting *)

let test_span_nesting () =
  with_tracing @@ fun () ->
  Tm.with_span ~cat:"test" "root" (fun () ->
      Tm.with_span ~cat:"test" "child1" (fun () -> ());
      Tm.with_span ~cat:"test" "child2" (fun () ->
          Tm.with_span ~cat:"test" "grand" (fun () -> ())));
  let sps = Tm.spans () in
  let depth name =
    (List.find (fun sp -> sp.Tm.sp_name = name) sps).Tm.sp_depth
  in
  Alcotest.(check int) "four spans" 4 (List.length sps);
  Alcotest.(check int) "root depth" 0 (depth "root");
  Alcotest.(check int) "child1 depth" 1 (depth "child1");
  Alcotest.(check int) "child2 depth" 1 (depth "child2");
  Alcotest.(check int) "grand depth" 2 (depth "grand");
  (* every deeper span's interval lies inside the root's *)
  let span name = List.find (fun sp -> sp.Tm.sp_name = name) sps in
  let inside a b =
    (* [Sys.time] is coarse, so containment is checked up to equality *)
    a.Tm.sp_start >= b.Tm.sp_start
    && a.Tm.sp_start +. a.Tm.sp_dur <= b.Tm.sp_start +. b.Tm.sp_dur +. 1e-9
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " inside root") true (inside (span n) (span "root")))
    [ "child1"; "child2"; "grand" ];
  Alcotest.(check bool) "grand inside child2" true
    (inside (span "grand") (span "child2"))

let test_span_exception_safety () =
  with_tracing @@ fun () ->
  (try
     Tm.with_span ~cat:"test" "outer" (fun () ->
         Tm.with_span ~cat:"test" "thrower" (fun () -> failwith "boom"))
   with Failure _ -> ());
  let sps = Tm.spans () in
  Alcotest.(check int) "both spans recorded" 2 (List.length sps);
  (* depth unwound: a fresh span opens at the root again *)
  Tm.with_span ~cat:"test" "after" (fun () -> ());
  let after = List.find (fun sp -> sp.Tm.sp_name = "after") (Tm.spans ()) in
  Alcotest.(check int) "depth unwound to root" 0 after.Tm.sp_depth

let test_null_sink () =
  Tm.reset ();
  Alcotest.(check bool) "tracing off by default" false (Tm.tracing ());
  Tm.with_span ~cat:"test" "invisible" (fun () -> ());
  Alcotest.(check int) "no spans recorded when off" 0 (List.length (Tm.spans ()))

(* ------------------------------------------------------------------ *)
(* JSON: the exporters' output is read back with the shared reader *)

module J = Tm.Json

let json_doc s =
  match J.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable JSON: %s" e

(* Every finite float reads back bit-for-bit; NaN and the infinities have
   no JSON literal and print as null. *)
let json_float_roundtrip =
  QCheck.Test.make ~name:"Json.float reads back as the same float" ~count:2000
    QCheck.float (fun x ->
      if Float.is_finite x then
        match J.parse (J.float x) with
        | Ok j -> J.to_num j = Some x
        | Error _ -> false
      else J.float x = "null")

(* ------------------------------------------------------------------ *)
(* The execution/scheduling split of the simulation: time inside process
   bodies is counted only while tracing, so untraced runs read no clock *)

let test_exec_split () =
  let c = Vhdl_compiler.create () in
  ignore (Vhdl_compiler.compile c (read_corpus "kernel_mix.vhd"));
  let run () =
    let sim = Vhdl_compiler.elaborate ~trace:false c ~top:"KMIX" () in
    let before = Tm.counter_value "sim.exec_ns" in
    let t0 = Tm.now_s () in
    ignore (Vhdl_compiler.run c sim ~max_ns:480);
    let wall_ns = (Tm.now_s () -. t0) *. 1e9 in
    (Tm.counter_value "sim.exec_ns" - before, wall_ns)
  in
  let untraced, _ = run () in
  Alcotest.(check int) "untraced runs add nothing" 0 untraced;
  let traced, wall_ns = with_tracing run in
  Alcotest.(check bool) "traced runs count time in process bodies" true (traced > 0);
  Alcotest.(check bool) "within the run's own time" true (float_of_int traced <= wall_ns)

(* ------------------------------------------------------------------ *)
(* Chrome trace of a full compile + simulate *)

let test_chrome_trace () =
  with_tracing @@ fun () ->
  let src = read_corpus "golden_seed18_processes.vhd" in
  with_disk_compiler @@ fun c ->
  ignore (Vhdl_compiler.compile c src);
  let sim = Vhdl_compiler.elaborate ~trace:false c ~top:"FZTOP" () in
  ignore (Vhdl_compiler.run c sim ~max_ns:100);
  let events =
    match json_doc (Tm.to_chrome_trace ()) with
    | J.Arr events -> events
    | _ -> Alcotest.fail "trace is not a JSON array"
  in
  Alcotest.(check bool) "has events" true (List.length events > 5);
  let names = ref [] in
  List.iter
    (fun ev ->
      match J.mem "ph" ev with
      | Some (J.Str "M") -> () (* metadata *)
      | Some (J.Str "X") ->
        (* complete events carry the full Chrome trace-event shape *)
        (match (J.mem "name" ev, J.mem "cat" ev) with
        | Some (J.Str n), Some (J.Str _) -> names := n :: !names
        | _ -> Alcotest.fail "X event missing name/cat");
        (match (J.mem "ts" ev, J.mem "dur" ev) with
        | Some (J.Num ts), Some (J.Num dur) ->
          Alcotest.(check bool) "ts/dur non-negative" true (ts >= 0.0 && dur >= 0.0)
        | _ -> Alcotest.fail "X event missing ts/dur");
        (match (J.mem "pid" ev, J.mem "tid" ev) with
        | Some (J.Num _), Some (J.Num _) -> ()
        | _ -> Alcotest.fail "X event missing pid/tid")
      | _ -> Alcotest.fail "event with unexpected ph")
    events;
  (* the span tree covers every pipeline layer of compile + simulate *)
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("span " ^ expected) true (List.mem expected !names))
    [
      "compile";
      "scanner";
      "parser";
      "attribute evaluation";
      "expression evaluation (cascade)";
      "VIF write";
      "elaborate";
      "codegen+link (elaboration)";
      "simulate";
      "simulation";
    ]

let test_metrics_json () =
  Tm.reset ();
  let src = read_corpus "golden_seed3_behavioral.vhd" in
  let c = Vhdl_compiler.create () in
  ignore (Vhdl_compiler.compile c src);
  match json_doc (Tm.metrics_json ()) with
  | J.Obj _ as m ->
    let counters =
      match J.mem "counters" m with
      | Some (J.Obj cs) -> cs
      | _ -> Alcotest.fail "no counters object"
    in
    let counter name =
      match List.assoc_opt name counters with
      | Some (J.Num v) -> int_of_float v
      | _ -> Alcotest.failf "counter %s missing from JSON" name
    in
    Alcotest.(check int) "json mirrors registry" (Tm.counter_value "lexer.tokens")
      (counter "lexer.tokens");
    Alcotest.(check bool) "histograms present" true (J.mem "histograms" m <> None)
  | _ -> Alcotest.fail "metrics_json is not an object"

(* ------------------------------------------------------------------ *)
(* Golden metrics snapshot: a fixed corpus design must rack up exactly
   these front-end numbers.  Scanner, parser, evaluator and cascade counts
   are pure functions of the source text and the grammar; update the
   snapshot deliberately when the front end changes. *)

let test_golden_metrics () =
  Tm.reset ();
  let src = read_corpus "golden_seed3_behavioral.vhd" in
  with_disk_compiler @@ fun c ->
  ignore (Vhdl_compiler.compile c src);
  let v = Tm.counter_value in
  Alcotest.(check int) "lexer.lines" 46 (v "lexer.lines");
  Alcotest.(check int) "lexer.tokens" 323 (v "lexer.tokens");
  Alcotest.(check int) "cascade.evaluations" 43 (v "cascade.evaluations");
  Alcotest.(check int) "cascade.lef_tokens" 179 (v "cascade.lef_tokens");
  Alcotest.(check int) "cascade.reparses" 43 (v "cascade.reparses");
  Alcotest.(check int) "supervisor.units_compiled" 2 (v "supervisor.units_compiled");
  Alcotest.(check int) "vif.writes" 2 (v "vif.writes");
  (* evaluator and parser work is pinned exactly: a change to attribute
     storage or evaluation order must not move it, and a change to the
     semantic rules or the grammar that does move it updates these numbers
     on purpose.  The staged parse builds no node for a chain production,
     so a chain node's copies and the unread constant primary_name.SRES
     are not counted *)
  Alcotest.(check int) "ag.attrs_evaluated" 2948 (v "ag.attrs_evaluated");
  Alcotest.(check int) "ag.memo_hits" 1623 (v "ag.memo_hits");
  Alcotest.(check int) "ag.copy_elisions" 779 (v "ag.copy_elisions");
  Alcotest.(check int) "ag.rule_applications" 1871 (v "ag.rule_applications");
  Alcotest.(check int) "lalr.shifts" 502 (v "lalr.shifts");
  Alcotest.(check int) "lalr.reduces" 1413 (v "lalr.reduces");
  Alcotest.(check int) "no parse errors" 0 (v "lalr.errors");
  (* recompiling the same source parses every expression again: a compile
     keeps nothing for the next one *)
  with_disk_compiler @@ fun c2 ->
  ignore (Vhdl_compiler.compile c2 src);
  Alcotest.(check int) "cascade.evaluations after recompile" 86 (v "cascade.evaluations");
  Alcotest.(check int) "cascade.reparses after recompile" 86 (v "cascade.reparses")

(* ------------------------------------------------------------------ *)
(* Overhead guard: with tracing off, the only cost the telemetry layer
   adds to a compile is its counter bumps.  Bound that cost from above —
   (instrument ops during a compile) x (measured cost per op) — and
   require it under 3% of the compile's own time.  Both times are the
   fastest of several runs: a test suite running beside this one slows
   single runs, by different amounts on each side of the ratio. *)

let fastest ~runs f =
  let best = ref infinity in
  for _ = 1 to runs do
    let t0 = Sys.time () in
    f ();
    best := Float.min !best (Sys.time () -. t0)
  done;
  !best

let test_overhead_guard () =
  Tm.reset ();
  Alcotest.(check bool) "tracing off" false (Tm.tracing ());
  let src = read_corpus "golden_seed18_processes.vhd" in
  let reps = 5 in
  let compile_s =
    fastest ~runs:reps (fun () ->
        let c = Vhdl_compiler.create () in
        ignore (Vhdl_compiler.compile c src))
  in
  (* counter values over-count the ops: every op is an incr (+1) or an add
     (+n, counted here as n ops).  Byte-valued phase.alloc_b ledger
     counters are excluded — a single add of megabytes is one op, not
     millions *)
  let ops =
    List.fold_left
      (fun acc (name, i) ->
        match i with
        | Tm.Counter c ->
          if String.length name >= 13 && String.sub name 0 13 = "phase.alloc_b"
          then acc + 1
          else acc + Tm.value c
        | Tm.Gauge _ -> acc
        | Tm.Histogram h -> acc + h.Tm.h_count)
      0 (Tm.instruments ())
    / reps
  in
  Alcotest.(check bool) "the compile did real work" true (ops > 1000);
  let scratch = Tm.counter "test.overhead_scratch" in
  let n = 1_000_000 in
  let per_op =
    fastest ~runs:5 (fun () ->
        for _ = 1 to n do
          Tm.incr scratch
        done)
    /. float_of_int n
  in
  let budget = 0.03 *. compile_s in
  let cost = per_op *. float_of_int ops in
  if cost >= budget then
    Alcotest.failf
      "telemetry overhead bound %.6fs (%d ops x %.1fns) exceeds 3%% of %.4fs compile"
      cost ops (per_op *. 1e9) compile_s

let suite =
  [
    Alcotest.test_case "counters and reset" `Quick test_counters;
    Alcotest.test_case "histogram percentiles" `Quick test_percentiles;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "counter snapshot/delta" `Quick test_snapshot_delta;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "null sink when tracing off" `Quick test_null_sink;
    Alcotest.test_case "exec time counted only while tracing" `Quick test_exec_split;
    Alcotest.test_case "chrome trace of compile+simulate" `Quick test_chrome_trace;
    Alcotest.test_case "metrics JSON mirrors registry" `Quick test_metrics_json;
    QCheck_alcotest.to_alcotest json_float_roundtrip;
    Alcotest.test_case "golden metrics snapshot" `Quick test_golden_metrics;
    Alcotest.test_case "overhead guard" `Quick test_overhead_guard;
  ]
