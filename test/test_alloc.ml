(* The allocation observatory's unit battery.

   The load-bearing invariants:
   - span allocation accounting is conservative: a span's [sp_alloc_w]
     covers its children, the self-allocation table subtracts them, and
     a span that allocates nothing reports exactly 0.0 (the snapshot
     path itself is allocation-free);
   - the allocation flamegraph conserves exactly: the folded lines'
     byte total equals the per-name self-allocation total with no
     tolerance (word counts are integral, so the per-line rounding is
     exact);
   - the phase timer's allocation table sums to the region's measured
     GC allocation delta within 5%, also when another compiler's timer
     opens frames inside the region;
   - [Obs_event.check_log] enforces the [al_*]-sum-vs-[alloc_b]
     invariant on finish events;
   - the bench diff's [alloc] rows flag a planted 2x allocation
     regression while 8% jitter passes;
   - attribute evaluation allocates the same bytes per declaration in a
     2000-declaration package as in a 250-declaration one, and per
     literal in a 1000-literal enumeration as in a 250-literal one;
   - the expression AG's [items_more] ITEMS rule allocates the same bytes
     per element in a 4000-element aggregate as in a 500-element one;
   - the LALR driver allocates nothing of its own per shift or reduce, and
     the evaluator nothing per rule application beyond the memo cell's
     [Done] box and the node's cells. *)

module Telemetry = Vhdl_telemetry.Telemetry
module Phase_timer = Vhdl_util.Phase_timer
module Perf = Vhdl_perf.Perf
module E = Obs_event

(* allocate [n] words' worth of boxed data the optimizer cannot elide *)
let churn_words n =
  let blocks = n / 256 in
  for _ = 1 to max 1 blocks do
    ignore (Sys.opaque_identity (Bytes.create (254 * Telemetry.bytes_per_word)))
  done

let with_tracing f =
  Telemetry.clear_spans ();
  Telemetry.set_tracing true;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_tracing false;
      Telemetry.clear_spans ())
    f

(* a span whose body allocates nothing reports sp_alloc_w = 0.0 exactly:
   the snapshot mechanism is Gc.minor_words, unboxed and allocation-free *)
let test_zero_alloc_span_is_zero () =
  with_tracing @@ fun () ->
  Telemetry.with_span "idle" (fun () -> ());
  match Telemetry.spans () with
  | [ sp ] ->
    Alcotest.(check (float 0.0)) "exactly zero words" 0.0 sp.Telemetry.sp_alloc_w
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

(* nested spans: the parent's total covers the child, and the self table
   subtracts it *)
let test_span_alloc_covers_children () =
  with_tracing @@ fun () ->
  Telemetry.with_span "parent" (fun () ->
      churn_words 50_000;
      Telemetry.with_span "child" (fun () -> churn_words 200_000));
  let spans = Telemetry.spans () in
  let find name =
    List.find (fun sp -> sp.Telemetry.sp_name = name) spans
  in
  let parent = find "parent" and child = find "child" in
  Alcotest.(check bool) "child allocated" true (child.Telemetry.sp_alloc_w > 0.0);
  Alcotest.(check bool) "parent total covers child" true
    (parent.Telemetry.sp_alloc_w >= child.Telemetry.sp_alloc_w);
  let selfs = Perf.Flame.self_allocs spans in
  let self name = Option.value (List.assoc_opt name selfs) ~default:nan in
  Alcotest.(check (float 1.0)) "parent self = total - child"
    (parent.Telemetry.sp_alloc_w -. child.Telemetry.sp_alloc_w)
    (self "parent");
  Alcotest.(check (float 1.0)) "child self = child total"
    child.Telemetry.sp_alloc_w (self "child")

(* exact conservation: the folded lines' byte total equals the
   self-allocation byte total with zero tolerance *)
let test_folded_alloc_conserves_exactly () =
  with_tracing @@ fun () ->
  Telemetry.with_span "root" (fun () ->
      churn_words 30_000;
      Telemetry.with_span "a" (fun () -> churn_words 120_000);
      Telemetry.with_span "b" (fun () ->
          churn_words 40_000;
          Telemetry.with_span "leaf" (fun () -> churn_words 80_000)));
  let spans = Telemetry.spans () in
  let folded_total =
    String.split_on_char '\n' (Perf.Flame.folded_alloc spans)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.fold_left
         (fun acc line ->
           match String.rindex_opt line ' ' with
           | None -> Alcotest.failf "malformed folded line %S" line
           | Some i ->
             let n = String.length line in
             acc + int_of_string (String.sub line (i + 1) (n - i - 1)))
         0
  in
  let self_total =
    List.fold_left
      (fun acc (_, w) ->
        acc
        + int_of_float
            (Float.round (w *. float_of_int Telemetry.bytes_per_word)))
      0
      (Perf.Flame.self_allocs spans)
  in
  Alcotest.(check bool) "something was attributed" true (self_total > 0);
  Alcotest.(check int) "folded bytes == self-alloc bytes, exactly"
    self_total folded_total

(* the phase table's allocation column sums to the measured GC delta of
   the phased region within 5% *)
let test_phase_alloc_sums_to_gc_delta () =
  let t = Phase_timer.create () in
  let a0 = Telemetry.allocated_words_now () in
  Phase_timer.time t "parse" (fun () -> churn_words 300_000);
  Phase_timer.time t "attrs" (fun () ->
      churn_words 100_000;
      Phase_timer.time t "cascade" (fun () -> churn_words 500_000));
  let delta = Telemetry.allocated_words_now () -. a0 in
  let table_sum =
    List.fold_left (fun a (_, w) -> a +. w) 0.0 (Phase_timer.report_alloc t)
  in
  Alcotest.(check (float 1e-6)) "report_alloc sums to total_alloc"
    (Phase_timer.total_alloc t) table_sum;
  let tolerance = Float.max (0.05 *. delta) 2048.0 in
  if Float.abs (table_sum -. delta) > tolerance then
    Alcotest.failf "phase alloc table %.0fw disagrees with GC delta %.0fw"
      table_sum delta

(* a timer's table is its own: compiler B's frames, opened inside a frame
   of compiler A's timer, are not subtracted from A's phase *)
let test_timer_table_is_its_own () =
  let a = Vhdl_compiler.create () and b = Vhdl_compiler.create () in
  let timer = Vhdl_compiler.timer a in
  let a0 = Telemetry.allocated_words_now () in
  Phase_timer.time timer "outer" (fun () ->
      ignore (Vhdl_compiler.compile b (Workload.behavioral ~name:"B" ~states:4 ~exprs:8)));
  let delta = Telemetry.allocated_words_now () -. a0 in
  Alcotest.(check (list string)) "only outer" [ "outer" ]
    (List.map fst (Phase_timer.report_alloc timer));
  let table_sum = Phase_timer.total_alloc timer in
  let tolerance = Float.max (0.05 *. delta) 2048.0 in
  if Float.abs (table_sum -. delta) > tolerance then
    Alcotest.failf "A's alloc table %.0fw disagrees with the region's GC delta %.0fw"
      table_sum delta

(* check_log: the al_* fields of a finish must sum to alloc_b *)
let lifecycle ~rid finish =
  [
    E.make ~rid E.Accept;
    E.make ~rid ~fields:[ ("verb", E.S "compile") ] E.Start;
    finish;
  ]

let finish_alloc ~rid ~alloc_b allocs =
  E.make ~rid
    ~fields:
      (("status", E.S "ok")
      :: ("alloc_b", E.F alloc_b)
      :: List.map (fun (name, b) -> ("al_" ^ name, E.F b)) allocs)
    E.Finish

let test_check_log_alloc_sum () =
  let ok =
    lifecycle ~rid:1
      (finish_alloc ~rid:1 ~alloc_b:1_000_000.0
         [ ("parse", 300_000.0); ("cascade", 650_000.0); ("other", 50_000.0) ])
  in
  Alcotest.(check (list string)) "agreeing sum accepted" [] (E.check_log ok);
  let off =
    lifecycle ~rid:1
      (finish_alloc ~rid:1 ~alloc_b:1_000_000.0 [ ("parse", 300_000.0) ])
  in
  Alcotest.(check bool) "70% disagreement flagged" true (E.check_log off <> []);
  (* alloc-free logs (or pre-observatory ones) still check clean *)
  let bare = lifecycle ~rid:1 (finish_alloc ~rid:1 ~alloc_b:0.0 []) in
  Alcotest.(check (list string)) "alloc-field-free finish accepted" []
    (E.check_log bare);
  (* tiny requests never false-positive on counter granularity (4 KiB floor) *)
  let tiny =
    lifecycle ~rid:1 (finish_alloc ~rid:1 ~alloc_b:512.0 [ ("other", 3000.0) ])
  in
  Alcotest.(check (list string)) "4KiB tolerance floor holds" []
    (E.check_log tiny)

(* the regression gate's allocation axis: 2x trips, 8% jitter passes *)
let sample_with_allocs name words =
  {
    Perf.Sample.s_name = name;
    s_warmup = 0;
    s_times = [| 0.010; 0.011; 0.010; 0.012; 0.011 |];
    s_allocs = Array.map (fun x -> x *. words) [| 1.0; 1.001; 0.999; 1.0; 1.002 |];
    s_gc = Perf.Gc_delta.zero;
    s_counters = [];
    s_phases = [];
    s_metrics = [];
  }

let test_diff_alloc_gate () =
  let report samples = Perf.Report.make samples in
  let base = report [ sample_with_allocs "compile/adder" 1_000_000.0 ] in
  let doubled = report [ sample_with_allocs "compile/adder" 2_000_000.0 ] in
  let jitter = report [ sample_with_allocs "compile/adder" 1_080_000.0 ] in
  let rows = Perf.Diff.compare_reports ~baseline:base ~current:doubled () in
  let alloc_rows = List.filter Perf.Diff.is_alloc_row rows in
  Alcotest.(check int) "one alloc row" 1 (List.length alloc_rows);
  let regressed =
    List.exists Perf.Diff.is_alloc_row (Perf.Diff.regressions rows)
  in
  Alcotest.(check bool) "planted 2x allocation regression trips" true regressed;
  let rows = Perf.Diff.compare_reports ~baseline:base ~current:jitter () in
  Alcotest.(check bool) "8% allocation jitter passes" false
    (List.exists Perf.Diff.is_alloc_row (Perf.Diff.regressions rows));
  (* a baseline predating allocation capture yields no alloc row *)
  let old = report [ { (sample_with_allocs "compile/adder" 0.0) with Perf.Sample.s_allocs = [||] } ] in
  let rows = Perf.Diff.compare_reports ~baseline:old ~current:doubled () in
  Alcotest.(check int) "pre-capture baseline: no alloc row" 0
    (List.length (List.filter Perf.Diff.is_alloc_row rows))

(* the perturbation seam that lets the gate be tested end to end *)
let test_perturb_alloc_parsing () =
  let with_env v f =
    Unix.putenv Perf.perturb_alloc_env v;
    Fun.protect ~finally:(fun () -> Unix.putenv Perf.perturb_alloc_env "") f
  in
  with_env "adder:4096" (fun () ->
      Alcotest.(check int) "named experiment perturbed" 4096
        (Perf.perturb_alloc_b ~name:"compile/adder");
      Alcotest.(check int) "other experiments untouched" 0
        (Perf.perturb_alloc_b ~name:"compile/mux"));
  with_env "8192" (fun () ->
      Alcotest.(check int) "bare bytes perturb everything" 8192
        (Perf.perturb_alloc_b ~name:"anything"));
  Alcotest.(check int) "unset seam is inert" 0
    (Perf.perturb_alloc_b ~name:"compile/adder")

(* Perf.run captures per-repetition allocation and the report round-trips it *)
let test_run_captures_allocs () =
  let s =
    Perf.run ~warmup:0 ~repeats:3 ~name:"alloc-probe" (fun () ->
        churn_words 100_000)
  in
  Alcotest.(check int) "one alloc sample per rep" 3 (Array.length s.Perf.Sample.s_allocs);
  Alcotest.(check bool) "median sees the churn" true
    (Perf.Sample.alloc_median s >= 90_000.0);
  let path = Filename.temp_file "vhdl-alloc" ".json" in
  Perf.Report.save path (Perf.Report.make [ s ]);
  (match Perf.Report.load path with
  | Error msg -> Alcotest.fail msg
  | Ok r -> (
    match r.Perf.Report.r_samples with
    | [ s' ] ->
      (* the JSON floats keep 6 significant digits, so a ~1MB figure can
         drift a few bytes through the round-trip *)
      Alcotest.(check (float 16.0)) "bytes/compile round-trips"
        (Perf.Sample.alloc_bytes_median s)
        (Perf.Sample.alloc_bytes_median s')
    | ss -> Alcotest.failf "expected 1 sample, got %d" (List.length ss)));
  Sys.remove path

(* self-allocated bytes of the "attribute evaluation" phase of one
   compile by a fresh compiler *)
let attr_eval_bytes src =
  let c = Vhdl_compiler.create () in
  ignore (Vhdl_compiler.compile c src);
  match List.assoc_opt "attribute evaluation" (Phase_timer.report_alloc (Vhdl_compiler.timer c)) with
  | Some w -> w *. float_of_int Telemetry.bytes_per_word
  | None -> Alcotest.fail "no attribute evaluation phase"

let enumeration ~n =
  Printf.sprintf "package ENUMS is\n  type T is (%s);\nend ENUMS;\n"
    (String.concat ", " (List.init n (Printf.sprintf "L%d")))

(* a declarative region costs one step per declaration: a region that
   rebuilds its environment or copies its lists per item allocates in
   proportion to the items before it, and its bytes per declaration grow
   with the region *)
let test_attr_eval_linear_in_region () =
  let check what ~unit (small_n, small_src) (large_n, large_src) =
    let per n src = attr_eval_bytes src /. float_of_int n in
    let small = per small_n small_src and large = per large_n large_src in
    let ratio = Float.max small large /. Float.min small large in
    if ratio > 1.3 then
      Alcotest.failf "%s: %.0f B per %s at %d, %.0f B at %d (%.2fx, bound 1.3x)" what
        small unit small_n large large_n ratio
  in
  (* Workload.package ~n declares n constants and n functions *)
  check "package" ~unit:"declaration"
    (250, Workload.package ~name:"P125" ~n:125)
    (2000, Workload.package ~name:"P1000" ~n:1000);
  check "enumeration" ~unit:"literal"
    (250, enumeration ~n:250)
    (1000, enumeration ~n:1000)

(* bytes per element of one rule in one compile, read from the hot-rule
   profile's JSON as [vhdlc stats --json] prints it *)
let rule_bytes_per_element ~ag ~prod ~attr ~n src =
  let module J = Telemetry.Json in
  let recorder = Provenance.create () in
  ignore (Vhdl_compiler.compile (Vhdl_compiler.create ~provenance:recorder ()) src);
  let is_row row =
    let field k = Option.bind (J.mem k row) J.to_str in
    field "ag" = Some ag && field "production" = Some prod && field "attribute" = Some attr
  in
  match J.parse (Stats.profile_json (Provenance.profile recorder)) with
  | Ok (J.Arr rows) -> (
    match Option.bind (List.find_opt is_row rows) (J.mem "self_alloc_b") with
    | Some b -> Option.get (J.to_num b) /. float_of_int n
    | None -> Alcotest.failf "no %s row for %s %s" ag prod attr)
  | Ok _ | Error _ -> Alcotest.fail "profile_json is not a JSON array"

let aggregate ~n =
  Printf.sprintf
    "package AGG is\n  type ARR is array (0 to %d) of integer;\n  constant C : ARR := (%s);\nend AGG;\n"
    (n - 1)
    (String.concat ", " (List.init n string_of_int))

(* the expression AG's argument and element lists cost one step per item,
   so the [items_more] ITEMS rule's bytes per element hold from 500 to
   4000 elements; a rule that copies its prefix grows them with N *)
let test_items_linear_in_aggregate () =
  let per n = rule_bytes_per_element ~ag:"expr" ~prod:"items_more" ~attr:"ITEMS" ~n (aggregate ~n) in
  let small = per 500 and large = per 4000 in
  let ratio = Float.max small large /. Float.min small large in
  if ratio > 1.3 then
    Alcotest.failf "items_more ITEMS: %.0f B per element at 500, %.0f B at 4000 (%.2fx, bound 1.3x)"
      small large ratio

(* The driver with callbacks that allocate nothing, over the expression
   grammar of the LALR tests on [id + id * id + ...]: what remains is the
   stack, allocated once per parse.  A stack of cons cells costs at least 6
   words per shift. *)
let test_driver_allocates_nothing_per_token () =
  let module Driver = Vhdl_lalr.Driver in
  let cfg, id_of = Test_lalr.build_cfg Test_lalr.expr_spec in
  let table = Vhdl_lalr.Table.build cfg in
  let n = 4001 in
  let tokens =
    Array.init (n + 1) (fun i ->
        let w =
          if i = n then "$" else if i mod 2 = 0 then "id" else if i mod 4 = 1 then "+" else "*"
        in
        { Driver.t_sym = id_of w; t_value = (); t_line = 1 })
  in
  let next = ref 0 in
  let lexer () =
    let t = tokens.(!next) in
    incr next;
    t
  in
  let w0 = Gc.minor_words () in
  Driver.parse table ~lexer ~shift:(fun _ () _ -> ()) ~reduce:(fun _ _ _ -> ());
  let words = Gc.minor_words () -. w0 in
  if words >= float_of_int n then
    Alcotest.failf "the driver allocated %.0f words over %d tokens (bound: under 1 per token)"
      words n

type v = K of int

(* A list AG whose rules take 1, 2 and 3 values and return preallocated
   ones: per node, A reads 1, B 2 and C 3 dependencies. *)
let arity_grammar () =
  let open Grammar.Builder in
  let b = create () in
  ignore (terminal b "x");
  ignore (terminal b "$");
  List.iter (fun name -> attr b ~sym:"L" ~name ~dir:Grammar.Synthesized) [ "A"; "B"; "C" ];
  attr b ~sym:"S" ~name:"OUT" ~dir:Grammar.Synthesized;
  let k1 = K 1 and k2 = K 2 and k3 = K 3 in
  production b ~name:"s" ~lhs:"S" ~rhs:[ "L" ]
    ~rules:[ rule ~target:(0, "OUT") ~deps:[ (1, "A"); (1, "B"); (1, "C") ] (fun _ _ _ -> k3) ];
  production b ~name:"l_more" ~lhs:"L" ~rhs:[ "L"; "x" ]
    ~rules:
      [
        rule ~target:(0, "A") ~deps:[ (1, "A") ] (fun _ -> k1);
        rule ~target:(0, "B") ~deps:[ (1, "B"); (2, "VAL") ] (fun _ _ -> k2);
        rule ~target:(0, "C") ~deps:[ (1, "C"); (0, "A"); (0, "B") ] (fun _ _ _ -> k3);
      ];
  production b ~name:"l_one" ~lhs:"L" ~rhs:[ "x" ]
    ~rules:
      [
        rule ~target:(0, "A") ~deps:[ (1, "VAL") ] (fun _ -> k1);
        rule ~target:(0, "B") ~deps:[ (1, "VAL"); (1, "VAL") ] (fun _ _ -> k2);
        rule ~target:(0, "C") ~deps:[ (1, "VAL"); (0, "A"); (0, "B") ] (fun _ _ _ -> k3);
      ];
  freeze b ~start:"S"

(* What evaluating the goal may allocate: per attribute instance, the
   [Done] box (2 words) of its memo cell, and per node its cells (a slot
   per attribute, plus the header).  Argument lists of 3 words per
   dependency would add 2 to 6 words per application. *)
let test_rule_application_allocates_no_arguments () =
  let g = arity_grammar () in
  let parser_ = Parsing.create ~name:"arity" g ~eof:"$" in
  let n = 1000 in
  let x = Grammar.find_symbol g "x" in
  let tokens = List.init n (fun i -> { Vhdl_lalr.Driver.t_sym = x; t_value = K i; t_line = 1 }) in
  let tree = Parsing.parse_list parser_ ~elide_chains:false ~eof_value:(K 0) tokens in
  let ev = Evaluator.create g ~root_inherited:[] tree in
  let w0 = Gc.minor_words () in
  ignore (Evaluator.goal ev "OUT");
  let words = Gc.minor_words () -. w0 in
  let apps = Evaluator.rule_applications ev in
  Alcotest.(check int) "applications" (1 + (3 * n)) apps;
  (* instances: every rule's target and every leaf's VAL; cells: the root
     S (1 slot), n L nodes (3 slots), n leaves (VAL and LINE) *)
  let done_words = 2 * (apps + n) in
  let cell_words = 2 + (4 * n) + (3 * n) in
  let bound = done_words + cell_words + 16 in
  if words > float_of_int bound then
    Alcotest.failf
      "evaluation allocated %.2f words per rule application; the Done boxes and cells \
       account for %.2f"
      (words /. float_of_int apps)
      (float_of_int (done_words + cell_words) /. float_of_int apps)

let suite =
  [
    Alcotest.test_case "zero-allocation span reports exactly 0" `Quick
      test_zero_alloc_span_is_zero;
    Alcotest.test_case "span allocation covers children; self subtracts" `Quick
      test_span_alloc_covers_children;
    Alcotest.test_case "folded_alloc conserves bytes exactly" `Quick
      test_folded_alloc_conserves_exactly;
    Alcotest.test_case "phase alloc table sums to the GC delta" `Quick
      test_phase_alloc_sums_to_gc_delta;
    Alcotest.test_case "a timer's alloc table is its own" `Quick
      test_timer_table_is_its_own;
    Alcotest.test_case "check_log enforces the al_* sum invariant" `Quick
      test_check_log_alloc_sum;
    Alcotest.test_case "diff gates allocation: 2x trips, 8% passes" `Quick
      test_diff_alloc_gate;
    Alcotest.test_case "perturbation seam parses and scopes" `Quick
      test_perturb_alloc_parsing;
    Alcotest.test_case "bench runs capture per-rep allocation" `Quick
      test_run_captures_allocs;
    Alcotest.test_case "attribute evaluation is linear in a region" `Quick
      test_attr_eval_linear_in_region;
    Alcotest.test_case "aggregate items are linear in their count" `Quick
      test_items_linear_in_aggregate;
    Alcotest.test_case "the LALR driver allocates under a word per token" `Quick
      test_driver_allocates_nothing_per_token;
    Alcotest.test_case "a rule application builds no argument list" `Quick
      test_rule_application_allocates_no_arguments;
  ]
