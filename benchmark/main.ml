(** The claims benchmark: four seeded workloads, end-to-end metrics from
    untraced runs, per-layer metrics from a traced run.  See README.md.

    {v
    main.exe --workload W --seed N (--seconds S | --ops N) --trace 0|1 [--trace-dir D]
    main.exe --seed N [--quick] [--trace 1 [--trace-dir D]] [--out FILE]
    main.exe --compare A.json B.json [--spec BENCHMARK.json]
    v}

    The first form runs one workload in this process and prints one JSON
    result as its last line.  The second runs every workload in fresh
    processes, five rounds in a seeded order, and writes a results file;
    the third applies BENCHMARK.json's bounds to two results files. *)

open Harness

(* ------------------------------------------------------------------ *)
(* Metric catalogue (BENCHMARK.json lists the same names) *)

(** Printed by every untraced run. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "ops/s");
    ("latency_ms.p50", "ms");
    ("alloc_mb_per_op", "MB");
    ("peak_heap_mb", "MB");
  ]

(** Printed by every traced run: name, unit, and whether the value is an
    exact count that must repeat for a given seed. *)
let per_layer =
  [
    ("setup.grammar_s", "s", false);
    ("setup.plan_s", "s", false);
    ("setup.first_compile_s", "s", false);
    ("lexer.tokens_per_op", "count", true);
    ("lexer.busy_ms_per_op", "ms", false);
    ("lexer.alloc_mb_per_op", "MB", false);
    ("lalr.shifts_per_op", "count", true);
    ("lalr.reduces_per_op", "count", true);
    ("lalr.busy_ms_per_op", "ms", false);
    ("lalr.alloc_mb_per_op", "MB", false);
    ("ag.rule_applications_per_op", "count", true);
    ("ag.attrs_per_op", "count", true);
    ("ag.copy_elisions_per_op", "count", true);
    ("ag.busy_ms_per_op", "ms", false);
    ("ag.alloc_mb_per_op", "MB", false);
    ("cascade.evaluations_per_op", "count", true);
    ("cascade.lef_tokens_per_op", "count", true);
    ("cascade.memo_hit_ratio", "ratio", true);
    ("cascade.reparses_per_op", "count", true);
    ("cascade.busy_ms_per_op", "ms", false);
    ("cascade.alloc_mb_per_op", "MB", false);
    ("vif.reads_per_op", "count", true);
    ("vif.writes_per_op", "count", true);
    ("vif.read_kb_per_op", "kB", true);
    ("vif.write_kb_per_op", "kB", true);
    ("vif.bytes_per_unit", "B", true);
    ("vif.read_ms_per_op", "ms", false);
    ("vif.write_ms_per_op", "ms", false);
    ("vif.find_cold_us", "us", false);
    ("vif.alloc_mb_per_op", "MB", false);
    ("core.busy_ms_per_op", "ms", false);
    ("elab.instances_per_op", "count", true);
    ("elab.busy_ms_per_op", "ms", false);
    ("elab.alloc_mb_per_op", "MB", false);
    ("sim.delta_cycles_per_op", "count", true);
    ("sim.events_per_op", "count", true);
    ("sim.process_runs_per_op", "count", true);
    ("sim.runs_per_event", "ratio", true);
    ("sim.busy_ms_per_op", "ms", false);
    ("sim.deltas_per_s", "1/s", false);
    ("sim.alloc_mb_per_op", "MB", false);
    ("serve.service_ms.p50", "ms", false);
    ("serve.wait_ms.p50", "ms", false);
    ("serve.worker_recycles", "count", true);
    ("serve.shed", "count", true);
    ("serve.live_heap_growth_pct", "%", false);
    ("serve.open_latency_ms.p50", "ms", false);
    ("serve.open_latency_ms.p99", "ms", false);
    ("serve.gen_lag_ms.p99", "ms", false);
    ("op.latency_ms.p99", "ms", false);
    ("gc.minor_collections_per_op", "count", false);
    ("gc.major_collections_per_op", "count", false);
    ("trace.coverage", "ratio", false);
    ("trace.overhead_pct", "%", false);
  ]

(** Compiler phase (the event log's short name) to layer. *)
let layer_of_phase = function
  | "scan" -> "lexer"
  | "parse" -> "lalr"
  | "attrs" -> "ag"
  | "cascade" -> "cascade"
  | "vif_read" | "vif_write" -> "vif"
  | "elaborate" -> "elab"
  | "simulate" -> "sim"
  | "core" -> "core"
  | "other" | "wait" -> "serve"
  | _ -> "unattributed"

let layers = [ "lexer"; "lalr"; "ag"; "cascade"; "vif"; "core"; "elab"; "sim"; "serve" ]

(** Every per-layer value of a traced batch. *)
let layer_values (t : traced) ~setup ~overhead_pct ~find_cold_us ~p99_ms =
  let per x = x /. float_of_int t.ops in
  let count k = float_of_int (Option.value (List.assoc_opt k t.counters) ~default:0) in
  let by_layer tbl layer =
    List.fold_left (fun acc (ph, v) -> if layer_of_phase ph = layer then acc +. v else acc) 0.0 tbl
  in
  let busy_ms layer = per (1000.0 *. by_layer t.phases layer) in
  let alloc_mb layer = per (by_layer t.words layer *. float_of_int Tm.bytes_per_word /. 1e6) in
  let phase ph = Option.value (List.assoc_opt ph t.phases) ~default:0.0 in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let deltas, events, runs = t.kernel in
  let deltas = float_of_int deltas and events = float_of_int events and runs = float_of_int runs in
  let minor, major = t.gc in
  let covered = List.fold_left (fun acc l -> acc +. by_layer t.phases l) 0.0 layers in
  setup
  @ [
      ("lexer.tokens_per_op", per (count "lexer.tokens"));
      ("lexer.busy_ms_per_op", busy_ms "lexer");
      ("lexer.alloc_mb_per_op", alloc_mb "lexer");
      ("lalr.shifts_per_op", per (count "lalr.shifts"));
      ("lalr.reduces_per_op", per (count "lalr.reduces"));
      ("lalr.busy_ms_per_op", busy_ms "lalr");
      ("lalr.alloc_mb_per_op", alloc_mb "lalr");
      ("ag.rule_applications_per_op", per (count "ag.rule_applications"));
      ("ag.attrs_per_op", per (count "ag.attrs_evaluated"));
      ("ag.copy_elisions_per_op", per (count "ag.copy_elisions"));
      ("ag.busy_ms_per_op", busy_ms "ag");
      ("ag.alloc_mb_per_op", alloc_mb "ag");
      ("cascade.evaluations_per_op", per (count "cascade.evaluations"));
      ("cascade.lef_tokens_per_op", per (count "cascade.lef_tokens"));
      ( "cascade.memo_hit_ratio",
        ratio (count "cascade.memo_hits") (count "cascade.memo_hits" +. count "cascade.memo_misses") );
      ("cascade.reparses_per_op", per (count "cascade.reparses"));
      ("cascade.busy_ms_per_op", busy_ms "cascade");
      ("cascade.alloc_mb_per_op", alloc_mb "cascade");
      ("vif.reads_per_op", per (count "vif.reads"));
      ("vif.writes_per_op", per (count "vif.writes"));
      ("vif.read_kb_per_op", per (count "vif.read_bytes" /. 1000.0));
      ("vif.write_kb_per_op", per (count "vif.write_bytes" /. 1000.0));
      ("vif.bytes_per_unit", ratio (count "vif.write_bytes") (count "vif.writes"));
      ("vif.read_ms_per_op", per (1000.0 *. phase "vif_read"));
      ("vif.write_ms_per_op", per (1000.0 *. phase "vif_write"));
      ("vif.find_cold_us", find_cold_us);
      ("vif.alloc_mb_per_op", alloc_mb "vif");
      ("core.busy_ms_per_op", busy_ms "core");
      ("elab.instances_per_op", per (count "elab.instances"));
      ("elab.busy_ms_per_op", busy_ms "elab");
      ("elab.alloc_mb_per_op", alloc_mb "elab");
      ("sim.delta_cycles_per_op", per deltas);
      ("sim.events_per_op", per events);
      ("sim.process_runs_per_op", per runs);
      ("sim.runs_per_event", ratio runs events);
      ("sim.busy_ms_per_op", busy_ms "sim");
      ("sim.deltas_per_s", ratio deltas (by_layer t.phases "sim"));
      ("sim.alloc_mb_per_op", alloc_mb "sim");
      ("op.latency_ms.p99", p99_ms);
      ("gc.minor_collections_per_op", per (float_of_int minor));
      ("gc.major_collections_per_op", per (float_of_int major));
      ("trace.coverage", ratio covered t.seconds);
      ("trace.overhead_pct", overhead_pct);
    ]
  @ t.extra

(* ------------------------------------------------------------------ *)
(* Untraced measurement *)

type budget =
  | Seconds of float
  | Ops of int

type measured = {
  lats : float list;  (** per-op latency, seconds *)
  blocks : float list list;  (** the latencies of each complete deck block *)
  attempted : int;
  failed : int;
  alloc : float;  (** words the system under test allocated *)
}

let report_failure w i msg =
  Printf.eprintf "%s: op %d failed: %s\n%!" w.Loads.name i msg

(** Run ops [first], [first+1], ... until the budget is spent; a
    [Seconds] budget ends on a block boundary, so every run keeps the
    deck's mix. *)
let measure (w : Loads.workload) (inst : Loads.instance) ~first budget =
  let a0 = inst.sut_alloc_words () in
  let start = clock () in
  let lats = ref [] and blocks = ref [] and block = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let more () =
    match budget with
    | Ops n -> !attempted < n
    | Seconds s -> clock () -. start < s || !attempted mod w.deck <> 0
  in
  while more () do
    let i = first + !attempted in
    op_seconds := 0.0;
    let ok =
      match inst.run_op i with
      | true -> true
      | false -> report_failure w i "wrong output"; false
      | exception e -> report_failure w i (Printexc.to_string e); false
    in
    incr attempted;
    if not ok then incr failed;
    lats := !op_seconds :: !lats;
    block := !op_seconds :: !block;
    if !attempted mod w.deck = 0 then begin
      blocks := !block :: !blocks;
      block := []
    end
  done;
  {
    lats = !lats;
    blocks = !blocks;
    attempted = !attempted;
    failed = !failed;
    alloc = inst.sut_alloc_words () -. a0;
  }

(** Rates and the median latency are medians over deck blocks: every
    block holds the same mix of inputs, and a burst of contention from
    another tenant moves a few blocks rather than the run's value. *)
let end_to_end_values m ~setup_s ~peak_mb =
  let blocks = if m.blocks = [] then [ m.lats ] else m.blocks in
  [
    ("setup_s", setup_s);
    ("ops_per_s", median (List.map (fun b -> float_of_int (List.length b) /. sum b) blocks));
    ("latency_ms.p50", 1000.0 *. median (List.map median blocks));
    ("alloc_mb_per_op", m.alloc *. float_of_int Tm.bytes_per_word /. 1e6 /. float_of_int m.attempted);
    ("peak_heap_mb", peak_mb);
  ]

(* ------------------------------------------------------------------ *)
(* Set-up time: fresh processes, timed from spawn to "ready" *)

let args_of ~w ~seed = [ "--workload"; w.Loads.name; "--seed"; string_of_int seed ]

(** One set-up in a fresh process: process start, grammars, tables and
    plan (forced by the warm-up op), and the workload's own set-up. *)
let probe w ~seed =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let t0 = clock () in
  let pid = spawn ~stdin:in_r ~stdout:out_w Sys.executable_name ("--setup-probe" :: args_of ~w ~seed) in
  Unix.close in_r;
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let line = try input_line ic with End_of_file -> "" in
  let dt = clock () -. t0 in
  Unix.close in_w;
  reap pid;
  close_in ic;
  if line <> "ready" then failwith (w.Loads.name ^ ": set-up probe failed");
  dt

let with_instance w ~seed f =
  let dir = fresh_dir w.Loads.name in
  let inst = w.Loads.setup ~seed ~dir in
  Fun.protect
    ~finally:(fun () ->
      inst.Loads.teardown ();
      rm_rf dir)
    (fun () -> f inst dir)

let setup_probe_child w ~seed =
  with_instance w ~seed (fun _ _ ->
      print_endline "ready";
      (* hold the set-up until the parent closes our stdin *)
      try
        while true do
          ignore (input_line stdin)
        done
      with End_of_file -> ())

(* ------------------------------------------------------------------ *)
(* The traced run *)

(** Grammar and tables, the static plan, and the first compile, timed
    apart in this fresh process. *)
let setup_layers () =
  let t0 = clock () in
  let g = Main_grammar.grammar () in
  ignore (Main_grammar.parser_ ());
  let t1 = clock () in
  ignore (Analysis.plan (Analysis.compute g));
  let t2 = clock () in
  ignore (Vhdl_compiler.compile (Vhdl_compiler.create ()) "entity FIRST is\nend FIRST;\n");
  let t3 = clock () in
  [ ("setup.grammar_s", t1 -. t0); ("setup.plan_s", t2 -. t1); ("setup.first_compile_s", t3 -. t2) ]

(* serve-warm's open loop: 40% of the ~370 req/s closed-loop capacity *)
let open_rate = 150.0
let open_ops = 300

(** The traced batch of an in-process workload: ops [0, k). *)
let traced_batch w (inst : Loads.instance) ~k =
  Hashtbl.reset phase_seconds;
  Hashtbl.reset phase_words;
  sim_delta_cycles := 0;
  sim_events := 0;
  sim_process_runs := 0;
  call_seconds := 0.0;
  Tm.clear_spans ();
  Tm.set_tracing true;
  let snap = Tm.snapshot () in
  let gc0 = Gc.quick_stat () in
  let seconds = ref 0.0 and failed = ref 0 in
  for i = 0 to k - 1 do
    op_seconds := 0.0;
    (match Tm.with_span ~cat:"op" w.Loads.name (fun () -> inst.Loads.run_op i) with
    | true -> ()
    | false -> report_failure w i "wrong output"; incr failed
    | exception e -> report_failure w i (Printexc.to_string e); incr failed);
    settle_watched ();
    seconds := !seconds +. !op_seconds
  done;
  let counters = Tm.delta snap in
  let gc1 = Gc.quick_stat () in
  let in_calls = !call_seconds in
  let find_cold_us = inst.Loads.find_cold_us () in
  Tm.set_tracing false;
  let short tbl =
    Hashtbl.fold (fun k v acc -> (Obs_attr.short_phase k, v) :: acc) tbl []
  in
  let phases = short phase_seconds in
  ( {
      ops = k;
      seconds = !seconds;
      phases = ("core", in_calls -. sum (List.map snd phases)) :: phases;
      words = short phase_words;
      counters;
      kernel = (!sim_delta_cycles, !sim_events, !sim_process_runs);
      gc =
        ( gc1.Gc.minor_collections - gc0.Gc.minor_collections,
          gc1.Gc.major_collections - gc0.Gc.major_collections );
      extra = [];
    },
    find_cold_us,
    !failed )

let scaled ~quick (w : Loads.workload) n =
  if quick then w.deck * max 1 (((n / 20) + w.deck - 1) / w.deck) else n

let write_file path text =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

(** Trace [w]: the traced batch, then untraced ops for the overhead
    comparison.  Returns (per-layer values, attempted, failed). *)
let traced_run w ~seed ~quick ~budget ~trace_dir =
  let setup = setup_layers () in
  let k = scaled ~quick w w.Loads.trace_ops in
  with_instance w ~seed (fun inst dir ->
      let start = clock () in
      let traced, traced_rt, find_cold_us, failed, first =
        if w.Loads.name = Loads.serve_warm.name then
          let n_open = scaled ~quick w open_ops in
          let t, rt, failed =
            Loads.serve_traced ~seed ~dir ~closed:k ~open_ops:n_open ~rate:open_rate
          in
          (t, mean rt, 0.0, failed, k + n_open)
        else
          let t, find_cold_us, failed = traced_batch w inst ~k in
          (t, t.seconds /. float_of_int k, find_cold_us, failed, k)
      in
      if trace_dir <> "" then
        write_file
          (Filename.concat trace_dir ("trace-" ^ w.Loads.name ^ ".json"))
          (Tm.to_chrome_trace ~process_name:("benchmark " ^ w.Loads.name) ());
      Tm.clear_spans ();
      let rest =
        match budget with
        | Ops n -> Ops n
        | Seconds s -> Seconds (Float.max 1.0 (s -. (clock () -. start)))
      in
      let m = measure w inst ~first rest in
      let overhead_pct = 100.0 *. ((traced_rt /. mean m.lats) -. 1.0) in
      ( layer_values traced ~setup ~overhead_pct ~find_cold_us
          ~p99_ms:(1000.0 *. quantile (sorted m.lats) 0.99),
        traced.ops + m.attempted,
        failed + m.failed ))

(* ------------------------------------------------------------------ *)
(* One workload in this process: the form BENCHMARK.json names *)

let result_json ~attempted ~failed metrics =
  let open Bench_json in
  to_string
    (Obj
       [
         ("correct", Bool (failed = 0));
         ("attempted", Num (float_of_int attempted));
         ("failed", Num (float_of_int failed));
         ( "metrics",
           Obj (List.map (fun (n, u, v) -> (n, Obj [ ("value", Num v); ("unit", Str u) ])) metrics) );
       ])

let with_units catalogue values =
  List.map (fun (name, u) -> (name, u, Option.value (List.assoc_opt name values) ~default:0.0)) catalogue

let single_run w ~seed ~budget ~trace ~trace_dir ~probes ~samples ~quick =
  if trace then begin
    let values, attempted, failed = traced_run w ~seed ~quick ~budget ~trace_dir in
    let metrics = with_units (List.map (fun (n, u, _) -> (n, u)) per_layer) values in
    List.iter (fun (n, u, v) -> Printf.printf "%s %-30s %14.4f %s\n" w.Loads.name n v u) metrics;
    print_endline (result_json ~attempted ~failed metrics)
  end
  else begin
    let setup_s = median (List.init probes (fun _ -> probe w ~seed)) in
    let m, peak_mb =
      with_instance w ~seed (fun inst _ ->
          let m = measure w inst ~first:0 budget in
          (m, inst.Loads.sut_peak_heap_mb ()))
    in
    if samples <> "" then
      write_file samples
        (String.concat "" (List.rev_map (fun s -> Printf.sprintf "%.6f\n" (1000.0 *. s)) m.lats));
    let metrics = with_units end_to_end (end_to_end_values m ~setup_s ~peak_mb) in
    List.iter
      (fun (n, u, v) ->
        let n_samples =
          match n with
          | "setup_s" -> Printf.sprintf "%d set-ups" probes
          | "ops_per_s" | "latency_ms.p50" -> Printf.sprintf "median of %d blocks" (List.length m.blocks)
          | _ -> Printf.sprintf "%d ops" m.attempted
        in
        Printf.printf "%s %-18s %12.4f %-6s (%s)\n" w.Loads.name n v u n_samples)
      metrics;
    print_endline (result_json ~attempted:m.attempted ~failed:m.failed metrics)
  end

(* ------------------------------------------------------------------ *)
(* The full run: every workload, fresh processes, seeded order *)

let run_child args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = spawn ~stdout:out_w Sys.executable_name args in
  Unix.close out_w;
  let text = In_channel.input_all (Unix.in_channel_of_descr out_r) in
  Unix.close out_r;
  let status = waitpid_retry pid in
  children := List.filter (( <> ) pid) !children;
  let last =
    List.fold_left (fun acc l -> if String.trim l = "" then acc else l) "" (String.split_on_char '\n' text)
  in
  match status, Bench_json.parse last with
  | Unix.WEXITED 0, j -> j
  | _ | (exception Bench_json.Error _) ->
    failwith (Printf.sprintf "child %s failed" (String.concat " " args))

let value j name = Bench_json.num [ "metrics"; name; "value" ] j

let read_samples path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map float_of_string_opt

type row = {
  mutable rounds : Bench_json.t list;
  mutable samples : float list;  (** pooled latencies, ms *)
  mutable layers : (string * float) list;
}

let full_run ~seed ~rounds ~quick ~trace ~trace_dir ~out =
  let dir = fresh_dir "full" in
  let rows = List.map (fun w -> (w.Loads.name, { rounds = []; samples = []; layers = [] })) Loads.all in
  for r = 1 to rounds do
    let order = Gen.shuffle (Gen.rng ~seed ~stream:6 ~index:r) (Array.of_list Loads.all) in
    Array.iter
      (fun w ->
        let samples = Filename.concat dir (w.Loads.name ^ ".samples") in
        let j =
          run_child
            (args_of ~w ~seed
            @ [ "--ops"; string_of_int (scaled ~quick w w.Loads.round_ops); "--trace"; "0";
                "--probes"; "1"; "--samples"; samples ])
        in
        let row = List.assoc w.Loads.name rows in
        row.rounds <- j :: row.rounds;
        row.samples <- read_samples samples @ row.samples;
        Printf.eprintf "round %d/%d %-16s %5.0f ops  %8.1f ops/s\n%!" r rounds w.Loads.name
          (Bench_json.num [ "attempted" ] j) (value j "ops_per_s"))
      order
  done;
  if trace then
    List.iter
      (fun w ->
        let j =
          run_child
            (args_of ~w ~seed
            @ [ "--ops"; string_of_int (scaled ~quick w w.Loads.trace_ops); "--trace"; "1" ]
            @ (if quick then [ "--quick" ] else [])
            @ if trace_dir = "" then [] else [ "--trace-dir"; trace_dir ])
        in
        let row = List.assoc w.Loads.name rows in
        row.rounds <- j :: row.rounds;
        row.layers <- List.map (fun (n, _, _) -> (n, value j n)) per_layer;
        Printf.eprintf "traced    %s\n%!" w.Loads.name)
      Loads.all;
  rm_rf dir;
  let total key row = List.fold_left (fun a j -> a +. Bench_json.num [ key ] j) 0.0 row.rounds in
  let untraced row = List.filter (fun j -> Bench_json.get [ "metrics"; "setup_s" ] j <> None) row.rounds in
  let workloads =
    List.map
      (fun (name, row) ->
        let rs = untraced row in
        let med n = median (List.map (fun j -> value j n) rs) in
        let lat = sorted row.samples in
        let attempted = total "attempted" row and failed = total "failed" row in
        let e2e =
          [
            ("setup_s", "s", med "setup_s", List.length rs);
            ("ops_per_s", "ops/s", med "ops_per_s", List.length rs);
            ("latency_ms.p50", "ms", med "latency_ms.p50", List.length rs);
            (* the tail pools every round's ops; it is reported, not bounded *)
            ("latency_ms.p99", "ms", quantile lat 0.99, Array.length lat);
            ("alloc_mb_per_op", "MB", med "alloc_mb_per_op", List.length rs);
            ("peak_heap_mb", "MB", med "peak_heap_mb", List.length rs);
            ("fail_ratio", "ratio", failed /. attempted, int_of_float attempted);
          ]
        in
        Printf.printf "== %s: %d rounds%s, %.0f ops checked, %.0f failed\n" name (List.length rs)
          (if row.layers = [] then "" else " and a traced run") attempted failed;
        List.iter
          (fun (n, u, v, k) -> Printf.printf "  %-18s %12.4f %-6s (n=%d)\n" n v u k)
          e2e;
        let num v = Bench_json.Num v in
        ( name,
          Bench_json.Obj
            ([
               ("attempted", num attempted);
               ("failed", num failed);
               ( "end_to_end",
                 Bench_json.Obj
                   (List.map
                      (fun (n, u, v, k) ->
                        (n, Bench_json.Obj [ ("value", num v); ("unit", Bench_json.Str u); ("samples", num (float_of_int k)) ]))
                      e2e) );
             ]
            @
            if row.layers = [] then []
            else [ ("per_layer", Bench_json.Obj (List.map (fun (n, v) -> (n, num v)) row.layers)) ])
        ))
      rows
  in
  if trace then begin
    Printf.printf "\n%-30s" "per-layer (per op)";
    List.iter (fun (name, _) -> Printf.printf " %16s" name) rows;
    print_newline ();
    List.iter
      (fun (n, u, _) ->
        Printf.printf "%-30s" (n ^ " " ^ u);
        List.iter (fun (_, row) -> Printf.printf " %16.4f" (List.assoc n row.layers)) rows;
        print_newline ())
      per_layer;
    if trace_dir <> "" then
      write_file (Filename.concat trace_dir "layers.json")
        (Bench_json.to_string
           (Bench_json.Obj
              (List.map
                 (fun (name, row) ->
                   (name, Bench_json.Obj (List.map (fun (n, v) -> (n, Bench_json.Num v)) row.layers)))
                 rows)))
  end;
  let doc =
    Bench_json.Obj
      [
        ("seed", Bench_json.Num (float_of_int seed));
        ("rounds", Bench_json.Num (float_of_int rounds));
        ("quick", Bench_json.Bool quick);
        ("workloads", Bench_json.Obj workloads);
      ]
  in
  write_file out (Bench_json.to_string doc ^ "\n");
  Printf.printf "results: %s\n" out;
  let failed = List.fold_left (fun a (_, row) -> a +. total "failed" row) 0.0 rows in
  if failed > 0.0 then exit 1

(* ------------------------------------------------------------------ *)
(* --compare: BENCHMARK.json's bounds, per workload and metric *)

let compare_results ~spec a b =
  let open Bench_json in
  let spec = parse_file spec and ja = parse_file a and jb = parse_file b in
  let bounds =
    List.map
      (fun m -> (str [ "name" ] m, str [ "better" ] m, num [ "bound" ] m))
      (items (Option.value (get [ "end_to_end" ] spec) ~default:Null))
  in
  let same_seed = num [ "seed" ] ja = num [ "seed" ] jb in
  let bad = ref 0 in
  Printf.printf "%-16s %-18s %12s %12s %8s %7s  %s\n" "workload" "metric" "A" "B" "change" "bound" "verdict";
  List.iter
    (fun w ->
      let name = w.Loads.name in
      let metric j n = Option.bind (get [ "workloads"; name; "end_to_end"; n; "value" ] j) (function Num f -> Some f | _ -> None) in
      let row n ~a ~b ~change ~bound ok =
        if not ok then incr bad;
        Printf.printf "%-16s %-18s %12.4f %12.4f %+7.1f%% %6.1f%%  %s\n" name n a b (100.0 *. change)
          (100.0 *. bound) (if ok then "ok" else "REGRESSION")
      in
      List.iter
        (fun (n, better, bound) ->
          match metric ja n, metric jb n with
          | Some x, Some y ->
            let change = if x = 0.0 then (if y = 0.0 then 0.0 else Float.infinity) else (y -. x) /. x in
            let worse = if better = "lower" then change else -.change in
            row n ~a:x ~b:y ~change ~bound (worse <= bound)
          | _ ->
            incr bad;
            Printf.printf "%-16s %-18s missing\n" name n)
        bounds;
      (match metric ja "fail_ratio", metric jb "fail_ratio" with
      | Some x, Some y -> row "fail_ratio" ~a:x ~b:y ~change:(y -. x) ~bound:0.0 (y <= x)
      | _ -> ());
      let layer j n = Option.bind (get [ "workloads"; name; "per_layer"; n ] j) (function Num f -> Some f | _ -> None) in
      if same_seed then
        List.iter
          (fun (n, _, exact) ->
            match layer ja n, layer jb n with
            | Some x, Some y when exact && x <> y ->
              incr bad;
              Printf.printf "%-16s %-30s %g <> %g  COUNT MISMATCH\n" name n x y
            | _ -> ())
          per_layer)
    Loads.all;
  if same_seed then print_endline "per-layer counts compared exactly (same seed)";
  if !bad > 0 then begin
    Printf.printf "%d check(s) failed\n" !bad;
    exit 1
  end

(* ------------------------------------------------------------------ *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* a terminated run still stops its daemons (at_exit, in Harness) *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ];
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and ops = ref 0 in
  let trace = ref 0 and trace_dir = ref "" and out = ref "" and quick = ref false in
  let compare = ref None and spec = ref "BENCHMARK.json" in
  let probes = ref 5 and samples = ref "" and setup_probe = ref false in
  let ca = ref "" in
  let speclist =
    [
      ("--workload", Arg.Set_string workload, "NAME run one workload in this process");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds (default 10)");
      ("--ops", Arg.Set_int ops, "N measure exactly N ops instead");
      ( "--trace",
        Arg.Int (fun t -> if t = 0 || t = 1 then trace := t else raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1 per-layer run instead of end-to-end" );
      ("--trace-dir", Arg.Set_string trace_dir, "DIR write Chrome traces and layers.json here");
      ("--out", Arg.Set_string out, "FILE results of a full run (default _bench/results-seed<N>.json)");
      ("--quick", Arg.Set quick, " one round at 1/20 of the op counts");
      ( "--compare",
        Arg.Tuple [ Arg.Set_string ca; Arg.String (fun b -> compare := Some (!ca, b)) ],
        "A B apply BENCHMARK.json's bounds to two results files" );
      ("--spec", Arg.Set_string spec, "FILE BENCHMARK.json for --compare");
      ("--probes", Arg.Set_int probes, "N set-ups timed per run (default 5)");
      ("--samples", Arg.Set_string samples, "FILE write per-op latencies (ms) here");
      ("--setup-probe", Arg.Set setup_probe, " (internal) set up, print ready, wait for EOF");
    ]
  in
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 | --seed N [--quick] | --compare A B";
  match !compare with
  | Some (a, b) -> compare_results ~spec:!spec a b
  | None when !workload = "" ->
    let out = if !out = "" then Printf.sprintf "%s/results-seed%d.json" scratch_root !seed else !out in
    let rounds = if !quick then 1 else 5 in
    full_run ~seed:!seed ~rounds ~quick:!quick ~trace:(!trace = 1) ~trace_dir:!trace_dir ~out
  | None -> (
    match Loads.find !workload with
    | None ->
      Printf.eprintf "unknown workload %s (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.Loads.name) Loads.all));
      exit 2
    | Some w ->
      if !setup_probe then setup_probe_child w ~seed:!seed
      else
        let budget = if !ops > 0 then Ops !ops else Seconds !seconds in
        single_run w ~seed:!seed ~budget ~trace:(!trace = 1) ~trace_dir:!trace_dir ~probes:!probes
          ~samples:!samples ~quick:!quick)
