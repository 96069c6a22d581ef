(* The attribute-provenance recorder: graph shape on a small AG, the
   why-chain printer and DOT export, the cascade-crossing chain on a real
   compile, the hot-rule profiler's telemetry cross-check, and the guard
   that a disarmed recorder costs (essentially) nothing. *)

module Tm = Vhdl_telemetry.Telemetry
module Driver = Vhdl_lalr.Driver

let corpus_path name =
  let dir =
    if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"
  in
  Filename.concat dir name

let read_corpus name = Vhdl_util.Unix_compat.read_file (corpus_path name)

(* ------------------------------------------------------------------ *)
(* A small AG with both attribute directions: Knuth's binary numbers
   (same shape as the test_ag grammar). *)

type v =
  | I of int
  | F of float
  | S of string

let as_i = function
  | I n -> n
  | _ -> Alcotest.fail "expected int value"

let as_f = function
  | F x -> x
  | I n -> float_of_int n
  | _ -> Alcotest.fail "expected float value"

let summarize = function
  | I n -> string_of_int n
  | F x -> Printf.sprintf "%g" x
  | S s -> s

let binary_grammar () =
  let open Grammar.Builder in
  let b = create () in
  List.iter (fun t -> ignore (terminal b t)) [ "zero"; "one"; "dot"; "$" ];
  List.iter (fun n -> ignore (nonterminal b n)) [ "num"; "list"; "bit" ];
  attr b ~sym:"num" ~name:"v" ~dir:Grammar.Synthesized;
  List.iter
    (fun sym ->
      attr b ~sym ~name:"v" ~dir:Grammar.Synthesized;
      attr b ~sym ~name:"scale" ~dir:Grammar.Inherited)
    [ "list"; "bit" ];
  attr b ~sym:"list" ~name:"len" ~dir:Grammar.Synthesized;
  production b ~name:"num_int" ~lhs:"num" ~rhs:[ "list" ]
    ~rules:
      [ copy ~target:(0, "v") ~from:(1, "v"); const ~target:(1, "scale") (I 0) ];
  production b ~name:"num_frac" ~lhs:"num" ~rhs:[ "list"; "dot"; "list" ]
    ~rules:
      [
        rule ~target:(0, "v") ~deps:[ (1, "v"); (3, "v") ] (fun a c ->
            F (as_f a +. as_f c));
        const ~target:(1, "scale") (I 0);
        rule ~target:(3, "scale") ~deps:[ (3, "len") ] (fun len -> I (-as_i len));
      ];
  production b ~name:"list_one" ~lhs:"list" ~rhs:[ "bit" ]
    ~rules:
      [
        copy ~target:(0, "v") ~from:(1, "v");
        const ~target:(0, "len") (I 1);
        copy ~target:(1, "scale") ~from:(0, "scale");
      ];
  production b ~name:"list_more" ~lhs:"list" ~rhs:[ "list"; "bit" ]
    ~rules:
      [
        rule ~target:(0, "v") ~deps:[ (1, "v"); (2, "v") ] (fun a c ->
            F (as_f a +. as_f c));
        rule ~target:(0, "len") ~deps:[ (1, "len") ] (fun n -> I (as_i n + 1));
        rule ~target:(1, "scale") ~deps:[ (0, "scale") ] (fun s -> I (as_i s + 1));
        copy ~target:(2, "scale") ~from:(0, "scale");
      ];
  (* reads the terminal's VAL so the graph gets Token records *)
  production b ~name:"bit_zero" ~lhs:"bit" ~rhs:[ "zero" ]
    ~rules:
      [
        rule ~target:(0, "v") ~deps:[ (1, "VAL") ] (function
          | S _ -> F 0.0
          | _ -> assert false);
      ];
  production b ~name:"bit_one" ~lhs:"bit" ~rhs:[ "one" ]
    ~rules:
      [
        rule ~target:(0, "v") ~deps:[ (0, "scale") ] (fun s ->
            F (2.0 ** float_of_int (as_i s)));
      ];
  freeze b ~start:"num"

let parse_binary g input =
  let parser_t = Parsing.create ~name:"binary" g ~eof:"$" in
  let tokens =
    List.map
      (fun c ->
        let sym =
          match c with
          | '0' -> "zero"
          | '1' -> "one"
          | '.' -> "dot"
          | _ -> Alcotest.fail "bad input char"
        in
        {
          Driver.t_sym = Grammar.find_symbol g sym;
          t_value = S (String.make 1 c);
          t_line = 1;
        })
      (List.init (String.length input) (String.get input))
  in
  Parsing.parse_list parser_t ~elide_chains:false ~eof_value:(S "") tokens

let eval_recorded input =
  let g = binary_grammar () in
  let tree = parse_binary g input in
  let rc = Provenance.create () in
  let ev = Evaluator.create g ~provenance:(rc, "bin", summarize) ~root_inherited:[] tree in
  (rc, Evaluator.goal ev "v")

(* ------------------------------------------------------------------ *)
(* Graph shape *)

let test_graph_shape () =
  let rc, v = eval_recorded "110.101" in
  Alcotest.(check (float 1e-9)) "value unchanged by recording" 6.625 (as_f v);
  let records = Provenance.records rc in
  Alcotest.(check bool) "records were made" true (List.length records > 10);
  (* the goal instance begins first, so it is record 0 *)
  let goal = List.hd records in
  Alcotest.(check string) "goal attribute" "v" goal.Provenance.r_attr;
  Alcotest.(check string) "goal production" "num_frac" goal.Provenance.r_prod;
  Alcotest.(check string) "goal value summary" "6.625" goal.Provenance.r_value;
  (* every edge resolves, nothing aborted, kinds are classified *)
  List.iter
    (fun (r : Provenance.record) ->
      Alcotest.(check bool) "not aborted" false r.Provenance.r_aborted;
      Alcotest.(check bool)
        (Printf.sprintf "record %d classified" r.Provenance.r_id)
        true
        (r.Provenance.r_kind <> Provenance.Unknown);
      List.iter
        (fun dep ->
          Alcotest.(check bool)
            (Printf.sprintf "edge %d -> %d resolves" r.Provenance.r_id dep)
            true
            (Provenance.get rc dep <> None))
        r.Provenance.r_deps)
    records;
  Alcotest.(check bool) "token records present" true
    (List.exists (fun r -> r.Provenance.r_kind = Provenance.Token) records);
  (* find addresses the goal by (node, attr) *)
  (match Provenance.find rc ~node:goal.Provenance.r_node ~attr:"v" with
  | Some r -> Alcotest.(check int) "find returns the goal" 0 r.Provenance.r_id
  | None -> Alcotest.fail "find lost the goal instance");
  (* the shared inherited scale is read twice in list_more: a memo edge *)
  Alcotest.(check bool) "memo hits recorded" true
    (List.exists (fun r -> r.Provenance.r_memo_hits > 0) records)

(* ------------------------------------------------------------------ *)
(* The why-chain printer and DOT export *)

let chain rc ~depth id =
  Format.asprintf "%a" (fun fmt id -> Provenance.pp_why_chain ~depth rc fmt id) id

let test_why_chain () =
  let rc, _ = eval_recorded "10.1" in
  let text = chain rc ~depth:12 0 in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("chain mentions " ^ needle) true
        (Astring_contains.contains text needle))
    [ ".v @ num_frac"; "scale"; "len"; "[token"; "(bin" ];
  (* the root line is unindented, dependencies are indented below it *)
  (match String.index_opt text '\n' with
  | Some i ->
    Alcotest.(check bool) "root line first" true
      (Astring_contains.contains (String.sub text 0 i) ".v @ num_frac")
  | None -> Alcotest.fail "chain has one line only");
  Alcotest.(check bool) "dependencies indented" true
    (Astring_contains.contains text "\n  ");
  (* the depth bound elides, and says so *)
  let shallow = chain rc ~depth:1 0 in
  Alcotest.(check bool) "depth bound announced" true
    (Astring_contains.contains shallow "below the depth bound");
  Alcotest.(check bool) "shallow chain is shorter" true
    (String.length shallow < String.length text)

let test_dot_export () =
  let rc, _ = eval_recorded "10.1" in
  let dot = Provenance.to_dot rc ~root:0 in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 7 && String.sub dot 0 7 = "digraph");
  Alcotest.(check bool) "has edges" true (Astring_contains.contains dot " -> ");
  Alcotest.(check bool) "has labeled boxes" true
    (Astring_contains.contains dot "num_frac")

(* ------------------------------------------------------------------ *)
(* A real compile: the chain crosses the expression-AG cascade boundary,
   and the profiler's totals agree with the telemetry counter. *)

let compile_recorded name =
  Tm.reset ();
  let rc = Provenance.create () in
  let c = Vhdl_compiler.create ~provenance:rc () in
  ignore (Vhdl_compiler.compile c (read_corpus name));
  (rc, c)

let reachable rc root_id =
  let seen = Hashtbl.create 64 in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      match Provenance.get rc id with
      | Some r -> List.iter go r.Provenance.r_deps
      | None -> ()
    end
  in
  go root_id;
  Hashtbl.fold
    (fun id () acc ->
      match Provenance.get rc id with
      | Some r -> r :: acc
      | None -> acc)
    seen []

let test_cascade_crossing () =
  let rc, c = compile_recorded "golden_seed3_behavioral.vhd" in
  let report = Vhdl_compiler.last_report c in
  let arch =
    match
      List.find_opt
        (fun (r : Supervisor.unit_report) ->
          Astring_contains.contains r.Supervisor.ur_name "architecture")
        report
    with
    | Some r -> r
    | None -> Alcotest.fail "no architecture in the report"
  in
  let root =
    match Provenance.find rc ~node:arch.Supervisor.ur_node ~attr:"UNITS" with
    | Some r -> r
    | None -> Alcotest.fail "no UNITS instance at the unit's report node"
  in
  let slice = reachable rc root.Provenance.r_id in
  let expr_records =
    List.filter (fun r -> r.Provenance.r_ag = "expr") slice
  in
  Alcotest.(check bool) "the slice crosses into the expression AG" true
    (expr_records <> []);
  Alcotest.(check bool) "and stays mostly in the principal AG" true
    (List.exists (fun r -> r.Provenance.r_ag = "vhdl") slice);
  (* the textual chain shows the boundary too *)
  let text = chain rc ~depth:14 root.Provenance.r_id in
  Alcotest.(check bool) "chain text reaches (expr ...)" true
    (Astring_contains.contains text "(expr");
  (* DOT shades the expression-AG records *)
  let dot = Provenance.to_dot ~depth:14 rc ~root:root.Provenance.r_id in
  Alcotest.(check bool) "dot shades the cascade" true
    (Astring_contains.contains dot "lightblue")

let test_profile_matches_telemetry () =
  let rc, _ = compile_recorded "golden_seed3_behavioral.vhd" in
  let rows = Provenance.profile rc in
  Alcotest.(check bool) "profile has rows" true (rows <> []);
  let apps = List.fold_left (fun acc r -> acc + r.Provenance.p_applications) 0 rows in
  Alcotest.(check int) "profile applications == ag.rule_applications" apps
    (Tm.counter_value "ag.rule_applications");
  let count = List.fold_left (fun acc r -> acc + r.Provenance.p_count) 0 rows in
  Alcotest.(check int) "profile instances == recorder size" count (Provenance.size rc);
  (* rows come hottest first *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Provenance.p_self_s >= b.Provenance.p_self_s && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by self-cost" true (sorted rows)

(* ------------------------------------------------------------------ *)
(* Overhead guard: with no recorder armed, the evaluator's only extra work
   is one option test per attribute access.  Bound (accesses during a
   compile) x (measured cost per test) from above and require it under 3%
   of the compile's own time. *)

let test_overhead_guard_off () =
  Tm.reset ();
  let src = read_corpus "golden_seed18_processes.vhd" in
  let start = Sys.time () in
  let reps = 3 in
  for _ = 1 to reps do
    let c = Vhdl_compiler.create () in
    ignore (Vhdl_compiler.compile c src)
  done;
  let compile_s = (Sys.time () -. start) /. float_of_int reps in
  let ops =
    (Tm.counter_value "ag.attrs_evaluated" + Tm.counter_value "ag.memo_hits") / reps
  in
  Alcotest.(check bool) "the compile did real work" true (ops > 1000);
  let cell : int option ref = ref None in
  let hits = ref 0 in
  let n = 5_000_000 in
  let t0 = Sys.time () in
  for _ = 1 to n do
    match Sys.opaque_identity !cell with
    | None -> ()
    | Some _ -> incr hits
  done;
  let per_op = (Sys.time () -. t0) /. float_of_int n in
  let budget = 0.03 *. compile_s in
  let cost = per_op *. float_of_int ops in
  if cost >= budget then
    Alcotest.failf
      "provenance-off overhead bound %.6fs (%d ops x %.1fns) exceeds 3%% of %.4fs \
       compile"
      cost ops (per_op *. 1e9) compile_s

let suite =
  [
    Alcotest.test_case "graph shape on a small AG" `Quick test_graph_shape;
    Alcotest.test_case "why-chain printer" `Quick test_why_chain;
    Alcotest.test_case "DOT export" `Quick test_dot_export;
    Alcotest.test_case "chain crosses the cascade boundary" `Quick test_cascade_crossing;
    Alcotest.test_case "profiler agrees with telemetry" `Quick
      test_profile_matches_telemetry;
    Alcotest.test_case "overhead guard when disarmed" `Quick test_overhead_guard_off;
  ]
