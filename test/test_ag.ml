(* The attribute-grammar engine: evaluation, attribute classes and implicit
   rules, dependency analysis, visit partitions, circularity detection. *)







module Driver = Vhdl_lalr.Driver

(* Attribute values for the test grammars. *)
type v =
  | I of int
  | F of float
  | S of string
  | L of string list

let as_i = function
  | I n -> n
  | _ -> Alcotest.fail "expected int value"

let as_f = function
  | F x -> x
  | I n -> float_of_int n
  | _ -> Alcotest.fail "expected float value"

let as_l = function
  | L l -> l
  | _ -> Alcotest.fail "expected list value"

(* ------------------------------------------------------------------ *)
(* Knuth's binary-number grammar: the canonical AG with both inherited
   and synthesized attributes, and an inherited attribute (scale of the
   fraction part) that depends on a synthesized one (its length). *)

let binary_grammar ?(extra_production = false) () =
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
      [
        copy ~target:(0, "v") ~from:(1, "v");
        const ~target:(1, "scale") (I 0);
      ];
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
  production b ~name:"bit_zero" ~lhs:"bit" ~rhs:[ "zero" ]
    ~rules:[ const ~target:(0, "v") (F 0.0) ];
  if extra_production then
    production b ~name:"bit_dot" ~lhs:"bit" ~rhs:[ "dot" ]
      ~rules:[ const ~target:(0, "v") (F 0.0) ];
  production b ~name:"bit_one" ~lhs:"bit" ~rhs:[ "one" ]
    ~rules:
      [
        rule ~target:(0, "v") ~deps:[ (0, "scale") ] (fun s ->
            F (2.0 ** float_of_int (as_i s)));
      ];
  freeze b ~start:"num"

let parse_binary ?(elide_chains = false) g input =
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
        { Driver.t_sym = Grammar.find_symbol g sym; t_value = S (String.make 1 c); t_line = 1 })
      (List.init (String.length input) (String.get input))
  in
  Parsing.parse_list parser_t ~elide_chains ~eof_value:(S "") tokens

let test_binary_value () =
  let g = binary_grammar () in
  let check input expected =
    let tree = parse_binary g input in
    let ev = Evaluator.create g ~root_inherited:[] tree in
    Alcotest.(check (float 1e-9)) input expected (as_f (Evaluator.goal ev "v"))
  in
  check "1101" 13.0;
  check "0" 0.0;
  check "1101.01" 13.25;
  check "0.111" 0.875;
  check "1.1" 1.5

let test_binary_analysis () =
  let g = binary_grammar () in
  let a = Analysis.compute g in
  (* list's fraction use makes scale depend on len: two visits *)
  Alcotest.(check int) "list needs 2 visits" 2 (Analysis.visits_of a "list");
  Alcotest.(check int) "bit needs 1 visit" 1 (Analysis.visits_of a "bit");
  let stats = Stats.of_grammar ~name:"binary" g in
  Alcotest.(check int) "max visits" 2 stats.Stats.max_visits;
  Alcotest.(check int) "productions" 6 stats.Stats.productions

(* The static plan agrees with demand, and its pass count is the one the
   analysis promised. *)
let test_plan_matches_demand () =
  let g = binary_grammar () in
  let a = Analysis.compute g in
  let plan = Analysis.plan a in
  let ev1 = Evaluator.create g ~root_inherited:[] (parse_binary g "110.101") in
  let v_demand = as_f (Evaluator.goal ev1 "v") in
  let ev2 = Evaluator.create g ~root_inherited:[] (parse_binary g "110.101") in
  let passes = Evaluator.evaluate_plan ev2 ~plan in
  Alcotest.(check int) "passes as planned" plan.Analysis.pl_passes passes;
  let v_plan = as_f (Evaluator.goal ev2 "v") in
  Alcotest.(check (float 1e-9)) "same value" v_demand v_plan

(* Demand-vs-plan agreement, systematically: for every seed example
   grammar and a spread of inputs, the goal attributes must be equal, the
   plan must run at least one pass, and rule applications must be sane —
   demand (goal-reachable only, memoized) never applies more rules than
   the plan (which forces everything), and the plan never exceeds one
   application per declared attribute per tree node.  A tree belongs to
   one evaluator, so each side evaluates its own parse of the input: the
   demand side a full tree, the plan side one without chain nodes, as on
   the compiler's two paths. *)
let check_agreement ?(root_inherited = []) ?token_line ~msg g parse ~goals ~eq =
  let ev_d =
    Evaluator.create g ?token_line ~root_inherited (parse ~elide_chains:false)
  in
  let demand_goals = List.map (fun a -> Evaluator.goal ev_d a) goals in
  let demand_apps = Evaluator.rule_applications ev_d in
  let tree = parse ~elide_chains:true in
  let ev_p = Evaluator.create g ?token_line ~root_inherited tree in
  let passes = Evaluator.evaluate_plan ev_p ~plan:(Analysis.plan (Analysis.compute g)) in
  let plan_goals = List.map (fun a -> Evaluator.goal ev_p a) goals in
  let plan_apps = Evaluator.rule_applications ev_p in
  Alcotest.(check bool) (msg ^ ": at least one pass") true (passes >= 1);
  List.iter2
    (fun a (d, p) ->
      Alcotest.(check bool) (Printf.sprintf "%s: goal %s agrees" msg a) true (eq d p))
    goals
    (List.combine demand_goals plan_goals);
  Alcotest.(check bool)
    (Printf.sprintf "%s: demand apps (%d) <= plan apps (%d)" msg demand_apps plan_apps)
    true (demand_apps <= plan_apps);
  let bound = Tree.size tree * Array.length g.Grammar.attrs in
  Alcotest.(check bool)
    (Printf.sprintf "%s: plan apps (%d) <= nodes x attrs (%d)" msg plan_apps bound)
    true (plan_apps <= bound)

let binary_property =
  QCheck.Test.make ~name:"binary AG computes the numeric value" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 12) bool) (list_of_size (Gen.int_range 0 8) bool))
    (fun (int_bits, frac_bits) ->
      let g = binary_grammar () in
      let string_of bits = String.concat "" (List.map (fun b -> if b then "1" else "0") bits) in
      let input =
        if frac_bits = [] then string_of int_bits
        else string_of int_bits ^ "." ^ string_of frac_bits
      in
      let expected =
        let ipart =
          List.fold_left (fun acc b -> (acc *. 2.0) +. if b then 1.0 else 0.0) 0.0 int_bits
        in
        let fpart, _ =
          List.fold_left
            (fun (acc, scale) b -> ((acc +. if b then 2.0 ** scale else 0.0), scale -. 1.0))
            (0.0, -1.0) frac_bits
        in
        ipart +. fpart
      in
      let tree = parse_binary g input in
      let ev = Evaluator.create g ~root_inherited:[] tree in
      abs_float (as_f (Evaluator.goal ev "v") -. expected) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Attribute classes: MSGS-style merge class and ENV-style copy class,
   exactly the paper's §4.2 example shapes. *)

let classes_grammar () =
  let open Grammar.Builder in
  let b = create () in
  List.iter (fun t -> ignore (terminal b t)) [ "id"; "semi"; "$" ];
  List.iter (fun n -> ignore (nonterminal b n)) [ "goal"; "stmts"; "stmt" ];
  attr_class b ~name:"MSGS" ~dir:Grammar.Synthesized
    ~default:(Grammar.Merge ((fun a b -> L (as_l a @ as_l b)), L []));
  attr_class b ~name:"ENV" ~dir:Grammar.Inherited ~default:Grammar.Copy;
  List.iter
    (fun sym ->
      attr_member b ~sym ~cls:"MSGS";
      attr_member b ~sym ~cls:"ENV")
    [ "goal"; "stmts"; "stmt" ];
  (* goal supplies ENV itself; everything else is implicit *)
  production b ~name:"goal" ~lhs:"goal" ~rhs:[ "stmts" ]
    ~rules:[ const ~target:(1, "ENV") (S "initial-env") ];
  production b ~name:"stmts_one" ~lhs:"stmts" ~rhs:[ "stmt" ] ~rules:[];
  production b ~name:"stmts_more" ~lhs:"stmts" ~rhs:[ "stmts"; "semi"; "stmt" ] ~rules:[];
  (* a stmt reports its identifier as a "message" to observe merge order *)
  production b ~name:"stmt_id" ~lhs:"stmt" ~rhs:[ "id" ]
    ~rules:
      [
        rule ~target:(0, "MSGS") ~deps:[ (1, "VAL") ] (function
          | S s -> L [ s ]
          | _ -> assert false);
      ];
  freeze b ~start:"goal"

let parse_ids ?(elide_chains = false) g ids =
  let parser_t = Parsing.create ~name:"classes" g ~eof:"$" in
  let id_sym = Grammar.find_symbol g "id" and semi = Grammar.find_symbol g "semi" in
  let tokens =
    List.concat_map
      (fun name ->
        [
          { Driver.t_sym = id_sym; t_value = S name; t_line = 1 };
          { Driver.t_sym = semi; t_value = S ";"; t_line = 1 };
        ])
      ids
    |> fun l -> List.filteri (fun i _ -> i < (2 * List.length ids) - 1) l
  in
  Parsing.parse_list parser_t ~elide_chains ~eof_value:(S "") tokens

(* Copy elision under the plan: the classes grammar is mostly implicit
   copy/merge rules, so the plan must exclude copy targets from forcing,
   elision must cut per-evaluator rule applications, and the goal value
   must not move.  The side without elision parses a full tree; the other
   builds no node for the chain [stmts_one]. *)
let test_plan_elides_copies () =
  let g = classes_grammar () in
  let plan = Analysis.plan (Analysis.compute g) in
  Alcotest.(check bool) "plan excludes copy targets" true
    (plan.Analysis.pl_copy_targets > 0);
  let run ~copy_elide =
    let ev =
      Evaluator.create g ~copy_elide
        ~root_inherited:[ ("ENV", S "root-env") ]
        (parse_ids ~elide_chains:copy_elide g [ "a"; "b"; "c" ])
    in
    ignore (Evaluator.evaluate_plan ev ~plan);
    (as_l (Evaluator.goal ev "MSGS"), Evaluator.rule_applications ev)
  in
  let msgs_full, apps_full = run ~copy_elide:false in
  let msgs_elided, apps_elided = run ~copy_elide:true in
  Alcotest.(check (list string)) "same MSGS" msgs_full msgs_elided;
  Alcotest.(check bool)
    (Printf.sprintf "elision cuts applications (%d < %d)" apps_elided apps_full)
    true (apps_elided < apps_full)

(* ------------------------------------------------------------------ *)
(* Chain productions: a parse with [~elide_chains] builds no node for a
   transparent unit production. *)

(* goal -> a -> b -> x, where [a -> b] passes OUT up and ENV down, gives
   [a] a constant K, and is a chain unless [goal] reads K.  The two
   symbols lay out their slots differently: ENV is slot 0 of [a] and slot
   3 of [b], so the rule [goal] has for it is found only by [a]'s slot.
   [a_rules] replaces the rules of [a -> b]. *)
let chain_grammar ?(goal_reads_k = false) ?a_rules () =
  let open Grammar.Builder in
  let b = create () in
  List.iter (fun t -> ignore (terminal b t)) [ "x"; "$" ];
  List.iter (fun n -> ignore (nonterminal b n)) [ "goal"; "a"; "b" ];
  let decl sym names =
    List.iter
      (fun (name, dir) -> attr b ~sym ~name ~dir)
      names
  in
  decl "goal" [ ("OUT", Grammar.Synthesized) ];
  decl "a"
    [
      ("ENV", Grammar.Inherited); ("OUT", Grammar.Synthesized); ("ALT", Grammar.Synthesized);
      ("K", Grammar.Synthesized);
    ];
  decl "b"
    [
      ("EXTRA", Grammar.Synthesized); ("ALT", Grammar.Synthesized);
      ("OUT", Grammar.Synthesized); ("ENV", Grammar.Inherited);
    ];
  production b ~name:"goal" ~lhs:"goal" ~rhs:[ "a" ]
    ~rules:
      [
        const ~target:(1, "ENV") (S "env");
        (if goal_reads_k then
           rule ~target:(0, "OUT") ~deps:[ (1, "OUT"); (1, "K") ] (fun o k ->
               L (as_l o @ as_l k))
         else copy ~target:(0, "OUT") ~from:(1, "OUT"));
      ];
  production b ~name:"a_b" ~lhs:"a" ~rhs:[ "b" ]
    ~rules:
      (Option.value a_rules
         ~default:
           [
             copy ~target:(0, "OUT") ~from:(1, "OUT");
             copy ~target:(0, "ALT") ~from:(1, "ALT");
             copy ~target:(1, "ENV") ~from:(0, "ENV");
             const ~target:(0, "K") (L [ "k" ]);
           ]);
  production b ~name:"b_x" ~lhs:"b" ~rhs:[ "x" ]
    ~rules:
      [
        rule ~target:(0, "OUT") ~deps:[ (0, "ENV"); (1, "VAL") ] (fun e v ->
            L [ (match e with S s -> s | _ -> "?"); (match v with S s -> s | _ -> "?") ]);
        const ~target:(0, "ALT") (L [ "alt" ]);
        const ~target:(0, "EXTRA") (L []);
      ];
  freeze b ~start:"goal"

let production_named g name =
  Option.get (Array.find_opt (fun p -> p.Grammar.prod_name = name) g.Grammar.productions)

let chain_of g name = (production_named g name).Grammar.chain

(* parse tokens named by their terminals, each token's value its name *)
let parse_names ?(elide_chains = false) g names =
  Parsing.parse_list
    (Parsing.create ~name:"toy" g ~eof:"$")
    ~elide_chains ~eof_value:(S "")
    (List.map
       (fun name -> { Driver.t_sym = Grammar.find_symbol g name; t_value = S name; t_line = 1 })
       names)

(* What is a chain, and what is not: a unit production with an explicit
   rule that is no copy, with a copy of a differently named attribute, or
   with a constant a parent reads keeps its node. *)
let test_chain_marking () =
  let open Grammar.Builder in
  Alcotest.(check bool) "copies plus an unread constant" true
    (chain_of (chain_grammar ()) "a_b");
  Alcotest.(check bool) "the start symbol's production" false
    (chain_of (chain_grammar ()) "goal");
  Alcotest.(check bool) "a production over a terminal" false
    (chain_of (chain_grammar ()) "b_x");
  let not_chain what a_rules =
    Alcotest.(check bool) what false (chain_of (chain_grammar ~a_rules ()) "a_b")
  in
  let up = copy ~target:(0, "OUT") ~from:(1, "OUT")
  and alt = copy ~target:(0, "ALT") ~from:(1, "ALT")
  and down = copy ~target:(1, "ENV") ~from:(0, "ENV")
  and k = const ~target:(0, "K") (L [ "k" ]) in
  not_chain "an explicit rule that is no copy"
    [ rule ~target:(0, "OUT") ~deps:[ (1, "OUT") ] (fun v -> v); alt; down; k ];
  not_chain "a copy of a differently named attribute"
    [ copy ~target:(0, "OUT") ~from:(1, "ALT"); alt; down; k ];
  not_chain "a constant passed down" [ up; alt; const ~target:(1, "ENV") (S "e"); k ];
  Alcotest.(check bool) "a constant a parent reads" false
    (chain_of (chain_grammar ~goal_reads_k:true ()) "a_b");
  (* the real grammars: the expression AG's operator-free levels *)
  let eg = Expr_eval.grammar () in
  List.iter
    (fun name -> Alcotest.(check bool) ("expression AG " ^ name) true (chain_of eg name))
    [ "factor_primary"; "term_factor"; "relation_simple"; "simple_term"; "xexpr_rel" ]

(* An elided tree gives the full tree's goals with fewer attributes and
   fewer nodes.  Its rule applications fall by exactly the chain's dead
   constant K.  ENV reaches [b] through the rule [goal] has for [a]'s
   slot: looked up by [b]'s own slot, it would be missing. *)
let test_chain_elision () =
  let g = chain_grammar () in
  let plan = Analysis.plan (Analysis.compute g) in
  let run ~elide_chains =
    let tree = parse_names ~elide_chains g [ "x" ] in
    let size = Tree.size tree in
    let attrs = Vhdl_telemetry.Telemetry.counter_value "ag.attrs_evaluated" in
    let ev = Evaluator.create g ~root_inherited:[] tree in
    ignore (Evaluator.evaluate_plan ev ~plan);
    let out = as_l (Evaluator.goal ev "OUT") in
    ( out,
      size,
      Vhdl_telemetry.Telemetry.counter_value "ag.attrs_evaluated" - attrs,
      Evaluator.rule_applications ev,
      ev )
  in
  let out_full, size_full, attrs_full, apps_full, _ = run ~elide_chains:false in
  let out, size, attrs, apps, ev = run ~elide_chains:true in
  Alcotest.(check (list string)) "same goal" out_full out;
  Alcotest.(check (list string)) "ENV reached b" [ "env"; "x" ] out;
  Alcotest.(check int) "one node fewer" (size_full - 1) size;
  Alcotest.(check bool)
    (Printf.sprintf "fewer attributes (%d < %d)" attrs attrs_full)
    true (attrs < attrs_full);
  Alcotest.(check int) "only the dead constant is not applied" (apps_full - 1) apps;
  Alcotest.(check int) "b is a site" 1 (List.length (Evaluator.sites ev ~symbol:"b"));
  match Evaluator.sites ev ~symbol:"a" with
  | _ -> Alcotest.fail "a chain symbol is no site"
  | exception Invalid_argument _ -> ()

let test_agreement_all_grammars () =
  let eq_v a b =
    match (a, b) with
    | F x, F y -> abs_float (x -. y) < 1e-9
    | a, b -> a = b
  in
  let g = binary_grammar () in
  List.iter
    (fun input ->
      check_agreement ~msg:("binary " ^ input) g
        (fun ~elide_chains -> parse_binary ~elide_chains g input)
        ~goals:[ "v" ] ~eq:eq_v)
    [ "0"; "1"; "1101"; "110.101"; "0.111"; "10110101.0011" ];
  let g = classes_grammar () in
  List.iter
    (fun ids ->
      check_agreement
        ~root_inherited:[ ("ENV", S "root-env") ]
        ~msg:("classes " ^ String.concat "," ids)
        g
        (fun ~elide_chains -> parse_ids ~elide_chains g ids)
        ~goals:[ "MSGS" ] ~eq:eq_v)
    [ [ "a" ]; [ "a"; "b"; "c" ]; [ "p"; "q"; "r"; "s"; "t" ] ]

(* The rule seam fault injection uses: a rule replaced in place in the
   frozen grammar, as [Difftest_fault.wrap_rules] does, is the one the next
   evaluation applies — the grammar's rule index holds positions. *)
let test_rule_replaced_in_place () =
  let g = classes_grammar () in
  let msgs () =
    let ev = Evaluator.create g ~root_inherited:[] (parse_ids g [ "a"; "b" ]) in
    as_l (Evaluator.goal ev "MSGS")
  in
  Alcotest.(check (list string)) "before" [ "a"; "b" ] (msgs ());
  let stmt_id =
    Option.get
      (Array.find_opt (fun p -> p.Grammar.prod_name = "stmt_id") g.Grammar.productions)
  in
  Array.iteri
    (fun j (r : v Grammar.rule) ->
      if Grammar.attr_name g r.Grammar.target.Grammar.attr = "MSGS" then
        stmt_id.Grammar.rules.(j) <-
          {
            r with
            Grammar.compute =
              Grammar.map_result
                (fun v -> L (List.map String.uppercase_ascii (as_l v)))
                r.Grammar.compute;
          })
    stmt_id.Grammar.rules;
  Alcotest.(check (list string)) "wrapped rule applied" [ "A"; "B" ] (msgs ())

(* A tree belongs to the evaluator that numbered it. *)
let test_one_evaluator_per_tree () =
  let g = classes_grammar () in
  let tree = parse_ids g [ "a" ] in
  ignore (Evaluator.create g ~root_inherited:[] tree);
  match Evaluator.create g ~root_inherited:[] tree with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* A node's cells are indexed by its symbol's attribute slots.  An
   attribute the symbol does not declare has no slot and fails as a missing
   rule or a missing root value; a rule that escapes leaves its instances
   In_progress (asking again is a cycle) until [clear_in_progress] empties
   them for recomputation; a decorated tree still refuses a second
   evaluator. *)
let test_slot_cells () =
  let g = binary_grammar () in
  let ev = Evaluator.create g ~root_inherited:[] (parse_binary g "1101") in
  (match Evaluator.goal ev "len" with
  | _ -> Alcotest.fail "expected Missing_rule"
  | exception Evaluator.Missing_rule { prod_name; attr_name; pos } ->
    Alcotest.(check (triple string string int))
      "undeclared synthesized attribute" ("num_int", "len", 0) (prod_name, attr_name, pos));
  (match Evaluator.goal ev "scale" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let bit_one =
    Option.get
      (Array.find_opt (fun p -> p.Grammar.prod_name = "bit_one") g.Grammar.productions)
  in
  let r = bit_one.Grammar.rules.(0) and armed = ref true in
  bit_one.Grammar.rules.(0) <-
    {
      r with
      Grammar.compute =
        Grammar.map_result
          (fun v ->
            if !armed then (
              armed := false;
              raise Exit);
            v)
          r.Grammar.compute;
    };
  let tree = parse_binary g "1101" in
  let ev = Evaluator.create g ~root_inherited:[] tree in
  (match Evaluator.goal ev "v" with
  | _ -> Alcotest.fail "expected the rule's exception"
  | exception Exit -> ());
  (match Evaluator.goal ev "v" with
  | _ -> Alcotest.fail "expected Cycle on an In_progress cell"
  | exception Evaluator.Cycle _ -> ());
  Evaluator.clear_in_progress ev;
  Alcotest.(check (float 1e-9)) "recomputed after clearing" 13.0 (as_f (Evaluator.goal ev "v"));
  match Evaluator.create g ~root_inherited:[] tree with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_merge_class () =
  let g = classes_grammar () in
  let tree = parse_ids g [ "a"; "b"; "c" ] in
  let ev = Evaluator.create g ~root_inherited:[] tree in
  Alcotest.(check (list string)) "messages merged in source order" [ "a"; "b"; "c" ]
    (as_l (Evaluator.goal ev "MSGS"))

let test_copy_class () =
  let g = classes_grammar () in
  let tree = parse_ids g [ "x" ] in
  let ev = Evaluator.create g ~root_inherited:[] tree in
  ignore (Evaluator.goal ev "MSGS");
  (* ENV flows down without any explicit rule below goal *)
  let stats = Stats.of_grammar ~name:"classes" g in
  Alcotest.(check bool)
    "implicit rules are the majority"
    true
    (stats.Stats.rules_implicit * 2 >= stats.Stats.rules_total)

let test_implicit_counts () =
  let g = classes_grammar () in
  let stats = Stats.of_grammar ~name:"classes" g in
  (* goal: MSGS(goal) merge + ENV already explicit => 1 implicit
     stmts_one: MSGS up + ENV down => 2
     stmts_more: MSGS up + ENV down x2 => 3
     stmt_id: ENV unused below, no rhs nonterminal => 0; MSGS explicit *)
  Alcotest.(check int) "implicit rule count" 6 stats.Stats.rules_implicit;
  Alcotest.(check int) "explicit rule count" 2
    (stats.Stats.rules_total - stats.Stats.rules_implicit)

(* the rule production [prod] has for [attr] of the symbol at [pos] *)
let rule_of g prod ~pos attr =
  let p = production_named g prod in
  let sym = if pos = 0 then p.Grammar.lhs else p.Grammar.rhs.(pos - 1) in
  Grammar.rule_for p ~pos ~slot:(Grammar.slot g sym (Grammar.find_attr g attr))

(* A unit-element class (the paper's [Const]): [goal -> a] has no rule
   for K, so K of [goal] is the unit element, not the value K of [a]
   holds, as a copy class would give. *)
let test_const_class () =
  let open Grammar.Builder in
  let b = create () in
  List.iter (fun t -> ignore (terminal b t)) [ "x"; "$" ];
  List.iter (fun n -> ignore (nonterminal b n)) [ "goal"; "a" ];
  attr_class b ~name:"K" ~dir:Grammar.Synthesized ~default:(Grammar.Const (I 0));
  List.iter (fun sym -> attr_member b ~sym ~cls:"K") [ "goal"; "a" ];
  production b ~name:"goal" ~lhs:"goal" ~rhs:[ "a" ] ~rules:[];
  production b ~name:"a_x" ~lhs:"a" ~rhs:[ "x" ] ~rules:[ const ~target:(0, "K") (I 5) ];
  let g = freeze b ~start:"goal" in
  let ev = Evaluator.create g ~root_inherited:[] (parse_names g [ "x" ]) in
  Alcotest.(check int) "K of goal is the unit element" 0 (as_i (Evaluator.goal ev "K"));
  let r = rule_of g "goal" ~pos:0 "K" in
  Alcotest.(check bool) "completed rule is implicit, reads nothing, copies nothing" true
    (r.Grammar.provenance = Grammar.Implicit && r.Grammar.deps = [] && r.Grammar.copy_of = None);
  let stats = Stats.of_grammar ~name:"const" g in
  Alcotest.(check (pair int int)) "rules (total, implicit)" (2, 1)
    (stats.Stats.rules_total, stats.Stats.rules_implicit)

(* An inherited merge class completes as a copy down: each child's M is
   its parent's M, with no merge applied.  Where the parent has no M to
   copy, as [goal] here unless it sets M itself, the child gets the unit
   element. *)
let inherited_merge_grammar ~goal_sets_m =
  let open Grammar.Builder in
  let b = create () in
  List.iter (fun t -> ignore (terminal b t)) [ "x"; "$" ];
  List.iter (fun n -> ignore (nonterminal b n)) [ "goal"; "a"; "c" ];
  attr_class b ~name:"M" ~dir:Grammar.Inherited
    ~default:(Grammar.Merge ((fun a b -> L (as_l a @ as_l b)), L [ "unit" ]));
  List.iter (fun sym -> attr_member b ~sym ~cls:"M") [ "a"; "c" ];
  List.iter (fun sym -> attr b ~sym ~name:"OUT" ~dir:Grammar.Synthesized) [ "goal"; "a"; "c" ];
  production b ~name:"goal" ~lhs:"goal" ~rhs:[ "a" ]
    ~rules:
      (copy ~target:(0, "OUT") ~from:(1, "OUT")
      :: (if goal_sets_m then [ const ~target:(1, "M") (L [ "top" ]) ] else []));
  production b ~name:"a_cc" ~lhs:"a" ~rhs:[ "c"; "x"; "c" ]
    ~rules:
      [
        rule ~target:(0, "OUT") ~deps:[ (1, "OUT"); (3, "OUT") ] (fun l r ->
            L (as_l l @ as_l r));
      ];
  production b ~name:"c_x" ~lhs:"c" ~rhs:[ "x" ]
    ~rules:[ copy ~target:(0, "OUT") ~from:(0, "M") ];
  freeze b ~start:"goal"

let test_inherited_merge_copies_down () =
  let out g =
    let ev = Evaluator.create g ~root_inherited:[] (parse_names g [ "x"; "x"; "x" ]) in
    as_l (Evaluator.goal ev "OUT")
  in
  let g = inherited_merge_grammar ~goal_sets_m:true in
  Alcotest.(check (list string)) "both children read the parent's M" [ "top"; "top" ] (out g);
  List.iter
    (fun pos ->
      let r = rule_of g "a_cc" ~pos "M" in
      Alcotest.(check bool)
        (Printf.sprintf "M of child %d is an implicit copy of M of a" pos)
        true
        (r.Grammar.provenance = Grammar.Implicit
        && r.Grammar.copy_of = Some { Grammar.pos = 0; attr = Grammar.find_attr g "M" }))
    [ 1; 3 ];
  let g = inherited_merge_grammar ~goal_sets_m:false in
  Alcotest.(check (list string)) "no parent M: the unit element" [ "unit"; "unit" ] (out g);
  Alcotest.(check bool) "the unit rule reads nothing" true
    ((rule_of g "goal" ~pos:1 "M").Grammar.deps = [])

(* The generator rejects an LALR conflict instead of resolving it:
   [E -> E + E | id] is ambiguous, and the exception names the grammar. *)
let test_conflicts_rejected () =
  let open Grammar.Builder in
  let b = create () in
  List.iter (fun t -> ignore (terminal b t)) [ "plus"; "id"; "$" ];
  ignore (nonterminal b "e");
  production b ~name:"e_plus" ~lhs:"e" ~rhs:[ "e"; "plus"; "e" ] ~rules:[];
  production b ~name:"e_id" ~lhs:"e" ~rhs:[ "id" ] ~rules:[];
  let g = freeze b ~start:"e" in
  match Parsing.create ~name:"ambiguous-sum" g ~eof:"$" with
  | _ -> Alcotest.fail "expected Parsing.Conflicts"
  | exception Parsing.Conflicts { grammar_name; report } ->
    Alcotest.(check string) "names the grammar" "ambiguous-sum" grammar_name;
    Alcotest.(check bool) "reports the shift/reduce conflict" true
      (Astring_contains.contains report "shift/reduce")

(* ------------------------------------------------------------------ *)
(* Typed rule dependencies: one function parameter per dependency, in
   order.  Every rule returns its arguments' strings in the order it got
   them, so a swapped or dropped argument changes a goal. *)

let strs = function
  | S s -> [ s ]
  | I n -> [ string_of_int n ]
  | L l -> l
  | F _ -> Alcotest.fail "unexpected float value"

let typed_grammar () =
  let open Grammar.Builder in
  let b = create () in
  List.iter (fun t -> ignore (terminal b t)) [ "a"; "b"; "c"; "$" ];
  List.iter (fun n -> ignore (nonterminal b n)) [ "goal"; "x" ];
  List.iter (fun name -> attr b ~sym:"goal" ~name ~dir:Grammar.Synthesized) [ "out"; "rest" ];
  List.iter (fun name -> attr b ~sym:"x" ~name ~dir:Grammar.Inherited) [ "c1"; "c2" ];
  List.iter
    (fun name -> attr b ~sym:"x" ~name ~dir:Grammar.Synthesized)
    [ "s0"; "s1"; "s2"; "s3"; "out"; "rest" ];
  (* a typed context prefix: the two inherited attributes come first *)
  let ctx d : (v, _, _) Grammar.deps = (0, "c1") :: (0, "c2") :: d in
  production b ~name:"goal" ~lhs:"goal" ~rhs:[ "x" ]
    ~rules:
      [
        const ~target:(1, "c1") (S "c1");
        const ~target:(1, "c2") (S "c2");
        copy ~target:(0, "out") ~from:(1, "out");
        rule ~target:(0, "rest") ~deps:[ (1, "rest") ] (fun r -> r);
      ];
  production b ~name:"x" ~lhs:"x" ~rhs:[ "a"; "b"; "c" ]
    ~rules:
      [
        const ~target:(0, "s0") (S "k");
        rule ~target:(0, "s1") ~deps:[ (1, "VAL") ] (fun a -> L (strs a));
        rule_map
          (fun l -> L l)
          ~target:(0, "s2")
          ~deps:[ (2, "VAL"); (2, "LINE") ]
          (fun b line -> strs b @ strs line);
        rule ~target:(0, "s3")
          ~deps:[ (1, "LINE"); (3, "VAL"); (3, "LINE") ]
          (fun l1 c l3 -> L (strs l1 @ strs c @ strs l3));
        rule ~target:(0, "out")
          ~deps:
            (ctx
               [
                 (1, "VAL"); (2, "VAL"); (3, "VAL"); (1, "LINE"); (2, "LINE"); (3, "LINE");
                 (0, "s0"); (0, "s1"); (0, "s2");
               ])
          (fun c1 c2 a b c l1 l2 l3 s0 s1 s2 ->
            L (List.concat_map strs [ c1; c2; a; b; c; l1; l2; l3; s0; s1; s2 ]));
        rule ~target:(0, "rest")
          ~deps:((0, "s3") :: Rest [ (0, "s0"); (0, "c2"); (0, "s2") ])
          (fun s3 rest -> L (strs s3 @ List.concat_map strs rest));
      ];
  freeze b ~start:"goal"

let parse_abc ?(elide_chains = false) g =
  let parser_t = Parsing.create ~name:"typed" g ~eof:"$" in
  let tok i t = { Driver.t_sym = Grammar.find_symbol g t; t_value = S t; t_line = i + 1 } in
  Parsing.parse_list parser_t ~elide_chains ~eof_value:(S "") (List.mapi tok [ "a"; "b"; "c" ])

let test_typed_deps () =
  let g = typed_grammar () in
  let arities =
    Array.to_list g.Grammar.productions
    |> List.concat_map (fun p -> Array.to_list p.Grammar.rules)
    |> List.map (fun (r : v Grammar.rule) -> List.length r.Grammar.deps)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "arities" [ 0; 1; 2; 3; 4; 11 ] arities;
  let token_line n = I n in
  let ev = Evaluator.create g ~token_line ~root_inherited:[] (parse_abc g) in
  Alcotest.(check (list string)) "out: every argument, in order"
    [ "c1"; "c2"; "a"; "b"; "c"; "1"; "2"; "3"; "k"; "a"; "b"; "2" ]
    (strs (Evaluator.goal ev "out"));
  Alcotest.(check (list string)) "rest: head, then the Rest tail in order"
    [ "1"; "c"; "3"; "k"; "c2"; "b"; "2" ]
    (strs (Evaluator.goal ev "rest"));
  check_agreement ~token_line ~msg:"typed" g (fun ~elide_chains -> parse_abc ~elide_chains g) ~goals:[ "out"; "rest" ]
    ~eq:( = )

(* ------------------------------------------------------------------ *)
(* Circularity detection *)

let circular_grammar () =
  let open Grammar.Builder in
  let b = create () in
  ignore (terminal b "x");
  ignore (terminal b "$");
  ignore (nonterminal b "a");
  ignore (nonterminal b "goal");
  attr b ~sym:"goal" ~name:"out" ~dir:Grammar.Synthesized;
  attr b ~sym:"a" ~name:"i" ~dir:Grammar.Inherited;
  attr b ~sym:"a" ~name:"s" ~dir:Grammar.Synthesized;
  (* goal feeds a's synthesized result back as its inherited input *)
  production b ~name:"goal" ~lhs:"goal" ~rhs:[ "a" ]
    ~rules:
      [
        copy ~target:(0, "out") ~from:(1, "s");
        copy ~target:(1, "i") ~from:(1, "s");
      ];
  production b ~name:"a_x" ~lhs:"a" ~rhs:[ "x" ]
    ~rules:[ copy ~target:(0, "s") ~from:(0, "i") ];
  freeze b ~start:"goal"

let test_circularity_static () =
  let g = circular_grammar () in
  match Analysis.compute g with
  | _ -> Alcotest.fail "expected Circular"
  | exception Analysis.Circular { prod_name; _ } ->
    Alcotest.(check string) "detected in goal production" "goal" prod_name

let test_circularity_dynamic () =
  let g = circular_grammar () in
  let x = Grammar.find_symbol g "x" in
  let stub = Tree.stub () in
  let tree =
    Tree.node ~stub 0 [| Tree.node ~stub 1 [| Tree.leaf ~stub ~term:x ~value:(S "x") ~line:1 |] |]
  in
  let ev = Evaluator.create g ~root_inherited:[] tree in
  match Evaluator.goal ev "out" with
  | _ -> Alcotest.fail "expected Cycle"
  | exception Evaluator.Cycle _ -> ()

(* ------------------------------------------------------------------ *)
(* Builder validation *)

let test_reject_bad_rule () =
  let open Grammar.Builder in
  let mk () =
    let b = create () in
    ignore (terminal b "x");
    ignore (terminal b "$");
    ignore (nonterminal b "g");
    attr b ~sym:"g" ~name:"s" ~dir:Grammar.Synthesized;
    attr b ~sym:"g" ~name:"i" ~dir:Grammar.Inherited;
    (* illegal: defines the inherited attribute of the lhs *)
    production b ~name:"g" ~lhs:"g" ~rhs:[ "x" ]
      ~rules:[ const ~target:(0, "s") (I 1); const ~target:(0, "i") (I 2) ];
    freeze b ~start:"g"
  in
  match mk () with
  | _ -> Alcotest.fail "expected Ill_formed"
  | exception Grammar.Ill_formed _ -> ()

let test_reject_missing_rule () =
  let open Grammar.Builder in
  let mk () =
    let b = create () in
    ignore (terminal b "x");
    ignore (terminal b "$");
    ignore (nonterminal b "g");
    attr b ~sym:"g" ~name:"s" ~dir:Grammar.Synthesized;
    production b ~name:"g" ~lhs:"g" ~rhs:[ "x" ] ~rules:[];
    freeze b ~start:"g"
  in
  match mk () with
  | _ -> Alcotest.fail "expected Ill_formed (no rule for s)"
  | exception Grammar.Ill_formed _ -> ()

let test_reject_duplicate_rule () =
  let open Grammar.Builder in
  let mk () =
    let b = create () in
    ignore (terminal b "x");
    ignore (terminal b "$");
    ignore (nonterminal b "g");
    attr b ~sym:"g" ~name:"s" ~dir:Grammar.Synthesized;
    production b ~name:"g" ~lhs:"g" ~rhs:[ "x" ]
      ~rules:[ const ~target:(0, "s") (I 1); const ~target:(0, "s") (I 2) ];
    freeze b ~start:"g"
  in
  match mk () with
  | _ -> Alcotest.fail "expected Ill_formed (duplicate)"
  | exception Grammar.Ill_formed _ -> ()

(* the full principal VHDL AG passes the strong-noncircularity test — the
   paper's §5.2 worry ("a change in the dependencies of a semantic rule in
   one production can combine with a hitherto legal dependency in some far
   removed production to produce a circularity") *)
let test_principal_ag_noncircular () =
  let g = Main_grammar.grammar () in
  let a = Analysis.compute g in
  let parts = Analysis.visit_partitions a in
  Alcotest.(check bool) "orderable" true (Array.length parts > 0);
  let s = Stats.of_grammar ~name:"principal" (Main_grammar.grammar ()) in
  Alcotest.(check bool) "implicit rules are the majority (TBL-IMPLICIT)" true
    (Stats.implicit_fraction s > 0.5)

(* staged (plan-based) evaluation of the principal AG, over a tree without
   chain nodes, produces the same compiled units as demand evaluation over
   a full tree *)
let test_staged_principal () =
  let source =
    "entity e is\n  port (a : in bit; y : out bit);\nend e;\n\narchitecture r of e is\nbegin\n  y <= not a after 1 ns;\nend r;"
  in
  (* the architecture finds its entity in the library, where only the
     compiler's driver places units *)
  let entity =
    Vhdl_compiler.compile (Vhdl_compiler.create ())
      "entity e is\n  port (a : in bit; y : out bit);\nend e;"
  in
  let compile_with ~elide_chains forcing =
    let session = Session.in_memory entity in
    Session.with_session session (fun () ->
        let g = Main_grammar.grammar () in
        let parser_ = Main_grammar.parser_ () in
        let tokens = Main_grammar.tokens_of_source source in
        let tree = Parsing.parse_list parser_ ~elide_chains ~eof_value:Pval.Unit tokens in
        let ev =
          Evaluator.create
            ~token_line:(fun n -> Pval.Int n)
            g
            ~root_inherited:
              (Main_grammar.root_inherited ~unit_name:"WORK.X" ~source_lines:7)
            tree
        in
        forcing g ev;
        Alcotest.(check bool) "no errors" false
          (Diag.has_errors (Pval.as_msgs (Evaluator.goal ev "MSGS")));
        List.map
          (fun (u : Unit_info.compiled_unit) -> u.Unit_info.u_key)
          (Pval.as_units (Evaluator.goal ev "UNITS")))
  in
  let demand = compile_with ~elide_chains:false (fun _ _ -> ()) in
  let planned =
    compile_with ~elide_chains:true (fun g ev ->
        ignore (Evaluator.evaluate_plan ev ~plan:(Analysis.plan (Analysis.compute g))))
  in
  Alcotest.(check (list string)) "plan: same units" demand planned

(* ------------------------------------------------------------------ *)
(* Build-time generation: the tables and plans the compiler loads must be
   exactly what the generator's own algorithms build, and tables generated
   for one grammar must never load against another. *)

let check_generated ~what (built : 'v Parsing.t) (loaded : 'v Parsing.t) ~plan
    ~loaded_plan =
  let bt = built.Parsing.table and lt = loaded.Parsing.table in
  Alcotest.(check bool) (what ^ ": conflict free") true (bt.Vhdl_lalr.Table.conflicts = []);
  Alcotest.(check int) (what ^ ": states") bt.Vhdl_lalr.Table.n_states lt.Vhdl_lalr.Table.n_states;
  Alcotest.(check bool) (what ^ ": action = Table.build") true
    (bt.Vhdl_lalr.Table.action = lt.Vhdl_lalr.Table.action);
  Alcotest.(check bool) (what ^ ": goto = Table.build") true
    (bt.Vhdl_lalr.Table.goto = lt.Vhdl_lalr.Table.goto);
  Alcotest.(check bool) (what ^ ": plan = Analysis.plan") true (plan = loaded_plan)

let test_generated_principal () =
  let g = Main_grammar.build () in
  Alcotest.(check string) "same numbering as the loaded grammar"
    (Generated.fingerprint (Main_grammar.grammar ()))
    (Generated.fingerprint g);
  check_generated ~what:"principal"
    (Parsing.create g ~eof:"EOF")
    (Main_grammar.parser_ ())
    ~plan:(Analysis.plan (Analysis.compute g))
    ~loaded_plan:(Main_grammar.plan ())

let test_generated_expression () =
  let g = Expr_grammar.build () in
  let loaded, loaded_plan =
    Generated.load ~name:Expr_eval.name g ~eof:"LEOF" Grammar_tables.expression
  in
  check_generated ~what:"expression"
    (Parsing.create g ~eof:"LEOF")
    loaded
    ~plan:(Analysis.plan (Analysis.compute g))
    ~loaded_plan;
  Alcotest.(check bool) "Expr_eval's parser uses the generated tables" true
    ((Expr_eval.parser_ ()).Parsing.table.Vhdl_lalr.Table.action
     = loaded.Parsing.table.Vhdl_lalr.Table.action)

let test_generated_roundtrip () =
  let g = binary_grammar () in
  let loaded, loaded_plan =
    Generated.load ~name:"binary" g ~eof:"$" (Generated.generate ~name:"binary" g ~eof:"$")
  in
  check_generated ~what:"binary"
    (Parsing.create g ~eof:"$")
    loaded
    ~plan:(Analysis.plan (Analysis.compute g))
    ~loaded_plan

let expect_stale ~name load =
  match load () with
  | _ -> Alcotest.failf "%s: stale tables loaded silently" name
  | exception (Generated.Stale { grammar_name; _ } as e) ->
    Alcotest.(check string) "names the grammar" name grammar_name;
    let msg = Printexc.to_string e in
    Alcotest.(check bool) ("message names the grammar: " ^ msg) true
      (Astring_contains.contains msg name)

let test_generated_stale () =
  let blob = Generated.generate ~name:"binary" (binary_grammar ()) ~eof:"$" in
  let g' = binary_grammar ~extra_production:true () in
  Alcotest.(check bool) "one extra production changes the fingerprint" true
    (Generated.fingerprint g' <> Generated.fingerprint (binary_grammar ()));
  expect_stale ~name:"binary + bit_dot" (fun () ->
      Generated.load ~name:"binary + bit_dot" g' ~eof:"$" blob);
  expect_stale ~name:Expr_eval.name (fun () ->
      Generated.load ~name:Expr_eval.name (Expr_grammar.build ()) ~eof:"LEOF"
        Grammar_tables.principal);
  (* what the generator itself links in place of the tables *)
  expect_stale ~name:Main_grammar.name (fun () ->
      Generated.load ~name:Main_grammar.name (Main_grammar.build ()) ~eof:"EOF" "")

let suite =
  [
    Alcotest.test_case "binary numbers evaluate" `Quick test_binary_value;
    Alcotest.test_case "principal AG is strongly noncircular" `Quick
      test_principal_ag_noncircular;
    Alcotest.test_case "staged evaluation of the principal AG" `Quick test_staged_principal;
    Alcotest.test_case "binary analysis: visits" `Quick test_binary_analysis;
    Alcotest.test_case "plan evaluation matches demand" `Quick test_plan_matches_demand;
    Alcotest.test_case "plan elides copy chains" `Quick test_plan_elides_copies;
    Alcotest.test_case "chain productions: what is one" `Quick test_chain_marking;
    Alcotest.test_case "chain productions: elided tree, same goals" `Quick
      test_chain_elision;
    Alcotest.test_case "demand/staged agreement across example grammars" `Quick
      test_agreement_all_grammars;
    QCheck_alcotest.to_alcotest binary_property;
    Alcotest.test_case "a rule replaced in place is applied" `Quick
      test_rule_replaced_in_place;
    Alcotest.test_case "one evaluator per tree" `Quick test_one_evaluator_per_tree;
    Alcotest.test_case "slot cells: undeclared, escaped, cleared" `Quick test_slot_cells;
    Alcotest.test_case "merge class concatenates in order" `Quick test_merge_class;
    Alcotest.test_case "copy class threads values implicitly" `Quick test_copy_class;
    Alcotest.test_case "implicit rule counting" `Quick test_implicit_counts;
    Alcotest.test_case "typed dependencies: arities, order, Rest, prefix" `Quick
      test_typed_deps;
    Alcotest.test_case "static circularity detection" `Quick test_circularity_static;
    Alcotest.test_case "dynamic cycle detection" `Quick test_circularity_dynamic;
    Alcotest.test_case "reject rule for inherited lhs attribute" `Quick test_reject_bad_rule;
    Alcotest.test_case "reject missing synthesized rule" `Quick test_reject_missing_rule;
    Alcotest.test_case "reject duplicate rule" `Quick test_reject_duplicate_rule;
    Alcotest.test_case "generated principal tables and plan = generator" `Quick
      test_generated_principal;
    Alcotest.test_case "generated expression tables and plan = generator" `Quick
      test_generated_expression;
    Alcotest.test_case "generate/load round-trips a toy grammar" `Quick
      test_generated_roundtrip;
    Alcotest.test_case "stale generated tables fail loudly" `Quick test_generated_stale;
    Alcotest.test_case "unit-element class completes with its unit" `Quick test_const_class;
    Alcotest.test_case "inherited merge class copies down" `Quick
      test_inherited_merge_copies_down;
    Alcotest.test_case "LALR conflicts are rejected" `Quick test_conflicts_rejected;
  ]
