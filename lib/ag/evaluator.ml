(** Attribute evaluation over derivation trees.

    The workhorse is a demand-driven, memoizing evaluator: asking for any
    attribute of any node triggers exactly the semantic-rule applications its
    value transitively depends on, each at most once.  This realizes the
    paper's observation that the AG author "only describes what information
    we want to know" and scheduling is the evaluator's problem.

    The compiler's fast path drives it pass by pass from the static plan
    of {!Analysis.plan} (generated when the compiler is built), the way a
    Linguist-generated evaluator proceeds; plain demand evaluation is the
    reference oracle.  Both produce identical values. *)

module Tm = Vhdl_telemetry.Telemetry

let m_memo_hits = Tm.counter "ag.memo_hits"
let m_attrs_evaluated = Tm.counter "ag.attrs_evaluated"
let m_rule_applications = Tm.counter "ag.rule_applications"
let m_copy_elisions = Tm.counter "ag.copy_elisions"
let m_staged_passes = Tm.counter "ag.staged_passes"
let m_staged_visits = Tm.counter "ag.staged_visits"
let m_visits_per_pass = Tm.histogram "ag.visits_per_pass"

exception Cycle of { prod_name : string; attr_name : string }

exception
  Missing_rule of {
    prod_name : string;
    attr_name : string;
    pos : int;
  }

exception Fuel_exhausted of { applications : int; limit : int }

(** Provenance hook: the recorder, the AG's label in the records, and a
    compact value summarizer.  [None] (the default) keeps the fast path: the
    only residue is one option test per attribute evaluation. *)
type 'v provenance = Provenance.t * string * ('v -> string)

type 'v t = {
  grammar : 'v Grammar.t;
  root : 'v Tree.t;
  root_inherited : (int * 'v) list;
  token_line : (int -> 'v) option; (* injects a token's LINE into 'v *)
  mutable rule_applications : int; (* instrumentation for the benches *)
  fuel : int option; (* rule-application budget, None = unlimited *)
  tick : unit -> unit; (* periodic hook (deadline checks), every 256 rules *)
  prov : 'v provenance option;
  copy_elide : bool;
      (* move copy-rule values by reference instead of applying the rule;
         off for the differential oracle's reference side *)
}

(** [create grammar ~root_inherited tree] numbers [tree]'s nodes (post-order)
    and takes its attribute cells.  [root_inherited] supplies the inherited
    attributes of the root (by attribute name); [token_line] injects a token's
    source line into the value type for rules that depend on the LINE token
    attribute; [provenance] arms the attribute-dependency recorder. *)
let create ?token_line ?fuel ?(tick = fun () -> ()) ?provenance
    ?(copy_elide = true) grammar ~root_inherited (tree : 'v Tree.t) =
  if tree.Tree.id <> 0 then
    invalid_arg "Evaluator.create: the tree already belongs to an evaluator";
  (* with a recorder armed, its counter numbers the nodes, so records from
     several trees (the main AG plus every cascade re-parse) share one id
     space; otherwise the ids are this tree's own *)
  let n = ref 0 in
  let next_id () =
    match provenance with
    | Some (rc, _, _) -> Provenance.fresh_node rc
    | None -> incr n; !n
  in
  let rec number (node : 'v Tree.t) =
    Array.iter number node.children;
    node.id <- next_id ()
  in
  number tree;
  let root_inherited =
    List.map (fun (name, v) -> (Grammar.find_attr grammar name, v)) root_inherited
  in
  {
    grammar;
    root = tree;
    root_inherited;
    token_line;
    rule_applications = 0;
    fuel;
    tick;
    prov = provenance;
    copy_elide;
  }

let find_rule t (p : 'v Grammar.production) ~pos ~slot attr =
  match Grammar.rule_for p ~pos ~slot with
  | r -> r
  | exception Not_found ->
    raise
      (Missing_rule
         { prod_name = p.Grammar.prod_name; attr_name = Grammar.attr_name t.grammar attr; pos })

let node_label t node =
  if node.Tree.prod >= 0 then
    (Grammar.production t.grammar node.Tree.prod).Grammar.prod_name
  else Grammar.symbol_name t.grammar node.Tree.term

(* Count an application of [rule] (telemetry, provenance, fuel, tick) and
   return [x], its last argument: it runs after the arguments, before [f]. *)
let applied t at_node rule x =
  t.rule_applications <- t.rule_applications + 1;
  Tm.incr m_rule_applications;
  (match t.prov with
  | Some (rc, _, _) ->
    (* the open record is the rule's target instance (for inherited
       attributes that is the child's instance; the defining production is
       this node's) *)
    Provenance.note_rule rc
      ~defining_prod:(Grammar.production t.grammar at_node.Tree.prod).Grammar.prod_name
      ~implicit:(rule.Grammar.provenance = Grammar.Implicit)
  | None -> ());
  (match t.fuel with
  | Some limit when t.rule_applications > limit ->
    raise (Fuel_exhausted { applications = t.rule_applications; limit })
  | _ -> ());
  if t.rule_applications land 255 = 0 then t.tick ();
  x

(* Evaluate attribute [attr] of [node], memoized in the cell at the
   attribute's slot; the node's cells are allocated on its first write.
   For synthesized attributes the defining rule lives in the node's own
   production, found by that slot; for inherited ones it lives in the
   parent's production (or in [root_inherited] at the root), found by the
   slot of the symbol the parent's production has at the node's position.
   That symbol is the node's own, or the left-hand side of a chain the
   parser built no node for ({!Grammar.production.chain}).  An attribute
   the symbol does not declare has no slot and no rule: [compute_attr]
   raises. *)
let rec eval_node t node attr =
  let sym =
    if node.Tree.prod >= 0 then (Grammar.production t.grammar node.Tree.prod).Grammar.lhs
    else node.Tree.term
  in
  let slot = Grammar.slot t.grammar sym attr in
  if slot < 0 then compute_attr t node ~slot attr
  else begin
    if Array.length node.Tree.cells = 0 then
      node.Tree.cells <- Array.make (Grammar.n_slots t.grammar sym) Tree.Empty;
    match node.Tree.cells.(slot) with
    | Tree.Done v ->
      Tm.incr m_memo_hits;
      (match t.prov with
      | Some (rc, _, _) ->
        Provenance.memo_hit rc ~node:node.Tree.id ~attr:(Grammar.attr_name t.grammar attr)
      | None -> ());
      v
    | Tree.In_progress ->
      raise
        (Cycle
           { prod_name = node_label t node; attr_name = Grammar.attr_name t.grammar attr })
    | Tree.Empty ->
      Tm.incr m_attrs_evaluated;
      node.Tree.cells.(slot) <- Tree.In_progress;
      let v =
        match t.prov with
        | None -> compute_attr t node ~slot attr
        | Some (rc, ag, summarize) -> (
          let r =
            Provenance.begin_instance rc ~ag ~prod:(node_label t node) ~node:node.Tree.id
              ~attr:(Grammar.attr_name t.grammar attr) ~line:node.Tree.line
          in
          match compute_attr t node ~slot attr with
          | v ->
            Provenance.finish rc r ~value:(summarize v);
            v
          | exception exn ->
            Provenance.abort rc r;
            raise exn)
      in
      node.Tree.cells.(slot) <- Tree.Done v;
      v
  end

and compute_attr t node ~slot attr =
  if node.Tree.prod < 0 then begin
    (match t.prov with Some (rc, _, _) -> Provenance.note_token rc | None -> ());
    eval_token t node attr
  end
  else
    match Grammar.attr_dir t.grammar attr with
    | Grammar.Synthesized ->
      let p = Grammar.production t.grammar node.Tree.prod in
      apply_or_elide t node (find_rule t p ~pos:0 ~slot attr)
    | Grammar.Inherited ->
      let parent = node.Tree.parent in
      if parent != node then begin
        let p = Grammar.production t.grammar parent.Tree.prod in
        let i = node.Tree.index in
        let slot = Grammar.slot t.grammar p.Grammar.rhs.(i) attr in
        apply_or_elide t parent (find_rule t p ~pos:(i + 1) ~slot attr)
      end
      else (
        match List.assoc attr t.root_inherited with
        | v ->
          (match t.prov with
          | Some (rc, _, _) -> Provenance.note_root_inherited rc
          | None -> ());
          v
        | exception Not_found ->
          invalid_arg
            (Printf.sprintf "no value supplied for root inherited attribute %s"
               (Grammar.attr_name t.grammar attr)))

and eval_token t node attr =
  if attr = t.grammar.Grammar.token_value_attr then Option.get node.Tree.value
  else if attr = t.grammar.Grammar.token_line_attr then
    match t.token_line with
    | Some inject -> inject node.Tree.line
    | None ->
      invalid_arg "token LINE attribute used but no token_line injection supplied"
  else
    invalid_arg
      (Printf.sprintf "token %s has no attribute %s"
         (Grammar.symbol_name t.grammar node.Tree.term)
         (Grammar.attr_name t.grammar attr))

and arg_of t at_node (occ : Grammar.occurrence) =
  if occ.Grammar.pos = 0 then eval_node t at_node occ.Grammar.attr
  else
    let child = at_node.Tree.children.(occ.Grammar.pos - 1) in
    if child.Tree.prod < 0 && occ.Grammar.attr = t.grammar.Grammar.token_line_attr then
      (* token LINE is produced by the scanner, not by a semantic rule;
         expose it through the same mechanism *)
      eval_token t child occ.Grammar.attr
    else eval_node t child occ.Grammar.attr

(* Copy elision: a rule tagged [copy_of] moves its source's value by
   reference — no argument list, no application count, no fuel.  More than
   half of all rules are generator-supplied copies (paper §4.1), so chains
   of them collapse to pointer moves.  With a recorder armed the instance
   is still classified ([note_copy]) and the read of the source adds the
   collapsed dependency edge, keeping explain chains truthful. *)
and apply_or_elide t at_node rule =
  match rule.Grammar.copy_of with
  | Some src when t.copy_elide ->
    Tm.incr m_copy_elisions;
    (match t.prov with
    | Some (rc, _, _) ->
      Provenance.note_copy rc
        ~defining_prod:(Grammar.production t.grammar at_node.Tree.prod).Grammar.prod_name
        ~implicit:(rule.Grammar.provenance = Grammar.Implicit)
    | None -> ());
    arg_of t at_node src
  | _ -> apply_rule t at_node rule

(* The dependencies are evaluated left to right into the arguments of the
   rule's arity case (only [Args] builds a list); the last passes [applied]. *)
and apply_rule t at_node rule =
  match (rule.Grammar.compute, rule.Grammar.deps) with
  | Grammar.Args0 f, [] -> f (applied t at_node rule ())
  | Grammar.Args1 f, [ d1 ] -> f (applied t at_node rule (arg_of t at_node d1))
  | Grammar.Args2 f, [ d1; d2 ] ->
    let a = arg_of t at_node d1 in
    f a (applied t at_node rule (arg_of t at_node d2))
  | Grammar.Args3 f, [ d1; d2; d3 ] ->
    let a = arg_of t at_node d1 in
    let b = arg_of t at_node d2 in
    f a b (applied t at_node rule (arg_of t at_node d3))
  | Grammar.Args f, deps -> f (applied t at_node rule (List.map (arg_of t at_node) deps))
  | _ -> invalid_arg "Evaluator: a rule's arity case does not match its dependencies"

(** Value of synthesized attribute [name] at the root — the paper's "goal
    attributes" that constitute the result of the translation. *)
let goal t name =
  let attr = Grammar.find_attr t.grammar name in
  eval_node t t.root attr

(** Number of semantic-rule applications so far (bench instrumentation). *)
let rule_applications t = t.rule_applications

(* ------------------------------------------------------------------ *)
(* Plan-based evaluation *)

(** Drive evaluation from a static plan ({!Analysis.plan}): pass by pass,
    bottom-up, forcing per production exactly the non-copy synthesized
    attributes the plan assigned to the pass.  Copy targets and inherited
    attributes are filled on demand — copies by reference (elision), the
    rest through ordinary memoized recursion — so the walk does no
    per-node list scans and manufactures no rule applications.  [site]
    restricts the walk to a subtree (the per-design-unit entry point of the
    supervisor, so work and failures still attribute to their unit).
    Returns the number of passes run. *)
let evaluate_plan ?site t ~(plan : Analysis.plan) =
  let root = match site with Some s -> s | None -> t.root in
  for pass = 1 to plan.Analysis.pl_passes do
    Tm.incr m_staged_passes;
    let visits = ref 0 in
    let rec walk node =
      Array.iter walk node.Tree.children;
      if node.Tree.prod >= 0 then begin
        incr visits;
        Array.iter
          (fun attr -> ignore (eval_node t node attr))
          plan.Analysis.pl_force.(node.Tree.prod).(pass - 1)
      end
    in
    walk root;
    Tm.add m_staged_visits !visits;
    Tm.observe m_visits_per_pass (float_of_int !visits)
  done;
  plan.Analysis.pl_passes

(* ------------------------------------------------------------------ *)
(* Per-region evaluation (the exception firewall's view of the tree) *)

type 'v site = 'v Tree.t

(** Interior nodes whose production's left-hand side is [symbol], in source
    order — the per-design-unit entry points of the supervisor.  A symbol
    with a chain production is refused: a staged parse may have built no
    node for it. *)
let sites t ~symbol =
  let sym = Grammar.find_symbol t.grammar symbol in
  if
    List.exists
      (fun p -> (Grammar.production t.grammar p).Grammar.chain)
      t.grammar.Grammar.prods_of.(sym)
  then invalid_arg ("Evaluator.sites: " ^ symbol ^ " is the left-hand side of a chain production");
  let acc = ref [] in
  let rec walk node =
    if node.Tree.prod >= 0 then begin
      if (Grammar.production t.grammar node.Tree.prod).Grammar.lhs = sym then
        acc := node :: !acc;
      Array.iter walk node.Tree.children
    end
  in
  walk t.root;
  List.rev !acc

(** Value of attribute [name] at [site]; inherited attributes resolve
    through the parent chain exactly as at the root. *)
let eval_at t site name =
  let attr = Grammar.find_attr t.grammar name in
  eval_node t site attr

(** Provenance node id of [site] — the address [vhdlc explain] resolves a
    unit's goal attributes at. *)
let site_id (site : 'v site) = site.Tree.id

(** Source line of the first token under [site] (0 if the region is
    empty). *)
let site_line (site : 'v site) = site.Tree.line

(** Token values of the first [limit] leaves under [site], in source order
    — enough for a caller to label the region (e.g. "entity ADDER"). *)
let site_leaf_values ?(limit = 64) site =
  let acc = ref [] in
  let n = ref 0 in
  let rec walk node =
    if !n < limit then
      if node.Tree.prod < 0 then (
        (match node.Tree.value with
        | Some v ->
          acc := v :: !acc;
          incr n
        | None -> ()))
      else Array.iter walk node.Tree.children
  in
  walk site;
  List.rev !acc

(** Reset to [Empty] every [In_progress] cell left behind by an
    evaluation that escaped mid-rule, so sibling regions do not see
    phantom cycles.  Completed ([Done]) values are kept — they are still
    valid. *)
let clear_in_progress t =
  let rec walk node =
    let cells = node.Tree.cells in
    Array.iteri (fun i c -> if c == Tree.In_progress then cells.(i) <- Tree.Empty) cells;
    Array.iter walk node.Tree.children
  in
  walk t.root
