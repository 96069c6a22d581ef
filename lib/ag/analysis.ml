(** Static dependency analysis of an attribute grammar.

    Implements the classical machinery the paper relies on Linguist for:

    - per-production local dependency graphs,
    - the IO/OI induced-dependency fixpoint, giving the polynomial
      *strong noncircularity* test (a circular AG is rejected here, which is
      the paper's §5.2 "a change in one production can combine with a far
      removed production to produce a circularity"),
    - per-symbol visit partitions, giving the "max visits" statistic of the
      §4.1 table and driving the staged evaluator. *)

type occ = Grammar.occurrence

module Occ_set = Set.Make (struct
  type t = occ

  let compare (a : occ) (b : occ) =
    match compare a.Grammar.pos b.Grammar.pos with
    | 0 -> compare a.Grammar.attr b.Grammar.attr
    | c -> c
end)

module Pair_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

type 'v t = {
  grammar : 'v Grammar.t;
  (* io.(sym): (inherited attr, synthesized attr) pairs *)
  io : Pair_set.t array;
  (* oi.(sym): (synthesized attr, inherited attr) pairs *)
  oi : Pair_set.t array;
}

exception
  Circular of {
    prod_name : string;
    cycle : (int * string) list; (* (position, attribute name) along the cycle *)
  }

(* ------------------------------------------------------------------ *)
(* Local dependency graphs *)

(** Direct dependency edges of a production: dep -> target for each rule. *)
let local_edges (p : 'v Grammar.production) =
  Array.to_list p.Grammar.rules
  |> List.concat_map (fun r ->
         List.map (fun d -> (d, r.Grammar.target)) r.Grammar.deps)

(* Transitive closure over a small occurrence graph, as adjacency sets. *)
let closure edges =
  let adj = Hashtbl.create 32 in
  let add_edge a b =
    let set = Option.value (Hashtbl.find_opt adj a) ~default:Occ_set.empty in
    Hashtbl.replace adj a (Occ_set.add b set)
  in
  List.iter (fun (a, b) -> add_edge a b) edges;
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun a succs ->
        let extended =
          Occ_set.fold
            (fun b acc ->
              match Hashtbl.find_opt adj b with
              | Some bs -> Occ_set.union acc bs
              | None -> acc)
            succs succs
        in
        if not (Occ_set.equal extended succs) then begin
          Hashtbl.replace adj a extended;
          changed := true
        end)
      adj
  done;
  adj

(* Edges of production p augmented with the current IO approximation for its
   right-hand-side nonterminals and the OI approximation for its lhs. *)
let augmented_edges g io ?oi (p : 'v Grammar.production) =
  let base = local_edges p in
  let rhs_induced =
    Array.to_list p.Grammar.rhs
    |> List.mapi (fun i sym -> (i + 1, sym))
    |> List.concat_map (fun (pos, sym) ->
           if Grammar.is_terminal g sym then []
           else
             Pair_set.elements io.(sym)
             |> List.map (fun (a, b) ->
                    ({ Grammar.pos; attr = a }, { Grammar.pos; attr = b })))
  in
  let lhs_induced =
    match oi with
    | None -> []
    | Some oi ->
      Pair_set.elements oi.(p.Grammar.lhs)
      |> List.map (fun (a, b) ->
             ({ Grammar.pos = 0; attr = a }, { Grammar.pos = 0; attr = b }))
  in
  base @ rhs_induced @ lhs_induced

(* ------------------------------------------------------------------ *)
(* IO / OI fixpoints *)

let compute g =
  let n = Grammar.n_symbols g in
  let io = Array.make n Pair_set.empty in
  (* IO fixpoint: dependencies inherited->synthesized at the lhs induced by
     each production, given the IO of the rhs symbols. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for pid = 0 to Grammar.n_productions g - 1 do
      let p = Grammar.production g pid in
      let adj = closure (augmented_edges g io p) in
      let lhs_attrs = Grammar.attrs_of g p.Grammar.lhs in
      List.iter
        (fun a ->
          if Grammar.attr_dir g a = Grammar.Inherited then
            match Hashtbl.find_opt adj { Grammar.pos = 0; attr = a } with
            | None -> ()
            | Some succs ->
              Occ_set.iter
                (fun o ->
                  if o.Grammar.pos = 0
                     && Grammar.attr_dir g o.Grammar.attr = Grammar.Synthesized
                     && List.mem o.Grammar.attr lhs_attrs
                  then begin
                    let pair = (a, o.Grammar.attr) in
                    if not (Pair_set.mem pair io.(p.Grammar.lhs)) then begin
                      io.(p.Grammar.lhs) <- Pair_set.add pair io.(p.Grammar.lhs);
                      changed := true
                    end
                  end)
                succs)
        lhs_attrs
    done
  done;
  (* Circularity check: with IO edges added, no production graph may have a
     cycle.  We detect a cycle as an occurrence reachable from itself. *)
  for pid = 0 to Grammar.n_productions g - 1 do
    let p = Grammar.production g pid in
    let adj = closure (augmented_edges g io p) in
    Hashtbl.iter
      (fun a succs ->
        if Occ_set.mem a succs then
          raise
            (Circular
               {
                 prod_name = p.Grammar.prod_name;
                 cycle =
                   Occ_set.elements succs
                   |> List.filter (fun b ->
                          match Hashtbl.find_opt adj b with
                          | Some bs -> Occ_set.mem a bs
                          | None -> false)
                   |> List.map (fun o -> (o.Grammar.pos, Grammar.attr_name g o.Grammar.attr));
               }))
      adj
  done;
  (* OI fixpoint: dependencies synthesized->inherited at an rhs occurrence
     induced by the context.  Mirrors IO, using the lhs' OI. *)
  let oi = Array.make n Pair_set.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    for pid = 0 to Grammar.n_productions g - 1 do
      let p = Grammar.production g pid in
      let adj = closure (augmented_edges g io ~oi p) in
      Array.iteri
        (fun i sym ->
          if not (Grammar.is_terminal g sym) then begin
            let pos = i + 1 in
            let attrs = Grammar.attrs_of g sym in
            List.iter
              (fun a ->
                if Grammar.attr_dir g a = Grammar.Synthesized then
                  match Hashtbl.find_opt adj { Grammar.pos; attr = a } with
                  | None -> ()
                  | Some succs ->
                    Occ_set.iter
                      (fun o ->
                        if o.Grammar.pos = pos
                           && Grammar.attr_dir g o.Grammar.attr = Grammar.Inherited
                        then begin
                          let pair = (a, o.Grammar.attr) in
                          if not (Pair_set.mem pair oi.(sym)) then begin
                            oi.(sym) <- Pair_set.add pair oi.(sym);
                            changed := true
                          end
                        end)
                      succs)
              attrs
          end)
        p.Grammar.rhs
    done
  done;
  { grammar = g; io; oi }

(* ------------------------------------------------------------------ *)
(* Visit partitions *)

exception Not_orderable of { symbol : string }

(** Assign each attribute of each symbol to a visit number (starting at 1).
    A visit supplies a batch of inherited attributes and receives a batch of
    synthesized ones; the greedy eager partition below minimizes the number
    of visits for the per-symbol dependency order induced by IO ∪ OI.

    Returns an array indexed by symbol id of [(attr, visit)] lists; terminals
    get the empty list.  Raises {!Not_orderable} if a symbol's combined
    IO/OI relation is cyclic (the AG is then not evaluable by a fixed visit
    plan, though the demand evaluator may still succeed). *)
let visit_partitions t =
  let g = t.grammar in
  let n = Grammar.n_symbols g in
  let partitions = Array.make n [] in
  for sym = 0 to n - 1 do
    if not (Grammar.is_terminal g sym) then begin
      let attrs = Grammar.attrs_of g sym in
      (* predecessor map over this symbol's attributes *)
      let preds = Hashtbl.create 8 in
      List.iter (fun a -> Hashtbl.replace preds a []) attrs;
      let add_edge (a, b) =
        if List.mem a attrs && List.mem b attrs then
          Hashtbl.replace preds b (a :: Hashtbl.find preds b)
      in
      Pair_set.iter add_edge t.io.(sym);
      Pair_set.iter add_edge t.oi.(sym);
      let remaining = ref attrs in
      let assigned = Hashtbl.create 8 in
      let visit = ref 0 in
      while !remaining <> [] do
        incr visit;
        let ready dir a =
          Grammar.attr_dir g a = dir
          && List.for_all (fun p -> Hashtbl.mem assigned p) (Hashtbl.find preds a)
        in
        let take dir =
          let moved = ref true in
          let any = ref false in
          while !moved do
            moved := false;
            let now, later = List.partition (ready dir) !remaining in
            if now <> [] then begin
              moved := true;
              any := true;
              List.iter (fun a -> Hashtbl.replace assigned a !visit) now;
              remaining := later
            end
          done;
          !any
        in
        let got_inh = take Grammar.Inherited in
        let got_syn = take Grammar.Synthesized in
        if (not got_inh) && not got_syn then
          raise (Not_orderable { symbol = Grammar.symbol_name g sym })
      done;
      partitions.(sym) <- List.map (fun a -> (a, Hashtbl.find assigned a)) attrs
    end
  done;
  partitions

(* ------------------------------------------------------------------ *)
(* Static evaluation plans *)

(** A static evaluation plan, computed once per grammar: for every
    production, the synthesized attributes of its left-hand side to force
    during each pass, as dense arrays a plan-driven evaluator iterates
    without per-node list scans.

    Copy chains are detected here: a synthesized attribute whose defining
    rule in the production is a pure copy ([Grammar.rule.copy_of]) is left
    out of the force lists — its value moves by reference the moment a real
    rule reads it (the evaluator's copy elision), so forcing it would only
    manufacture rule applications.  Inherited attributes are never forced
    either: demand evaluation pulls exactly the ones the forced synthesized
    attributes transitively need, through the parent chain. *)
type plan = {
  pl_passes : int; (* number of passes (the partition's max visit) *)
  pl_force : int array array array;
      (* production id -> pass-1 -> synthesized attr ids to force *)
  pl_copy_targets : int;
      (* copy-rule targets detected (and excluded) at plan time, summed
         over productions — the §4.1 "more than half of all rules" *)
}

let plan t =
  let g = t.grammar in
  let partitions = visit_partitions t in
  let passes =
    Array.fold_left
      (fun acc l -> List.fold_left (fun acc (_, v) -> max acc v) acc l)
      1 partitions
  in
  let copy_targets = ref 0 in
  let force =
    Array.init (Grammar.n_productions g) (fun pid ->
        let p = Grammar.production g pid in
        let per_pass = Array.make passes [] in
        List.iter
          (fun (attr, pass) ->
            if Grammar.attr_dir g attr = Grammar.Synthesized then begin
              let rule =
                (* completion guarantees every syn(lhs) attribute a rule *)
                Array.to_seq p.Grammar.rules
                |> Seq.find (fun (r : 'v Grammar.rule) ->
                       r.Grammar.target.Grammar.pos = 0
                       && r.Grammar.target.Grammar.attr = attr)
              in
              match rule with
              | Some r when r.Grammar.copy_of <> None -> incr copy_targets
              | _ -> per_pass.(pass - 1) <- attr :: per_pass.(pass - 1)
            end)
          partitions.(p.Grammar.lhs);
        Array.map (fun l -> Array.of_list (List.rev l)) per_pass)
  in
  { pl_passes = passes; pl_force = force; pl_copy_targets = !copy_targets }

(** Visits needed for one particular symbol. *)
let visits_of t sym_name =
  let parts = visit_partitions t in
  let sym = Grammar.find_symbol t.grammar sym_name in
  List.fold_left (fun acc (_, v) -> max acc v) 1 parts.(sym)
