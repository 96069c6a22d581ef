(** Attribute provenance: the dynamic attribute dependency graph.

    The recorder is a side store the evaluator writes through three hooks —
    begin/finish/abort around each attribute-instance computation — plus a
    memo-hit hook for reads served from the cache.  Dependency edges and
    self-time accounting both fall out of a stack of open computations: a
    new (or memoized) read is an edge from the top of the stack, and a
    finished computation's duration is charged to its parent's child-time.

    Because the stack lives in the recorder rather than in any one
    evaluator, a nested evaluator sharing the recorder (the expression-AG
    cascade) links its records under the principal-AG instance that invoked
    it — the explain chain crosses the cascade boundary with no extra
    wiring. *)

module Tm = Vhdl_telemetry.Telemetry

let m_records = Tm.counter "provenance.records"
let m_edges = Tm.counter "provenance.edges"
let m_memo_edges = Tm.counter "provenance.memo_edges"

let now_s () = Tm.now_s () (* monotonic wall clock, same base as spans *)

type kind =
  | Rule of Grammar.provenance
  | Copy of Grammar.provenance
  | Token
  | Root_inherited
  | Unknown

let kind_label = function
  | Rule Grammar.Explicit -> "rule"
  | Rule Grammar.Implicit -> "implicit rule"
  | Copy Grammar.Explicit -> "elided copy"
  | Copy Grammar.Implicit -> "elided implicit copy"
  | Token -> "token"
  | Root_inherited -> "root inherited"
  | Unknown -> "aborted"

type record = {
  r_id : int;
  r_ag : string;
  r_prod : string;
  r_node : int;
  r_attr : string;
  r_line : int;
  mutable r_kind : kind;
  mutable r_rule : string option;
  mutable r_value : string;
  mutable r_self_s : float;
  mutable r_total_s : float;
  mutable r_self_aw : float; (* minor words allocated, children excluded *)
  mutable r_total_aw : float;
  mutable r_memo_hits : int;
  mutable r_applications : int;
  mutable r_deps : int list; (* newest first while open, read order once done *)
  mutable r_aborted : bool;
}

(* One open computation: the record under construction, its start time, and
   the accumulated duration of the computations it (transitively) demanded,
   to be subtracted for self-time. *)
type frame = {
  f_record : record;
  f_start : float;
  f_start_aw : float; (* minor-words snapshot at open (allocation-free) *)
  mutable f_child_s : float;
  mutable f_child_aw : float;
}

type t = {
  by_id : (int, record) Hashtbl.t;
  index : (int * string, int) Hashtbl.t; (* (node, attr) -> latest record *)
  mutable order : record list; (* newest first *)
  mutable next_id : int;
  mutable next_node : int; (* tree-node ids for every evaluator recording here *)
  mutable stack : frame list;
}

let create () =
  {
    by_id = Hashtbl.create 1024;
    index = Hashtbl.create 1024;
    order = [];
    next_id = 0;
    next_node = 0;
    stack = [];
  }

let fresh_node t =
  t.next_node <- t.next_node + 1;
  t.next_node

let records t = List.rev t.order
let size t = t.next_id
let get t id = Hashtbl.find_opt t.by_id id

let find t ~node ~attr =
  Option.bind (Hashtbl.find_opt t.index (node, attr)) (get t)

let instances_at t ~node =
  List.filter (fun r -> r.r_node = node && not r.r_aborted) (records t)

(* dependency edge: the open computation read record [id] *)
let add_edge t id =
  match t.stack with
  | top :: _ ->
    top.f_record.r_deps <- id :: top.f_record.r_deps;
    Tm.incr m_edges
  | [] -> ()

let begin_instance t ~ag ~prod ~node ~attr ~line =
  let r =
    {
      r_id = t.next_id;
      r_ag = ag;
      r_prod = prod;
      r_node = node;
      r_attr = attr;
      r_line = line;
      r_kind = Unknown;
      r_rule = None;
      r_value = "";
      r_self_s = 0.0;
      r_total_s = 0.0;
      r_self_aw = 0.0;
      r_total_aw = 0.0;
      r_memo_hits = 0;
      r_applications = 0;
      r_deps = [];
      r_aborted = false;
    }
  in
  t.next_id <- t.next_id + 1;
  Tm.incr m_records;
  Hashtbl.add t.by_id r.r_id r;
  t.order <- r :: t.order;
  add_edge t r.r_id;
  t.stack <-
    {
      f_record = r;
      f_start = now_s ();
      f_start_aw = Tm.minor_words_now ();
      f_child_s = 0.0;
      f_child_aw = 0.0;
    }
    :: t.stack;
  r

(* Close the open computation for [r].  The stack top must be [r]'s frame:
   finish/abort mirror begin_instance exactly (the evaluator brackets every
   computation, exceptions included), so anything else is a recorder bug. *)
let close t r ~aborted ~value =
  match t.stack with
  | frame :: rest when frame.f_record == r ->
    t.stack <- rest;
    let total_aw = Tm.minor_words_now () -. frame.f_start_aw in
    let total = now_s () -. frame.f_start in
    r.r_total_s <- total;
    r.r_self_s <- Float.max 0.0 (total -. frame.f_child_s);
    r.r_total_aw <- total_aw;
    r.r_self_aw <- Float.max 0.0 (total_aw -. frame.f_child_aw);
    r.r_value <- value;
    r.r_aborted <- aborted;
    r.r_deps <- List.rev r.r_deps;
    (match rest with
    | parent :: _ ->
      parent.f_child_s <- parent.f_child_s +. total;
      parent.f_child_aw <- parent.f_child_aw +. total_aw
    | [] -> ());
    if not aborted then Hashtbl.replace t.index (r.r_node, r.r_attr) r.r_id
  | _ -> invalid_arg "Provenance: finish/abort does not match the open record"

let finish t r ~value = close t r ~aborted:false ~value
let abort t r = close t r ~aborted:true ~value:"<escaped>"

let memo_hit t ~node ~attr =
  match Hashtbl.find_opt t.index (node, attr) with
  | Some id ->
    (match get t id with
    | Some r -> r.r_memo_hits <- r.r_memo_hits + 1
    | None -> ());
    add_edge t id;
    Tm.incr m_memo_edges
  | None -> () (* computed before the recorder was armed, or aborted *)

let with_top t f =
  match t.stack with
  | top :: _ -> f top.f_record
  | [] -> ()

let note_rule t ~defining_prod ~implicit =
  with_top t (fun r ->
      r.r_kind <- Rule (if implicit then Grammar.Implicit else Grammar.Explicit);
      r.r_rule <- Some defining_prod;
      r.r_applications <- r.r_applications + 1)

(* A copy rule elided by the evaluator: the value moved by reference, no
   semantic function was applied ([r_applications] stays 0 — the profiler's
   telemetry cross-check counts real applications only).  The collapsed
   dependency edge to the source instance arrives separately, through the
   ordinary [begin_instance]/[memo_hit] path when the source is read. *)
let note_copy t ~defining_prod ~implicit =
  with_top t (fun r ->
      r.r_kind <- Copy (if implicit then Grammar.Implicit else Grammar.Explicit);
      r.r_rule <- Some defining_prod)

let note_token t = with_top t (fun r -> r.r_kind <- Token)
let note_root_inherited t = with_top t (fun r -> r.r_kind <- Root_inherited)

(* ------------------------------------------------------------------ *)
(* Why-chain printing *)

let ms s = Printf.sprintf "%.2fms" (s *. 1000.0)

let describe r =
  let rule =
    match r.r_rule with
    | Some p when p <> r.r_prod -> Printf.sprintf " <- rule in %s" p
    | _ -> ""
  in
  let memo = if r.r_memo_hits > 0 then Printf.sprintf ", memo x%d" r.r_memo_hits else "" in
  let line = if r.r_line > 0 then Printf.sprintf ", line %d" r.r_line else "" in
  Printf.sprintf "n%d.%s @ %s (%s%s) = %s  [%s%s%s, self %s, alloc %.0fw]"
    r.r_node r.r_attr r.r_prod r.r_ag line r.r_value (kind_label r.r_kind) rule
    memo (ms r.r_self_s) r.r_self_aw

(** The why-chain: the record, then (indented) the records it read,
    transitively, down to [depth].  A record already printed is referenced
    back by id rather than re-expanded, so shared subgraphs stay readable
    and the traversal terminates on any DAG.  At most 16 dependencies are
    printed per record. *)
let pp_why_chain ?(depth = 6) t fmt root =
  let max_deps = 16 in
  let seen = Hashtbl.create 64 in
  let rec go fmt prefix id level =
    match get t id with
    | None -> Format.fprintf fmt "%s<unknown record %d>@," prefix id
    | Some r ->
      if Hashtbl.mem seen id then
        Format.fprintf fmt "%s(n%d.%s: see above)@," prefix r.r_node r.r_attr
      else begin
        Hashtbl.add seen id ();
        Format.fprintf fmt "%s%s@," prefix (describe r);
        if level < depth then begin
          let deps = r.r_deps in
          let shown, dropped =
            if List.length deps <= max_deps then (deps, 0)
            else (List.filteri (fun i _ -> i < max_deps) deps, List.length deps - max_deps)
          in
          List.iter (fun d -> go fmt (prefix ^ "  ") d (level + 1)) shown;
          if dropped > 0 then
            Format.fprintf fmt "%s  ... %d more dependencies@," prefix dropped
        end
        else if r.r_deps <> [] then
          Format.fprintf fmt "%s  ... %d dependencies below the depth bound@," prefix
            (List.length r.r_deps)
      end
  in
  Format.fprintf fmt "@[<v>";
  go fmt "" root 0;
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* DOT export *)

let dot_escape s =
  String.concat ""
    (List.map
       (function
         | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let to_dot ?(depth = 6) t ~root =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph provenance {\n";
  Buffer.add_string buf "  rankdir=BT;\n  node [shape=box, fontsize=10];\n";
  let seen = Hashtbl.create 64 in
  let rec go id level =
    if not (Hashtbl.mem seen id) then
      match get t id with
      | None -> ()
      | Some r ->
        Hashtbl.add seen id ();
        let fill = if r.r_ag = "expr" then "lightblue" else "lightyellow" in
        let label =
          Printf.sprintf "%s @ %s\\nn%d%s\\n= %s" r.r_attr r.r_prod r.r_node
            (if r.r_line > 0 then Printf.sprintf " line %d" r.r_line else "")
            (dot_escape r.r_value)
        in
        Buffer.add_string buf
          (Printf.sprintf "  r%d [label=\"%s\", style=filled, fillcolor=%s%s];\n"
             r.r_id label fill
             (if r.r_aborted then ", color=red" else ""));
        if level < depth then
          List.iter
            (fun d ->
              go d (level + 1);
              if Hashtbl.mem seen d then
                Buffer.add_string buf (Printf.sprintf "  r%d -> r%d;\n" r.r_id d))
            r.r_deps
  in
  go root 0;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Hot-rule profiler *)

type profile_row = {
  p_ag : string;
  p_prod : string;
  p_attr : string;
  p_count : int;
  p_applications : int;
  p_memo_hits : int;
  p_self_s : float;
  p_self_aw : float; (* summed self-allocated minor words *)
}

(** Aggregate by (AG, defining production, attribute).  Instances not
    produced by a rule group under ["<token>"] / ["<root>"], so every
    record is accounted for and the applications column sums to the
    evaluators' rule-application count. *)
let profile t =
  let acc = Hashtbl.create 256 in
  List.iter
    (fun r ->
      let prod =
        match (r.r_kind, r.r_rule) with
        | (Rule _ | Copy _), Some p -> p
        | (Rule _ | Copy _), None -> r.r_prod
        | Token, _ -> "<token>"
        | Root_inherited, _ -> "<root>"
        | Unknown, _ -> "<aborted>"
      in
      let key = (r.r_ag, prod, r.r_attr) in
      let row =
        match Hashtbl.find_opt acc key with
        | Some row -> row
        | None ->
          let row =
            ref
              {
                p_ag = r.r_ag;
                p_prod = prod;
                p_attr = r.r_attr;
                p_count = 0;
                p_applications = 0;
                p_memo_hits = 0;
                p_self_s = 0.0;
                p_self_aw = 0.0;
              }
          in
          Hashtbl.add acc key row;
          row
      in
      row :=
        {
          !row with
          p_count = !row.p_count + 1;
          p_applications = !row.p_applications + r.r_applications;
          p_memo_hits = !row.p_memo_hits + r.r_memo_hits;
          p_self_s = !row.p_self_s +. r.r_self_s;
          p_self_aw = !row.p_self_aw +. r.r_self_aw;
        })
    t.order;
  Hashtbl.fold (fun _ row acc -> !row :: acc) acc []
  |> List.sort (fun a b ->
         match compare b.p_self_s a.p_self_s with
         | 0 -> (
           match compare b.p_applications a.p_applications with
           | 0 -> compare (a.p_ag, a.p_prod, a.p_attr) (b.p_ag, b.p_prod, b.p_attr)
           | c -> c)
         | c -> c)
