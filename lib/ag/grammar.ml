(** Attribute grammars: symbols, attributes, productions, semantic rules.

    This is the formalism of the paper's Linguist system: a context-free
    grammar whose nonterminals carry inherited and synthesized attributes
    defined by semantic rules attached to productions, extended with
    *attribute classes* (paper §4.2) whose missing rules are completed
    implicitly by copy / unit-element / merge-function defaults.

    The module is polymorphic in the attribute-value type ['v]: the engine
    never inspects values, it only moves them through semantic functions
    (the paper's "undistinguished, user-declared attributes"). *)

module Interner = Vhdl_util.Interner

type direction =
  | Inherited
  | Synthesized

(** An attribute occurrence inside a production: position 0 is the left-hand
    side, positions 1..n are the right-hand-side symbols in order. *)
type occurrence = { pos : int; attr : int }

(** Implicit-rule policy of an attribute class (paper §4.2): [Copy] threads a
    value unchanged, [Const u] supplies the unit element [u], and
    [Merge (m, u)] folds an associative dyadic [m] over all right-hand-side
    occurrences (with unit [u] when there are none). *)
type 'v default =
  | Copy
  | Const of 'v
  | Merge of ('v -> 'v -> 'v) * 'v

type 'v attr_decl = {
  attr_name : string;
  attr_id : int;
  dir : direction;
  default : 'v default option; (* Some _ iff the attribute is a class *)
}

type provenance =
  | Explicit
  | Implicit (* supplied by attribute-class completion *)

(* A semantic function by the number of values it takes: 0 to 3, most
   applications, as arguments; 4 or more, or a [Rest] tail, as a list. *)
type ('v, 'r) compute =
  | Args0 of (unit -> 'r)
  | Args1 of ('v -> 'r)
  | Args2 of ('v -> 'v -> 'r)
  | Args3 of ('v -> 'v -> 'v -> 'r)
  | Args of ('v list -> 'r)

let map_result wrap = function
  | Args0 f -> Args0 (fun () -> wrap (f ()))
  | Args1 f -> Args1 (fun a -> wrap (f a))
  | Args2 f -> Args2 (fun a b -> wrap (f a b))
  | Args3 f -> Args3 (fun a b c -> wrap (f a b c))
  | Args f -> Args (fun vs -> wrap (f vs))

type 'v rule = {
  target : occurrence;
  deps : occurrence list;
  compute : ('v, 'v) compute;
  provenance : provenance;
  copy_of : occurrence option;
      (* [Some src] iff the rule is a pure copy of [src] — the target's
         value IS the source's value.  Tagged at freeze time (implicit Copy
         completion, inherited Merge copy-down, and explicit [Builder.copy])
         so a plan-based evaluator can move the value by reference instead
         of applying the rule ({!Evaluator}'s copy elision). *)
}

type 'v production = {
  prod_id : int;
  prod_name : string;
  lhs : int;
  rhs : int array;
  rules : 'v rule array;
  rule_at : int array array;
      (* occurrence position -> slot of the symbol there -> position in
         [rules] of the rule defining it, -1 if none: positions, so a rule
         replaced in place (fault injection) is the one applied *)
  chain : bool;
      (* a transparent unit production A -> B, marked at freeze time next
         to [copy_of]: the staged parser builds no node for it *)
}

type 'v t = {
  symbols : Interner.t; (* terminals and nonterminals share one id space *)
  attrs : 'v attr_decl array;
  attr_ids : (string, int) Hashtbl.t;
  is_terminal : bool array;
  (* attributes declared on each symbol, by symbol id *)
  sym_attrs : int list array;
  (* symbol -> attribute id -> its slot, the index in [sym_attrs], or -1 if
     the symbol does not declare it; and the number of slots per symbol *)
  slots : int array array;
  n_slots : int array;
  productions : 'v production array;
  (* productions with a given lhs, by symbol id *)
  prods_of : int list array;
  start : int;
  token_value_attr : int; (* the implicit VAL attribute of every terminal *)
  token_line_attr : int; (* the implicit LINE attribute of every terminal *)
}

let symbol_name g id = Interner.name g.symbols id
let attr_name g id = g.attrs.(id).attr_name
let attr_dir g id = g.attrs.(id).dir
let is_terminal g id = g.is_terminal.(id)
let production g id = g.productions.(id)
let n_symbols g = Interner.count g.symbols
let n_productions g = Array.length g.productions
let attrs_of g sym = g.sym_attrs.(sym)

let slot g sym attr = g.slots.(sym).(attr)
let n_slots g sym = g.n_slots.(sym)

(** The rule of [p] that defines the attribute in slot [slot] of the symbol
    at [pos], read from [p.rules] at call time.
    @raise Not_found if no rule defines it (or [slot] is -1). *)
let rule_for p ~pos ~slot =
  let j = if slot < 0 then -1 else p.rule_at.(pos).(slot) in
  if j < 0 then raise Not_found else p.rules.(j)

let find_symbol g name =
  match Interner.find_opt g.symbols name with
  | Some id -> id
  | None -> invalid_arg (Printf.sprintf "Grammar.find_symbol: unknown symbol %s" name)

let find_attr g name =
  match Hashtbl.find_opt g.attr_ids name with
  | Some id -> id
  | None -> invalid_arg (Printf.sprintf "Grammar.find_attr: unknown attribute %s" name)

(** Name of the implicit token-value attribute carried by every terminal
    (the mechanism the paper uses to attach symbol-table entries to LEF
    tokens). *)
let token_value_name = "VAL"

let token_line_name = "LINE"

type 'v grammar = 'v t
(* alias so Builder's signature can name the sealed grammar type *)

exception Ill_formed of string

let ill_formed fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

(* A rule's dependencies, typed by the function they feed: one parameter
   per occurrence, one list parameter for a [Rest] tail. *)
type ('v, 'f, 'r) deps =
  | [] : ('v, 'r, 'r) deps
  | ( :: ) : (int * string) * ('v, 'f, 'r) deps -> ('v, 'v -> 'f, 'r) deps
  | Rest : (int * string) list -> ('v, 'v list -> 'r, 'r) deps

(* the list constructors again, for every list literal below *)
type 'a list = 'a Stdlib.List.t = [] | ( :: ) of 'a * 'a list

let rec occurrences : type v f r. (v, f, r) deps -> (int * string) list = function
  | [] -> []
  | d :: ds -> d :: occurrences ds
  | Rest ds -> ds

let mismatch () = invalid_arg "Grammar: rule applied to the wrong number of values"

(* The stored form of a typed rule function.  A rule of 0 to 3
   dependencies takes their values as arguments.  A longer one, or one
   with a [Rest] tail, takes a list, by a case per length the grammars use
   (4 to 8, 10, 11, and one occurrence before a tail) that applies the
   function to all of them at once: nothing is allocated beyond the list. *)
let lower : type v f r. (v, f, r) deps -> f -> (v, r) compute =
 fun deps f ->
  match deps with
  | [] -> Args0 (fun () -> f)
  | [ _ ] -> Args1 f
  | [ _; _ ] -> Args2 f
  | [ _; _; _ ] -> Args3 f
  | [ _; _; _; _ ] -> Args (function [ a; b; c; d ] -> f a b c d | _ -> mismatch ())
  | [ _; _; _; _; _ ] -> Args (function [ a; b; c; d; e ] -> f a b c d e | _ -> mismatch ())
  | [ _; _; _; _; _; _ ] ->
    Args (function [ a; b; c; d; e; g ] -> f a b c d e g | _ -> mismatch ())
  | [ _; _; _; _; _; _; _ ] ->
    Args (function [ a; b; c; d; e; g; h ] -> f a b c d e g h | _ -> mismatch ())
  | [ _; _; _; _; _; _; _; _ ] ->
    Args (function [ a; b; c; d; e; g; h; i ] -> f a b c d e g h i | _ -> mismatch ())
  | [ _; _; _; _; _; _; _; _; _; _ ] ->
    Args
      (function
      | [ a; b; c; d; e; g; h; i; j; k ] -> f a b c d e g h i j k | _ -> mismatch ())
  | [ _; _; _; _; _; _; _; _; _; _; _ ] ->
    Args
      (function
      | [ a; b; c; d; e; g; h; i; j; k; l ] -> f a b c d e g h i j k l | _ -> mismatch ())
  | Rest _ -> Args f
  | _ :: Rest _ -> Args (function a :: rest -> f a rest | [] -> mismatch ())
  | _ -> invalid_arg "Grammar.lower: no stored form for this dependency list; add a case"

(* ------------------------------------------------------------------ *)
(* Builder *)

module Builder = struct
  type 'v rule_spec = {
    s_target : int * string;
    s_deps : (int * string) list;
    s_fn : ('v, 'v) compute;
    s_copy : bool; (* built by {!copy}: the function is the identity *)
  }

  type 'v prod_spec = {
    p_name : string;
    p_lhs : string;
    p_rhs : string list;
    p_rules : 'v rule_spec list;
  }

  type 'v b = {
    b_symbols : Interner.t;
    mutable b_terminals : (int, unit) Hashtbl.t;
    mutable b_attrs : 'v attr_decl list; (* reverse order *)
    b_attr_ids : (string, int) Hashtbl.t;
    mutable b_next_attr : int;
    (* symbol id -> attr ids *)
    b_sym_attrs : (int, int list ref) Hashtbl.t;
    mutable b_prods : 'v prod_spec list; (* reverse order *)
  }

  type 'v t = 'v b

  let create () =
    let b =
      {
        b_symbols = Interner.create ();
        b_terminals = Hashtbl.create 64;
        b_attrs = [];
        b_attr_ids = Hashtbl.create 64;
        b_next_attr = 0;
        b_sym_attrs = Hashtbl.create 64;
        b_prods = [];
      }
    in
    b

  let declare_attr b ~name ~dir ~default =
    match Hashtbl.find_opt b.b_attr_ids name with
    | Some id ->
      let existing = List.find (fun a -> a.attr_id = id) b.b_attrs in
      if existing.dir <> dir then
        ill_formed "attribute %s redeclared with a different direction" name;
      id
    | None ->
      let id = b.b_next_attr in
      b.b_next_attr <- id + 1;
      Hashtbl.add b.b_attr_ids name id;
      b.b_attrs <- { attr_name = name; attr_id = id; dir; default } :: b.b_attrs;
      id

  let terminal b name =
    let id = Interner.intern b.b_symbols name in
    Hashtbl.replace b.b_terminals id ();
    id

  let nonterminal b name = Interner.intern b.b_symbols name

  (** Declare a plain attribute [name] on symbol [sym]. *)
  let attr b ~sym ~name ~dir =
    let sym_id = nonterminal b sym in
    let attr_id = declare_attr b ~name ~dir ~default:None in
    let cell =
      match Hashtbl.find_opt b.b_sym_attrs sym_id with
      | Some c -> c
      | None ->
        let c = ref [] in
        Hashtbl.add b.b_sym_attrs sym_id c;
        c
    in
    if not (List.mem attr_id !cell) then cell := attr_id :: !cell

  (** Declare an attribute class (paper §4.2).  Associating it with symbols
      is done with {!attr_member}. *)
  let attr_class b ~name ~dir ~default =
    ignore (declare_attr b ~name ~dir ~default:(Some default))

  (** Associate the class [cls] with symbol [sym]. *)
  let attr_member b ~sym ~cls =
    let sym_id = nonterminal b sym in
    let attr_id =
      match Hashtbl.find_opt b.b_attr_ids cls with
      | Some id -> id
      | None -> ill_formed "attr_member: unknown attribute class %s" cls
    in
    let cell =
      match Hashtbl.find_opt b.b_sym_attrs sym_id with
      | Some c -> c
      | None ->
        let c = ref [] in
        Hashtbl.add b.b_sym_attrs sym_id c;
        c
    in
    if not (List.mem attr_id !cell) then cell := attr_id :: !cell

  let spec ~target ~deps fn =
    { s_target = target; s_deps = occurrences deps; s_fn = fn; s_copy = false }

  let rule ~target ~deps f = spec ~target ~deps (lower deps f)

  let rule_map wrap ~target ~deps f = spec ~target ~deps (map_result wrap (lower deps f))

  (** A rule with no dependencies (a constant). *)
  let const ~target v = rule ~target ~deps:[] v

  (** A copy rule — tagged so the evaluator may elide it (move the value by
      reference instead of applying the identity). *)
  let copy ~target ~from = { (spec ~target ~deps:[ from ] (Args1 Fun.id)) with s_copy = true }

  let production b ~name ~lhs ~rhs ~rules =
    ignore (nonterminal b lhs);
    List.iter (fun s -> ignore (Interner.intern b.b_symbols s)) rhs;
    b.b_prods <- { p_name = name; p_lhs = lhs; p_rhs = rhs; p_rules = rules } :: b.b_prods

  (* ---- completion: implicit rules per attribute class (paper §4.2) ---- *)

  let freeze b ~start =
    let n_syms = Interner.count b.b_symbols in
    let is_terminal = Array.make n_syms false in
    Hashtbl.iter (fun id () -> is_terminal.(id) <- true) b.b_terminals;
    let attrs_list = List.rev b.b_attrs in
    (* add the implicit token attributes *)
    let token_value_attr = b.b_next_attr in
    let token_line_attr = b.b_next_attr + 1 in
    let attrs =
      Array.of_list
        (attrs_list
        @ [
            {
              attr_name = token_value_name;
              attr_id = token_value_attr;
              dir = Synthesized;
              default = None;
            };
            {
              attr_name = token_line_name;
              attr_id = token_line_attr;
              dir = Synthesized;
              default = None;
            };
          ])
    in
    Hashtbl.replace b.b_attr_ids token_value_name token_value_attr;
    Hashtbl.replace b.b_attr_ids token_line_name token_line_attr;
    let sym_attrs = Array.make n_syms [] in
    Hashtbl.iter (fun sym cell -> sym_attrs.(sym) <- List.rev !cell) b.b_sym_attrs;
    for sym = 0 to n_syms - 1 do
      if is_terminal.(sym) then begin
        if sym_attrs.(sym) <> [] then
          ill_formed "terminal %s may not declare attributes" (Interner.name b.b_symbols sym);
        sym_attrs.(sym) <- [ token_value_attr; token_line_attr ]
      end
    done;
    let slots =
      Array.map
        (fun declared ->
          let row = Array.make (Array.length attrs) (-1) in
          List.iteri (fun i a -> row.(a) <- i) declared;
          row)
        sym_attrs
    in
    let n_slots = Array.map List.length sym_attrs in
    let has_attr sym a = slots.(sym).(a) >= 0 in
    let resolve_attr name =
      match Hashtbl.find_opt b.b_attr_ids name with
      | Some id -> id
      | None -> ill_formed "rule references unknown attribute %s" name
    in
    let specs = Array.of_list (List.rev b.b_prods) in
    let productions =
      Array.mapi
        (fun prod_id spec ->
          let lhs = Interner.intern b.b_symbols spec.p_lhs in
          if is_terminal.(lhs) then ill_formed "terminal %s used as lhs" spec.p_lhs;
          let rhs = Array.of_list (List.map (Interner.intern b.b_symbols) spec.p_rhs) in
          let arity = Array.length rhs in
          let occ_sym pos = if pos = 0 then lhs else rhs.(pos - 1) in
          let check_occ ~what { pos; attr } =
            if pos < 0 || pos > arity then
              ill_formed "%s: position %d out of range in production %s" what pos spec.p_name;
            let sym = occ_sym pos in
            if not (has_attr sym attr) then
              ill_formed "%s: symbol %s has no attribute %s (production %s)" what
                (Interner.name b.b_symbols sym)
                attrs.(attr).attr_name spec.p_name
          in
          let mk_rule s =
            let target = { pos = fst s.s_target; attr = resolve_attr (snd s.s_target) } in
            let deps =
              List.map (fun (pos, a) -> { pos; attr = resolve_attr a }) s.s_deps
            in
            check_occ ~what:"rule target" target;
            List.iter (check_occ ~what:"rule dependency") deps;
            (* well-formedness: targets are syn(lhs) or inh(rhs);
               dependencies are inh(lhs), syn(rhs), or token values *)
            let tdir = attrs.(target.attr).dir in
            (match (target.pos, tdir) with
            | 0, Synthesized -> ()
            | 0, Inherited ->
              ill_formed "rule may not define inherited attribute of the lhs (%s in %s)"
                attrs.(target.attr).attr_name spec.p_name
            | _, Inherited -> ()
            | p, Synthesized ->
              if is_terminal.(rhs.(p - 1)) then
                ill_formed "rule may not define token attribute (%s in %s)"
                  attrs.(target.attr).attr_name spec.p_name
              else
                ill_formed
                  "rule may not define synthesized attribute of an rhs symbol (%s in %s)"
                  attrs.(target.attr).attr_name spec.p_name);
            (* Dependencies may reference any occurrence: inh(lhs) and
               syn(rhs) are the classical ones; syn(lhs) and inh(rhs) give
               local attribute chaining (all are computable within the
               production; circularity is caught by analysis/evaluation). *)
            let copy_of =
              match (s.s_copy, deps) with
              | true, [ src ] -> Some src
              | _ -> None
            in
            { target; deps; compute = s.s_fn; provenance = Explicit; copy_of }
          in
          let explicit = List.map mk_rule spec.p_rules in
          (* the rule index, which is also the duplicate-definition check *)
          let rule_at =
            Array.init (arity + 1) (fun pos -> Array.make n_slots.(occ_sym pos) (-1))
          in
          let slot_of occ = slots.(occ_sym occ.pos).(occ.attr) in
          let defined occ = rule_at.(occ.pos).(slot_of occ) >= 0 in
          let index j r =
            if defined r.target then
              ill_formed "attribute %s at position %d defined twice in production %s"
                attrs.(r.target.attr).attr_name r.target.pos spec.p_name;
            rule_at.(r.target.pos).(slot_of r.target) <- j
          in
          List.iteri index explicit;
          (* required targets: syn attrs of lhs, inh attrs of each rhs nonterminal *)
          let required = ref [] in
          List.iter
            (fun a -> if attrs.(a).dir = Synthesized then required := { pos = 0; attr = a } :: !required)
            sym_attrs.(lhs);
          Array.iteri
            (fun i sym ->
              if not is_terminal.(sym) then
                List.iter
                  (fun a ->
                    if attrs.(a).dir = Inherited then
                      required := { pos = i + 1; attr = a } :: !required)
                  sym_attrs.(sym))
            rhs;
          let implicit =
            List.filter_map
              (fun occ ->
                if defined occ then None
                else begin
                  let decl = attrs.(occ.attr) in
                  let other_occurrences () =
                    (* occurrences of the same attribute elsewhere in the
                       production that a copy/merge rule may read from *)
                    let occs = ref [] in
                    (* rhs occurrences, synthesized only (valid deps) *)
                    for i = arity downto 1 do
                      let sym = rhs.(i - 1) in
                      if (not is_terminal.(sym)) && has_attr sym occ.attr
                         && decl.dir = Synthesized
                      then occs := { pos = i; attr = occ.attr } :: !occs
                    done;
                    (* lhs occurrence, inherited only *)
                    if decl.dir = Inherited && has_attr lhs occ.attr && occ.pos <> 0 then
                      occs := { pos = 0; attr = occ.attr } :: !occs;
                    !occs
                  in
                  let implicit_rule ?copy_of deps compute =
                    Some { target = occ; deps; compute; provenance = Implicit; copy_of }
                  in
                  let copy_rule src = implicit_rule ~copy_of:src [ src ] (Args1 Fun.id) in
                  let unit_rule u = implicit_rule [] (Args0 (fun () -> u)) in
                  match decl.default with
                  | None ->
                    ill_formed "production %s: no rule for %s of %s at position %d"
                      spec.p_name decl.attr_name
                      (Interner.name b.b_symbols (occ_sym occ.pos))
                      occ.pos
                  | Some Copy -> (
                    match other_occurrences () with
                    | src :: _ -> copy_rule src
                    | [] ->
                      ill_formed
                        "production %s: copy class %s has no source occurrence for %s"
                        spec.p_name decl.attr_name
                        (Interner.name b.b_symbols (occ_sym occ.pos)))
                  | Some (Const u) -> unit_rule u
                  | Some (Merge (_, u)) when decl.dir = Inherited -> (
                    (* inherited merge class behaves as copy-down *)
                    match other_occurrences () with
                    | src :: _ -> copy_rule src
                    | [] -> unit_rule u)
                  | Some (Merge (m, u)) -> (
                    (* a left fold over the sources *)
                    match List.filter (fun o -> o.pos > 0) (other_occurrences ()) with
                    | [] -> unit_rule u
                    (* a one-source merge is a copy: fold of one *)
                    | [ src ] -> copy_rule src
                    | [ _; _ ] as deps -> implicit_rule deps (Args2 m)
                    | [ _; _; _ ] as deps ->
                      implicit_rule deps (Args3 (fun a b c -> m (m a b) c))
                    | deps ->
                      implicit_rule deps
                        (Args (function [] -> u | v :: vs -> List.fold_left m v vs)))
                end)
              (List.rev !required)
          in
          let n_explicit = List.length explicit in
          List.iteri (fun j r -> index (n_explicit + j) r) implicit;
          {
            prod_id;
            prod_name = spec.p_name;
            lhs;
            rhs;
            rules = Array.of_list (explicit @ implicit);
            rule_at;
            chain = false;
          })
        specs
    in
    let prods_of = Array.make n_syms [] in
    Array.iter
      (fun p -> prods_of.(p.lhs) <- p.prod_id :: prods_of.(p.lhs))
      productions;
    Array.iteri (fun i l -> prods_of.(i) <- List.rev l) prods_of;
    let start =
      match Interner.find_opt b.b_symbols start with
      | Some id when not is_terminal.(id) -> id
      | Some _ -> ill_formed "start symbol %s is a terminal" start
      | None -> ill_formed "start symbol %s is not defined" start
    in
    (* Chain productions.  [read.(sym).(s)]: some rule reads the attribute
       in slot [s] of [sym] at a child position.  A unit production
       A -> B is a chain when A is not the start symbol, B is a
       nonterminal, every rule is a same-attribute copy between A and B or
       a dependency-free constant for a synthesized attribute of A that
       nothing reads at a child position, and B declares every other
       attribute of A: a parent that reads B's attributes where it expects
       A's then gets the values A's node would have passed through. *)
    let read = Array.map (fun n -> Array.make n false) n_slots in
    Array.iter
      (fun p ->
        Array.iter
          (fun r ->
            List.iter
              (fun d ->
                if d.pos > 0 then
                  let sym = p.rhs.(d.pos - 1) in
                  read.(sym).(slots.(sym).(d.attr)) <- true)
              r.deps)
          p.rules)
      productions;
    let is_chain p =
      let transparent r =
        match r.copy_of with
        | Some src ->
          src.attr = r.target.attr && src.pos + r.target.pos = 1
        | None ->
          r.target.pos = 0 && r.deps = []
          && not read.(p.lhs).(slots.(p.lhs).(r.target.attr))
      in
      (* with every rule transparent, a synthesized attribute of A that B
         does not declare has a dead constant *)
      Array.length p.rhs = 1
      && p.lhs <> start
      && (not is_terminal.(p.rhs.(0)))
      && Array.for_all transparent p.rules
      && List.for_all
           (fun a -> has_attr p.rhs.(0) a || attrs.(a).dir = Synthesized)
           sym_attrs.(p.lhs)
    in
    let productions = Array.map (fun p -> { p with chain = is_chain p }) productions in
    (* every nonterminal must have a production *)
    for sym = 0 to n_syms - 1 do
      if (not is_terminal.(sym)) && prods_of.(sym) = [] then
        ill_formed "nonterminal %s has no productions" (Interner.name b.b_symbols sym)
    done;
    {
      symbols = b.b_symbols;
      attrs;
      attr_ids = b.b_attr_ids;
      is_terminal;
      sym_attrs;
      slots;
      n_slots;
      productions;
      prods_of;
      start;
      token_value_attr;
      token_line_attr;
    }
end
