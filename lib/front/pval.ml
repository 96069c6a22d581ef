(** Attribute values of the two VHDL attribute grammars.

    One sum type serves both the principal AG and the expression AG: the AG
    engine is polymorphic in the value type and never inspects these.  The
    accessors ([as_*]) raise {!Internal} on a constructor mismatch, which
    indicates a bug in the grammar's semantic rules, never a user error. *)

exception Internal of string

let internal fmt = Format.kasprintf (fun s -> raise (Internal s)) fmt

(** An expression candidate: one possible meaning of an expression, before
    overload resolution picks the survivor.

    [Cagg] defers an aggregate until the context supplies its type (VHDL
    aggregates are typed top-down); [Crng] is a range (from [A'RANGE] or
    [l to r]) usable as a slice bound or discrete range but not as a
    value. *)
type cand =
  | Cv of { ty : Types.t; code : Kir.expr; static : Value.t option }
  | Cagg of aitem list
  | Cstr of string (* string/bit-string literal awaiting its array type *)
  | Crng of (Kir.expr * Types.dir * Kir.expr) * Types.t option

(** Aggregate/argument-list items of the expression AG. *)
and aitem =
  | Ipos of cand list (* positional element (candidate set) *)
  | Inamed of achoice list * cand list (* choices => expr *)

and achoice =
  | Cident of string (* formal name / record field *)
  | Cexpr of cand list
  | Cchoice_range of cand list * Types.dir * cand list
  | Cothers

(** Result of evaluating one maximal expression (the return value of the
    paper's [exprEval]). *)
type xres = {
  x_ty : Types.t;
  x_code : Kir.expr;
  x_static : Value.t option;
  x_msgs : Diag.t list;
}

(** What a declarative region contributes; a monoid merged upward by the
    OUT attribute class. *)
type decl_out = {
  o_binds : (string * Denot.t) list; (* oldest first *)
  o_signals : Kir.signal_decl list;
  o_locals : Kir.local list;
  o_subprograms : Kir.subprogram list;
  o_components : (string * Kir.generic_decl list * Kir.port_decl list) list;
  o_config_specs : Unit_info.config_spec list;
  o_deps : (string * string) list; (* foreign references: (library, key) *)
  o_deferred : (string * Value.t) list;
  o_disconnects : (string * Kir.expr) list;
      (* disconnection specifications: signal name -> delay expression *)
      (* package constants with their static values, qualified "PKG.NAME";
         a package body exports these so deferred constants (LRM 4.3.1.1)
         resolve at elaboration *)
}

let out_empty =
  {
    o_binds = [];
    o_signals = [];
    o_locals = [];
    o_subprograms = [];
    o_components = [];
    o_config_specs = [];
    o_deps = [];
    o_deferred = [];
    o_disconnects = [];
  }

let out_is_empty = function
  | {
      o_binds = [];
      o_signals = [];
      o_locals = [];
      o_subprograms = [];
      o_components = [];
      o_config_specs = [];
      o_deps = [];
      o_deferred = [];
      o_disconnects = [];
    } ->
    true
  | _ -> false

(* [a @ b] without copying [a] when [b] is empty *)
let app a b =
  match (a, b) with
  | [], l | l, [] -> l
  | _ -> a @ b

let out_append a b =
  {
    o_binds = app a.o_binds b.o_binds;
    o_signals = app a.o_signals b.o_signals;
    o_locals = app a.o_locals b.o_locals;
    o_deferred = app a.o_deferred b.o_deferred;
    o_disconnects = app a.o_disconnects b.o_disconnects;
    o_subprograms = app a.o_subprograms b.o_subprograms;
    o_components = app a.o_components b.o_components;
    o_config_specs = app a.o_config_specs b.o_config_specs;
    o_deps = app a.o_deps b.o_deps;
  }

(** Catenable sequences: the values of the region classes OUT, CODE and
    CONCS.  A left-recursive region of n items merges n times; a list
    merge copies its whole prefix each time, a [cat] merge is one node.
    The leaves are put in order once, where a unit, a process or a
    compound statement consumes the region ({!as_out}, {!as_stmts},
    {!as_concs}). *)
type 'a cat =
  | Nil
  | Leaf of 'a
  | Cat of 'a cat * 'a cat

let cat a b =
  match (a, b) with
  | Nil, c | c, Nil -> c
  | _ -> Cat (a, b)

(* [f] over the leaves, right to left, with an explicit stack: a
   left-deep region of any length reads without deep recursion *)
let cat_fold_right f c init =
  let rec go acc = function
    | [] -> acc
    | Nil :: rest -> go acc rest
    | Leaf x :: rest -> go (f x acc) rest
    | Cat (a, b) :: rest -> go acc (b :: a :: rest)
  in
  go init [ c ]

let list_of_cat c = cat_fold_right app c []
let length_of_cat c = cat_fold_right (fun l n -> n + List.length l) c 0

let out_of_cat = function
  | Nil -> out_empty
  | Leaf o -> o
  | c -> cat_fold_right out_append c out_empty

module Names = Map.Make (String)

(** What the items before item k of a declarative region leave behind for
    it, threaded left to right (the REGION attribute): the names declared
    so far, for the homograph check, and the counts of frame slots and
    signals that set item k's SLOTBASE and SIGBASE. *)
type region = {
  r_names : bool Names.t; (* name -> is its first declaration overloadable *)
  r_locals : int;
  r_signals : int;
}

let region_empty = { r_names = Names.empty; r_locals = 0; r_signals = 0 }

(** Interface element (ports, generics, subprogram parameters). *)
type iface = {
  if_names : (string * int) list; (* (name, line) *)
  if_class : Denot.obj_class option;
  if_mode : Kir.arg_mode option;
  if_ty : Types.t;
  if_resolution : Denot.subprog_sig option;
  if_default : Kir.expr option;
  if_default_msgs : Diag.t list; (* diagnostics of the default expression *)
  if_bus : bool;
}

(** Waveform element, unevaluated (LEF) until the target type is known. *)
type wave_src = {
  w_value : Lef.tok list;
  w_after : Lef.tok list option;
  w_line : int;
}

(** Choice as collected by the principal AG (case alternatives, selected
    assignments). *)
type choice_src =
  | CSlef of Lef.tok list
  | CSrange of Lef.tok list * Types.dir * Lef.tok list
  | CSothers

(** Association-list element of generic/port maps. *)
type assoc_src = {
  a_formal : Lef.tok list option;
  a_actual : [ `Lef of Lef.tok list | `Open ];
  a_line : int;
}

type subprog_spec = {
  sp_kind : [ `Function | `Procedure ];
  sp_name : string;
  sp_line : int;
  sp_params : iface list;
  sp_ret : Types.t option;
}

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Str of string
  | Tok of Token.t (* principal-grammar token value *)
  | Ltok of Lef.tok (* expression-grammar token value *)
  | Msgs of Diag.t list
  | Env of Env.t
  | Lef of Lef.tok list
  | Lefs of Lef.tok list list (* name lists (sensitivity etc.) *)
  | Ids of (string * int) list
  | Cands of cand list
  | Aitems of aitem list
  | Achoices of achoice list
  | Out of decl_out cat
  | Region of region
  | Ifaces of iface list
  | Sty of { ty : Types.t; resolution : Denot.subprog_sig option }
  | Tydef of (string -> Types.t * (string * Denot.t) list)
      (* type definition awaiting its name: returns the type and extra
         bindings (enumeration literals, physical units) *)
  | Stmts of Kir.stmt list cat
  | Waves of wave_src list
  | Choices of choice_src list
  | Assocs of assoc_src list
  | Concs of Kir.concurrent list cat
  | Spec of subprog_spec
  | Units of Unit_info.compiled_unit list
  | Arms of (Lef.tok list * Kir.stmt list) list (* elsif chains *)
  | Cwaves of (wave_src list * Lef.tok list option) list (* conditional waveforms *)
  | Swaves of (wave_src list * choice_src list) list (* selected waveforms *)
  | Alts of (choice_src list * Kir.stmt list) list (* case alternatives *)
  | Rng of [ `Bounds of Lef.tok list * Types.dir * Lef.tok list | `Lef of Lef.tok list ]
      (* discrete range, unevaluated *)
  | Phys_units of (string * int * string option * int) list
      (* physical-type units: (name, multiplier, base unit, line) *)
  | Opt of t option
  | Pair of t * t
  | Plist of t list

let as_bool = function Bool b -> b | _ -> internal "expected Bool"
let as_plist = function Plist l -> l | _ -> internal "expected Plist"
let as_int = function Int n -> n | _ -> internal "expected Int"
let as_str = function Str s -> s | _ -> internal "expected Str"
let as_tok = function Tok t -> t | _ -> internal "expected Tok"
let as_ltok = function Ltok t -> t | _ -> internal "expected Ltok"
let as_msgs = function Msgs m -> m | _ -> internal "expected Msgs"
let as_env = function Env e -> e | _ -> internal "expected Env"
let as_lef = function Lef l -> l | _ -> internal "expected Lef"
let as_lefs = function Lefs l -> l | _ -> internal "expected Lefs"
let as_ids = function Ids l -> l | _ -> internal "expected Ids"
let as_cands = function Cands c -> c | _ -> internal "expected Cands"
let as_aitems = function Aitems l -> l | _ -> internal "expected Aitems"
let as_achoices = function Achoices l -> l | _ -> internal "expected Achoices"
let as_out = function Out o -> out_of_cat o | _ -> internal "expected Out"
let as_region = function Region r -> r | _ -> internal "expected Region"
let as_ifaces = function Ifaces l -> l | _ -> internal "expected Ifaces"

let as_sty = function
  | Sty { ty; resolution } -> (ty, resolution)
  | _ -> internal "expected Sty"

let as_tydef = function Tydef f -> f | _ -> internal "expected Tydef"
let as_stmts = function Stmts s -> list_of_cat s | _ -> internal "expected Stmts"
let as_waves = function Waves w -> w | _ -> internal "expected Waves"
let as_choices = function Choices c -> c | _ -> internal "expected Choices"
let as_assocs = function Assocs a -> a | _ -> internal "expected Assocs"
let as_concs = function Concs c -> list_of_cat c | _ -> internal "expected Concs"
let as_spec = function Spec s -> s | _ -> internal "expected Spec"
let as_units = function Units u -> u | _ -> internal "expected Units"
let as_rng = function Rng r -> r | _ -> internal "expected Rng"
let as_arms = function Arms a -> a | _ -> internal "expected Arms"
let as_phys_units = function Phys_units u -> u | _ -> internal "expected Phys_units"
let as_cwaves = function Cwaves c -> c | _ -> internal "expected Cwaves"
let as_swaves = function Swaves s -> s | _ -> internal "expected Swaves"
let as_alts = function Alts a -> a | _ -> internal "expected Alts"
let as_opt = function Opt o -> o | _ -> internal "expected Opt"
let as_pair = function Pair (a, b) -> (a, b) | _ -> internal "expected Pair"

(* Region values from one item's contribution. *)
let of_out o = Out (if out_is_empty o then Nil else Leaf o)
let of_stmts = function [] -> Stmts Nil | l -> Stmts (Leaf l)
let of_concs = function [] -> Concs Nil | l -> Concs (Leaf l)

(* Token-payload accessors used all over the semantic rules. *)
let tok_id v =
  match as_tok v with
  | Token.Tid s -> s
  | t -> internal "expected identifier token, got %s" (Token.describe t)

let tok_string v =
  match as_tok v with
  | Token.Tstring s -> s
  | t -> internal "expected string token, got %s" (Token.describe t)

(* ------------------------------------------------------------------ *)
(* Compact value summaries for the provenance recorder: one short line per
   attribute value, enough to read a why-chain, never the whole payload. *)

let clip n s = if String.length s <= n then s else String.sub s 0 n ^ "..."

let rec summary ?(fuel = 2) v =
  match v with
  | Unit -> "()"
  | Bool b -> string_of_bool b
  | Int n -> string_of_int n
  | Str s -> Printf.sprintf "%S" (clip 24 s)
  | Tok t -> "tok " ^ clip 24 (Token.describe t)
  | Ltok t -> "lef " ^ clip 24 (Lef.describe t)
  | Msgs [] -> "msgs[]"
  | Msgs (d :: _ as m) ->
    Printf.sprintf "msgs[%d: %s]" (List.length m)
      (clip 32 (Format.asprintf "%a" Diag.pp d))
  | Env _ -> "env"
  | Lef l -> Printf.sprintf "lef[%d]" (List.length l)
  | Lefs l -> Printf.sprintf "lefs[%d]" (List.length l)
  | Ids ids ->
    Printf.sprintf "ids[%s]" (clip 32 (String.concat "," (List.map fst ids)))
  | Cands c -> Printf.sprintf "cands[%d]" (List.length c)
  | Aitems l -> Printf.sprintf "aitems[%d]" (List.length l)
  | Achoices l -> Printf.sprintf "achoices[%d]" (List.length l)
  | Out o ->
    let count f = cat_fold_right (fun o n -> n + List.length (f o)) o 0 in
    Printf.sprintf "out{binds %d, sigs %d, subprogs %d, concs -}"
      (count (fun o -> o.o_binds)) (count (fun o -> o.o_signals))
      (count (fun o -> o.o_subprograms))
  | Region r -> Printf.sprintf "region{locals %d, sigs %d}" r.r_locals r.r_signals
  | Ifaces l -> Printf.sprintf "ifaces[%d]" (List.length l)
  | Sty { ty; _ } -> "ty " ^ ty.Types.base
  | Tydef _ -> "tydef<fun>"
  | Stmts s -> Printf.sprintf "stmts[%d]" (length_of_cat s)
  | Waves w -> Printf.sprintf "waves[%d]" (List.length w)
  | Choices c -> Printf.sprintf "choices[%d]" (List.length c)
  | Assocs a -> Printf.sprintf "assocs[%d]" (List.length a)
  | Concs c -> Printf.sprintf "concs[%d]" (length_of_cat c)
  | Spec s -> "spec " ^ s.sp_name
  | Units us ->
    Printf.sprintf "units[%s]"
      (clip 48 (String.concat "," (List.map (fun u -> u.Unit_info.u_key) us)))
  | Arms a -> Printf.sprintf "arms[%d]" (List.length a)
  | Cwaves c -> Printf.sprintf "cwaves[%d]" (List.length c)
  | Swaves s -> Printf.sprintf "swaves[%d]" (List.length s)
  | Alts a -> Printf.sprintf "alts[%d]" (List.length a)
  | Rng _ -> "range"
  | Phys_units u -> Printf.sprintf "phys_units[%d]" (List.length u)
  | Opt None -> "none"
  | Opt (Some v) ->
    if fuel <= 0 then "some _" else "some " ^ summary ~fuel:(fuel - 1) v
  | Pair (a, b) ->
    if fuel <= 0 then "(_, _)"
    else
      Printf.sprintf "(%s, %s)" (summary ~fuel:(fuel - 1) a) (summary ~fuel:(fuel - 1) b)
  | Plist l -> Printf.sprintf "plist[%d]" (List.length l)

let summary v = summary v

(* merge functions for the attribute classes *)
let merge_msgs a b = Msgs (as_msgs a @ as_msgs b)
let merge_lef a b = Lef (as_lef a @ as_lef b)
let merge_stmts a b =
  match (a, b) with
  | Stmts x, Stmts y -> Stmts (cat x y)
  | _ -> internal "expected Stmts"

let merge_out a b =
  match (a, b) with
  | Out x, Out y -> Out (cat x y)
  | _ -> internal "expected Out"

let merge_concs a b =
  match (a, b) with
  | Concs x, Concs y -> Concs (cat x y)
  | _ -> internal "expected Concs"

let merge_units a b = Units (as_units a @ as_units b)
