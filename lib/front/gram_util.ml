(** Shared rule combinators for the principal AG.

    The principal grammar's productions follow a few stereotyped shapes; the
    combinators here build the hidden RES pair/triple and its projections so
    every production stays declarative. *)

open Pval
module B = Grammar.Builder

let rule = B.rule
let copy = B.copy

(* Standard context dependencies available to most semantic rules. *)
let ctx_deps = [ (0, "ENV"); (0, "LEVEL"); (0, "UNITNAME"); (0, "CTX"); (0, "SLOTBASE"); (0, "SIGBASE") ]

type ctx = {
  cx_env : Env.t;
  cx_level : int;
  cx_unit : string;
  cx_kind : string;
  cx_slot_base : int;
  cx_sig_base : int;
}

let ctx_of = function
  | env :: level :: unit_name :: ctx :: slot_base :: sig_base :: rest ->
    ( {
        cx_env = as_env env;
        cx_level = as_int level;
        cx_unit = as_str unit_name;
        cx_kind = as_str ctx;
        cx_slot_base = as_int slot_base;
        cx_sig_base = as_int sig_base;
      },
      rest )
  | _ -> internal "ctx_of: missing context dependencies"

let object_context (cx : ctx) : Decl_sem.object_context =
  {
    Decl_sem.oc_env = cx.cx_env;
    oc_level = cx.cx_level;
    oc_unit = cx.cx_unit;
    oc_kind =
      (match String.split_on_char ':' cx.cx_kind with
      | [ "package"; name ] -> `Package name
      | [ "arch" ] -> `Architecture
      | [ "process" ] -> `Process
      | [ "subprog" ] -> `Subprogram
      | [ "entity" ] -> `Entity
      | [ "block" ] -> `Block
      | _ -> `Architecture);
    oc_slot_base = cx.cx_slot_base;
    oc_sig_base = cx.cx_sig_base;
  }

(* projections *)
let fst_of = function
  | [ v ] -> fst (as_pair v)
  | _ -> internal "fst_of"

let snd_plus_msgs vs =
  match vs with
  | res :: children ->
    let _, m = as_pair res in
    Msgs (List.concat_map as_msgs children @ as_msgs m)
  | [] -> internal "snd_plus_msgs"

(** A statement production: [f] returns (stmts, diagnostics).  The hidden
    SRES attribute carries the pair; CODE and MSGS project it. *)
let stmt_rules ~deps ~msg_deps f =
  [
    rule ~target:(0, "SRES") ~deps (fun vs ->
        let stmts, msgs = f vs in
        Pair (of_stmts stmts, Msgs msgs));
    rule ~target:(0, "CODE") ~deps:[ (0, "SRES") ] fst_of;
    rule ~target:(0, "MSGS")
      ~deps:((0, "SRES") :: List.map (fun p -> (p, "MSGS")) msg_deps)
      snd_plus_msgs;
  ]

(** A declaration production: [f] returns (decl_out, diagnostics). *)
let out_rules ~deps ~msg_deps f =
  [
    rule ~target:(0, "SRES") ~deps (fun vs ->
        let out, msgs = f vs in
        Pair (of_out out, Msgs msgs));
    rule ~target:(0, "OUT") ~deps:[ (0, "SRES") ] fst_of;
    rule ~target:(0, "MSGS")
      ~deps:((0, "SRES") :: List.map (fun p -> (p, "MSGS")) msg_deps)
      snd_plus_msgs;
  ]

(** A concurrent-statement production: [f] returns (concs, out, msgs). *)
let conc_rules ~deps ~msg_deps f =
  [
    rule ~target:(0, "SRES") ~deps (fun vs ->
        let concs, out, msgs = f vs in
        Pair (Pair (of_concs concs, of_out out), Msgs msgs));
    rule ~target:(0, "CONCS") ~deps:[ (0, "SRES") ] (function
      | [ v ] -> fst (as_pair (fst (as_pair v)))
      | _ -> internal "conc CONCS");
    rule ~target:(0, "OUT") ~deps:[ (0, "SRES") ] (function
      | [ v ] -> snd (as_pair (fst (as_pair v)))
      | _ -> internal "conc OUT");
    rule ~target:(0, "MSGS")
      ~deps:((0, "SRES") :: List.map (fun p -> (p, "MSGS")) msg_deps)
      (fun vs ->
        match vs with
        | res :: children ->
          let _, m = as_pair res in
          Msgs (List.concat_map as_msgs children @ as_msgs m)
        | [] -> internal "conc MSGS");
  ]

(* List attributes built by left recursion (IDS, LEFS, IFACES, IXS,
   PUNITS, ARMS, ALTS, SWAVES, ASSOCS) hold their elements newest first:
   each step conses instead of copying its prefix, and the consumer puts
   the list in order once. *)
let ids_in_order v = List.rev (as_ids v)
let lefs_in_order v = List.rev (as_lefs v)
let ifaces_in_order v = List.rev (as_ifaces v)

(* [env] with a generic clause's generics at their flat slot positions:
   the environment of the port clause and the declarations that follow
   it.  The generic clause itself is analyzed without them: a generic
   may not be named in the interface list that declares it (LRM
   4.3.3.1). *)
let generics_env env generics =
  let binds, _ =
    List.fold_left
      (fun (acc, idx) i ->
        List.fold_left
          (fun (acc, idx) (n, _) ->
            ( ( n,
                Denot.Dobject
                  {
                    name = n;
                    cls = Denot.Cconstant;
                    ty = i.if_ty;
                    mode = None;
                    slot = Denot.Sl_generic idx;
                  } )
              :: acc,
              idx + 1 ))
          (acc, idx) i.if_names)
      ([], 0) (ifaces_in_order generics)
  in
  Env.extend_many env (List.rev binds)

(* LINE1 of a declaration: the line of its first token, where the
   homograph check reports a redeclaration *)
let first_line : Pval.t B.rule_spec = copy ~target:(0, "LINE1") ~from:(1, "LINE")

(* token helpers *)
let id_of v = tok_id v

let line_of v =
  match v with
  | Int n -> n
  | _ -> internal "line_of: expected Int"

(** LEF-emitting leaf helpers. *)
let lef1 kind line = Lef [ { Lef.l_kind = kind; l_line = line } ]
