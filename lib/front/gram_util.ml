(** Shared rule combinators for the two AGs.

    The principal grammar's productions follow a few stereotyped shapes; the
    combinators here build the hidden SRES pair/triple and its projections
    so every production stays declarative.  The expression AG shares the
    MSGS merge of its RES pair. *)

open Pval
module B = Grammar.Builder

let rule = B.rule
let const = B.const
let copy = B.copy

(* the hidden pair of a production with no semantic result *)
let dummy_sres = const ~target:(0, "SRES") Unit

(* projections of a hidden pair *)
let fst_of v = fst (as_pair v)

(* The MSGS rule of a hidden-pair production: the [msg_deps] children's
   diagnostics, then the pair's own. *)
let msgs_rule ?(res = "SRES") msg_deps =
  rule ~target:(0, "MSGS")
    ~deps:((0, res) :: Rest (List.map (fun p -> (p, "MSGS")) msg_deps))
    (fun res children -> Msgs (List.concat_map as_msgs children @ as_msgs (snd (as_pair res))))

(** A statement production: [f] returns (stmts, diagnostics).  The hidden
    SRES attribute carries the pair; CODE and MSGS project it. *)
let stmt_rules ~deps ~msg_deps f =
  [
    B.rule_map (fun (code, msgs) -> Pair (of_stmts code, Msgs msgs)) ~target:(0, "SRES") ~deps f;
    rule ~target:(0, "CODE") ~deps:[ (0, "SRES") ] fst_of;
    msgs_rule msg_deps;
  ]

(** A declaration production: [f] returns (decl_out, diagnostics). *)
let out_rules ~deps ~msg_deps f =
  [
    B.rule_map (fun (out, msgs) -> Pair (of_out out, Msgs msgs)) ~target:(0, "SRES") ~deps f;
    rule ~target:(0, "OUT") ~deps:[ (0, "SRES") ] fst_of;
    msgs_rule msg_deps;
  ]

(** A concurrent-statement production: [f] returns (concs, out, msgs). *)
let conc_rules ~deps ~msg_deps f =
  [
    B.rule_map
      (fun (concs, out, msgs) -> Pair (Pair (of_concs concs, of_out out), Msgs msgs))
      ~target:(0, "SRES") ~deps f;
    rule ~target:(0, "CONCS") ~deps:[ (0, "SRES") ] (fun v -> fst (as_pair (fst_of v)));
    rule ~target:(0, "OUT") ~deps:[ (0, "SRES") ] (fun v -> snd (as_pair (fst_of v)));
    msgs_rule msg_deps;
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
   it.  The generic clause itself sees them only as hidden names
   (iface_list_more, grammar_decls.ml): a generic may not be named in
   the interface list that declares it (LRM 4.3.3.1). *)
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

(** LEF-emitting leaf helpers. *)
let lef1 kind line = Lef [ { Lef.l_kind = kind; l_line = line } ]
