(** Principal AG, design units and concurrent statements. *)

open Pval
open Gram_util
module B = Grammar.Builder

let nonterminals =
  [
    "design_file"; "design_units"; "design_unit"; "context_items"; "context_item";
    "library_clause"; "library_unit"; "entity_decl"; "arch_body"; "package_decl";
    "package_body_u"; "config_decl"; "config_items"; "concs"; "conc";
    "process_head"; "sens_opt"; "guard_opt"; "gmap_opt"; "pmap_opt"; "assoc_list";
    "assoc"; "cond_waves"; "selected_waves"; "guarded_opt";
  ]

(* environment of a design unit: the implicit context plus its explicit
   context clauses *)
let unit_env context_out =
  Env.extend_many (Decl_sem.initial_env ()) (as_out context_out).o_binds

let std_ctx_rules ~env_rule ~ctx ~unitname_deps ~unitname pos =
  (* common inherited setup for a unit's inner regions *)
  [
    rule ~target:(pos, "ENV") ~deps:(fst env_rule) (snd env_rule);
    rule ~target:(pos, "CTX") ~deps:[] (fun _ -> Str ctx);
    rule ~target:(pos, "UNITNAME") ~deps:unitname_deps unitname;
    rule ~target:(pos, "LEVEL") ~deps:[] (fun _ -> Int (-1));
    rule ~target:(pos, "SLOTBASE") ~deps:[] (fun _ -> Int 0);
  ]

let add b =
  List.iter (fun n -> ignore (B.nonterminal b n)) nonterminals;
  let prod = B.production b in

  (* ---- file structure ---- *)
  prod ~name:"design_file" ~lhs:"design_file" ~rhs:[ "design_units" ] ~rules:[];
  prod ~name:"design_units_one" ~lhs:"design_units" ~rhs:[ "design_unit" ] ~rules:[];
  prod ~name:"design_units_more" ~lhs:"design_units" ~rhs:[ "design_units"; "design_unit" ]
    ~rules:[];
  prod ~name:"design_unit_ctx" ~lhs:"design_unit" ~rhs:[ "context_items"; "library_unit" ]
    ~rules:
      [
        (* put in order once: every region of the unit reads it *)
        rule ~target:(2, "CTXOUT") ~deps:[ (1, "OUT") ] (function
          | [ out ] -> of_out (as_out out)
          | _ -> internal "design_unit ctx");
      ];
  prod ~name:"design_unit_plain" ~lhs:"design_unit" ~rhs:[ "library_unit" ]
    ~rules:[ rule ~target:(1, "CTXOUT") ~deps:[] (fun _ -> Out Nil) ];
  prod ~name:"context_items_one" ~lhs:"context_items" ~rhs:[ "context_item" ] ~rules:[];
  prod ~name:"context_items_more" ~lhs:"context_items"
    ~rhs:[ "context_items"; "context_item" ]
    ~rules:[];
  prod ~name:"context_item_library" ~lhs:"context_item" ~rhs:[ "library_clause" ] ~rules:[];
  prod ~name:"context_item_use" ~lhs:"context_item" ~rhs:[ "use_clause" ] ~rules:[];
  prod ~name:"library_clause" ~lhs:"library_clause" ~rhs:[ "library"; "id_list"; ";" ]
    ~rules:
      (out_rules ~deps:[ (1, "LINE"); (2, "IDS") ] ~msg_deps:[] (function
        | [ line; ids ] -> Decl_sem.resolve_library ~line:(as_int line) (ids_in_order ids)
        | _ -> internal "library_clause"));

  (* context clauses resolve against the session, not the lexical ENV: give
     them a harmless environment *)
  prod ~name:"library_unit_entity" ~lhs:"library_unit" ~rhs:[ "entity_decl" ] ~rules:[];
  prod ~name:"library_unit_arch" ~lhs:"library_unit" ~rhs:[ "arch_body" ] ~rules:[];
  prod ~name:"library_unit_package" ~lhs:"library_unit" ~rhs:[ "package_decl" ] ~rules:[];
  prod ~name:"library_unit_body" ~lhs:"library_unit" ~rhs:[ "package_body_u" ] ~rules:[];
  prod ~name:"library_unit_config" ~lhs:"library_unit" ~rhs:[ "config_decl" ] ~rules:[];

  (* ---- entity ---- *)
  prod ~name:"entity_decl" ~lhs:"entity_decl"
    ~rhs:
      [
        "entity"; "ID"; "is"; "generic_clause_opt"; "port_clause_opt"; "decl_items";
        "end"; "opt_id"; ";";
      ]
    ~rules:
      (std_ctx_rules
         ~env_rule:
           ( [ (0, "CTXOUT") ],
             function
             | [ ctxout ] -> Env (unit_env ctxout)
             | _ -> internal "entity env" )
         ~ctx:"entity"
         ~unitname_deps:[ (2, "VAL") ]
         ~unitname:(function
           | [ v ] -> Str (Session.work ^ "." ^ tok_id v)
           | _ -> internal "entity unitname")
         4
      @ std_ctx_rules
          ~env_rule:
            ( [ (0, "CTXOUT"); (4, "IFACES") ],
              function
              | [ ctxout; generics ] -> Env (generics_env (unit_env ctxout) generics)
              | _ -> internal "entity env2" )
          ~ctx:"entity"
          ~unitname_deps:[ (2, "VAL") ]
          ~unitname:(function
            | [ v ] -> Str (Session.work ^ "." ^ tok_id v)
            | _ -> internal "entity unitname2")
          5
      @ [
          (* the entity declarative part: its types/constants are visible in
             every architecture body (through the same channel as the
             entity's context clause) *)
          rule ~target:(6, "ENV")
            ~deps:[ (0, "CTXOUT"); (4, "IFACES") ]
            (function
              | [ ctxout; generics ] -> Env (generics_env (unit_env ctxout) generics)
              | _ -> internal "entity decl env");
          rule ~target:(6, "CTX") ~deps:[] (fun _ -> Str "entity");
          rule ~target:(6, "UNITNAME") ~deps:[ (2, "VAL") ] (function
            | [ v ] -> Str (Session.work ^ "." ^ tok_id v)
            | _ -> internal "entity decl unitname");
          rule ~target:(0, "UNITS")
            ~deps:
              [
                (2, "VAL"); (0, "CTXOUT"); (4, "IFACES"); (5, "IFACES"); (6, "OUT");
                (0, "NLINES");
              ]
            (function
              | [ v; ctxout; generics; ports; decls; nlines ] ->
                let ctxout = as_out ctxout and decls = as_out decls in
                let u =
                  Unit_sem.entity ~name:(tok_id v) ~generics:(ifaces_in_order generics)
                    ~ports:(ifaces_in_order ports)
                    ~source_lines:(as_int nlines)
                    ~context:(ctxout.o_binds @ decls.o_binds)
                    ~deps:(ctxout.o_deps @ decls.o_deps)
                in
                Units [ u ]
              | _ -> internal "entity units");
          rule ~target:(0, "MSGS")
            ~deps:
              [
                (0, "CTXOUT"); (2, "VAL"); (2, "LINE"); (4, "MSGS"); (5, "MSGS");
                (6, "MSGS"); (6, "OUT"); (8, "OID");
              ]
            (function
              | [ _; v; line; m1; m2; m3; decls; oid ] ->
                let endname =
                  match as_opt oid with
                  | Some (Str s) -> Some s
                  | _ -> None
                in
                let decl_out = as_out decls in
                let unsupported =
                  (if decl_out.o_subprograms <> [] then
                     [
                       Diag.error ~line:(as_int line)
                         "subprogram bodies in entity declarative parts are not supported";
                     ]
                   else [])
                  @
                  if decl_out.o_signals <> [] then
                    [
                      Diag.error ~line:(as_int line)
                        "signals in entity declarative parts are not supported";
                    ]
                  else []
                in
                Msgs
                  (as_msgs m1 @ as_msgs m2 @ as_msgs m3 @ unsupported
                  @ Unit_sem.check_end_name ~line:(as_int line) ~kind:"entity"
                      ~expected:(tok_id v) endname)
              | _ -> internal "entity msgs");
        ]);

  (* ---- architecture ---- *)
  prod ~name:"arch_body" ~lhs:"arch_body"
    ~rhs:
      [
        "architecture"; "ID"; "of"; "ID"; "is"; "decl_items"; "begin"; "concs"; "end";
        "opt_id"; ";";
      ]
    ~rules:
      [
        (* declarative part environment: context + entity interface *)
        rule ~target:(6, "ENV") ~deps:[ (0, "CTXOUT"); (4, "VAL"); (4, "LINE") ] (function
          | [ ctxout; ent_v; line ] ->
            let env = unit_env ctxout in
            let entity, _ = Unit_sem.find_entity ~line:(as_int line) (tok_id ent_v) in
            let env =
              match entity with
              | Some en ->
                (* the entity's own context clause is visible in the body *)
                let env = Env.extend_many env en.Unit_info.en_context in
                Env.extend_many env (Unit_sem.entity_interface_binds en)
              | None -> env
            in
            Env env
          | _ -> internal "arch env");
        rule ~target:(6, "CTX") ~deps:[] (fun _ -> Str "arch");
        rule ~target:(6, "LEVEL") ~deps:[] (fun _ -> Int (-1));
        rule ~target:(6, "SLOTBASE") ~deps:[] (fun _ -> Int 0);
        rule ~target:(6, "UNITNAME") ~deps:[ (2, "VAL"); (4, "VAL") ] (function
          | [ a; e ] -> Str (Printf.sprintf "%s.%s(%s)" Session.work (tok_id e) (tok_id a))
          | _ -> internal "arch unitname");
        (* signal indices continue after the entity ports *)
        rule ~target:(6, "SIGBASE") ~deps:[ (4, "VAL"); (4, "LINE") ] (function
          | [ ent_v; line ] -> (
            match Unit_sem.find_entity ~line:(as_int line) (tok_id ent_v) with
            | Some en, _ -> Int (List.length en.Unit_info.en_ports)
            | None, _ -> Int 0)
          | _ -> internal "arch sigbase");
        (* concurrent part *)
        copy ~target:(8, "ENV") ~from:(6, "ENVOUT");
        rule ~target:(8, "CTX") ~deps:[] (fun _ -> Str "arch");
        rule ~target:(8, "LEVEL") ~deps:[] (fun _ -> Int (-1));
        rule ~target:(8, "SLOTBASE") ~deps:[] (fun _ -> Int 0);
        rule ~target:(8, "UNITNAME") ~deps:[ (2, "VAL"); (4, "VAL") ] (function
          | [ a; e ] -> Str (Printf.sprintf "%s.%s(%s)" Session.work (tok_id e) (tok_id a))
          | _ -> internal "arch concs unitname");
        rule ~target:(8, "SIGBASE") ~deps:[ (6, "SIGBASE"); (6, "REGION") ] (function
          | [ base; r ] -> Int (as_int base + (as_region r).r_signals)
          | _ -> internal "arch concs sigbase");
        rule ~target:(0, "UNITS")
          ~deps:
            [
              (2, "VAL"); (4, "VAL"); (4, "LINE"); (0, "CTXOUT"); (6, "OUT"); (8, "OUT");
              (8, "CONCS"); (0, "NLINES");
            ]
          (function
            | [ arch_v; ent_v; line; ctxout; decl_out; conc_out; concs; nlines ] ->
              let entity, _ = Unit_sem.find_entity ~line:(as_int line) (tok_id ent_v) in
              let out =
                out_append (as_out ctxout) (out_append (as_out decl_out) (as_out conc_out))
              in
              let u =
                Unit_sem.architecture ~name:(tok_id arch_v) ~entity_name:(tok_id ent_v)
                  ~entity ~out ~body:(as_concs concs)
                  ~source_lines:(as_int nlines)
              in
              Units [ u ]
            | _ -> internal "arch units");
        rule ~target:(0, "MSGS")
          ~deps:
            [
              (2, "VAL"); (2, "LINE"); (4, "VAL"); (4, "LINE"); (6, "MSGS"); (8, "MSGS");
              (10, "OID");
            ]
          (function
            | [ arch_v; line; ent_v; eline; m1; m2; oid ] ->
              let _, emsgs = Unit_sem.find_entity ~line:(as_int eline) (tok_id ent_v) in
              let endname =
                match as_opt oid with
                | Some (Str s) -> Some s
                | _ -> None
              in
              Msgs
                (emsgs @ as_msgs m1 @ as_msgs m2
                @ Unit_sem.check_end_name ~line:(as_int line) ~kind:"architecture"
                    ~expected:(tok_id arch_v) endname)
            | _ -> internal "arch msgs");
      ];

  (* ---- package / package body ---- *)
  prod ~name:"package_decl" ~lhs:"package_decl"
    ~rhs:[ "package"; "ID"; "is"; "decl_items"; "end"; "opt_id"; ";" ]
    ~rules:
      [
        rule ~target:(4, "ENV") ~deps:[ (0, "CTXOUT") ] (function
          | [ ctxout ] -> Env (unit_env ctxout)
          | _ -> internal "package env");
        rule ~target:(4, "CTX") ~deps:[ (2, "VAL") ] (function
          | [ v ] -> Str ("package:" ^ tok_id v)
          | _ -> internal "package ctx");
        rule ~target:(4, "LEVEL") ~deps:[] (fun _ -> Int (-1));
        rule ~target:(4, "SLOTBASE") ~deps:[] (fun _ -> Int 0);
        rule ~target:(4, "SIGBASE") ~deps:[] (fun _ -> Int 0);
        rule ~target:(4, "UNITNAME") ~deps:[ (2, "VAL") ] (function
          | [ v ] -> Str (Session.work ^ "." ^ tok_id v)
          | _ -> internal "package unitname");
        rule ~target:(0, "UNITS")
          ~deps:[ (2, "VAL"); (0, "CTXOUT"); (4, "OUT"); (0, "NLINES") ]
          (function
            | [ v; ctxout; out; nlines ] ->
              let out = out_append (as_out ctxout) (as_out out) in
              let specs =
                List.filter_map
                  (fun (_, d) ->
                    match d with
                    | Denot.Dsubprog s -> Some s
                    | _ -> None)
                  out.o_binds
              in
              let u =
                Unit_sem.package ~name:(tok_id v) ~out ~specs
                  ~source_lines:(as_int nlines)
              in
              Units [ u ]
            | _ -> internal "package units");
        rule ~target:(0, "MSGS") ~deps:[ (2, "VAL"); (2, "LINE"); (4, "MSGS"); (6, "OID") ]
          (function
            | [ v; line; m; oid ] ->
              let endname =
                match as_opt oid with
                | Some (Str s) -> Some s
                | _ -> None
              in
              Msgs
                (as_msgs m
                @ Unit_sem.check_end_name ~line:(as_int line) ~kind:"package"
                    ~expected:(tok_id v) endname)
            | _ -> internal "package msgs");
      ];
  prod ~name:"package_body_u" ~lhs:"package_body_u"
    ~rhs:[ "package"; "body"; "ID"; "is"; "decl_items"; "end"; "opt_id"; ";" ]
    ~rules:
      [
        rule ~target:(5, "ENV") ~deps:[ (0, "CTXOUT"); (3, "VAL"); (3, "LINE") ] (function
          | [ ctxout; v; line ] ->
            let spec_binds, _ =
              Unit_sem.package_spec_env ~line:(as_int line) (tok_id v)
            in
            Env (Env.extend_many (unit_env ctxout) spec_binds)
          | _ -> internal "pkg body env");
        (* body items share the package object context, so full declarations
           of deferred constants publish their qualified values *)
        rule ~target:(5, "CTX") ~deps:[ (3, "VAL") ] (function
          | [ v ] -> Str ("package:" ^ tok_id v)
          | _ -> internal "pkg body ctx");
        rule ~target:(5, "LEVEL") ~deps:[] (fun _ -> Int (-1));
        rule ~target:(5, "SLOTBASE") ~deps:[] (fun _ -> Int 0);
        rule ~target:(5, "SIGBASE") ~deps:[] (fun _ -> Int 0);
        rule ~target:(5, "UNITNAME") ~deps:[ (3, "VAL") ] (function
          | [ v ] -> Str (Session.work ^ "." ^ tok_id v)
          | _ -> internal "pkg body unitname");
        rule ~target:(0, "UNITS")
          ~deps:[ (3, "VAL"); (0, "CTXOUT"); (5, "OUT"); (0, "NLINES") ]
          (function
            | [ v; ctxout; out; nlines ] ->
              let out = out_append (as_out ctxout) (as_out out) in
              let u =
                Unit_sem.package_body ~name:(tok_id v) ~out ~source_lines:(as_int nlines)
              in
              Units [ u ]
            | _ -> internal "pkg body units");
        rule ~target:(0, "MSGS") ~deps:[ (3, "VAL"); (3, "LINE"); (5, "MSGS"); (7, "OID") ]
          (function
            | [ v; line; m; oid ] ->
              let name = tok_id v in
              let _, emsgs = Unit_sem.package_spec_env ~line:(as_int line) name in
              let endname =
                match as_opt oid with
                | Some (Str s) -> Some s
                | _ -> None
              in
              Msgs
                (emsgs @ as_msgs m
                @ Unit_sem.check_end_name ~line:(as_int line) ~kind:"package body"
                    ~expected:name endname)
            | _ -> internal "pkg body msgs");
      ];

  (* ---- configuration ---- *)
  prod ~name:"config_decl" ~lhs:"config_decl"
    ~rhs:
      [
        "configuration"; "ID"; "of"; "ID"; "is"; "for"; "ID"; "config_items"; "end"; "for";
        ";"; "end"; "opt_id"; ";";
      ]
    ~rules:
      [
        rule ~target:(8, "ENV") ~deps:[ (0, "CTXOUT") ] (function
          | [ ctxout ] -> Env (unit_env ctxout)
          | _ -> internal "config env");
        rule ~target:(8, "CTX") ~deps:[] (fun _ -> Str "arch");
        rule ~target:(8, "LEVEL") ~deps:[] (fun _ -> Int (-1));
        rule ~target:(8, "SLOTBASE") ~deps:[] (fun _ -> Int 0);
        rule ~target:(8, "SIGBASE") ~deps:[] (fun _ -> Int 0);
        rule ~target:(8, "UNITNAME") ~deps:[ (2, "VAL") ] (function
          | [ v ] -> Str (Session.work ^ "." ^ tok_id v)
          | _ -> internal "config unitname");
        rule ~target:(0, "SRES")
          ~deps:[ (2, "VAL"); (4, "VAL"); (4, "LINE"); (7, "VAL"); (8, "OUT"); (0, "NLINES") ]
          (function
            | [ name_v; ent_v; line; arch_v; out; nlines ] ->
              let u, msgs =
                Unit_sem.configuration ~name:(tok_id name_v) ~entity_name:(tok_id ent_v)
                  ~arch_name:(tok_id arch_v)
                  ~specs:(as_out out).o_config_specs
                  ~source_lines:(as_int nlines) ~line:(as_int line)
              in
              Pair (Units [ u ], Msgs msgs)
            | _ -> internal "config sres");
        rule ~target:(0, "UNITS") ~deps:[ (0, "SRES") ] fst_of;
        rule ~target:(0, "MSGS") ~deps:[ (0, "SRES"); (8, "MSGS") ] snd_plus_msgs;
      ];
  prod ~name:"config_items_empty" ~lhs:"config_items" ~rhs:[] ~rules:[];
  (* component configuration: the spec plus its mandatory "end for;" *)
  prod ~name:"config_items_more" ~lhs:"config_items"
    ~rhs:[ "config_items"; "config_spec1"; "end"; "for"; ";" ]
    ~rules:[];

  (* ---- concurrent statements ---- *)
  (* NSIGS counts the signals the statements so far declared (blocks
     flatten theirs into the unit), threaded like a declarative region's
     REGION *)
  prod ~name:"concs_empty" ~lhs:"concs" ~rhs:[]
    ~rules:[ rule ~target:(0, "NSIGS") ~deps:[] (fun _ -> Int 0) ];
  prod ~name:"concs_more" ~lhs:"concs" ~rhs:[ "concs"; "conc" ]
    ~rules:
      [
        rule ~target:(0, "NSIGS") ~deps:[ (1, "NSIGS"); (2, "OUT") ] (function
          | [ n; out ] -> Int (as_int n + List.length (as_out out).o_signals)
          | _ -> internal "concs nsigs");
        rule ~target:(2, "SIGBASE") ~deps:[ (0, "SIGBASE"); (1, "NSIGS") ] (function
          | [ base; n ] -> Int (as_int base + as_int n)
          | _ -> internal "concs sigbase");
      ];

  (* process *)
  prod ~name:"conc_process" ~lhs:"conc"
    ~rhs:[ "process_head"; "decl_items"; "begin"; "stmts"; "end"; "process"; "opt_id"; ";" ]
    ~rules:
      ([
         rule ~target:(2, "CTX") ~deps:[] (fun _ -> Str "process");
         rule ~target:(2, "LEVEL") ~deps:[] (fun _ -> Int 0);
         rule ~target:(2, "SLOTBASE") ~deps:[] (fun _ -> Int 0);
         copy ~target:(4, "ENV") ~from:(2, "ENVOUT");
         rule ~target:(4, "CTX") ~deps:[] (fun _ -> Str "process");
         rule ~target:(4, "LEVEL") ~deps:[] (fun _ -> Int 0);
         rule ~target:(4, "LOOPDEPTH") ~deps:[] (fun _ -> Int 0);
         rule ~target:(4, "RETTY") ~deps:[] (fun _ -> Opt None);
       ]
      @ conc_rules
          ~deps:[ (1, "LBL"); (1, "SENS"); (1, "LINE1"); (2, "OUT"); (4, "CODE") ]
          ~msg_deps:[ 1; 2; 4 ]
          (function
            | [ lbl; sens; line; out; code ] ->
              let label =
                match as_opt lbl with
                | Some (Str s) -> Some s
                | _ -> None
              in
              let (concs, out), msgs =
                Conc_sem.process_stmt ~label ~sensitivity:(as_lefs sens)
                  ~line:(as_int line) ~out:(as_out out) ~body:(as_stmts code)
              in
              (concs, out, msgs)
            | _ -> internal "conc_process"));
  prod ~name:"process_head_plain" ~lhs:"process_head" ~rhs:[ "process"; "sens_opt" ]
    ~rules:
      [
        rule ~target:(0, "LBL") ~deps:[] (fun _ -> Opt None);
        rule ~target:(0, "SENS") ~deps:[ (2, "LEFS") ] (function
          | [ s ] -> Lefs (lefs_in_order s)
          | _ -> internal "process sens");
        rule ~target:(0, "LINE1") ~deps:[ (1, "LINE") ] (function
          | [ l ] -> l
          | _ -> internal "process line");
      ];
  prod ~name:"process_head_labeled" ~lhs:"process_head"
    ~rhs:[ "ID"; ":"; "process"; "sens_opt" ]
    ~rules:
      [
        rule ~target:(0, "LBL") ~deps:[ (1, "VAL") ] (function
          | [ v ] -> Opt (Some (Str (tok_id v)))
          | _ -> internal "process lbl");
        rule ~target:(0, "SENS") ~deps:[ (4, "LEFS") ] (function
          | [ s ] -> Lefs (lefs_in_order s)
          | _ -> internal "process sens");
        rule ~target:(0, "LINE1") ~deps:[ (1, "LINE") ] (function
          | [ l ] -> l
          | _ -> internal "process line");
      ];
  prod ~name:"sens_none" ~lhs:"sens_opt" ~rhs:[]
    ~rules:[ rule ~target:(0, "LEFS") ~deps:[] (fun _ -> Lefs []) ];
  prod ~name:"sens_some" ~lhs:"sens_opt" ~rhs:[ "("; "name_list"; ")" ] ~rules:[];

  (* concurrent assignments *)
  prod ~name:"conc_assign" ~lhs:"conc"
    ~rhs:[ "name"; "<="; "guarded_opt"; "transport_opt"; "cond_waves"; ";" ]
    ~rules:
      (conc_rules
         ~deps:
           [
             (0, "LEVEL"); (1, "LEF"); (2, "LINE"); (3, "BOOLV"); (4, "BOOLV"); (5, "CWAVES");
           ]
         ~msg_deps:[ 1; 5 ]
         (function
           | [ level; target; line; guarded; transport; cwaves ] ->
             let level = as_int level and line = as_int line in
             let guarded = as_bool guarded and transport = as_bool transport in
             let concs, msgs =
               match as_cwaves cwaves with
               | [ (waves, None) ] ->
                 Conc_sem.concurrent_assign ~level ~line ~label:None ~transport ~guarded
                   (as_lef target) waves
               | arms ->
                 let conds, final =
                   List.partition (fun (_, c) -> c <> None) arms
                 in
                 Conc_sem.conditional_assign ~level ~line ~label:None ~transport ~guarded
                   (as_lef target)
                   (List.map (fun (w, c) -> (w, Option.get c)) conds)
                   (match final with
                   | [ (w, None) ] -> Some w
                   | _ -> None)
             in
             (concs, out_empty, msgs)
           | _ -> internal "conc_assign"));
  prod ~name:"conc_assign_labeled" ~lhs:"conc"
    ~rhs:[ "ID"; ":"; "name"; "<="; "guarded_opt"; "transport_opt"; "cond_waves"; ";" ]
    ~rules:
      (conc_rules
         ~deps:
           [
             (0, "LEVEL"); (1, "VAL"); (3, "LEF"); (4, "LINE"); (5, "BOOLV"); (6, "BOOLV");
             (7, "CWAVES");
           ]
         ~msg_deps:[ 3; 7 ]
         (function
           | [ level; lbl; target; line; guarded; transport; cwaves ] ->
             let level = as_int level and line = as_int line in
             let guarded = as_bool guarded and transport = as_bool transport in
             let label = Some (tok_id lbl) in
             let concs, msgs =
               match as_cwaves cwaves with
               | [ (waves, None) ] ->
                 Conc_sem.concurrent_assign ~level ~line ~label ~transport ~guarded
                   (as_lef target) waves
               | arms ->
                 let conds, final = List.partition (fun (_, c) -> c <> None) arms in
                 Conc_sem.conditional_assign ~level ~line ~label ~transport ~guarded
                   (as_lef target)
                   (List.map (fun (w, c) -> (w, Option.get c)) conds)
                   (match final with
                   | [ (w, None) ] -> Some w
                   | _ -> None)
             in
             (concs, out_empty, msgs)
           | _ -> internal "conc_assign_labeled"));
  prod ~name:"cond_waves_plain" ~lhs:"cond_waves" ~rhs:[ "waveform" ]
    ~rules:
      [
        rule ~target:(0, "CWAVES") ~deps:[ (1, "WAVES") ] (function
          | [ w ] -> Cwaves [ (as_waves w, None) ]
          | _ -> internal "cond_waves_plain");
      ];
  prod ~name:"cond_waves_when" ~lhs:"cond_waves"
    ~rhs:[ "waveform"; "when"; "expr"; "else"; "cond_waves" ]
    ~rules:
      [
        rule ~target:(0, "CWAVES") ~deps:[ (1, "WAVES"); (3, "LEF"); (5, "CWAVES") ] (function
          | [ w; c; rest ] -> Cwaves ((as_waves w, Some (as_lef c)) :: as_cwaves rest)
          | _ -> internal "cond_waves_when");
      ];
  prod ~name:"guarded_none" ~lhs:"guarded_opt" ~rhs:[]
    ~rules:[ rule ~target:(0, "BOOLV") ~deps:[] (fun _ -> Bool false) ];
  prod ~name:"guarded_some" ~lhs:"guarded_opt" ~rhs:[ "guarded" ]
    ~rules:[ rule ~target:(0, "BOOLV") ~deps:[] (fun _ -> Bool true) ];

  (* selected assignment *)
  let selected ~name ~rhs ~lbl_dep ~sel_pos ~target_pos ~guarded_pos ~transport_pos ~waves_pos =
    prod ~name ~lhs:"conc" ~rhs
      ~rules:
        (conc_rules
           ~deps:
             ((0, "LEVEL")
             :: (lbl_dep
                @ [
                    (sel_pos, "LEF"); (target_pos, "LEF"); (guarded_pos, "BOOLV");
                    (transport_pos, "BOOLV"); (waves_pos, "SWAVES"); (1, "LINE");
                  ]))
           ~msg_deps:[ sel_pos; target_pos; waves_pos ]
           (fun vs ->
             match vs with
             | level :: rest ->
               let label, rest =
                 if lbl_dep = [] then (None, rest)
                 else
                   match rest with
                   | l :: r -> (Some (tok_id l), r)
                   | [] -> internal "selected lbl"
               in
               (match rest with
               | [ sel; target; guarded; transport; swaves; line ] ->
                 let concs, msgs =
                   Conc_sem.selected_assign ~level:(as_int level) ~line:(as_int line)
                     ~label ~transport:(as_bool transport) ~guarded:(as_bool guarded)
                     (as_lef sel) (as_lef target)
                     (List.rev (as_swaves swaves))
                 in
                 (concs, out_empty, msgs)
               | _ -> internal "selected args")
             | [] -> internal "selected"))
  in
  selected ~name:"conc_selected"
    ~rhs:[ "with"; "expr"; "select"; "name"; "<="; "guarded_opt"; "transport_opt"; "selected_waves"; ";" ]
    ~lbl_dep:[] ~sel_pos:2 ~target_pos:4 ~guarded_pos:6 ~transport_pos:7 ~waves_pos:8;
  selected ~name:"conc_selected_labeled"
    ~rhs:
      [
        "ID"; ":"; "with"; "expr"; "select"; "name"; "<="; "guarded_opt";
        "transport_opt"; "selected_waves"; ";";
      ]
    ~lbl_dep:[ (1, "VAL") ] ~sel_pos:4 ~target_pos:6 ~guarded_pos:8 ~transport_pos:9
    ~waves_pos:10;
  prod ~name:"selected_waves_one" ~lhs:"selected_waves"
    ~rhs:[ "waveform"; "when"; "chlist" ]
    ~rules:
      [
        rule ~target:(0, "SWAVES") ~deps:[ (1, "WAVES"); (3, "CHS") ] (function
          | [ w; chs ] -> Swaves [ (as_waves w, as_choices chs) ]
          | _ -> internal "selected_waves_one");
      ];
  prod ~name:"selected_waves_more" ~lhs:"selected_waves"
    ~rhs:[ "selected_waves"; ","; "waveform"; "when"; "chlist" ]
    ~rules:
      [
        rule ~target:(0, "SWAVES") ~deps:[ (1, "SWAVES"); (3, "WAVES"); (5, "CHS") ] (function
          | [ prev; w; chs ] -> Swaves ((as_waves w, as_choices chs) :: as_swaves prev)
          | _ -> internal "selected_waves_more");
      ];

  (* concurrent assertion *)
  let conc_assert_prod ~name ~rhs ~shift ~label_of =
    prod ~name ~lhs:"conc" ~rhs
      ~rules:
        (conc_rules
           ~deps:
             ([ (0, "LEVEL") ]
             @ List.map
                 (fun (p, a) -> (p + shift, a))
                 [ (1, "LINE"); (2, "LEF"); (3, "OLEF"); (4, "OLEF") ]
             @ if shift > 0 then [ (1, "VAL") ] else [])
           ~msg_deps:[ 2 + shift; 3 + shift; 4 + shift ]
           (fun vs ->
             match vs with
             | level :: line :: cond :: report :: severity :: rest ->
               let stmts, msgs =
                 Stmt_sem.build_assert ~level:(as_int level) ~line:(as_int line)
                   ~cond:(as_lef cond)
                   ~report:(Option.map as_lef (as_opt report))
                   ~severity:(Option.map as_lef (as_opt severity))
               in
               (* a concurrent assertion is a process sensitive to its signals *)
               let sens =
                 match stmts with
                 | [ Kir.Sassert { cond; _ } ] -> Kir_util.signals_read_expr cond
                 | _ -> []
               in
               ( [
                   Kir.C_process
                     {
                       Kir.proc_label = label_of rest;
                       proc_sensitivity = sens;
                       proc_locals = [];
                       proc_body = stmts;
                       proc_postponed_wait = true;
                     };
                 ],
                 out_empty,
                 msgs )
             | _ -> internal "conc_assert"))
  in
  conc_assert_prod ~name:"conc_assert"
    ~rhs:[ "assert"; "expr"; "report_opt"; "severity_opt"; ";" ]
    ~shift:0
    ~label_of:(fun _ -> Conc_sem.fresh_label "assert");
  conc_assert_prod ~name:"conc_assert_labeled"
    ~rhs:[ "ID"; ":"; "assert"; "expr"; "report_opt"; "severity_opt"; ";" ]
    ~shift:2
    ~label_of:(fun rest ->
      match rest with
      | [ v ] -> tok_id v
      | _ -> Conc_sem.fresh_label "assert");

  (* component instantiation *)
  prod ~name:"conc_instance" ~lhs:"conc"
    ~rhs:[ "ID"; ":"; "ID"; "gmap_opt"; "pmap_opt"; ";" ]
    ~rules:
      (conc_rules
         ~deps:
           [
             (0, "ENV"); (0, "LEVEL"); (1, "VAL"); (1, "LINE"); (3, "VAL"); (4, "ASSOCS");
             (5, "ASSOCS");
           ]
         ~msg_deps:[ 4; 5 ]
         (function
           | [ env; level; lbl; line; comp; gmap; pmap ] ->
             let concs, msgs =
               Conc_sem.instance ~env:(as_env env) ~level:(as_int level)
                 ~line:(as_int line) ~label:(tok_id lbl) ~component_name:(tok_id comp)
                 ~generic_map:(List.rev (as_assocs gmap))
                 ~port_map:(List.rev (as_assocs pmap))
             in
             (concs, out_empty, msgs)
           | _ -> internal "conc_instance"));
  prod ~name:"gmap_none" ~lhs:"gmap_opt" ~rhs:[]
    ~rules:[ rule ~target:(0, "ASSOCS") ~deps:[] (fun _ -> Assocs []) ];
  prod ~name:"gmap_some" ~lhs:"gmap_opt" ~rhs:[ "generic"; "map"; "("; "assoc_list"; ")" ]
    ~rules:[];
  prod ~name:"pmap_none" ~lhs:"pmap_opt" ~rhs:[]
    ~rules:[ rule ~target:(0, "ASSOCS") ~deps:[] (fun _ -> Assocs []) ];
  prod ~name:"pmap_some" ~lhs:"pmap_opt" ~rhs:[ "port"; "map"; "("; "assoc_list"; ")" ]
    ~rules:[];
  prod ~name:"assoc_list_one" ~lhs:"assoc_list" ~rhs:[ "assoc" ] ~rules:[];
  prod ~name:"assoc_list_more" ~lhs:"assoc_list" ~rhs:[ "assoc_list"; ","; "assoc" ]
    ~rules:
      [
        rule ~target:(0, "ASSOCS") ~deps:[ (1, "ASSOCS"); (3, "ASSOCS") ] (function
          | [ a; c ] -> Assocs (List.rev_append (as_assocs c) (as_assocs a))
          | _ -> internal "assoc_list_more");
      ];
  prod ~name:"assoc_positional" ~lhs:"assoc" ~rhs:[ "expr" ]
    ~rules:
      [
        rule ~target:(0, "ASSOCS") ~deps:[ (1, "LEF") ] (function
          | [ lef ] ->
            let lef = as_lef lef in
            let line = match lef with t :: _ -> t.Lef.l_line | [] -> 0 in
            Assocs [ { a_formal = None; a_actual = `Lef lef; a_line = line } ]
          | _ -> internal "assoc_positional");
      ];
  prod ~name:"assoc_named" ~lhs:"assoc" ~rhs:[ "expr"; "=>"; "expr" ]
    ~rules:
      [
        rule ~target:(0, "ASSOCS") ~deps:[ (1, "LEF"); (3, "LEF") ] (function
          | [ f; a ] ->
            let f = as_lef f and a = as_lef a in
            let line = match f with t :: _ -> t.Lef.l_line | [] -> 0 in
            Assocs [ { a_formal = Some f; a_actual = `Lef a; a_line = line } ]
          | _ -> internal "assoc_named");
      ];
  prod ~name:"assoc_named_open" ~lhs:"assoc" ~rhs:[ "expr"; "=>"; "open" ]
    ~rules:
      [
        rule ~target:(0, "ASSOCS") ~deps:[ (1, "LEF") ] (function
          | [ f ] ->
            let f = as_lef f in
            let line = match f with t :: _ -> t.Lef.l_line | [] -> 0 in
            Assocs [ { a_formal = Some f; a_actual = `Open; a_line = line } ]
          | _ -> internal "assoc_named_open");
      ];
  prod ~name:"assoc_open" ~lhs:"assoc" ~rhs:[ "open" ]
    ~rules:
      [
        rule ~target:(0, "ASSOCS") ~deps:[ (1, "LINE") ] (function
          | [ line ] -> Assocs [ { a_formal = None; a_actual = `Open; a_line = as_int line } ]
          | _ -> internal "assoc_open");
      ];

  (* block *)
  prod ~name:"conc_block" ~lhs:"conc"
    ~rhs:
      [
        "ID"; ":"; "block"; "guard_opt"; "decl_items"; "begin"; "concs"; "end"; "block";
        "opt_id"; ";";
      ]
    ~rules:
      ([
         rule ~target:(5, "CTX") ~deps:[] (fun _ -> Str "block");
         (* a guarded block makes GUARD visible *)
         rule ~target:(5, "ENV") ~deps:[ (0, "ENV"); (4, "OGUARD") ] (function
           | [ env; g ] -> (
             match as_opt g with
             | Some _ ->
               Env
                 (Env.extend (as_env env) "GUARD"
                    (Denot.Dobject
                       {
                         name = "GUARD";
                         cls = Denot.Csignal;
                         ty = Std.boolean;
                         mode = None;
                         slot = Denot.Sl_signal Kir.Sig_guard;
                       }))
             | None -> Env (as_env env))
           | _ -> internal "block env");
         copy ~target:(7, "ENV") ~from:(5, "ENVOUT");
         rule ~target:(7, "CTX") ~deps:[] (fun _ -> Str "block");
         rule ~target:(7, "SIGBASE") ~deps:[ (0, "SIGBASE"); (5, "REGION") ] (function
           | [ base; r ] -> Int (as_int base + (as_region r).r_signals)
           | _ -> internal "block concs sigbase");
       ]
      @ conc_rules
          ~deps:[ (0, "LEVEL"); (1, "VAL"); (1, "LINE"); (4, "OGUARD"); (5, "OUT"); (7, "OUT"); (7, "CONCS") ]
          ~msg_deps:[ 4; 5; 7 ]
          (function
            | [ level; lbl; line; guard; decl_out; conc_out; concs ] ->
              let (blk_concs, out), msgs =
                Conc_sem.block ~level:(as_int level) ~line:(as_int line)
                  ~label:(tok_id lbl)
                  ~guard:(Option.map as_lef (as_opt guard))
                  ~out:(out_append (as_out decl_out) (as_out conc_out))
                  ~body:(as_concs concs)
              in
              (blk_concs, out, msgs)
            | _ -> internal "conc_block"));
  (* concurrent procedure call: a process sensitive to the signals its
     arguments read (LRM 9.3) *)
  prod ~name:"conc_call" ~lhs:"conc" ~rhs:[ "name"; ";" ]
    ~rules:
      (conc_rules ~deps:[ (0, "LEVEL"); (1, "LEF"); (2, "LINE") ] ~msg_deps:[ 1 ]
         (function
           | [ level; name_lef; line ] ->
             let stmts, msgs =
               Stmt_sem.build_proc_call ~level:(as_int level) ~line:(as_int line)
                 (as_lef name_lef)
             in
             let sens =
               List.concat_map
                 (fun st ->
                   match st with
                   | Kir.Scall (_, args) ->
                     Kir_util.signals_read_exprs
                       (List.filter_map
                          (fun (a : Kir.call_arg) ->
                            match a.Kir.ca_mode with
                            | Kir.Arg_in | Kir.Arg_inout -> Some a.Kir.ca_expr
                            | Kir.Arg_out -> None)
                          args)
                   | _ -> [])
                 stmts
             in
             ( (if stmts = [] then []
                else
                  [
                    Kir.C_process
                      {
                        Kir.proc_label = Conc_sem.fresh_label "call";
                        proc_sensitivity = sens;
                        proc_locals = [];
                        proc_body = stmts;
                        proc_postponed_wait = true;
                      };
                  ]),
               out_empty,
               msgs )
           | _ -> internal "conc_call"));

  (* for-generate: the paper lists generate among VHDL's hardware constructs;
     expansion happens at elaboration with the parameter as a unit constant *)
  prod ~name:"conc_generate" ~lhs:"conc"
    ~rhs:
      [
        "ID"; ":"; "for"; "ID"; "in"; "discrete_range"; "generate"; "concs"; "end";
        "generate"; ";";
      ]
    ~rules:
      ([
         rule ~target:(8, "ENV")
           ~deps:[ (0, "ENV"); (0, "LEVEL"); (4, "VAL"); (4, "LINE"); (6, "RNG") ]
           (function
             | [ env; level; var_v; line; rng ] ->
               let var = tok_id var_v in
               let ty =
                 Stmt_sem.for_var_type ~level:(as_int level) ~line:(as_int line)
                   ~range:(as_rng rng)
               in
               Env
                 (Env.extend (as_env env) var
                    (Denot.Dobject
                       {
                         name = var;
                         cls = Denot.Cconstant;
                         ty;
                         mode = None;
                         slot = Denot.Sl_unit_const var;
                       }))
             | _ -> internal "generate env");
       ]
      @ conc_rules
          ~deps:
            [
              (0, "LEVEL"); (1, "VAL"); (1, "LINE"); (4, "VAL"); (6, "RNG"); (8, "CONCS");
              (8, "OUT");
            ]
          ~msg_deps:[ 6; 8 ]
          (function
            | [ level; lbl_v; line; var_v; rng; concs; out ] ->
              let level = as_int level and line = as_int line in
              let range, msgs =
                match as_rng rng with
                | `Bounds (lo_lef, d, hi_lef) ->
                  let lo = Expr_eval.eval ~level ~line lo_lef in
                  let hi = Expr_eval.eval ~level ~line hi_lef in
                  ((lo.x_code, d, hi.x_code), lo.x_msgs @ hi.x_msgs)
                | `Lef lef ->
                  let r, _, m = Expr_eval.eval_range ~level ~line lef in
                  (r, m)
              in
              let body = as_concs concs in
              let msgs =
                if
                  List.exists
                    (function Kir.C_block _ -> true | _ -> false)
                    body
                then
                  msgs
                  @ [
                      Diag.error ~line
                        "blocks inside generate statements are not supported";
                    ]
                else msgs
              in
              ( [
                  Kir.C_generate
                    {
                      gen_label = tok_id lbl_v;
                      gen_var = tok_id var_v;
                      gen_range = range;
                      gen_body = body;
                    };
                ],
                { (as_out out) with o_binds = []; o_locals = []; o_signals = [] },
                msgs )
            | _ -> internal "conc_generate"));

  (* if-generate: the body is elaborated when the (static) condition holds *)
  prod ~name:"conc_if_generate" ~lhs:"conc"
    ~rhs:[ "ID"; ":"; "if"; "expr"; "generate"; "concs"; "end"; "generate"; ";" ]
    ~rules:
      (conc_rules
         ~deps:[ (0, "LEVEL"); (1, "VAL"); (1, "LINE"); (4, "LEF"); (6, "CONCS"); (6, "OUT") ]
         ~msg_deps:[ 4; 6 ]
         (function
           | [ level; lbl_v; line; cond; concs; out ] ->
             let c, msgs =
               Stmt_sem.boolean_cond ~level:(as_int level) ~line:(as_int line) (as_lef cond)
             in
             let body = as_concs concs in
             let msgs =
               if List.exists (function Kir.C_block _ -> true | _ -> false) body then
                 msgs
                 @ [
                     Diag.error ~line:(as_int line)
                       "blocks inside generate statements are not supported";
                   ]
               else msgs
             in
             ( [ Kir.C_if_generate { ig_label = tok_id lbl_v; ig_cond = c; ig_body = body } ],
               { (as_out out) with o_binds = []; o_locals = []; o_signals = [] },
               msgs )
           | _ -> internal "conc_if_generate"));

  prod ~name:"guard_none" ~lhs:"guard_opt" ~rhs:[]
    ~rules:[ rule ~target:(0, "OGUARD") ~deps:[] (fun _ -> Opt None) ];
  prod ~name:"guard_some" ~lhs:"guard_opt" ~rhs:[ "("; "expr"; ")" ]
    ~rules:
      [
        rule ~target:(0, "OGUARD") ~deps:[ (2, "LEF") ] (function
          | [ l ] -> Opt (Some (Lef (as_lef l)))
          | _ -> internal "guard_some");
      ]
