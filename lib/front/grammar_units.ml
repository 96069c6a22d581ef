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

(* the library name of the unit whose identifier token is [v] *)
let work_name v = Str (Session.work ^ "." ^ tok_id v)

(* the inherited setup of an entity's interface list at [pos], after its
   [env] rule *)
let entity_ctx_rules env pos =
  [
    env;
    const ~target:(pos, "CTX") (Str "entity");
    rule ~target:(pos, "UNITNAME") ~deps:[ (2, "VAL") ] work_name;
    const ~target:(pos, "LEVEL") (Int (-1));
    const ~target:(pos, "SLOTBASE") (Int 0);
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
        rule ~target:(2, "CTXOUT") ~deps:[ (1, "OUT") ] (fun out -> of_out (as_out out));
      ];
  prod ~name:"design_unit_plain" ~lhs:"design_unit" ~rhs:[ "library_unit" ]
    ~rules:[ const ~target:(1, "CTXOUT") (Out Nil) ];
  prod ~name:"context_items_one" ~lhs:"context_items" ~rhs:[ "context_item" ] ~rules:[];
  prod ~name:"context_items_more" ~lhs:"context_items"
    ~rhs:[ "context_items"; "context_item" ]
    ~rules:[];
  prod ~name:"context_item_library" ~lhs:"context_item" ~rhs:[ "library_clause" ] ~rules:[];
  prod ~name:"context_item_use" ~lhs:"context_item" ~rhs:[ "use_clause" ] ~rules:[];
  prod ~name:"library_clause" ~lhs:"library_clause" ~rhs:[ "library"; "id_list"; ";" ]
    ~rules:
      (out_rules ~deps:[ (1, "LINE"); (2, "IDS") ] ~msg_deps:[] (fun line ids ->
          Decl_sem.resolve_library ~line:(as_int line) (ids_in_order ids)));

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
      (entity_ctx_rules
         (rule ~target:(4, "ENV") ~deps:[ (0, "CTXOUT") ] (fun ctxout -> Env (unit_env ctxout)))
         4
      @ entity_ctx_rules
          (rule ~target:(5, "ENV") ~deps:[ (0, "CTXOUT"); (4, "IFACES") ] (fun ctxout generics ->
               Env (generics_env (unit_env ctxout) generics)))
          5
      @ [
          (* the entity declarative part: its types/constants are visible in
             every architecture body (through the same channel as the
             entity's context clause) *)
          rule ~target:(6, "ENV")
            ~deps:[ (0, "CTXOUT"); (4, "IFACES") ]
            (fun ctxout generics -> Env (generics_env (unit_env ctxout) generics));
          const ~target:(6, "CTX") (Str "entity");
          rule ~target:(6, "UNITNAME") ~deps:[ (2, "VAL") ] work_name;
          rule ~target:(0, "UNITS")
            ~deps:
              [
                (2, "VAL"); (0, "CTXOUT"); (4, "IFACES"); (5, "IFACES"); (6, "OUT");
                (0, "NLINES");
              ]
            (fun v ctxout generics ports decls nlines ->
              let ctxout = as_out ctxout and decls = as_out decls in
              let u =
                Unit_sem.entity ~name:(tok_id v) ~generics:(ifaces_in_order generics)
                  ~ports:(ifaces_in_order ports)
                  ~source_lines:(as_int nlines)
                  ~context:(ctxout.o_binds @ decls.o_binds)
                  ~deps:(ctxout.o_deps @ decls.o_deps)
              in
              Units [ u ]);
          rule ~target:(0, "MSGS")
            ~deps:
              [
                (0, "CTXOUT"); (2, "VAL"); (2, "LINE"); (4, "MSGS"); (5, "MSGS");
                (6, "MSGS"); (6, "OUT"); (8, "OID");
              ]
            (fun _ v line m1 m2 m3 decls oid ->
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
                    ~expected:(tok_id v) endname));
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
        rule ~target:(6, "ENV") ~deps:[ (0, "CTXOUT"); (4, "VAL"); (4, "LINE") ]
          (fun ctxout ent_v line ->
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
            Env env);
        const ~target:(6, "CTX") (Str "arch");
        const ~target:(6, "LEVEL") (Int (-1));
        const ~target:(6, "SLOTBASE") (Int 0);
        rule ~target:(6, "UNITNAME") ~deps:[ (2, "VAL"); (4, "VAL") ] (fun a e ->
            Str (Printf.sprintf "%s.%s(%s)" Session.work (tok_id e) (tok_id a)));
        (* signal indices continue after the entity ports *)
        rule ~target:(6, "SIGBASE") ~deps:[ (4, "VAL"); (4, "LINE") ] (fun ent_v line ->
            match Unit_sem.find_entity ~line:(as_int line) (tok_id ent_v) with
            | Some en, _ -> Int (List.length en.Unit_info.en_ports)
            | None, _ -> Int 0);
        (* concurrent part *)
        copy ~target:(8, "ENV") ~from:(6, "ENVOUT");
        const ~target:(8, "CTX") (Str "arch");
        const ~target:(8, "LEVEL") (Int (-1));
        const ~target:(8, "SLOTBASE") (Int 0);
        rule ~target:(8, "UNITNAME") ~deps:[ (2, "VAL"); (4, "VAL") ] (fun a e ->
            Str (Printf.sprintf "%s.%s(%s)" Session.work (tok_id e) (tok_id a)));
        rule ~target:(8, "SIGBASE") ~deps:[ (6, "SIGBASE"); (6, "REGION") ] (fun base r ->
            Int (as_int base + (as_region r).r_signals));
        rule ~target:(0, "UNITS")
          ~deps:
            [
              (2, "VAL"); (4, "VAL"); (4, "LINE"); (0, "CTXOUT"); (6, "OUT"); (8, "OUT");
              (8, "CONCS"); (0, "NLINES");
            ]
          (fun arch_v ent_v line ctxout decl_out conc_out concs nlines ->
            let entity, _ = Unit_sem.find_entity ~line:(as_int line) (tok_id ent_v) in
            let out =
              out_append (as_out ctxout) (out_append (as_out decl_out) (as_out conc_out))
            in
            let u =
              Unit_sem.architecture ~name:(tok_id arch_v) ~entity_name:(tok_id ent_v)
                ~entity ~out ~body:(as_concs concs)
                ~source_lines:(as_int nlines)
            in
            Units [ u ]);
        rule ~target:(0, "MSGS")
          ~deps:
            [
              (2, "VAL"); (2, "LINE"); (4, "VAL"); (4, "LINE"); (6, "MSGS"); (8, "MSGS");
              (10, "OID");
            ]
          (fun arch_v line ent_v eline m1 m2 oid ->
            let _, emsgs = Unit_sem.find_entity ~line:(as_int eline) (tok_id ent_v) in
            let endname =
              match as_opt oid with
              | Some (Str s) -> Some s
              | _ -> None
            in
            Msgs
              (emsgs @ as_msgs m1 @ as_msgs m2
              @ Unit_sem.check_end_name ~line:(as_int line) ~kind:"architecture"
                  ~expected:(tok_id arch_v) endname));
      ];

  (* ---- package / package body ---- *)
  prod ~name:"package_decl" ~lhs:"package_decl"
    ~rhs:[ "package"; "ID"; "is"; "decl_items"; "end"; "opt_id"; ";" ]
    ~rules:
      [
        rule ~target:(4, "ENV") ~deps:[ (0, "CTXOUT") ] (fun ctxout ->
            Env (unit_env ctxout));
        rule ~target:(4, "CTX") ~deps:[ (2, "VAL") ] (fun v -> Str ("package:" ^ tok_id v));
        const ~target:(4, "LEVEL") (Int (-1));
        const ~target:(4, "SLOTBASE") (Int 0);
        const ~target:(4, "SIGBASE") (Int 0);
        rule ~target:(4, "UNITNAME") ~deps:[ (2, "VAL") ] work_name;
        rule ~target:(0, "UNITS")
          ~deps:[ (2, "VAL"); (0, "CTXOUT"); (4, "OUT"); (0, "NLINES") ]
          (fun v ctxout out nlines ->
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
            Units [ u ]);
        rule ~target:(0, "MSGS") ~deps:[ (2, "VAL"); (2, "LINE"); (4, "MSGS"); (6, "OID") ]
          (fun v line m oid ->
            let endname =
              match as_opt oid with
              | Some (Str s) -> Some s
              | _ -> None
            in
            Msgs
              (as_msgs m
              @ Unit_sem.check_end_name ~line:(as_int line) ~kind:"package"
                  ~expected:(tok_id v) endname));
      ];
  prod ~name:"package_body_u" ~lhs:"package_body_u"
    ~rhs:[ "package"; "body"; "ID"; "is"; "decl_items"; "end"; "opt_id"; ";" ]
    ~rules:
      [
        rule ~target:(5, "ENV") ~deps:[ (0, "CTXOUT"); (3, "VAL"); (3, "LINE") ]
          (fun ctxout v line ->
            let spec_binds, _ =
              Unit_sem.package_spec_env ~line:(as_int line) (tok_id v)
            in
            Env (Env.extend_many (unit_env ctxout) spec_binds));
        (* body items share the package object context, so full declarations
           of deferred constants publish their qualified values *)
        rule ~target:(5, "CTX") ~deps:[ (3, "VAL") ] (fun v -> Str ("package:" ^ tok_id v));
        const ~target:(5, "LEVEL") (Int (-1));
        const ~target:(5, "SLOTBASE") (Int 0);
        const ~target:(5, "SIGBASE") (Int 0);
        rule ~target:(5, "UNITNAME") ~deps:[ (3, "VAL") ] work_name;
        rule ~target:(0, "UNITS")
          ~deps:[ (3, "VAL"); (0, "CTXOUT"); (5, "OUT"); (0, "NLINES") ]
          (fun v ctxout out nlines ->
            let out = out_append (as_out ctxout) (as_out out) in
            let u =
              Unit_sem.package_body ~name:(tok_id v) ~out ~source_lines:(as_int nlines)
            in
            Units [ u ]);
        rule ~target:(0, "MSGS") ~deps:[ (3, "VAL"); (3, "LINE"); (5, "MSGS"); (7, "OID") ]
          (fun v line m oid ->
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
                  ~expected:name endname));
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
        rule ~target:(8, "ENV") ~deps:[ (0, "CTXOUT") ] (fun ctxout ->
            Env (unit_env ctxout));
        const ~target:(8, "CTX") (Str "arch");
        const ~target:(8, "LEVEL") (Int (-1));
        const ~target:(8, "SLOTBASE") (Int 0);
        const ~target:(8, "SIGBASE") (Int 0);
        rule ~target:(8, "UNITNAME") ~deps:[ (2, "VAL") ] work_name;
        rule ~target:(0, "SRES")
          ~deps:[ (2, "VAL"); (4, "VAL"); (4, "LINE"); (7, "VAL"); (8, "OUT"); (0, "NLINES") ]
          (fun name_v ent_v line arch_v out nlines ->
            let u, msgs =
              Unit_sem.configuration ~name:(tok_id name_v) ~entity_name:(tok_id ent_v)
                ~arch_name:(tok_id arch_v)
                ~specs:(as_out out).o_config_specs
                ~source_lines:(as_int nlines) ~line:(as_int line)
            in
            Pair (Units [ u ], Msgs msgs));
        rule ~target:(0, "UNITS") ~deps:[ (0, "SRES") ] fst_of;
        msgs_rule [ 8 ];
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
    ~rules:[ const ~target:(0, "NSIGS") (Int 0) ];
  prod ~name:"concs_more" ~lhs:"concs" ~rhs:[ "concs"; "conc" ]
    ~rules:
      [
        rule ~target:(0, "NSIGS") ~deps:[ (1, "NSIGS"); (2, "OUT") ] (fun n out ->
            Int (as_int n + List.length (as_out out).o_signals));
        rule ~target:(2, "SIGBASE") ~deps:[ (0, "SIGBASE"); (1, "NSIGS") ] (fun base n ->
            Int (as_int base + as_int n));
      ];

  (* process *)
  prod ~name:"conc_process" ~lhs:"conc"
    ~rhs:[ "process_head"; "decl_items"; "begin"; "stmts"; "end"; "process"; "opt_id"; ";" ]
    ~rules:
      ([
         const ~target:(2, "CTX") (Str "process");
         const ~target:(2, "LEVEL") (Int 0);
         const ~target:(2, "SLOTBASE") (Int 0);
         copy ~target:(4, "ENV") ~from:(2, "ENVOUT");
         const ~target:(4, "CTX") (Str "process");
         const ~target:(4, "LEVEL") (Int 0);
         const ~target:(4, "LOOPDEPTH") (Int 0);
         const ~target:(4, "RETTY") (Opt None);
       ]
      @ conc_rules
          ~deps:[ (1, "LBL"); (1, "SENS"); (1, "LINE1"); (2, "OUT"); (4, "CODE") ]
          ~msg_deps:[ 1; 2; 4 ]
          (fun lbl sens line out code ->
            let label =
              match as_opt lbl with
              | Some (Str s) -> Some s
              | _ -> None
            in
            let (concs, out), msgs =
              Conc_sem.process_stmt ~label ~sensitivity:(as_lefs sens)
                ~line:(as_int line) ~out:(as_out out) ~body:(as_stmts code)
            in
            (concs, out, msgs)));
  prod ~name:"process_head_plain" ~lhs:"process_head" ~rhs:[ "process"; "sens_opt" ]
    ~rules:
      [
        const ~target:(0, "LBL") (Opt None);
        rule ~target:(0, "SENS") ~deps:[ (2, "LEFS") ] (fun s -> Lefs (lefs_in_order s));
        rule ~target:(0, "LINE1") ~deps:[ (1, "LINE") ] (fun l -> l);
      ];
  prod ~name:"process_head_labeled" ~lhs:"process_head"
    ~rhs:[ "ID"; ":"; "process"; "sens_opt" ]
    ~rules:
      [
        rule ~target:(0, "LBL") ~deps:[ (1, "VAL") ] (fun v -> Opt (Some (Str (tok_id v))));
        rule ~target:(0, "SENS") ~deps:[ (4, "LEFS") ] (fun s -> Lefs (lefs_in_order s));
        rule ~target:(0, "LINE1") ~deps:[ (1, "LINE") ] (fun l -> l);
      ];
  prod ~name:"sens_none" ~lhs:"sens_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "LEFS") (Lefs []) ];
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
         (fun level target line guarded transport cwaves ->
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
           (concs, out_empty, msgs)));
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
         (fun level lbl target line guarded transport cwaves ->
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
           (concs, out_empty, msgs)));
  prod ~name:"cond_waves_plain" ~lhs:"cond_waves" ~rhs:[ "waveform" ]
    ~rules:
      [
        rule ~target:(0, "CWAVES") ~deps:[ (1, "WAVES") ] (fun w ->
            Cwaves [ (as_waves w, None) ]);
      ];
  prod ~name:"cond_waves_when" ~lhs:"cond_waves"
    ~rhs:[ "waveform"; "when"; "expr"; "else"; "cond_waves" ]
    ~rules:
      [
        rule ~target:(0, "CWAVES") ~deps:[ (1, "WAVES"); (3, "LEF"); (5, "CWAVES") ]
          (fun w c rest -> Cwaves ((as_waves w, Some (as_lef c)) :: as_cwaves rest));
      ];
  prod ~name:"guarded_none" ~lhs:"guarded_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "BOOLV") (Bool false) ];
  prod ~name:"guarded_some" ~lhs:"guarded_opt" ~rhs:[ "guarded" ]
    ~rules:[ const ~target:(0, "BOOLV") (Bool true) ];

  (* selected assignment *)
  let selected ~labeled =
    let off = if labeled then 2 else 0 in
    let assign label level sel target guarded transport swaves line =
      let concs, msgs =
        Conc_sem.selected_assign ~level:(as_int level) ~line:(as_int line) ~label
          ~transport:(as_bool transport) ~guarded:(as_bool guarded) (as_lef sel) (as_lef target)
          (List.rev (as_swaves swaves))
      in
      (concs, out_empty, msgs)
    in
    let deps : (_, _, _) Grammar.deps =
      [
        (off + 2, "LEF"); (off + 4, "LEF"); (off + 6, "BOOLV"); (off + 7, "BOOLV");
        (off + 8, "SWAVES"); (1, "LINE");
      ]
    in
    let msg_deps = [ off + 2; off + 4; off + 8 ] in
    prod
      ~name:(if labeled then "conc_selected_labeled" else "conc_selected")
      ~lhs:"conc"
      ~rhs:
        ((if labeled then [ "ID"; ":" ] else [])
        @ [
            "with"; "expr"; "select"; "name"; "<="; "guarded_opt"; "transport_opt";
            "selected_waves"; ";";
          ])
      ~rules:
        (if labeled then
           conc_rules ~deps:((0, "LEVEL") :: (1, "VAL") :: deps) ~msg_deps
             (fun level lbl sel target guarded transport swaves line ->
               assign (Some (tok_id lbl)) level sel target guarded transport swaves line)
         else
           conc_rules ~deps:((0, "LEVEL") :: deps) ~msg_deps
             (fun level sel target guarded transport swaves line ->
               assign None level sel target guarded transport swaves line))
  in
  selected ~labeled:false;
  selected ~labeled:true;
  prod ~name:"selected_waves_one" ~lhs:"selected_waves"
    ~rhs:[ "waveform"; "when"; "chlist" ]
    ~rules:
      [
        rule ~target:(0, "SWAVES") ~deps:[ (1, "WAVES"); (3, "CHS") ] (fun w chs ->
            Swaves [ (as_waves w, as_choices chs) ]);
      ];
  prod ~name:"selected_waves_more" ~lhs:"selected_waves"
    ~rhs:[ "selected_waves"; ","; "waveform"; "when"; "chlist" ]
    ~rules:
      [
        rule ~target:(0, "SWAVES") ~deps:[ (1, "SWAVES"); (3, "WAVES"); (5, "CHS") ]
          (fun prev w chs -> Swaves ((as_waves w, as_choices chs) :: as_swaves prev));
      ];

  (* concurrent assertion: a process sensitive to its signals *)
  let conc_assert ~labeled =
    let process lbl level line cond report severity =
      let stmts, msgs =
        Stmt_sem.build_assert ~level:(as_int level) ~line:(as_int line) ~cond:(as_lef cond)
          ~report:(Option.map as_lef (as_opt report))
          ~severity:(Option.map as_lef (as_opt severity))
      in
      let sens =
        match stmts with
        | [ Kir.Sassert { cond; _ } ] -> Kir_util.signals_read_expr cond
        | _ -> []
      in
      ( [
          Kir.C_process
            {
              Kir.proc_label =
                (match lbl with
                | Some v -> tok_id v
                | None -> Conc_sem.fresh_label "assert");
              proc_sensitivity = sens;
              proc_locals = [];
              proc_body = stmts;
              proc_postponed_wait = true;
            };
        ],
        out_empty,
        msgs )
    in
    prod
      ~name:(if labeled then "conc_assert_labeled" else "conc_assert")
      ~lhs:"conc"
      ~rhs:
        ((if labeled then [ "ID"; ":" ] else [])
        @ [ "assert"; "expr"; "report_opt"; "severity_opt"; ";" ])
      ~rules:
        (if labeled then
           conc_rules
             ~deps:[ (0, "LEVEL"); (3, "LINE"); (4, "LEF"); (5, "OLEF"); (6, "OLEF"); (1, "VAL") ]
             ~msg_deps:[ 4; 5; 6 ]
             (fun level line cond report severity v ->
               process (Some v) level line cond report severity)
         else
           conc_rules
             ~deps:[ (0, "LEVEL"); (1, "LINE"); (2, "LEF"); (3, "OLEF"); (4, "OLEF") ]
             ~msg_deps:[ 2; 3; 4 ]
             (fun level line cond report severity ->
               process None level line cond report severity))
  in
  conc_assert ~labeled:false;
  conc_assert ~labeled:true;

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
         (fun env level lbl line comp gmap pmap ->
           let concs, msgs =
             Conc_sem.instance ~env:(as_env env) ~level:(as_int level)
               ~line:(as_int line) ~label:(tok_id lbl) ~component_name:(tok_id comp)
               ~generic_map:(List.rev (as_assocs gmap))
               ~port_map:(List.rev (as_assocs pmap))
           in
           (concs, out_empty, msgs)));
  prod ~name:"gmap_none" ~lhs:"gmap_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "ASSOCS") (Assocs []) ];
  prod ~name:"gmap_some" ~lhs:"gmap_opt" ~rhs:[ "generic"; "map"; "("; "assoc_list"; ")" ]
    ~rules:[];
  prod ~name:"pmap_none" ~lhs:"pmap_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "ASSOCS") (Assocs []) ];
  prod ~name:"pmap_some" ~lhs:"pmap_opt" ~rhs:[ "port"; "map"; "("; "assoc_list"; ")" ]
    ~rules:[];
  prod ~name:"assoc_list_one" ~lhs:"assoc_list" ~rhs:[ "assoc" ] ~rules:[];
  prod ~name:"assoc_list_more" ~lhs:"assoc_list" ~rhs:[ "assoc_list"; ","; "assoc" ]
    ~rules:
      [
        rule ~target:(0, "ASSOCS") ~deps:[ (1, "ASSOCS"); (3, "ASSOCS") ] (fun a c ->
            Assocs (List.rev_append (as_assocs c) (as_assocs a)));
      ];
  prod ~name:"assoc_positional" ~lhs:"assoc" ~rhs:[ "expr" ]
    ~rules:
      [
        rule ~target:(0, "ASSOCS") ~deps:[ (1, "LEF") ] (fun lef ->
            let lef = as_lef lef in
            let line = match lef with t :: _ -> t.Lef.l_line | [] -> 0 in
            Assocs [ { a_formal = None; a_actual = `Lef lef; a_line = line } ]);
      ];
  prod ~name:"assoc_named" ~lhs:"assoc" ~rhs:[ "expr"; "=>"; "expr" ]
    ~rules:
      [
        rule ~target:(0, "ASSOCS") ~deps:[ (1, "LEF"); (3, "LEF") ] (fun f a ->
            let f = as_lef f and a = as_lef a in
            let line = match f with t :: _ -> t.Lef.l_line | [] -> 0 in
            Assocs [ { a_formal = Some f; a_actual = `Lef a; a_line = line } ]);
      ];
  prod ~name:"assoc_named_open" ~lhs:"assoc" ~rhs:[ "expr"; "=>"; "open" ]
    ~rules:
      [
        rule ~target:(0, "ASSOCS") ~deps:[ (1, "LEF") ] (fun f ->
            let f = as_lef f in
            let line = match f with t :: _ -> t.Lef.l_line | [] -> 0 in
            Assocs [ { a_formal = Some f; a_actual = `Open; a_line = line } ]);
      ];
  prod ~name:"assoc_open" ~lhs:"assoc" ~rhs:[ "open" ]
    ~rules:
      [
        rule ~target:(0, "ASSOCS") ~deps:[ (1, "LINE") ] (fun line ->
            Assocs [ { a_formal = None; a_actual = `Open; a_line = as_int line } ]);
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
         const ~target:(5, "CTX") (Str "block");
         (* a guarded block makes GUARD visible *)
         rule ~target:(5, "ENV") ~deps:[ (0, "ENV"); (4, "OGUARD") ] (fun env g ->
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
             | None -> Env (as_env env));
         copy ~target:(7, "ENV") ~from:(5, "ENVOUT");
         const ~target:(7, "CTX") (Str "block");
         rule ~target:(7, "SIGBASE") ~deps:[ (0, "SIGBASE"); (5, "REGION") ] (fun base r ->
             Int (as_int base + (as_region r).r_signals));
       ]
      @ conc_rules
          ~deps:
            [
              (0, "LEVEL"); (1, "VAL"); (1, "LINE"); (4, "OGUARD"); (5, "OUT"); (7, "OUT");
              (7, "CONCS");
            ]
          ~msg_deps:[ 4; 5; 7 ]
          (fun level lbl line guard decl_out conc_out concs ->
            let (blk_concs, out), msgs =
              Conc_sem.block ~level:(as_int level) ~line:(as_int line)
                ~label:(tok_id lbl)
                ~guard:(Option.map as_lef (as_opt guard))
                ~out:(out_append (as_out decl_out) (as_out conc_out))
                ~body:(as_concs concs)
            in
            (blk_concs, out, msgs)));
  (* concurrent procedure call: a process sensitive to the signals its
     arguments read (LRM 9.3) *)
  prod ~name:"conc_call" ~lhs:"conc" ~rhs:[ "name"; ";" ]
    ~rules:
      (conc_rules ~deps:[ (0, "LEVEL"); (1, "LEF"); (2, "LINE") ] ~msg_deps:[ 1 ]
         (fun level name_lef line ->
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
             msgs )));

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
           (fun env level var_v line rng ->
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
                     })));
       ]
      @ conc_rules
          ~deps:
            [
              (0, "LEVEL"); (1, "VAL"); (1, "LINE"); (4, "VAL"); (6, "RNG"); (8, "CONCS");
              (8, "OUT");
            ]
          ~msg_deps:[ 6; 8 ]
          (fun level lbl_v line var_v rng concs out ->
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
              msgs )));

  (* if-generate: the body is elaborated when the (static) condition holds *)
  prod ~name:"conc_if_generate" ~lhs:"conc"
    ~rhs:[ "ID"; ":"; "if"; "expr"; "generate"; "concs"; "end"; "generate"; ";" ]
    ~rules:
      (conc_rules
         ~deps:[ (0, "LEVEL"); (1, "VAL"); (1, "LINE"); (4, "LEF"); (6, "CONCS"); (6, "OUT") ]
         ~msg_deps:[ 4; 6 ]
         (fun level lbl_v line cond concs out ->
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
             msgs )));

  prod ~name:"guard_none" ~lhs:"guard_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "OGUARD") (Opt None) ];
  prod ~name:"guard_some" ~lhs:"guard_opt" ~rhs:[ "("; "expr"; ")" ]
    ~rules:
      [
        rule ~target:(0, "OGUARD") ~deps:[ (2, "LEF") ] (fun l ->
            Opt (Some (Lef (as_lef l))));
      ]
