(** Principal AG, declaration region. *)

open Pval
open Gram_util
module B = Grammar.Builder

let nonterminals =
  [
    "decl_items"; "decl_item"; "type_decl"; "type_def"; "enum_lits"; "enum_lit";
    "index_spec"; "index_specs"; "record_elems"; "record_elem"; "subtype_decl"; "subtype_ind";
    "units_part"; "unit_decls";
    "constant_decl"; "signal_decl"; "variable_decl"; "sig_kind_opt"; "id_list";
    "init_opt"; "subprog_spec"; "params_opt"; "iface_list"; "iface_elem";
    "class_opt"; "mode_opt"; "subprog_decl"; "subprog_body"; "component_decl";
    "disconnect_spec";
    "generic_clause_opt"; "port_clause_opt"; "attribute_decl"; "attribute_spec";
    "entity_class"; "alias_decl"; "use_clause"; "use_names"; "use_name";
    "config_spec1"; "inst_spec"; "binding_ind"; "arch_opt"; "opt_id";
  ]

(* The context dependencies most declarations read, as a typed prefix: a
   rule over [ctx_deps d] takes [env level unit_name ctx slot_base
   sig_base] before [d]'s parameters. *)
let ctx_deps d : (Pval.t, _, _) Grammar.deps =
  (0, "ENV") :: (0, "LEVEL") :: (0, "UNITNAME") :: (0, "CTX") :: (0, "SLOTBASE")
  :: (0, "SIGBASE") :: d

let object_context env level unit_name ctx slot_base sig_base : Decl_sem.object_context =
  {
    Decl_sem.oc_env = as_env env;
    oc_level = as_int level;
    oc_unit = as_str unit_name;
    oc_kind =
      (match String.split_on_char ':' (as_str ctx) with
      | [ "package"; name ] -> `Package name
      | [ "arch" ] -> `Architecture
      | [ "process" ] -> `Process
      | [ "subprog" ] -> `Subprogram
      | [ "entity" ] -> `Entity
      | [ "block" ] -> `Block
      | _ -> `Architecture);
    oc_slot_base = as_int slot_base;
    oc_sig_base = as_int sig_base;
  }

(* IFACES of a left-recursive list: newest first *)
let append_ifaces a c = Ifaces (List.rev_append (as_ifaces c) (as_ifaces a))

let add b =
  List.iter (fun n -> ignore (B.nonterminal b n)) nonterminals;
  let prod = B.production b in

  (* ---- shared small pieces ---- *)
  prod ~name:"id_list_one" ~lhs:"id_list" ~rhs:[ "ID" ]
    ~rules:
      [
        rule ~target:(0, "IDS") ~deps:[ (1, "VAL"); (1, "LINE") ] (fun v line ->
            Ids [ (tok_id v, as_int line) ]);
      ];
  prod ~name:"id_list_more" ~lhs:"id_list" ~rhs:[ "id_list"; ","; "ID" ]
    ~rules:
      [
        rule ~target:(0, "IDS") ~deps:[ (1, "IDS"); (3, "VAL"); (3, "LINE") ] (fun ids v line ->
            Ids ((tok_id v, as_int line) :: as_ids ids));
      ];
  prod ~name:"opt_id_none" ~lhs:"opt_id" ~rhs:[]
    ~rules:[ const ~target:(0, "OID") (Opt None) ];
  prod ~name:"opt_id_some" ~lhs:"opt_id" ~rhs:[ "ID" ]
    ~rules:
      [
        rule ~target:(0, "OID") ~deps:[ (1, "VAL") ] (fun v -> Opt (Some (Str (tok_id v))));
      ];
  prod ~name:"init_opt_none" ~lhs:"init_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "OLEF") (Opt None) ];
  prod ~name:"init_opt_some" ~lhs:"init_opt" ~rhs:[ ":="; "expr" ]
    ~rules:
      [
        rule ~target:(0, "OLEF") ~deps:[ (2, "LEF") ] (fun l -> Opt (Some l));
      ];

  (* ---- declaration item threading ----
     A region threads two values from item to item, so each item costs
     one step (paper idiom 3): ENVOUT, the environment after the items,
     whose value at items 1..k-1 is item k's ENV; and REGION, the names
     declared so far and the slot and signal counts.  An empty region's
     ENVOUT is a copy, which the plan never forces, so an empty region
     demands no environment. *)
  prod ~name:"decl_items_empty" ~lhs:"decl_items" ~rhs:[]
    ~rules:
      [
        copy ~target:(0, "ENVOUT") ~from:(0, "ENV");
        const ~target:(0, "REGION") (Region region_empty);
      ];
  prod ~name:"decl_items_more" ~lhs:"decl_items" ~rhs:[ "decl_items"; "decl_item" ]
    ~rules:
      [
        copy ~target:(2, "ENV") ~from:(1, "ENVOUT");
        rule ~target:(0, "ENVOUT") ~deps:[ (1, "ENVOUT"); (2, "OUT") ] (fun env out ->
            Env (Env.extend_many (as_env env) (as_out out).o_binds));
        rule ~target:(0, "REGION") ~deps:[ (1, "REGION"); (2, "OUT") ] (fun r out ->
            let r = as_region r and out = as_out out in
            Region
              {
                r_names =
                  List.fold_left
                    (fun names (n, d) ->
                      if Names.mem n names then names
                      else Names.add n (Denot.overloadable d) names)
                    r.r_names out.o_binds;
                r_locals = r.r_locals + List.length out.o_locals;
                r_signals = r.r_signals + List.length out.o_signals;
              });
        (* homographs: redeclaring a non-overloadable name in the same
           declarative region is an error (LRM 10.3) *)
        rule ~target:(0, "MSGS")
          ~deps:[ (1, "MSGS"); (2, "MSGS"); (1, "REGION"); (2, "OUT"); (2, "LINE1") ]
          (fun m1 m2 prev latest line ->
            let names = (as_region prev).r_names in
            let dups =
              List.filter_map
                (fun (n, d) ->
                  match Names.find_opt n names with
                  | Some overloadable when not (overloadable && Denot.overloadable d) ->
                    Some
                      (Diag.error ~line:(as_int line)
                         "%s is already declared in this region" n)
                  | _ -> None)
                (as_out latest).o_binds
            in
            Msgs (as_msgs m1 @ as_msgs m2 @ dups));
        rule ~target:(2, "SLOTBASE") ~deps:[ (0, "SLOTBASE"); (1, "REGION") ] (fun base r ->
            Int (as_int base + (as_region r).r_locals));
        rule ~target:(2, "SIGBASE") ~deps:[ (0, "SIGBASE"); (1, "REGION") ] (fun base r ->
            Int (as_int base + (as_region r).r_signals));
      ];
  List.iter
    (fun alt ->
      prod ~name:("decl_item_" ^ alt) ~lhs:"decl_item" ~rhs:[ alt ]
        ~rules:[ copy ~target:(0, "LINE1") ~from:(1, "LINE1") ])
    [
      "type_decl"; "subtype_decl"; "constant_decl"; "signal_decl"; "variable_decl";
      "subprog_decl"; "subprog_body"; "component_decl"; "attribute_decl";
      "attribute_spec"; "alias_decl"; "use_clause"; "config_spec1";
      "disconnect_spec";
    ];

  (* disconnection specification: disconnect s1, s2 : type after expr ; *)
  prod ~name:"disconnect_spec" ~lhs:"disconnect_spec"
    ~rhs:[ "disconnect"; "name_list"; ":"; "name"; "after"; "expr"; ";" ]
    ~rules:
      (first_line :: out_rules
         ~deps:[ (0, "LEVEL"); (1, "LINE"); (2, "LEFS"); (6, "LEF") ]
         ~msg_deps:[ 2; 4; 6 ]
         (fun level line names after ->
           Decl_sem.disconnect_spec ~level:(as_int level) ~line:(as_int line)
             (lefs_in_order names) (as_lef after)));

  (* ---- types ---- *)
  prod ~name:"type_decl" ~lhs:"type_decl" ~rhs:[ "type"; "ID"; "is"; "type_def"; ";" ]
    ~rules:
      (first_line
       :: out_rules ~deps:[ (2, "VAL"); (4, "TYDEF") ] ~msg_deps:[ 4 ] (fun v tydef ->
          let name = tok_id v in
          let ty, extra_binds = (as_tydef tydef) name in
          ({ out_empty with o_binds = ((name, Denot.Dtype ty) :: extra_binds) }, [])));
  prod ~name:"type_def_enum" ~lhs:"type_def" ~rhs:[ "("; "enum_lits"; ")" ]
    ~rules:
      [
        rule ~target:(0, "TYDEF") ~deps:[ (0, "UNITNAME"); (2, "IDS") ] (fun unit_name lits ->
            Decl_sem.enum_type_def ~unit_name:(as_str unit_name) (ids_in_order lits));
      ];
  prod ~name:"type_def_range" ~lhs:"type_def"
    ~rhs:[ "range"; "simpleexpr"; "direction"; "simpleexpr" ]
    ~rules:
      [
        rule ~target:(0, "TYDEF")
          ~deps:[ (0, "UNITNAME"); (0, "LEVEL"); (1, "LINE"); (2, "LEF"); (3, "DIR"); (4, "LEF") ]
          (fun unit_name level line lo d hi ->
            let unit_name = as_str unit_name in
            let level = as_int level in
            let line = as_int line in
            let dir = if as_str d = "to" then Types.To else Types.Downto in
            let lo_lef = as_lef lo and hi_lef = as_lef hi in
            Tydef
              (fun name ->
                let probe = Expr_eval.eval ~level ~line lo_lef in
                let base_name = Decl_sem.qualify ~unit_name name in
                match probe.x_ty.Types.kind with
                | Types.Kfloat ->
                  let evf lef =
                    match (Expr_eval.eval ~expected:Std.real ~level ~line lef).x_static with
                    | Some v -> Value.as_float v
                    | None -> 0.0
                  in
                  ( {
                      Types.base = base_name;
                      kind = Types.Kfloat;
                      constr = Some (Types.Cfloat_range (evf lo_lef, dir, evf hi_lef));
                    },
                    [] )
                | _ ->
                  let evi lef =
                    match
                      (Expr_eval.eval ~expected:Std.integer ~level ~line lef).x_static
                    with
                    | Some v -> Value.as_int v
                    | None -> 0
                  in
                  ( {
                      Types.base = base_name;
                      kind = Types.Kint;
                      constr = Some (Types.Crange (evi lo_lef, dir, evi hi_lef));
                    },
                    [] )));
      ];
  (* user-defined physical types: range constraint + units declarations *)
  prod ~name:"type_def_physical" ~lhs:"type_def"
    ~rhs:[ "range"; "simpleexpr"; "direction"; "simpleexpr"; "units_part" ]
    ~rules:
      [
        rule ~target:(0, "TYDEF")
          ~deps:
            [
              (0, "UNITNAME"); (0, "LEVEL"); (1, "LINE"); (2, "LEF"); (3, "DIR");
              (4, "LEF"); (5, "PUNITS");
            ]
          (fun unit_name level line lo d hi punits ->
            let unit_name = as_str unit_name in
            let level = as_int level in
            let line = as_int line in
            let dir = if as_str d = "to" then Types.To else Types.Downto in
            let lo_lef = as_lef lo and hi_lef = as_lef hi in
            let decls = List.rev (as_phys_units punits) in
            Tydef
              (fun name ->
                let evi lef =
                  match
                    (Expr_eval.eval ~expected:Std.integer ~level ~line lef).x_static
                  with
                  | Some v -> Value.as_int v
                  | None -> 0
                in
                (* resolve secondary units left to right *)
                let scales = Hashtbl.create 8 in
                let units =
                  List.map
                    (fun (uname, mult, base, _uline) ->
                      let scale =
                        match base with
                        | None -> 1 (* the primary unit *)
                        | Some b -> (
                          match Hashtbl.find_opt scales b with
                          | Some s -> mult * s
                          | None -> mult)
                      in
                      Hashtbl.replace scales uname scale;
                      (uname, scale))
                    decls
                in
                let ty =
                  {
                    Types.base = Decl_sem.qualify ~unit_name name;
                    kind = Types.Kphys units;
                    constr = Some (Types.Crange (evi lo_lef, dir, evi hi_lef));
                  }
                in
                let binds =
                  List.map
                    (fun (uname, scale) ->
                      (uname, Denot.Dphys_unit { ty; scale; image = uname }))
                    units
                in
                (ty, binds)));
      ];
  prod ~name:"units_part" ~lhs:"units_part" ~rhs:[ "units"; "unit_decls"; "end"; "units" ]
    ~rules:[ copy ~target:(0, "PUNITS") ~from:(2, "PUNITS") ];
  prod ~name:"unit_decls_primary" ~lhs:"unit_decls" ~rhs:[ "ID"; ";" ]
    ~rules:
      [
        rule ~target:(0, "PUNITS") ~deps:[ (1, "VAL"); (1, "LINE") ] (fun v line ->
            Phys_units [ (tok_id v, 1, None, as_int line) ]);
      ];
  prod ~name:"unit_decls_secondary" ~lhs:"unit_decls"
    ~rhs:[ "unit_decls"; "ID"; "="; "INT"; "ID"; ";" ]
    ~rules:
      [
        rule ~target:(0, "PUNITS")
          ~deps:[ (1, "PUNITS"); (2, "VAL"); (2, "LINE"); (4, "VAL"); (5, "VAL") ]
          (fun prev name_v line mult_v base_v ->
            let mult =
              match as_tok mult_v with
              | Token.Tint n -> n
              | _ -> internal "unit multiplier"
            in
            Phys_units
              ((tok_id name_v, mult, Some (tok_id base_v), as_int line)
              :: as_phys_units prev));
      ];

  prod ~name:"type_def_array" ~lhs:"type_def"
    ~rhs:[ "array"; "("; "index_specs"; ")"; "of"; "subtype_ind" ]
    ~rules:
      [
        rule ~target:(0, "TYDEF")
          ~deps:[ (0, "UNITNAME"); (0, "LEVEL"); (1, "LINE"); (3, "IXS"); (6, "STY") ]
          (fun unit_name level line ixs sty ->
            let unit_name = as_str unit_name in
            let level = as_int level in
            let line = as_int line in
            let elem_ty, _ = as_sty sty in
            Tydef
              (fun name ->
                let base_name = Decl_sem.qualify ~unit_name name in
                let one_dim ~base_name elem_ty spec =
                  match as_pair spec with
                  | Str "unconstrained", Lef mark_lef ->
                    let rs = Decl_sem.resolve_subtype ~level ~line mark_lef in
                    {
                      Types.base = base_name;
                      kind = Types.Karray { index = rs.Decl_sem.rs_ty; elem = elem_ty };
                      constr = None;
                    }
                  | Str "constrained", Rng rng ->
                    let (lo, d, hi), ity, _ =
                      match rng with
                      | `Bounds (lo_lef, d, hi_lef) ->
                        let lo = Expr_eval.eval ~level ~line lo_lef in
                        let hi = Expr_eval.eval ~level ~line hi_lef in
                        ((lo.x_code, d, hi.x_code), Some lo.x_ty, [])
                      | `Lef lef -> Expr_eval.eval_range ~level ~line lef
                    in
                    let static e =
                      match Const_eval.eval_opt Const_eval.none e with
                      | Some v -> Value.as_int v
                      | None -> 0
                    in
                    let index_ty = Option.value ity ~default:Std.integer in
                    {
                      Types.base = base_name;
                      kind = Types.Karray { index = index_ty; elem = elem_ty };
                      constr = Some (Types.Crange (static lo, d, static hi));
                    }
                  | _ -> internal "type_def_array ixs"
                in
                match List.rev (as_plist ixs) with
                | [ single ] -> (one_dim ~base_name elem_ty single, [])
                | specs ->
                  (* multi-dimensional arrays lower to nested arrays:
                     m(i, j) becomes m(i)(j); inner dimensions get
                     distinct anonymous base names for type identity *)
                  let n = List.length specs in
                  let ty, _ =
                    List.fold_right
                      (fun spec (elem, dim) ->
                        let base_name =
                          if dim = 1 then base_name
                          else Printf.sprintf "%s%%DIM%d%%" base_name dim
                        in
                        (one_dim ~base_name elem spec, dim - 1))
                      specs (elem_ty, n)
                  in
                  (ty, [])));
      ];
  (* access type: type ptr is access T (LRM 3.3) *)
  prod ~name:"type_def_access" ~lhs:"type_def" ~rhs:[ "access"; "subtype_ind" ]
    ~rules:
      [
        rule ~target:(0, "TYDEF") ~deps:[ (0, "UNITNAME"); (2, "STY") ] (fun unit_name sty ->
            let designated, _ = as_sty sty in
            Tydef
              (fun name ->
                ( {
                    Types.base = Decl_sem.qualify ~unit_name:(as_str unit_name) name;
                    kind = Types.Kaccess designated;
                    constr = None;
                  },
                  [] )));
      ];
  prod ~name:"type_def_record" ~lhs:"type_def" ~rhs:[ "record"; "record_elems"; "end"; "record" ]
    ~rules:
      [
        rule ~target:(0, "TYDEF") ~deps:[ (0, "UNITNAME"); (2, "IFACES") ]
          (fun unit_name ifaces ->
            let fields =
              List.concat_map
                (fun i -> List.map (fun (n, _) -> (n, i.if_ty)) i.if_names)
                (ifaces_in_order ifaces)
            in
            Decl_sem.record_type_def ~unit_name:(as_str unit_name) ~fields);
      ];
  prod ~name:"index_specs_one" ~lhs:"index_specs" ~rhs:[ "index_spec" ]
    ~rules:
      [
        rule ~target:(0, "IXS") ~deps:[ (1, "IXS") ] (fun x -> Plist [ x ]);
      ];
  prod ~name:"index_specs_more" ~lhs:"index_specs"
    ~rhs:[ "index_specs"; ","; "index_spec" ]
    ~rules:
      [
        rule ~target:(0, "IXS") ~deps:[ (1, "IXS"); (3, "IXS") ] (fun xs x ->
            Plist (x :: as_plist xs));
      ];
  prod ~name:"index_spec_range" ~lhs:"index_spec" ~rhs:[ "discrete_range" ]
    ~rules:
      [
        rule ~target:(0, "IXS") ~deps:[ (1, "RNG") ] (fun r -> Pair (Str "constrained", r));
      ];
  prod ~name:"index_spec_box" ~lhs:"index_spec" ~rhs:[ "name"; "range"; "<>" ]
    ~rules:
      [
        rule ~target:(0, "IXS") ~deps:[ (1, "LEF") ] (fun l ->
            Pair (Str "unconstrained", Lef (as_lef l)));
      ];
  prod ~name:"record_elems_one" ~lhs:"record_elems" ~rhs:[ "record_elem" ] ~rules:[];
  prod ~name:"record_elems_more" ~lhs:"record_elems" ~rhs:[ "record_elems"; "record_elem" ]
    ~rules:
      [
        rule ~target:(0, "IFACES") ~deps:[ (1, "IFACES"); (2, "IFACES") ] append_ifaces;
      ];
  prod ~name:"record_elem" ~lhs:"record_elem" ~rhs:[ "id_list"; ":"; "subtype_ind"; ";" ]
    ~rules:
      [
        rule ~target:(0, "IFACES") ~deps:[ (1, "IDS"); (3, "STY") ] (fun ids sty ->
            let ty, _ = as_sty sty in
            Ifaces
              [
                {
                  if_names = ids_in_order ids;
                  if_class = None;
                  if_mode = None;
                  if_ty = ty;
                  if_resolution = None;
                  if_default = None;
                  if_default_msgs = [];
                  if_bus = false;
                };
              ]);
      ];
  prod ~name:"enum_lits_one" ~lhs:"enum_lits" ~rhs:[ "enum_lit" ] ~rules:[];
  prod ~name:"enum_lits_more" ~lhs:"enum_lits" ~rhs:[ "enum_lits"; ","; "enum_lit" ]
    ~rules:
      [
        rule ~target:(0, "IDS") ~deps:[ (1, "IDS"); (3, "IDS") ] (fun a c ->
            Ids (List.rev_append (as_ids c) (as_ids a)));
      ];
  prod ~name:"enum_lit_id" ~lhs:"enum_lit" ~rhs:[ "ID" ]
    ~rules:
      [
        rule ~target:(0, "IDS") ~deps:[ (1, "VAL"); (1, "LINE") ] (fun v line ->
            Ids [ (tok_id v, as_int line) ]);
      ];
  prod ~name:"enum_lit_char" ~lhs:"enum_lit" ~rhs:[ "CHAR" ]
    ~rules:
      [
        rule ~target:(0, "IDS") ~deps:[ (1, "VAL"); (1, "LINE") ] (fun v line ->
            match as_tok v with
            | Token.Tchar image -> Ids [ (image, as_int line) ]
            | _ -> internal "CHAR token");
      ];

  (* ---- subtypes ---- *)
  prod ~name:"subtype_decl" ~lhs:"subtype_decl" ~rhs:[ "subtype"; "ID"; "is"; "subtype_ind"; ";" ]
    ~rules:
      (first_line
       :: out_rules ~deps:[ (2, "VAL"); (4, "STY") ] ~msg_deps:[ 4 ] (fun v sty ->
          let name = tok_id v in
          let ty, _ = as_sty sty in
          ({ out_empty with o_binds = [ (name, Denot.Dsubtype ty) ] }, [])));
  let sty_rules ~deps ~msg_deps f =
    [
      B.rule_map
        (fun rs ->
          Pair
            ( Sty { ty = rs.Decl_sem.rs_ty; resolution = rs.Decl_sem.rs_resolution },
              Msgs rs.Decl_sem.rs_msgs ))
        ~target:(0, "SRES") ~deps f;
      rule ~target:(0, "STY") ~deps:[ (0, "SRES") ] fst_of;
      msgs_rule msg_deps;
    ]
  in
  let lef_line lef = match lef with t :: _ -> t.Lef.l_line | [] -> 0 in
  prod ~name:"subtype_ind_mark" ~lhs:"subtype_ind" ~rhs:[ "name" ]
    ~rules:
      (sty_rules ~deps:[ (0, "LEVEL"); (1, "LEF") ] ~msg_deps:[ 1 ] (fun level lef ->
          let lef = as_lef lef in
          Decl_sem.resolve_subtype ~level:(as_int level) ~line:(lef_line lef) lef));
  prod ~name:"subtype_ind_resolved" ~lhs:"subtype_ind" ~rhs:[ "name"; "name" ]
    ~rules:
      (sty_rules
         ~deps:[ (0, "LEVEL"); (1, "LEF"); (2, "LEF") ]
         ~msg_deps:[ 1; 2 ]
         (fun level rlef mark_lef ->
           let lef = as_lef rlef @ as_lef mark_lef in
           Decl_sem.resolve_subtype ~level:(as_int level) ~line:(lef_line lef) lef));
  prod ~name:"subtype_ind_range" ~lhs:"subtype_ind"
    ~rhs:[ "name"; "range"; "simpleexpr"; "direction"; "simpleexpr" ]
    ~rules:
      (sty_rules
         ~deps:[ (0, "LEVEL"); (1, "LEF"); (3, "LEF"); (4, "DIR"); (5, "LEF") ]
         ~msg_deps:[ 1; 3; 5 ]
         (fun level mark lo d hi ->
           let dir = if as_str d = "to" then Types.To else Types.Downto in
           Decl_sem.resolve_range_subtype ~level:(as_int level)
             ~line:(lef_line (as_lef mark)) (as_lef mark) (as_lef lo) dir (as_lef hi)));

  (* ---- objects ---- *)
  (* a name repeated in one declaration's identifier list is a homograph
     of the first, as a repeat in a later declaration is *)
  let check_repeats ids (out, msgs) =
    let _, repeats =
      List.fold_left
        (fun (seen, repeats) (n, line) ->
          if Names.mem n seen then
            (seen, Diag.error ~line "%s is already declared in this region" n :: repeats)
          else (Names.add n () seen, repeats))
        (Names.empty, []) ids
    in
    (out, msgs @ List.rev repeats)
  in
  let init_lef init = Option.fold ~none:[] ~some:as_lef (as_opt init) in
  let object_decl kw decl =
    prod ~name:(kw ^ "_decl") ~lhs:(kw ^ "_decl")
      ~rhs:[ kw; "id_list"; ":"; "subtype_ind"; "init_opt"; ";" ]
      ~rules:
        (first_line :: out_rules
           ~deps:(ctx_deps [ (1, "LINE"); (2, "IDS"); (4, "STY"); (5, "OLEF") ])
           ~msg_deps:[ 4 ]
           (fun env level unit_name ctx slot_base sig_base line ids sty init ->
             let oc = object_context env level unit_name ctx slot_base sig_base in
             let ids = ids_in_order ids in
             decl oc ~line:(as_int line) ids (fst (as_sty sty)) (init_lef init)
             |> check_repeats ids))
  in
  object_decl "constant" Decl_sem.constant_decl;
  prod ~name:"signal_decl" ~lhs:"signal_decl"
    ~rhs:[ "signal"; "id_list"; ":"; "subtype_ind"; "sig_kind_opt"; "init_opt"; ";" ]
    ~rules:
      (first_line :: out_rules
         ~deps:(ctx_deps [ (1, "LINE"); (2, "IDS"); (4, "SRES"); (5, "SKIND"); (6, "OLEF") ])
         ~msg_deps:[ 4 ]
         (fun env level unit_name ctx slot_base sig_base line ids sres skind init ->
           let oc = object_context env level unit_name ctx slot_base sig_base in
           let ty, resolution = as_sty (fst_of sres) in
           let rs = { Decl_sem.rs_ty = ty; rs_resolution = resolution; rs_msgs = [] } in
           let kind =
             match as_str skind with
             | "bus" -> `Bus
             | "register" -> `Register
             | _ -> `Plain
           in
           let ids = ids_in_order ids in
           Decl_sem.signal_decl oc ~line:(as_int line) ids rs ~kind (init_lef init)
           |> check_repeats ids));
  prod ~name:"sig_kind_none" ~lhs:"sig_kind_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "SKIND") (Str "plain") ];
  prod ~name:"sig_kind_bus" ~lhs:"sig_kind_opt" ~rhs:[ "bus" ]
    ~rules:[ const ~target:(0, "SKIND") (Str "bus") ];
  prod ~name:"sig_kind_register" ~lhs:"sig_kind_opt" ~rhs:[ "register" ]
    ~rules:[ const ~target:(0, "SKIND") (Str "register") ];
  object_decl "variable" Decl_sem.variable_decl;

  (* ---- interfaces ---- *)
  (* An interface list threads its names: an element may not be named in
     the list that declares it (LRM 4.3.3.1), yet its scope has begun, so it
     hides a homograph a use clause made visible (LRM 10.3).  Bound as a
     label, an earlier element classifies as a plain identifier: reading it
     is a syntax error, as reading an undeclared name is. *)
  prod ~name:"iface_list_one" ~lhs:"iface_list" ~rhs:[ "iface_elem" ] ~rules:[];
  prod ~name:"iface_list_more" ~lhs:"iface_list" ~rhs:[ "iface_list"; ";"; "iface_elem" ]
    ~rules:
      [
        rule ~target:(3, "ENV") ~deps:[ (0, "ENV"); (1, "IFACES") ] (fun env earlier ->
            let hide i = List.map (fun (n, _) -> (n, Denot.Dlabel n)) i.if_names in
            Env (Env.extend_many (as_env env) (List.concat_map hide (as_ifaces earlier))));
        rule ~target:(0, "IFACES") ~deps:[ (1, "IFACES"); (3, "IFACES") ] append_ifaces;
      ];
  prod ~name:"iface_elem" ~lhs:"iface_elem"
    ~rhs:[ "class_opt"; "id_list"; ":"; "mode_opt"; "subtype_ind"; "init_opt" ]
    ~rules:
      [
        rule ~target:(0, "IFACES")
          ~deps:
            [
              (0, "LEVEL"); (1, "OCLS"); (2, "IDS"); (4, "OMODE"); (5, "SRES"); (6, "OLEF");
            ]
          (fun level ocls ids omode sres init ->
            let sty_v, _ = as_pair sres in
            let ty, resolution = as_sty sty_v in
            let if_class =
              match as_opt ocls with
              | Some (Str "signal") -> Some Denot.Csignal
              | Some (Str "constant") -> Some Denot.Cconstant
              | Some (Str "variable") -> Some Denot.Cvariable
              | _ -> None
            in
            let if_mode =
              match as_opt omode with
              | Some (Str "in") -> Some Kir.Arg_in
              | Some (Str "out") | Some (Str "buffer") -> Some Kir.Arg_out
              | Some (Str "inout") -> Some Kir.Arg_inout
              | _ -> None
            in
            let ids = ids_in_order ids in
            let line = match ids with (_, l) :: _ -> l | [] -> 0 in
            let if_default, if_default_msgs =
              match as_opt init with
              | Some l ->
                Decl_sem.eval_default ~level:(as_int level) ~line ~ty (as_lef l)
              | None -> (None, [])
            in
            Ifaces
              [
                {
                  if_names = ids;
                  if_class;
                  if_mode;
                  if_ty = ty;
                  if_resolution = resolution;
                  if_default;
                  if_default_msgs;
                  if_bus = false;
                };
              ]);
        rule ~target:(0, "MSGS") ~deps:[ (5, "MSGS"); (0, "IFACES") ] (fun m ifaces ->
            Msgs
              (as_msgs m @ List.concat_map (fun i -> i.if_default_msgs) (as_ifaces ifaces)));
      ];
  prod ~name:"class_opt_none" ~lhs:"class_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "OCLS") (Opt None) ];
  List.iter
    (fun kw ->
      prod ~name:("class_opt_" ^ kw) ~lhs:"class_opt" ~rhs:[ kw ]
        ~rules:[ const ~target:(0, "OCLS") (Opt (Some (Str kw))) ])
    [ "signal"; "constant"; "variable" ];
  prod ~name:"mode_opt_none" ~lhs:"mode_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "OMODE") (Opt None) ];
  List.iter
    (fun kw ->
      prod ~name:("mode_opt_" ^ kw) ~lhs:"mode_opt" ~rhs:[ kw ]
        ~rules:[ const ~target:(0, "OMODE") (Opt (Some (Str kw))) ])
    [ "in"; "out"; "inout"; "buffer" ];

  (* ---- subprograms ---- *)
  prod ~name:"subprog_spec_function" ~lhs:"subprog_spec"
    ~rhs:[ "function"; "ID"; "params_opt"; "return"; "name" ]
    ~rules:
      [
        first_line;
        rule ~target:(0, "SPEC")
          ~deps:[ (0, "LEVEL"); (1, "LINE"); (2, "VAL"); (3, "IFACES"); (5, "LEF") ]
          (fun level line v params ret_lef ->
            let rs =
              Decl_sem.resolve_subtype ~level:(as_int level) ~line:(as_int line)
                (as_lef ret_lef)
            in
            Spec
              {
                sp_kind = `Function;
                sp_name = tok_id v;
                sp_line = as_int line;
                sp_params = ifaces_in_order params;
                sp_ret = Some rs.Decl_sem.rs_ty;
              });
      ];
  (* operator functions: [function "+" (a, b : vec) return vec] (LRM 2.1) *)
  prod ~name:"subprog_spec_op_function" ~lhs:"subprog_spec"
    ~rhs:[ "function"; "STRING"; "params_opt"; "return"; "name" ]
    ~rules:
      [
        first_line;
        rule ~target:(0, "SPEC")
          ~deps:[ (0, "LEVEL"); (2, "LINE"); (2, "VAL"); (3, "IFACES"); (5, "LEF") ]
          (fun level line v params ret_lef ->
            let rs =
              Decl_sem.resolve_subtype ~level:(as_int level) ~line:(as_int line)
                (as_lef ret_lef)
            in
            Spec
              {
                sp_kind = `Function;
                sp_name = Lef.operator_key (tok_string v);
                sp_line = as_int line;
                sp_params = ifaces_in_order params;
                sp_ret = Some rs.Decl_sem.rs_ty;
              });
        rule ~target:(0, "MSGS")
          ~deps:[ (2, "VAL"); (2, "LINE"); (3, "IFACES"); (3, "MSGS"); (5, "MSGS") ]
          (fun v line params m1 m2 ->
            let line = as_int line in
            let sym = String.lowercase_ascii (tok_string v) in
            let arity =
              List.fold_left
                (fun n (i : Pval.iface) -> n + List.length i.Pval.if_names)
                0 (as_ifaces params)
            in
            let own =
              if not (List.mem sym Lef.operator_symbols) then
                [ Diag.error ~line "\"%s\" is not an operator symbol" sym ]
              else begin
                let unary_ok = List.mem sym [ "+"; "-"; "abs"; "not" ] in
                let binary_ok = not (List.mem sym [ "abs"; "not" ]) in
                if (arity = 1 && unary_ok) || (arity = 2 && binary_ok) then []
                else
                  [
                    Diag.error ~line
                      "operator \"%s\" cannot be declared with %d parameter%s" sym
                      arity
                      (if arity = 1 then "" else "s");
                  ]
              end
            in
            Msgs (as_msgs m1 @ as_msgs m2 @ own));
      ];
  prod ~name:"subprog_spec_procedure" ~lhs:"subprog_spec"
    ~rhs:[ "procedure"; "ID"; "params_opt" ]
    ~rules:
      [
        first_line;
        rule ~target:(0, "SPEC") ~deps:[ (1, "LINE"); (2, "VAL"); (3, "IFACES") ]
          (fun line v params ->
            Spec
              {
                sp_kind = `Procedure;
                sp_name = tok_id v;
                sp_line = as_int line;
                sp_params = ifaces_in_order params;
                sp_ret = None;
              });
      ];
  prod ~name:"params_opt_none" ~lhs:"params_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "IFACES") (Ifaces []) ];
  prod ~name:"params_opt_some" ~lhs:"params_opt" ~rhs:[ "("; "iface_list"; ")" ] ~rules:[];
  prod ~name:"subprog_decl" ~lhs:"subprog_decl" ~rhs:[ "subprog_spec"; ";" ]
    ~rules:
      (copy ~target:(0, "LINE1") ~from:(1, "LINE1")
       :: out_rules ~deps:[ (0, "UNITNAME"); (1, "SPEC") ] ~msg_deps:[ 1 ] (fun unit_name spec ->
          let spec = as_spec spec in
          let s = Decl_sem.subprog_sig ~unit_name:(as_str unit_name) spec in
          ( { out_empty with o_binds = [ (s.Denot.ss_name, Denot.Dsubprog s) ] },
            Decl_sem.validate_spec ~line:spec.sp_line s )));
  prod ~name:"subprog_body" ~lhs:"subprog_body"
    ~rhs:[ "subprog_spec"; "is"; "decl_items"; "begin"; "stmts"; "end"; "opt_id"; ";" ]
    ~rules:
      [
        copy ~target:(0, "LINE1") ~from:(1, "LINE1");
        (* inner environment: own signature (recursion) + parameters *)
        rule ~target:(3, "ENV")
          ~deps:[ (0, "ENV"); (0, "LEVEL"); (0, "UNITNAME"); (1, "SPEC") ]
          (fun env level unit_name spec ->
            let s = Decl_sem.subprog_sig ~unit_name:(as_str unit_name) (as_spec spec) in
            let env = Env.extend (as_env env) s.Denot.ss_name (Denot.Dsubprog s) in
            Env (Env.extend_many env (Decl_sem.param_binds ~level:(as_int level + 1) s)));
        rule ~target:(3, "LEVEL") ~deps:[ (0, "LEVEL") ] (fun l -> Int (as_int l + 1));
        rule ~target:(3, "SLOTBASE") ~deps:[ (1, "SPEC") ] (fun spec ->
            Int
              (List.fold_left
                 (fun n i -> n + List.length i.if_names)
                 0 (as_spec spec).sp_params));
        const ~target:(3, "CTX") (Str "subprog");
        copy ~target:(5, "ENV") ~from:(3, "ENVOUT");
        rule ~target:(5, "LEVEL") ~deps:[ (3, "LEVEL") ] (fun l -> l);
        const ~target:(5, "CTX") (Str "subprog");
        const ~target:(5, "LOOPDEPTH") (Int 0);
        rule ~target:(5, "RETTY") ~deps:[ (1, "SPEC") ] (fun spec ->
            match (as_spec spec).sp_ret with
            | Some ty -> Opt (Some (Sty { ty; resolution = None }))
            | None -> Opt None);
        rule ~target:(0, "OUT")
          ~deps:[ (0, "UNITNAME"); (0, "LEVEL"); (1, "SPEC"); (3, "OUT"); (5, "CODE") ]
          (fun unit_name level spec out code ->
            let spec = as_spec spec in
            let s = Decl_sem.subprog_sig ~unit_name:(as_str unit_name) spec in
            let out = as_out out in
            let params =
              List.map
                (fun (p : Denot.param) ->
                  { Kir.l_name = p.Denot.p_name; l_ty = p.Denot.p_ty; l_init = p.Denot.p_default })
                s.Denot.ss_params
            in
            let subp =
              {
                Kir.sub_name = s.Denot.ss_mangled;
                sub_kind = spec.sp_kind;
                sub_params = params;
                sub_param_modes = List.map (fun (p : Denot.param) -> p.Denot.p_mode) s.Denot.ss_params;
                sub_locals = out.o_locals;
                sub_ret = spec.sp_ret;
                sub_level = as_int level + 1;
                sub_body = as_stmts code;
              }
            in
            of_out
              {
                out_empty with
                o_binds = [ (s.Denot.ss_name, Denot.Dsubprog s) ];
                o_subprograms = out.o_subprograms @ [ subp ];
                o_deps = out.o_deps;
              });
        rule ~target:(0, "MSGS")
          ~deps:
            [ (0, "UNITNAME"); (1, "SPEC"); (1, "MSGS"); (3, "MSGS"); (5, "MSGS"); (7, "MSGS") ]
          (fun unit_name spec m1 m3 m5 m7 ->
            let spec = as_spec spec in
            let s = Decl_sem.subprog_sig ~unit_name:(as_str unit_name) spec in
            Msgs
              (as_msgs m1 @ as_msgs m3 @ as_msgs m5 @ as_msgs m7
              @ Decl_sem.validate_spec ~line:spec.sp_line s));
      ];

  (* ---- components, attributes, aliases ---- *)
  prod ~name:"generic_clause_none" ~lhs:"generic_clause_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "IFACES") (Ifaces []) ];
  prod ~name:"generic_clause_some" ~lhs:"generic_clause_opt"
    ~rhs:[ "generic"; "("; "iface_list"; ")"; ";" ]
    ~rules:[];
  prod ~name:"port_clause_none" ~lhs:"port_clause_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "IFACES") (Ifaces []) ];
  prod ~name:"port_clause_some" ~lhs:"port_clause_opt"
    ~rhs:[ "port"; "("; "iface_list"; ")"; ";" ]
    ~rules:[];
  prod ~name:"component_decl" ~lhs:"component_decl"
    ~rhs:[ "component"; "ID"; "generic_clause_opt"; "port_clause_opt"; "end"; "component"; ";" ]
    ~rules:
      (first_line
       :: rule ~target:(4, "ENV") ~deps:[ (0, "ENV"); (3, "IFACES") ] (fun env generics ->
           Env (generics_env (as_env env) generics))
       :: out_rules
         ~deps:[ (1, "LINE"); (2, "VAL"); (3, "IFACES"); (4, "IFACES") ]
         ~msg_deps:[ 3; 4 ]
         (fun line v generics ports ->
           Decl_sem.component_decl ~line:(as_int line) ~name:(tok_id v)
             ~generics:(ifaces_in_order generics) ~ports:(ifaces_in_order ports)));
  prod ~name:"attribute_decl" ~lhs:"attribute_decl"
    ~rhs:[ "attribute"; "ID"; ":"; "name"; ";" ]
    ~rules:
      (first_line :: out_rules
         ~deps:[ (0, "LEVEL"); (1, "LINE"); (2, "VAL"); (4, "LEF") ]
         ~msg_deps:[ 4 ]
         (fun level line v ty_lef ->
           Decl_sem.attribute_decl ~line:(as_int line) ~name:(tok_id v) (as_lef ty_lef)
             ~level:(as_int level)));
  prod ~name:"attribute_spec" ~lhs:"attribute_spec"
    ~rhs:[ "attribute"; "ID"; "of"; "ID"; ":"; "entity_class"; "is"; "expr"; ";" ]
    ~rules:
      (first_line :: out_rules
         ~deps:[ (0, "ENV"); (0, "LEVEL"); (1, "LINE"); (2, "VAL"); (4, "VAL"); (8, "LEF") ]
         ~msg_deps:[ 8 ]
         (fun env level line attr_v of_v value_lef ->
           Decl_sem.attribute_spec ~env:(as_env env) ~line:(as_int line)
             ~attr:(tok_id attr_v) ~of_name:(tok_id of_v) (as_lef value_lef)
             ~level:(as_int level)));
  List.iter
    (fun kw -> prod ~name:("entity_class_" ^ kw) ~lhs:"entity_class" ~rhs:[ kw ] ~rules:[])
    [ "signal"; "constant"; "variable"; "type"; "entity"; "architecture"; "label"; "component" ];
  prod ~name:"alias_decl" ~lhs:"alias_decl"
    ~rhs:[ "alias"; "ID"; ":"; "subtype_ind"; "is"; "name"; ";" ]
    ~rules:
      (first_line :: out_rules
         ~deps:[ (0, "ENV"); (1, "LINE"); (2, "VAL"); (6, "BASE"); (6, "LEF") ]
         ~msg_deps:[ 4; 6 ]
         (fun env line v target_base target_lef ->
           Decl_sem.alias_decl ~env:(as_env env) ~line:(as_int line) ~name:(tok_id v)
             ~target:(as_str target_base) ~target_lef:(as_lef target_lef)));

  (* ---- use / library clauses ---- *)
  prod ~name:"use_clause" ~lhs:"use_clause" ~rhs:[ "use"; "use_names"; ";" ] ~rules:[ first_line ];
  let resolve_use parts line =
    let ids, all = as_pair parts in
    Decl_sem.resolve_use ~line:(as_int line) (List.map fst (as_ids ids)) ~all:(as_bool all)
  in
  let select parts id line =
    Pair (Ids (as_ids (fst_of parts) @ [ (id, as_int line) ]), Bool false)
  in
  prod ~name:"use_names_one" ~lhs:"use_names" ~rhs:[ "use_name" ]
    ~rules:
      (out_rules ~deps:[ (1, "UPARTS"); (1, "LINE1") ] ~msg_deps:[] (fun parts line ->
          resolve_use parts line));
  (* the new name's bindings join the earlier names' by one merge *)
  prod ~name:"use_names_more" ~lhs:"use_names" ~rhs:[ "use_names"; ","; "use_name" ]
    ~rules:
      [
        rule ~target:(0, "SRES") ~deps:[ (3, "UPARTS"); (3, "LINE1") ] (fun parts line ->
            let out, msgs = resolve_use parts line in
            Pair (of_out out, Msgs msgs));
        rule ~target:(0, "OUT") ~deps:[ (1, "OUT"); (0, "SRES") ] (fun prev res ->
            merge_out prev (fst (as_pair res)));
        msgs_rule [ 1 ];
      ];
  prod ~name:"use_name_id" ~lhs:"use_name" ~rhs:[ "ID" ]
    ~rules:
      [
        rule ~target:(0, "UPARTS") ~deps:[ (1, "VAL"); (1, "LINE") ] (fun v line ->
            Pair (Ids [ (tok_id v, as_int line) ], Bool false));
        rule ~target:(0, "LINE1") ~deps:[ (1, "LINE") ] (fun l -> l);
      ];
  prod ~name:"use_name_sel" ~lhs:"use_name" ~rhs:[ "use_name"; "."; "ID" ]
    ~rules:
      [
        rule ~target:(0, "UPARTS") ~deps:[ (1, "UPARTS"); (3, "VAL"); (3, "LINE") ]
          (fun parts v line -> select parts (tok_id v) line);
        rule ~target:(0, "LINE1") ~deps:[ (1, "LINE1") ] (fun l -> l);
      ];
  (* selective import of an operator function: use work.pkg."+" *)
  prod ~name:"use_name_op" ~lhs:"use_name" ~rhs:[ "use_name"; "."; "STRING" ]
    ~rules:
      [
        rule ~target:(0, "UPARTS") ~deps:[ (1, "UPARTS"); (3, "VAL"); (3, "LINE") ]
          (fun parts v line -> select parts (Lef.operator_key (tok_string v)) line);
        rule ~target:(0, "LINE1") ~deps:[ (1, "LINE1") ] (fun l -> l);
      ];
  prod ~name:"use_name_all" ~lhs:"use_name" ~rhs:[ "use_name"; "."; "all" ]
    ~rules:
      [
        rule ~target:(0, "UPARTS") ~deps:[ (1, "UPARTS") ] (fun parts ->
            Pair (fst_of parts, Bool true));
        rule ~target:(0, "LINE1") ~deps:[ (1, "LINE1") ] (fun l -> l);
      ];

  (* ---- configuration specifications ---- *)
  prod ~name:"config_spec1" ~lhs:"config_spec1"
    ~rhs:[ "for"; "inst_spec"; ":"; "ID"; "binding_ind"; ";" ]
    ~rules:
      (first_line :: out_rules
         ~deps:[ (1, "LINE"); (2, "ISPEC"); (4, "VAL"); (5, "BIND") ]
         ~msg_deps:[]
         (fun line ispec comp_v bind ->
           let scope =
             match as_pair ispec with
             | Str "labels", Ids ids -> `Labels (List.map fst ids)
             | Str "all", _ -> `All
             | _ -> `Others
           in
           let binding =
             match as_opt bind with
             | Some (Pair (Ids parts, oarch)) ->
               Some
                 ( List.map fst parts,
                   match oarch with
                   | Opt (Some (Str a)) -> Some a
                   | _ -> None )
             | _ -> None
           in
           let specs, msgs =
             Unit_sem.config_spec ~line:(as_int line) ~scope ~component:(tok_id comp_v)
               ~binding
           in
           ({ out_empty with o_config_specs = specs }, msgs)));
  prod ~name:"inst_spec_labels" ~lhs:"inst_spec" ~rhs:[ "id_list" ]
    ~rules:
      [
        rule ~target:(0, "ISPEC") ~deps:[ (1, "IDS") ] (fun ids ->
            Pair (Str "labels", Ids (ids_in_order ids)));
      ];
  prod ~name:"inst_spec_all" ~lhs:"inst_spec" ~rhs:[ "all" ]
    ~rules:[ const ~target:(0, "ISPEC") (Pair (Str "all", Ids [])) ];
  prod ~name:"inst_spec_others" ~lhs:"inst_spec" ~rhs:[ "others" ]
    ~rules:[ const ~target:(0, "ISPEC") (Pair (Str "others", Ids [])) ];
  prod ~name:"binding_ind" ~lhs:"binding_ind" ~rhs:[ "use"; "entity"; "use_name"; "arch_opt" ]
    ~rules:
      [
        rule ~target:(0, "BIND") ~deps:[ (3, "UPARTS"); (4, "OID") ] (fun parts oid ->
            Opt (Some (Pair (fst_of parts, oid))));
      ];
  prod ~name:"arch_opt_none" ~lhs:"arch_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "OID") (Opt None) ];
  prod ~name:"arch_opt_some" ~lhs:"arch_opt" ~rhs:[ "("; "ID"; ")" ]
    ~rules:
      [
        rule ~target:(0, "OID") ~deps:[ (2, "VAL") ] (fun v -> Opt (Some (Str (tok_id v))));
      ]
