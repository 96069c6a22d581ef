(** Out-of-line semantics for design units (principal AG). *)

open Pval

(* interface lists -> port/generic declarations *)
let ports_of_ifaces (ifaces : iface list) : Kir.port_decl list =
  List.concat_map
    (fun i ->
      List.map
        (fun (n, _) ->
          {
            Kir.pd_name = n;
            pd_mode = Option.value i.if_mode ~default:Kir.Arg_in;
            pd_ty = i.if_ty;
            pd_default = i.if_default;
          })
        i.if_names)
    ifaces

let generics_of_ifaces (ifaces : iface list) : Kir.generic_decl list =
  List.concat_map
    (fun i ->
      List.map
        (fun (n, _) -> { Kir.gd_name = n; gd_ty = i.if_ty; gd_default = i.if_default })
        i.if_names)
    ifaces

(** Environment bindings for an entity's generics and ports, used both when
    compiling the entity's own architecture bodies and for the entity
    declarative part. *)
let entity_interface_binds (en : Unit_info.entity_info) =
  List.mapi
    (fun idx (g : Kir.generic_decl) ->
      ( g.Kir.gd_name,
        Denot.Dobject
          {
            name = g.Kir.gd_name;
            cls = Denot.Cconstant;
            ty = g.Kir.gd_ty;
            mode = None;
            slot = Denot.Sl_generic idx;
          } ))
    en.Unit_info.en_generics
  @ List.mapi
      (fun idx (p : Kir.port_decl) ->
        ( p.Kir.pd_name,
          Denot.Dobject
            {
              name = p.Kir.pd_name;
              cls = Denot.Csignal;
              ty = p.Kir.pd_ty;
              mode = Some p.Kir.pd_mode;
              slot = Denot.Sl_signal (Kir.Sig_local idx);
            } ))
      en.Unit_info.en_ports

(** Assemble an entity declaration unit. *)
let entity ~name ~(generics : iface list) ~(ports : iface list) ~(source_lines : int)
    ~(context : (string * Denot.t) list) ~(deps : (string * string) list) :
    Unit_info.compiled_unit =
  let info =
    Unit_info.Uentity
      {
        Unit_info.en_name = name;
        en_generics = generics_of_ifaces generics;
        en_ports = ports_of_ifaces ports;
        en_context = context;
      }
  in
  {
    Unit_info.u_library = Session.work;
    u_key = Unit_info.key_of info;
    u_info = info;
    u_deps = deps;
    u_source_lines = source_lines;
    u_sequence = 0;
  }

(** Look up the entity an architecture belongs to. *)
let find_entity ~line name : Unit_info.entity_info option * Diag.t list =
  match Session.find_unit ~library:Session.work ~key:("entity:" ^ name) with
  | Some { Unit_info.u_info = Unit_info.Uentity en; _ } -> (Some en, [])
  | Some _ | None ->
    (None, [ Diag.error ~line "entity %s is not in the working library" name ])

(** Assemble an architecture body. *)
let architecture ~name ~entity_name ~(entity : Unit_info.entity_info option)
    ~(out : decl_out) ~(body : Kir.concurrent list) ~(source_lines : int) :
    Unit_info.compiled_unit =
  let en_name = match entity with Some e -> e.Unit_info.en_name | None -> entity_name in
  (* o_locals at architecture level are elaboration-time constants *)
  let info =
    Unit_info.Uarch
      {
        Unit_info.ar_name = name;
        ar_entity = en_name;
        ar_constants =
          List.filter_map
            (fun (l : Kir.local) ->
              Option.map (fun init -> (l.Kir.l_name, l.Kir.l_ty, init)) l.Kir.l_init)
            out.o_locals;
        ar_signals =
          List.map
            (fun (sd : Kir.signal_decl) ->
              match List.assoc_opt sd.Kir.sd_name out.o_disconnects with
              | Some e -> { sd with Kir.sd_disconnect = Some e }
              | None -> sd)
            out.o_signals;
        ar_components = out.o_components;
        ar_subprograms = out.o_subprograms;
        ar_body = Kir_util.normalize_labels body;
        ar_config_specs = out.o_config_specs;
      }
  in
  {
    Unit_info.u_library = Session.work;
    u_key = Unit_info.key_of info;
    u_info = info;
    u_deps = ((Session.work, "entity:" ^ en_name) :: out.o_deps);
    u_source_lines = source_lines;
    u_sequence = 0;
  }

(** Assemble a package declaration. *)
let package ~name ~(out : decl_out) ~(specs : Denot.subprog_sig list) ~(source_lines : int) :
    Unit_info.compiled_unit =
  let info =
    Unit_info.Upackage
      {
        Unit_info.pk_name = name;
        pk_exports = out.o_binds;
        pk_signals = out.o_signals;
        pk_subprogram_decls = specs;
      }
  in
  {
    Unit_info.u_library = Session.work;
    u_key = Unit_info.key_of info;
    u_info = info;
    u_deps = out.o_deps;
    u_source_lines = source_lines;
    u_sequence = 0;
  }

(** Environment for a package body: the package's own exports. *)
let package_spec_env ~line name : (string * Denot.t) list * Diag.t list =
  match Session.find_unit ~library:Session.work ~key:("package:" ^ name) with
  | Some { Unit_info.u_info = Unit_info.Upackage pk; _ } -> (pk.Unit_info.pk_exports, [])
  | Some _ | None ->
    ([], [ Diag.error ~line "package declaration %s must be compiled first" name ])

let package_body ~name ~(out : decl_out) ~(source_lines : int) : Unit_info.compiled_unit =
  let info =
    Unit_info.Upackage_body
      {
        Unit_info.pb_name = name;
        pb_subprograms = out.o_subprograms;
        pb_deferred = out.o_deferred;
      }
  in
  {
    Unit_info.u_library = Session.work;
    u_key = Unit_info.key_of info;
    u_info = info;
    u_deps = ((Session.work, "package:" ^ name) :: out.o_deps);
    u_source_lines = source_lines;
    u_sequence = 0;
  }

(* All component instances of an architecture body: (label, component),
   walking nested blocks — "reading and traversing these data structures"
   is the bulk of configuration processing (paper footnote 3). *)
let rec instances_of_concurrents (concs : Kir.concurrent list) =
  List.concat_map
    (fun c ->
      match c with
      | Kir.C_instance i -> [ (i.Kir.inst_label, i.Kir.inst_component) ]
      | Kir.C_block { blk_body; _ } -> instances_of_concurrents blk_body
      | Kir.C_generate { gen_body; _ } -> instances_of_concurrents gen_body
      | Kir.C_if_generate { ig_body; _ } -> instances_of_concurrents ig_body
      | Kir.C_process _ -> [])
    concs

(* Verify one configuration specification against the configured
   architecture: the labels must name instances of the component, and the
   bound entity (and named architecture) must exist with ports matching the
   component declaration. *)
let check_config_spec ~line ~(arch : Unit_info.arch_info) (cs : Unit_info.config_spec) :
    Diag.t list =
  let instances = instances_of_concurrents arch.Unit_info.ar_body in
  let label_msgs =
    match cs.Unit_info.cs_scope with
    | `All | `Others -> []
    | `Labels labels ->
      List.concat_map
        (fun label ->
          match List.assoc_opt label instances with
          | Some comp when comp = cs.Unit_info.cs_component -> []
          | Some comp ->
            [
              Diag.error ~line "instance %s is of component %s, not %s" label comp
                cs.Unit_info.cs_component;
            ]
          | None ->
            [
              Diag.error ~line "architecture %s has no instance labelled %s"
                arch.Unit_info.ar_name label;
            ])
        labels
  in
  let b = cs.Unit_info.cs_binding in
  let binding_msgs =
    match
      Session.find_unit ~library:b.Unit_info.b_library ~key:("entity:" ^ b.Unit_info.b_entity)
    with
    | Some { Unit_info.u_info = Unit_info.Uentity en; _ } -> (
      (* port compatibility against the component declaration *)
      let comp_ports =
        match
          List.find_opt
            (fun (n, _, _) -> n = cs.Unit_info.cs_component)
            arch.Unit_info.ar_components
        with
        | Some (_, _, ports) -> ports
        | None -> []
      in
      let port_msgs =
        List.concat_map
          (fun (cp : Kir.port_decl) ->
            match
              List.find_opt
                (fun (ep : Kir.port_decl) -> ep.Kir.pd_name = cp.Kir.pd_name)
                en.Unit_info.en_ports
            with
            | Some ep when Types.compatible ep.Kir.pd_ty cp.Kir.pd_ty -> []
            | Some _ ->
              [
                Diag.error ~line "port %s of entity %s has a different type than the component"
                  cp.Kir.pd_name b.Unit_info.b_entity;
              ]
            | None ->
              [
                Diag.error ~line "entity %s has no port %s required by component %s"
                  b.Unit_info.b_entity cp.Kir.pd_name cs.Unit_info.cs_component;
              ])
          comp_ports
      in
      match b.Unit_info.b_arch with
      | None -> port_msgs
      | Some a -> (
        match
          Session.find_unit ~library:b.Unit_info.b_library
            ~key:(Printf.sprintf "arch:%s(%s)" b.Unit_info.b_entity a)
        with
        | Some _ -> port_msgs
        | None ->
          port_msgs
          @ [
              Diag.error ~line "no architecture %s of entity %s in library %s" a
                b.Unit_info.b_entity b.Unit_info.b_library;
            ]))
    | Some _ | None ->
      [
        Diag.error ~line "no entity %s in library %s" b.Unit_info.b_entity
          b.Unit_info.b_library;
      ]
  in
  label_msgs @ binding_msgs

(** Assemble a configuration declaration. *)
let configuration ~name ~entity_name ~arch_name ~(specs : Unit_info.config_spec list)
    ~(source_lines : int) ~line : Unit_info.compiled_unit * Diag.t list =
  let msgs =
    match Session.find_unit ~library:Session.work ~key:("entity:" ^ entity_name) with
    | Some _ -> (
      match
        Session.find_unit ~library:Session.work
          ~key:(Printf.sprintf "arch:%s(%s)" entity_name arch_name)
      with
      | Some { Unit_info.u_info = Unit_info.Uarch arch; _ } ->
        (* the expensive part: every specification is verified against the
           loaded architecture and the units it binds *)
        List.concat_map (check_config_spec ~line ~arch) specs
      | Some _ | None ->
        [
          Diag.error ~line "architecture %s of %s is not in the working library" arch_name
            entity_name;
        ])
    | None -> [ Diag.error ~line "entity %s is not in the working library" entity_name ]
  in
  let info =
    Unit_info.Uconfig
      {
        Unit_info.cf_name = name;
        cf_entity = entity_name;
        cf_arch = arch_name;
        cf_specs = specs;
      }
  in
  ( {
      Unit_info.u_library = Session.work;
      u_key = Unit_info.key_of info;
      u_info = info;
      u_deps =
        [
          (Session.work, "entity:" ^ entity_name);
          (Session.work, Printf.sprintf "arch:%s(%s)" entity_name arch_name);
        ];
      u_source_lines = source_lines;
      u_sequence = 0;
    },
    msgs )

(** Configuration specification (inside an architecture or a configuration
    unit): [for labels : comp use entity lib.ent(arch);]. *)
let config_spec ~line ~(scope : [ `Labels of string list | `All | `Others ])
    ~(component : string) ~(binding : (string list * string option) option) :
    Unit_info.config_spec list * Diag.t list =
  match binding with
  | Some ([ library; entity ], arch) ->
    ( [
        {
          Unit_info.cs_scope = scope;
          cs_component = component;
          cs_binding = { Unit_info.b_library = library; b_entity = entity; b_arch = arch };
        };
      ],
      [] )
  | Some ([ entity ], arch) ->
    ( [
        {
          Unit_info.cs_scope = scope;
          cs_component = component;
          cs_binding =
            { Unit_info.b_library = Session.work; b_entity = entity; b_arch = arch };
        };
      ],
      [] )
  | Some _ -> ([], [ Diag.error ~line "invalid entity name in binding indication" ])
  | None -> ([], [])

(** Check an architecture name mentioned by [end <name>;] etc. *)
let check_end_name ~line ~kind ~expected (actual : string option) : Diag.t list =
  match actual with
  | Some a when not (String.equal a expected) ->
    [ Diag.error ~line "%s %s ends with mismatched name %s" kind expected a ]
  | Some _ | None -> []
