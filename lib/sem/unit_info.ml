(** Compiled design units — the content of the VIF.

    One value of {!compiled_unit} is what the compiler writes to the design
    library for each successfully analyzed unit, and what a *foreign
    reference* reads back (paper §2.2: the VIF "is generated for each
    separately-compilable unit and read in when that unit is referenced
    from another"). *)

type binding = {
  b_library : string;
  b_entity : string;
  b_arch : string option; (* None: default rule (latest compiled arch) *)
}

(** Configuration specification: binds instances of a component to an
    entity/architecture (paper §3.3's second generic layer). *)
type config_spec = {
  cs_scope : [ `Labels of string list | `All | `Others ];
  cs_component : string;
  cs_binding : binding;
}

type entity_info = {
  en_name : string;
  en_generics : Kir.generic_decl list;
  en_ports : Kir.port_decl list;
  en_context : (string * Denot.t) list;
      (* what the entity's context clause made visible: inherited by its
         architecture bodies (LRM 11.3) *)
}

type arch_info = {
  ar_name : string;
  ar_entity : string;
  ar_constants : (string * Types.t * Kir.expr) list;
      (* elaboration-time constants (initializers may reference generics) *)
  ar_signals : Kir.signal_decl list; (* indices continue after the entity ports *)
  ar_components : (string * Kir.generic_decl list * Kir.port_decl list) list;
  ar_subprograms : Kir.subprogram list;
  ar_body : Kir.concurrent list;
  ar_config_specs : config_spec list;
}

type package_info = {
  pk_name : string;
  (* exported visibility: what USE lib.pkg.X / .ALL imports *)
  pk_exports : (string * Denot.t) list; (* oldest first *)
  pk_signals : Kir.signal_decl list; (* global signals *)
  pk_subprogram_decls : Denot.subprog_sig list;
}

type package_body_info = {
  pb_name : string;
  pb_subprograms : Kir.subprogram list; (* bodies for the spec's decls *)
  pb_deferred : (string * Value.t) list;
      (* full declarations for the spec's deferred constants, "PKG.NAME" *)
}

type config_info = {
  cf_name : string;
  cf_entity : string;
  cf_arch : string;
  cf_specs : config_spec list; (* flattened block configuration *)
}

type info =
  | Uentity of entity_info
  | Uarch of arch_info
  | Upackage of package_info
  | Upackage_body of package_body_info
  | Uconfig of config_info

type compiled_unit = {
  u_library : string; (* library the unit was compiled into *)
  u_key : string; (* unique key within the library, see [key_of] *)
  u_info : info;
  u_deps : (string * string) list; (* foreign references: (library, key) *)
  u_source_lines : int; (* stripped source line count, for the benches *)
  u_sequence : int; (* compilation order stamp, given by the library on
                       insert (0 until then): drives the default
                       latest-architecture binding rule *)
}

let key_of = function
  | Uentity e -> "entity:" ^ e.en_name
  | Uarch a -> Printf.sprintf "arch:%s(%s)" a.ar_entity a.ar_name
  | Upackage p -> "package:" ^ p.pk_name
  | Upackage_body b -> "body:" ^ b.pb_name
  | Uconfig c -> "config:" ^ c.cf_name
