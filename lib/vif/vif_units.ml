(** VIF serialization of denotations and design units. *)

open Vif

(* ------------------------------------------------------------------ *)
(* Denotations *)

let class_names =
  [ (Denot.Cconstant, "constant"); (Denot.Cvariable, "variable"); (Denot.Csignal, "signal") ]

let kind_names = [ (`Function, "function"); (`Procedure, "procedure") ]

let write_param b (p : Denot.param) =
  W.tag b "";
  W.atom b p.Denot.p_name;
  write_arg_mode b p.Denot.p_mode;
  write_name class_names b p.Denot.p_class;
  write_ty b p.Denot.p_ty;
  write_opt write_expr b p.Denot.p_default;
  W.close b

let read_param r =
  R.enter r;
  let p_name = R.atom r in
  let p_mode = read_arg_mode r in
  let p_class = read_name "parameter class" class_names r in
  let p_ty = read_ty r in
  let p_default = read_opt read_expr r in
  R.leave r;
  { Denot.p_name; p_mode; p_class; p_ty; p_default }

let write_subprog_sig b (s : Denot.subprog_sig) =
  W.tag b "subprog";
  W.field "name" W.atom b s.Denot.ss_name;
  W.field "mangled" W.atom b s.Denot.ss_mangled;
  W.field "kind" (write_name kind_names) b s.Denot.ss_kind;
  W.field "params" (W.list write_param) b s.Denot.ss_params;
  W.field "ret" (write_opt write_ty) b s.Denot.ss_ret;
  W.field "builtin" W.bool b s.Denot.ss_builtin;
  W.close b

let read_subprog_sig r =
  R.enter r;
  R.expect r "subprog";
  let ss_name = R.field "name" R.atom r in
  let ss_mangled = R.field "mangled" R.atom r in
  let ss_kind = R.field "kind" (read_name "subprogram kind" kind_names) r in
  let ss_params = R.field "params" (R.items read_param) r in
  let ss_ret = R.field "ret" (read_opt read_ty) r in
  let ss_builtin = R.field "builtin" R.bool r in
  R.leave r;
  { Denot.ss_name; ss_mangled; ss_kind; ss_params; ss_ret; ss_builtin }

let write_slot b = function
  | Denot.Sl_frame { level; index } -> W.tag b "frame"; W.int b level; W.int b index; W.close b
  | Denot.Sl_signal sref -> W.tag b "signal"; write_sref b sref; W.close b
  | Denot.Sl_generic i -> W.tag b "generic"; W.int b i; W.close b
  | Denot.Sl_static v -> W.tag b "static"; write_value b v; W.close b
  | Denot.Sl_unit_const name -> W.tag b "uconst"; W.atom b name; W.close b

let read_slot_list r =
  if R.kw r "frame" then
    let level = R.int r in
    Denot.Sl_frame { level; index = R.int r }
  else if R.kw r "signal" then Denot.Sl_signal (read_sref r)
  else if R.kw r "generic" then Denot.Sl_generic (R.int r)
  else if R.kw r "static" then Denot.Sl_static (read_value r)
  else if R.kw r "uconst" then Denot.Sl_unit_const (R.atom r)
  else R.error r "bad slot"

let write_generic b (g : Kir.generic_decl) =
  W.tag b "";
  W.atom b g.Kir.gd_name;
  write_ty b g.Kir.gd_ty;
  write_opt write_expr b g.Kir.gd_default;
  W.close b

let read_generic r =
  R.enter r;
  let gd_name = R.atom r in
  let gd_ty = read_ty r in
  let gd_default = read_opt read_expr r in
  R.leave r;
  { Kir.gd_name; gd_ty; gd_default }

let write_port b (p : Kir.port_decl) =
  W.tag b "";
  W.atom b p.Kir.pd_name;
  write_arg_mode b p.Kir.pd_mode;
  write_ty b p.Kir.pd_ty;
  write_opt write_expr b p.Kir.pd_default;
  W.close b

let read_port r =
  R.enter r;
  let pd_name = R.atom r in
  let pd_mode = read_arg_mode r in
  let pd_ty = read_ty r in
  let pd_default = read_opt read_expr r in
  R.leave r;
  { Kir.pd_name; pd_mode; pd_ty; pd_default }

let write_denot b (d : Denot.t) =
  (match d with
  | Denot.Dobject { name; cls; ty; mode; slot } ->
    W.tag b "object";
    W.atom b name;
    write_name class_names b cls;
    write_ty b ty;
    write_opt write_arg_mode b mode;
    write_slot b slot
  | Denot.Dtype ty -> W.tag b "type"; write_ty b ty
  | Denot.Dsubtype ty -> W.tag b "subtype"; write_ty b ty
  | Denot.Denum_lit { ty; pos; image } ->
    W.tag b "enumlit"; write_ty b ty; W.int b pos; W.atom b image
  | Denot.Dsubprog s -> W.tag b "subprog"; write_subprog_sig b s
  | Denot.Dcomponent { name; generics; ports } ->
    W.tag b "component";
    W.atom b name;
    W.list write_generic b generics;
    W.list write_port b ports
  | Denot.Dattr_decl { name; ty } -> W.tag b "attrdecl"; W.atom b name; write_ty b ty
  | Denot.Dattr_value { of_name; attr; value; ty } ->
    W.tag b "attrval"; W.atom b of_name; W.atom b attr; write_value b value; write_ty b ty
  | Denot.Dunit { library; unit_name } -> W.tag b "unit"; W.atom b library; W.atom b unit_name
  | Denot.Dlibrary l -> W.tag b "library"; W.atom b l
  | Denot.Dlabel l -> W.tag b "label"; W.atom b l
  | Denot.Dphys_unit { ty; scale; image } ->
    W.tag b "physunit"; write_ty b ty; W.int b scale; W.atom b image);
  W.close b

let read_denot_list r : Denot.t =
  if R.kw r "object" then
    let name = R.atom r in
    let cls = read_name "object class" class_names r in
    let ty = read_ty r in
    let mode = read_opt read_arg_mode r in
    Denot.Dobject { name; cls; ty; mode; slot = R.list read_slot_list r }
  else if R.kw r "type" then Denot.Dtype (read_ty r)
  else if R.kw r "subtype" then Denot.Dsubtype (read_ty r)
  else if R.kw r "enumlit" then
    let ty = read_ty r in
    let pos = R.int r in
    Denot.Denum_lit { ty; pos; image = R.atom r }
  else if R.kw r "subprog" then Denot.Dsubprog (read_subprog_sig r)
  else if R.kw r "component" then
    let name = R.atom r in
    let generics = R.items read_generic r in
    Denot.Dcomponent { name; generics; ports = R.items read_port r }
  else if R.kw r "attrdecl" then
    let name = R.atom r in
    Denot.Dattr_decl { name; ty = read_ty r }
  else if R.kw r "attrval" then
    let of_name = R.atom r in
    let attr = R.atom r in
    let value = read_value r in
    Denot.Dattr_value { of_name; attr; value; ty = read_ty r }
  else if R.kw r "unit" then
    let library = R.atom r in
    Denot.Dunit { library; unit_name = R.atom r }
  else if R.kw r "library" then Denot.Dlibrary (R.atom r)
  else if R.kw r "label" then Denot.Dlabel (R.atom r)
  else if R.kw r "physunit" then
    let ty = read_ty r in
    let scale = R.int r in
    Denot.Dphys_unit { ty; scale; image = R.atom r }
  else R.error r "bad denotation"

let write_binding = W.pair W.atom write_denot
let read_binding r = R.pair R.atom (R.list read_denot_list) r

(* ------------------------------------------------------------------ *)
(* Unit structures *)

let signal_kind_names = [ (`Plain, "plain"); (`Bus, "bus"); (`Register, "register") ]

let write_signal_decl b (sd : Kir.signal_decl) =
  W.tag b "";
  W.atom b sd.Kir.sd_name;
  write_ty b sd.Kir.sd_ty;
  write_opt write_expr b sd.Kir.sd_init;
  write_opt (fun b (Kir.F_user f) -> W.atom b f) b sd.Kir.sd_resolution;
  write_name signal_kind_names b sd.Kir.sd_kind;
  write_opt write_expr b sd.Kir.sd_disconnect;
  W.close b

let read_signal_decl r =
  R.enter r;
  let sd_name = R.atom r in
  let sd_ty = read_ty r in
  let sd_init = read_opt read_expr r in
  let sd_resolution = read_opt (fun r -> Kir.F_user (R.atom r)) r in
  let sd_kind = read_name "signal kind" signal_kind_names r in
  let sd_disconnect = read_opt read_expr r in
  R.leave r;
  { Kir.sd_name; sd_ty; sd_init; sd_resolution; sd_kind; sd_disconnect }

let write_local b (l : Kir.local) =
  W.tag b "";
  W.atom b l.Kir.l_name;
  write_ty b l.Kir.l_ty;
  write_opt write_expr b l.Kir.l_init;
  W.close b

let read_local r =
  R.enter r;
  let l_name = R.atom r in
  let l_ty = read_ty r in
  let l_init = read_opt read_expr r in
  R.leave r;
  { Kir.l_name; l_ty; l_init }

let write_subprogram b (s : Kir.subprogram) =
  W.tag b "body";
  W.field "name" W.atom b s.Kir.sub_name;
  W.field "kind" (write_name kind_names) b s.Kir.sub_kind;
  W.field "params" (W.list write_local) b s.Kir.sub_params;
  W.field "modes" (W.list write_arg_mode) b s.Kir.sub_param_modes;
  W.field "locals" (W.list write_local) b s.Kir.sub_locals;
  W.field "ret" (write_opt write_ty) b s.Kir.sub_ret;
  W.field "level" W.int b s.Kir.sub_level;
  W.field "body" write_stmts b s.Kir.sub_body;
  W.close b

let read_subprogram r =
  R.enter r;
  R.expect r "body";
  let sub_name = R.field "name" R.atom r in
  let sub_kind = R.field "kind" (read_name "subprogram kind" kind_names) r in
  let sub_params = R.field "params" (R.items read_local) r in
  let sub_param_modes = R.field "modes" (R.items read_arg_mode) r in
  let sub_locals = R.field "locals" (R.items read_local) r in
  let sub_ret = R.field "ret" (read_opt read_ty) r in
  let sub_level = R.field "level" R.int r in
  let sub_body = R.field "body" read_stmts r in
  R.leave r;
  { Kir.sub_name; sub_kind; sub_params; sub_param_modes; sub_locals; sub_ret; sub_level; sub_body }

let write_process b (p : Kir.process) =
  W.tag b "process";
  W.field "label" W.atom b p.Kir.proc_label;
  W.field "sensitivity" (W.list write_sref) b p.Kir.proc_sensitivity;
  W.field "locals" (W.list write_local) b p.Kir.proc_locals;
  W.field "body" write_stmts b p.Kir.proc_body;
  W.field "postponed_wait" W.bool b p.Kir.proc_postponed_wait;
  W.close b

let read_process r =
  R.enter r;
  R.expect r "process";
  let proc_label = R.field "label" R.atom r in
  let proc_sensitivity = R.field "sensitivity" (R.items read_sref) r in
  let proc_locals = R.field "locals" (R.items read_local) r in
  let proc_body = R.field "body" read_stmts r in
  let proc_postponed_wait = R.field "postponed_wait" R.bool r in
  R.leave r;
  { Kir.proc_label; proc_sensitivity; proc_locals; proc_body; proc_postponed_wait }

let write_actual b = function
  | Kir.Act_open -> W.atom b "open"
  | Kir.Act_expr e -> W.tag b "expr"; write_expr b e; W.close b
  | Kir.Act_signal sref -> W.tag b "signal"; write_sref b sref; W.close b
  | Kir.Act_signal_slice (sref, (lo, d, hi)) ->
    W.tag b "slice"; write_sref b sref; write_expr b lo; write_dir b d; write_expr b hi; W.close b
  | Kir.Act_signal_index (sref, ix) -> W.tag b "sigindex"; write_sref b sref; write_expr b ix; W.close b

let read_actual_list r =
  if R.kw r "expr" then Kir.Act_expr (read_expr r)
  else if R.kw r "signal" then Kir.Act_signal (read_sref r)
  else if R.kw r "slice" then
    let sref = read_sref r in
    Kir.Act_signal_slice (sref, read_range r)
  else if R.kw r "sigindex" then
    let sref = read_sref r in
    Kir.Act_signal_index (sref, read_expr r)
  else R.error r "bad actual"

let read_actual r = if R.kw r "open" then Kir.Act_open else R.list read_actual_list r
let write_map = W.list (W.pair W.atom write_actual)
let read_map r = R.items (R.pair R.atom read_actual) r
let rec write_concurrents b body = W.list write_concurrent b body

and write_concurrent b (c : Kir.concurrent) =
  (match c with
  | Kir.C_process p -> W.tag b "process"; write_process b p
  | Kir.C_instance i ->
    W.tag b "instance";
    W.atom b i.Kir.inst_label;
    W.atom b i.Kir.inst_component;
    write_map b i.Kir.inst_generic_map;
    write_map b i.Kir.inst_port_map
  | Kir.C_block { blk_label; blk_guard; blk_body } ->
    W.tag b "block";
    W.atom b blk_label;
    write_opt write_expr b blk_guard;
    write_concurrents b blk_body
  | Kir.C_generate { gen_label; gen_var; gen_range; gen_body } ->
    W.tag b "generate";
    W.atom b gen_label;
    W.atom b gen_var;
    write_range b gen_range;
    write_concurrents b gen_body
  | Kir.C_if_generate { ig_label; ig_cond; ig_body } ->
    W.tag b "ifgenerate";
    W.atom b ig_label;
    write_expr b ig_cond;
    write_concurrents b ig_body);
  W.close b

let rec read_concurrents r = R.items (R.list read_concurrent_list) r

and read_concurrent_list r : Kir.concurrent =
  if R.kw r "process" then Kir.C_process (read_process r)
  else if R.kw r "instance" then
    let inst_label = R.atom r in
    let inst_component = R.atom r in
    let inst_generic_map = read_map r in
    Kir.C_instance { Kir.inst_label; inst_component; inst_generic_map; inst_port_map = read_map r }
  else if R.kw r "block" then
    let blk_label = R.atom r in
    let blk_guard = read_opt read_expr r in
    Kir.C_block { blk_label; blk_guard; blk_body = read_concurrents r }
  else if R.kw r "generate" then
    let gen_label = R.atom r in
    let gen_var = R.atom r in
    let gen_range = read_range r in
    Kir.C_generate { gen_label; gen_var; gen_range; gen_body = read_concurrents r }
  else if R.kw r "ifgenerate" then
    let ig_label = R.atom r in
    let ig_cond = read_expr r in
    Kir.C_if_generate { ig_label; ig_cond; ig_body = read_concurrents r }
  else R.error r "bad concurrent statement"

let write_config_spec b (cs : Unit_info.config_spec) =
  W.tag b "";
  (match cs.Unit_info.cs_scope with
  | `Labels ls -> W.tag b "labels"; List.iter (W.atom b) ls; W.close b
  | `All -> W.atom b "all"
  | `Others -> W.atom b "others");
  W.atom b cs.Unit_info.cs_component;
  W.atom b cs.Unit_info.cs_binding.Unit_info.b_library;
  W.atom b cs.Unit_info.cs_binding.Unit_info.b_entity;
  write_opt W.atom b cs.Unit_info.cs_binding.Unit_info.b_arch;
  W.close b

let read_config_spec r =
  R.enter r;
  let cs_scope =
    if R.kw r "all" then `All
    else if R.kw r "others" then `Others
    else `Labels (R.list (fun r -> R.expect r "labels"; R.rest R.atom r) r)
  in
  let cs_component = R.atom r in
  let b_library = R.atom r in
  let b_entity = R.atom r in
  let b_arch = read_opt R.atom r in
  R.leave r;
  { Unit_info.cs_scope; cs_component; cs_binding = { Unit_info.b_library; b_entity; b_arch } }

(* ------------------------------------------------------------------ *)
(* Design units *)

let write_info b (info : Unit_info.info) =
  (match info with
  | Unit_info.Uentity en ->
    W.tag b "entity";
    W.field "name" W.atom b en.Unit_info.en_name;
    W.field "generics" (W.list write_generic) b en.Unit_info.en_generics;
    W.field "ports" (W.list write_port) b en.Unit_info.en_ports;
    W.field "context" (W.list write_binding) b en.Unit_info.en_context
  | Unit_info.Uarch ar ->
    W.tag b "architecture";
    W.field "name" W.atom b ar.Unit_info.ar_name;
    W.field "entity" W.atom b ar.Unit_info.ar_entity;
    W.field "constants"
      (W.list (fun b (n, ty, e) -> W.tag b ""; W.atom b n; write_ty b ty; write_expr b e; W.close b))
      b ar.Unit_info.ar_constants;
    W.field "signals" (W.list write_signal_decl) b ar.Unit_info.ar_signals;
    W.field "components"
      (W.list (fun b (n, g, p) ->
           W.tag b ""; W.atom b n; W.list write_generic b g; W.list write_port b p; W.close b))
      b ar.Unit_info.ar_components;
    W.field "subprograms" (W.list write_subprogram) b ar.Unit_info.ar_subprograms;
    W.field "body" write_concurrents b ar.Unit_info.ar_body;
    W.field "configspecs" (W.list write_config_spec) b ar.Unit_info.ar_config_specs
  | Unit_info.Upackage pk ->
    W.tag b "package";
    W.field "name" W.atom b pk.Unit_info.pk_name;
    W.field "exports" (W.list write_binding) b pk.Unit_info.pk_exports;
    W.field "signals" (W.list write_signal_decl) b pk.Unit_info.pk_signals;
    W.field "subprogdecls" (W.list write_subprog_sig) b pk.Unit_info.pk_subprogram_decls
  | Unit_info.Upackage_body pb ->
    W.tag b "packagebody";
    W.field "name" W.atom b pb.Unit_info.pb_name;
    W.field "subprograms" (W.list write_subprogram) b pb.Unit_info.pb_subprograms;
    W.field "deferred" (W.list (W.pair W.atom write_value)) b pb.Unit_info.pb_deferred
  | Unit_info.Uconfig cf ->
    W.tag b "configuration";
    W.field "name" W.atom b cf.Unit_info.cf_name;
    W.field "entity" W.atom b cf.Unit_info.cf_entity;
    W.field "arch" W.atom b cf.Unit_info.cf_arch;
    W.field "specs" (W.list write_config_spec) b cf.Unit_info.cf_specs);
  W.close b

let read_info_list r : Unit_info.info =
  if R.kw r "entity" then
    let en_name = R.field "name" R.atom r in
    let en_generics = R.field "generics" (R.items read_generic) r in
    let en_ports = R.field "ports" (R.items read_port) r in
    (* units written before entities recorded their context have none *)
    let en_context = if R.at_close r then [] else R.field "context" (R.items read_binding) r in
    Unit_info.Uentity { Unit_info.en_name; en_generics; en_ports; en_context }
  else if R.kw r "architecture" then
    let ar_name = R.field "name" R.atom r in
    let ar_entity = R.field "entity" R.atom r in
    let ar_constants =
      R.field "constants"
        (R.items (fun r ->
             R.enter r;
             let n = R.atom r in
             let ty = read_ty r in
             let e = read_expr r in
             R.leave r;
             (n, ty, e)))
        r
    in
    let ar_signals = R.field "signals" (R.items read_signal_decl) r in
    let ar_components =
      R.field "components"
        (R.items (fun r ->
             R.enter r;
             let n = R.atom r in
             let g = R.items read_generic r in
             let p = R.items read_port r in
             R.leave r;
             (n, g, p)))
        r
    in
    let ar_subprograms = R.field "subprograms" (R.items read_subprogram) r in
    let ar_body = R.field "body" read_concurrents r in
    let ar_config_specs = R.field "configspecs" (R.items read_config_spec) r in
    Unit_info.Uarch
      { Unit_info.ar_name; ar_entity; ar_constants; ar_signals; ar_components; ar_subprograms;
        ar_body; ar_config_specs }
  else if R.kw r "package" then
    let pk_name = R.field "name" R.atom r in
    let pk_exports = R.field "exports" (R.items read_binding) r in
    let pk_signals = R.field "signals" (R.items read_signal_decl) r in
    let pk_subprogram_decls = R.field "subprogdecls" (R.items read_subprog_sig) r in
    Unit_info.Upackage { Unit_info.pk_name; pk_exports; pk_signals; pk_subprogram_decls }
  else if R.kw r "packagebody" then
    let pb_name = R.field "name" R.atom r in
    let pb_subprograms = R.field "subprograms" (R.items read_subprogram) r in
    let pb_deferred = R.field "deferred" (R.items (R.pair R.atom read_value)) r in
    Unit_info.Upackage_body { Unit_info.pb_name; pb_subprograms; pb_deferred }
  else if R.kw r "configuration" then
    let cf_name = R.field "name" R.atom r in
    let cf_entity = R.field "entity" R.atom r in
    let cf_arch = R.field "arch" R.atom r in
    let cf_specs = R.field "specs" (R.items read_config_spec) r in
    Unit_info.Uconfig { Unit_info.cf_name; cf_entity; cf_arch; cf_specs }
  else R.error r "unknown unit tag"

let write_unit b (u : Unit_info.compiled_unit) =
  W.tag b "vif";
  W.field "library" W.atom b u.Unit_info.u_library;
  W.field "key" W.atom b u.Unit_info.u_key;
  W.field "info" write_info b u.Unit_info.u_info;
  W.field "deps" (W.list (W.pair W.atom W.atom)) b u.Unit_info.u_deps;
  W.field "source_lines" W.int b u.Unit_info.u_source_lines;
  W.field "sequence" W.int b u.Unit_info.u_sequence;
  W.close b

let read_unit r : Unit_info.compiled_unit =
  R.enter r;
  R.expect r "vif";
  let u_library = R.field "library" R.atom r in
  let u_key = R.field "key" R.atom r in
  let u_info = R.field "info" (R.list read_info_list) r in
  let u_deps = R.field "deps" (R.items (R.pair R.atom R.atom)) r in
  let u_source_lines = R.field "source_lines" R.int r in
  let u_sequence = R.field "sequence" R.int r in
  R.leave r;
  { Unit_info.u_library; u_key; u_info; u_deps; u_source_lines; u_sequence }

(** Serialize a unit to its VIF text. *)
let to_string u = W.to_string write_unit u

(** The paper's human-readable VIF dump. *)
let to_string_indented u = Vif_codec.indented (to_string u)

(** Decode a unit's VIF text.
    @raise Vif_codec.Error at the first byte that does not match. *)
let of_string s = R.of_string read_unit s
