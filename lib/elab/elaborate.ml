(** Elaboration: from compiled design units to a runnable simulation model.

    This is the "link" step of the paper's pipeline (their generated C is
    compiled and linked with the simulation kernel).  It implements the
    §3.3 binding rules: explicit configuration specifications in the
    architecture, then the configuration unit, then the *default rule* —
    bind to the entity with the component's name and its **latest compiled
    architecture**, the usage-history-dependent default the paper calls out
    as making descriptions non-deterministic. *)

type library_view = {
  lv_find : library:string -> key:string -> Unit_info.compiled_unit option;
  lv_all : unit -> Unit_info.compiled_unit list;
}

exception Elaboration_error of string

exception Budget_exhausted of { steps : int; limit : int }

let err fmt = Format.kasprintf (fun s -> raise (Elaboration_error s)) fmt

module Tm = Vhdl_telemetry.Telemetry

let m_steps = Tm.counter "elab.steps"
let m_instances = Tm.counter "elab.instances"

type model = {
  m_kernel : Kernel.t;
  m_ns : Name_server.t;
  m_trace : Trace.t;
  m_globals : (string * string, Rt.signal) Hashtbl.t;
  m_functions_loaded : int; (* instrumentation *)
  m_instances : int;
}

(* ------------------------------------------------------------------ *)
(* Library helpers *)

let find_entity lv ~library name =
  match lv.lv_find ~library ~key:("entity:" ^ name) with
  | Some { Unit_info.u_info = Unit_info.Uentity en; _ } -> Some en
  | _ -> None

let find_arch lv ~library ~entity name =
  match lv.lv_find ~library ~key:(Printf.sprintf "arch:%s(%s)" entity name) with
  | Some { Unit_info.u_info = Unit_info.Uarch ar; _ } -> Some ar
  | _ -> None

(** The paper's default rule: the latest compiled architecture of [entity]
    (highest compilation sequence stamp). *)
let latest_arch lv ~library ~entity =
  let prefix = Printf.sprintf "arch:%s(" entity in
  lv.lv_all ()
  |> List.filter (fun (u : Unit_info.compiled_unit) ->
         u.Unit_info.u_library = library
         && String.length u.Unit_info.u_key >= String.length prefix
         && String.sub u.Unit_info.u_key 0 (String.length prefix) = prefix)
  |> List.fold_left
       (fun best (u : Unit_info.compiled_unit) ->
         match (best, u.Unit_info.u_info) with
         | None, Unit_info.Uarch ar -> Some (u.Unit_info.u_sequence, ar)
         | Some (seq, _), Unit_info.Uarch ar when u.Unit_info.u_sequence > seq ->
           Some (u.Unit_info.u_sequence, ar)
         | _ -> best)
       None
  |> Option.map snd

(* all subprogram bodies in the library, by mangled name (packages carry no
   generics, so these are instance-independent) *)
let package_functions lv =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (u : Unit_info.compiled_unit) ->
      match u.Unit_info.u_info with
      | Unit_info.Upackage_body pb ->
        List.iter
          (fun (s : Kir.subprogram) -> Hashtbl.replace tbl s.Kir.sub_name s)
          pb.Unit_info.pb_subprograms
      | _ -> ())
    (lv.lv_all ());
  tbl

(* deferred package constants (LRM 4.3.1.1): values supplied by package
   bodies, keyed "PKG.NAME"; every unit-constant substitution falls back
   to this table *)
let package_deferred lv =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (u : Unit_info.compiled_unit) ->
      match u.Unit_info.u_info with
      | Unit_info.Upackage_body pb ->
        List.iter (fun (n, v) -> Hashtbl.replace tbl n v) pb.Unit_info.pb_deferred
      | _ -> ())
    (lv.lv_all ());
  tbl

(* ------------------------------------------------------------------ *)
(* Elaboration context *)

type ctx = {
  lv : library_view;
  kernel : Kernel.t;
  ns : Name_server.t;
  trace : Trace.t;
  globals : (string * string, Rt.signal) Hashtbl.t;
  pkg_functions : (string, Interp.entry) Hashtbl.t;
  pkg_deferred : (string, Value.t) Hashtbl.t;
  mutable sig_counter : int;
  mutable instance_count : int;
  trace_signals : bool;
  step_budget : int option; (* elaboration-step budget, None = unlimited *)
  mutable steps_used : int;
}

(* One elaboration step = one signal, process, or instance brought into
   existence.  A design that expands beyond the budget (runaway generate
   recursion, a hierarchy bomb) surfaces as [Budget_exhausted], never as an
   unbounded build. *)
let charge ctx =
  ctx.steps_used <- ctx.steps_used + 1;
  Tm.incr m_steps;
  match ctx.step_budget with
  | Some limit when ctx.steps_used > limit ->
    raise (Budget_exhausted { steps = ctx.steps_used; limit })
  | _ -> ()

let fresh_sig_id ctx =
  let id = ctx.sig_counter in
  ctx.sig_counter <- id + 1;
  id

(* a value that must be static once generics and unit constants are
   substituted: generic actuals, generate ranges, port indices *)
let eval_static subst e = Const_eval.eval_opt (Kir_util.subst_expr subst e)

(* A signal-less environment over [functions]: for elaboration-time values
   that may call user functions (LRM 4.3.1.2 default expressions,
   architecture constants, signal initial values) and for resolution
   functions. *)
let function_env ctx ~functions =
  Interp.env ~signals:[||] ~guard:None ~globals:ctx.globals ~functions ~proc_id:(-1)
    ~name:"elaboration" ~kernel:ctx.kernel
    ~emit:(fun ~severity:_ ~line:_ _ -> ())
    ()

(* One evaluation through the one translation; a dynamic error in it is
   the design's, reported as an elaboration error about [what ()]. *)
let eval_init env ~what ~subst e =
  match Interp.eval env (Kir_util.subst_expr subst e) with
  | v -> v
  | exception Rt.Simulation_error { msg; _ } -> err "%s: %s" (what ()) msg

let declared_init env ~path ~subst ty = function
  | None -> Value.default_of ty
  | Some e -> eval_init env ~what:(fun () -> "initial value of " ^ path) ~subst e

let make_signal ctx ~path ~ty ~kind ~resolution ~init =
  charge ctx;
  let s =
    Rt.make_signal ~id:(fresh_sig_id ctx) ~name:path ~ty ~kind ~resolution ~init
  in
  Kernel.register_signal ctx.kernel s;
  Name_server.register ctx.ns path (Name_server.Signal s);
  if ctx.trace_signals then Trace.watch ctx.trace path s;
  s

(* global package signals, created once *)
let elaborate_package_signals ctx =
  let env = function_env ctx ~functions:ctx.pkg_functions in
  let subst =
    {
      Kir_util.generic = (fun _ -> None);
      unit_const = (fun n -> Hashtbl.find_opt ctx.pkg_deferred n);
    }
  in
  List.iter
    (fun (u : Unit_info.compiled_unit) ->
      match u.Unit_info.u_info with
      | Unit_info.Upackage pk ->
        List.iter
          (fun (sd : Kir.signal_decl) ->
            let path = Printf.sprintf ":%s:%s" pk.Unit_info.pk_name sd.Kir.sd_name in
            if not (Hashtbl.mem ctx.globals (pk.Unit_info.pk_name, sd.Kir.sd_name)) then begin
              let s =
                make_signal ctx ~path ~ty:sd.Kir.sd_ty ~kind:sd.Kir.sd_kind ~resolution:None
                  ~init:(declared_init env ~path ~subst sd.Kir.sd_ty sd.Kir.sd_init)
              in
              Hashtbl.replace ctx.globals (pk.Unit_info.pk_name, sd.Kir.sd_name) s
            end)
          pk.Unit_info.pk_signals
      | _ -> ())
    (ctx.lv.lv_all ())

(* ------------------------------------------------------------------ *)
(* Instance elaboration *)

(* a resolved signal's resolution function, called with its drivers'
   values *)
let resolution_closure env name =
  let call = Interp.call_function env name in
  fun (values : Value.t list) ->
    let arg =
      Value.Varray
        {
          bounds = (0, Types.To, List.length values - 1);
          elems = Array.of_list values;
        }
    in
    call [ arg ]

let rec elaborate_instance ctx ~path ~(entity : Unit_info.entity_info)
    ~(arch : Unit_info.arch_info) ~(generic_values : (int * Value.t) list)
    ~(port_signals : Rt.signal option array) ~(config_specs : Unit_info.config_spec list) :
    unit =
  charge ctx;
  ctx.instance_count <- ctx.instance_count + 1;
  Tm.incr m_instances;
  Name_server.register ctx.ns path
    (Name_server.Instance
       {
         instance_path = path;
         entity = entity.Unit_info.en_name;
         architecture = arch.Unit_info.ar_name;
       });
  (* generics substitution, then architecture constants in order *)
  let unit_consts : (string, Value.t) Hashtbl.t = Hashtbl.create 8 in
  let subst : Kir_util.subst =
    {
      Kir_util.generic = (fun i -> List.assoc_opt i generic_values);
      unit_const =
        (fun name ->
          match Hashtbl.find_opt unit_consts name with
          | Some v -> Some v
          | None -> Hashtbl.find_opt ctx.pkg_deferred name);
    }
  in
  (* instance-private function table: package functions + substituted arch
     subprograms.  Constants may call the architecture's own functions;
     each one sees the subprograms with every earlier constant substituted. *)
  let functions = Hashtbl.copy ctx.pkg_functions in
  let link_subprograms () =
    List.iter
      (fun (s : Kir.subprogram) ->
        Hashtbl.replace functions s.Kir.sub_name
          (Interp.entry { s with Kir.sub_body = Kir_util.subst_stmts subst s.Kir.sub_body }))
      arch.Unit_info.ar_subprograms
  in
  link_subprograms ();
  let env = function_env ctx ~functions in
  List.iter
    (fun (name, _, init) ->
      Hashtbl.replace unit_consts name
        (eval_init env ~what:(fun () -> Printf.sprintf "constant %s of %s" name path) ~subst init);
      link_subprograms ())
    arch.Unit_info.ar_constants;
  let resolution_of = function
    | Some (Kir.F_user name) -> Some (resolution_closure env name)
    | None -> None
  in
  (* signal table: ports first, then architecture (and block) signals *)
  let n_ports = List.length entity.Unit_info.en_ports in
  let n_local = List.length arch.Unit_info.ar_signals in
  let table = Array.make (n_ports + n_local) None in
  List.iteri
    (fun i (p : Kir.port_decl) ->
      let s =
        match port_signals.(i) with
        | Some s -> s (* connected: share the actual's signal object *)
        | None ->
          let path = Printf.sprintf "%s:%s" path p.Kir.pd_name in
          make_signal ctx ~path ~ty:p.Kir.pd_ty ~kind:`Plain ~resolution:None
            ~init:(declared_init env ~path ~subst p.Kir.pd_ty p.Kir.pd_default)
      in
      table.(i) <- Some s)
    entity.Unit_info.en_ports;
  List.iteri
    (fun i (sd : Kir.signal_decl) ->
      let s =
        let path = Printf.sprintf "%s:%s" path sd.Kir.sd_name in
        make_signal ctx ~path ~ty:sd.Kir.sd_ty ~kind:sd.Kir.sd_kind
          ~resolution:(resolution_of sd.Kir.sd_resolution)
          ~init:(declared_init env ~path ~subst sd.Kir.sd_ty sd.Kir.sd_init)
      in
      (match sd.Kir.sd_disconnect with
      | Some e -> (
        match eval_static subst e with
        | Some v -> s.Rt.sig_disconnect <- Value.as_int v
        | None ->
          err "disconnection time of %s cannot be evaluated at elaboration"
            sd.Kir.sd_name)
      | None -> ());
      table.(n_ports + i) <- Some s)
    arch.Unit_info.ar_signals;
  let signals =
    Array.map
      (function
        | Some s -> s
        | None -> err "signal table hole in %s" path)
      table
  in
  elaborate_concurrents ctx ~path ~entity ~arch ~subst ~functions ~signals ~guard:None
    ~config_specs arch.Unit_info.ar_body

and elaborate_concurrents ctx ~path ~entity ~arch ~subst ~functions ~signals ~guard
    ~config_specs concs =
  List.iter
    (fun (c : Kir.concurrent) ->
      match c with
      | Kir.C_process p -> elaborate_process ctx ~path ~subst ~functions ~signals ~guard p
      | Kir.C_instance inst ->
        elaborate_sub_instance ctx ~path ~entity ~arch ~subst ~functions ~signals
          ~config_specs inst
      | Kir.C_block { blk_label; blk_guard; blk_body } ->
        let guard_sig =
          match blk_guard with
          | None -> None
          | Some guard_expr ->
            let gpath = Printf.sprintf "%s:%s:GUARD" path blk_label in
            let g =
              make_signal ctx ~path:gpath ~ty:Std.boolean ~kind:`Plain ~resolution:None
                ~init:(Value.default_of Std.boolean)
            in
            (* implicit driver process for the guard *)
            let guard_expr = Kir_util.subst_expr subst guard_expr in
            let body =
              [
                Kir.Ssig_assign
                  {
                    target = Kir.Ts_sig Kir.Sig_guard;
                    mode = Kir.Inertial;
                    waveform = [ { Kir.wv_value = Some guard_expr; wv_after = None } ];
                    guarded = false;
                    line = 0;
                  };
              ]
            in
            let sens = Kir_util.signals_read_expr guard_expr in
            elaborate_process ctx ~path ~subst ~functions ~signals ~guard:(Some g)
              {
                Kir.proc_label = blk_label ^ "_guard";
                proc_sensitivity = sens;
                proc_locals = [];
                proc_body = body;
                proc_postponed_wait = true;
              };
            Some g
        in
        elaborate_concurrents ctx ~path:(Printf.sprintf "%s:%s" path blk_label) ~entity
          ~arch ~subst ~functions ~signals
          ~guard:(match guard_sig with Some g -> Some g | None -> guard)
          ~config_specs blk_body
      | Kir.C_generate { gen_label; gen_var; gen_range = lo, d, hi; gen_body } ->
        (* expand the generate statement: the parameter rides through the
           body as a unit constant substituted per iteration *)
        let bound e =
          match eval_static subst e with
          | Some v -> Value.as_int v
          | None -> err "generate range of %s is not static" gen_label
        in
        let rewrap =
          match eval_static subst lo with
          | Some (Value.Venum _) -> fun i -> Value.Venum i
          | _ -> fun i -> Value.Vint i
        in
        List.iter
          (fun i ->
            let subst' =
              {
                subst with
                Kir_util.unit_const =
                  (fun name ->
                    if String.equal name gen_var then Some (rewrap i)
                    else subst.Kir_util.unit_const name);
              }
            in
            elaborate_concurrents ctx
              ~path:(Printf.sprintf "%s:%s(%d)" path gen_label i)
              ~entity ~arch ~subst:subst' ~functions ~signals ~guard ~config_specs
              gen_body)
          (Value.range_indices (bound lo, d, bound hi))
      | Kir.C_if_generate { ig_label; ig_cond; ig_body } -> (
        match eval_static subst ig_cond with
        | Some v when Value.truth v ->
          elaborate_concurrents ctx
            ~path:(Printf.sprintf "%s:%s" path ig_label)
            ~entity ~arch ~subst ~functions ~signals ~guard ~config_specs ig_body
        | Some _ -> ()
        | None -> err "if-generate condition of %s is not static" ig_label))
    concs

and elaborate_process ctx ~path ~subst ~functions ~signals ~guard (p : Kir.process) =
  charge ctx;
  let proc_path = Printf.sprintf "%s:%s" path p.Kir.proc_label in
  let body = Kir_util.subst_stmts subst p.Kir.proc_body in
  let resolve_sref = function
    | Kir.Sig_local i ->
      if i < Array.length signals then signals.(i)
      else err "sensitivity index %d out of range in %s" i proc_path
    | Kir.Sig_guard -> (
      match guard with
      | Some g -> g
      | None -> err "process %s uses GUARD outside a guarded block" proc_path)
    | Kir.Sig_global { package; name } -> (
      match Hashtbl.find_opt ctx.globals (package, name) with
      | Some s -> s
      | None -> err "global signal %s.%s not elaborated" package name)
    | Kir.Sig_param _ -> err "signal parameter in the sensitivity of %s" proc_path
  in
  let sensitivity = List.map resolve_sref p.Kir.proc_sensitivity in
  (* the frame persists across process restarts (LRM: variables are
     initialized once at elaboration) *)
  let frame =
    Array.make (List.length p.Kir.proc_locals + Kir_util.loop_depth body) (Value.Vint 0)
  in
  (* the body is translated once, when the kernel has numbered the process *)
  let proc =
    Kernel.add_process ctx.kernel ~name:proc_path ~sensitivity
      ~has_wait:((if sensitivity = [] then Kir_util.has_wait else Kir_util.may_wait) body)
      ~body:(fun proc ->
        let env =
          Interp.env ~signals ~guard ~globals:ctx.globals ~functions ~proc_id:proc.Rt.proc_id
            ~name:proc_path ~kernel:ctx.kernel ~emit:(Kernel.emit ctx.kernel) ~frame ()
        in
        (* initialize locals (may call functions) *)
        List.iteri
          (fun i (l : Kir.local) ->
            frame.(i) <-
              (match l.Kir.l_init with
              | Some e ->
                eval_init env ~what:(fun () -> Printf.sprintf "%s of %s" l.Kir.l_name proc_path)
                  ~subst e
              | None -> Value.default_of l.Kir.l_ty))
          p.Kir.proc_locals;
        Interp.process_body env body)
  in
  Name_server.register ctx.ns proc_path (Name_server.Process proc)

and elaborate_sub_instance ctx ~path ~entity:_ ~arch ~subst ~functions:_ ~signals
    ~config_specs (inst : Kir.instance) =
  let inst_path = Printf.sprintf "%s:%s" path inst.Kir.inst_label in
  (* component declaration (for defaults of unassociated generics/ports) *)
  let comp_generics, comp_ports =
    match
      List.find_opt
        (fun (n, _, _) -> n = inst.Kir.inst_component)
        arch.Unit_info.ar_components
    with
    | Some (_, g, p) -> (g, p)
    | None -> ([], [])
  in
  (* binding resolution: arch config specs, then the configuration unit's
     specs, then the default rule *)
  let work = "WORK" in
  let spec_matches (cs : Unit_info.config_spec) =
    cs.Unit_info.cs_component = inst.Kir.inst_component
    &&
    match cs.Unit_info.cs_scope with
    | `Labels ls -> List.mem inst.Kir.inst_label ls
    | `All | `Others -> true
  in
  let binding =
    match List.find_opt spec_matches arch.Unit_info.ar_config_specs with
    | Some cs -> Some cs.Unit_info.cs_binding
    | None -> (
      match List.find_opt spec_matches config_specs with
      | Some cs -> Some cs.Unit_info.cs_binding
      | None -> None)
  in
  let library, entity_name, arch_name =
    match binding with
    | Some b -> (b.Unit_info.b_library, b.Unit_info.b_entity, b.Unit_info.b_arch)
    | None -> (work, inst.Kir.inst_component, None)
  in
  let sub_entity =
    match find_entity ctx.lv ~library entity_name with
    | Some en -> en
    | None -> err "no entity %s in library %s for instance %s" entity_name library inst_path
  in
  let sub_arch =
    match arch_name with
    | Some a -> (
      match find_arch ctx.lv ~library ~entity:entity_name a with
      | Some ar -> ar
      | None -> err "no architecture %s of %s for instance %s" a entity_name inst_path)
    | None -> (
      match latest_arch ctx.lv ~library ~entity:entity_name with
      | Some ar -> ar (* the paper's §3.3 latest-compiled default *)
      | None -> err "entity %s has no architecture (instance %s)" entity_name inst_path)
  in
  (* generic values in formal order *)
  let generic_values =
    List.mapi
      (fun i (g : Kir.generic_decl) ->
        let actual =
          List.assoc_opt g.Kir.gd_name inst.Kir.inst_generic_map
        in
        let value =
          match actual with
          | Some (Kir.Act_expr e) -> (
            match eval_static subst e with
            | Some v -> Some v
            | None -> err "generic %s of %s is not static" g.Kir.gd_name inst_path)
          | Some Kir.Act_open | None -> (
            match g.Kir.gd_default with
            | Some e -> eval_static subst e
            | None -> None)
          | Some (Kir.Act_signal _) | Some (Kir.Act_signal_index _)
          | Some (Kir.Act_signal_slice _) ->
            err "signal actual for generic %s of %s" g.Kir.gd_name inst_path
        in
        match value with
        | Some v -> (i, v)
        | None -> err "generic %s of %s has no value" g.Kir.gd_name inst_path)
      sub_entity.Unit_info.en_generics
  in
  ignore comp_generics;
  (* port connections in the sub-entity's formal order *)
  let connectors = ref [] in
  let port_signals =
    Array.of_list
      (List.map
         (fun (p : Kir.port_decl) ->
           match List.assoc_opt p.Kir.pd_name inst.Kir.inst_port_map with
           | Some (Kir.Act_signal sref) -> (
             match sref with
             | Kir.Sig_local i when i < Array.length signals -> Some signals.(i)
             | Kir.Sig_global { package; name } -> Hashtbl.find_opt ctx.globals (package, name)
             | _ -> None)
           | Some (Kir.Act_signal_index (sref, ix_expr)) ->
             (* element association: a fresh port signal plus an implicit
                connector process created below *)
             let parent =
               match sref with
               | Kir.Sig_local i when i < Array.length signals -> signals.(i)
               | Kir.Sig_global { package; name } -> (
                 match Hashtbl.find_opt ctx.globals (package, name) with
                 | Some s -> s
                 | None -> err "global signal %s.%s not elaborated" package name)
               | _ -> err "bad element actual for port %s of %s" p.Kir.pd_name inst_path
             in
             let ix =
               match eval_static subst ix_expr with
               | Some v -> Value.as_int v
               | None -> err "element index for port %s of %s is not static" p.Kir.pd_name inst_path
             in
             let init =
               match Value.array_get parent.Rt.current ix with
               | Some v -> v
               | None -> err "element index %d out of range for %s" ix parent.Rt.sig_name
             in
             let port_sig =
               make_signal ctx
                 ~path:(Printf.sprintf "%s:%s" inst_path p.Kir.pd_name)
                 ~ty:p.Kir.pd_ty ~kind:`Plain ~resolution:None
                 ~init:(Value.default_of p.Kir.pd_ty)
             in
             port_sig.Rt.current <- init;
             port_sig.Rt.last_value <- init;
             connectors := (p.Kir.pd_mode, parent, `Ix ix, port_sig, p.Kir.pd_name) :: !connectors;
             Some port_sig
           | Some (Kir.Act_signal_slice (sref, (lo_e, dir, hi_e))) ->
             (* slice association: like element association, over a static
                index range *)
             let parent =
               match sref with
               | Kir.Sig_local i when i < Array.length signals -> signals.(i)
               | Kir.Sig_global { package; name } -> (
                 match Hashtbl.find_opt ctx.globals (package, name) with
                 | Some s -> s
                 | None -> err "global signal %s.%s not elaborated" package name)
               | _ -> err "bad slice actual for port %s of %s" p.Kir.pd_name inst_path
             in
             let static e =
               match eval_static subst e with
               | Some v -> Value.as_int v
               | None ->
                 err "slice bound for port %s of %s is not static" p.Kir.pd_name inst_path
             in
             let rng = (static lo_e, dir, static hi_e) in
             let rebound_to_port v =
               (* the slice keeps the parent's index values; inside the
                  instance the port's own bounds apply *)
               match (v, Types.range p.Kir.pd_ty) with
               | Value.Varray { elems; _ }, Some (l, d, r)
                 when Value.range_length (l, d, r) = Array.length elems ->
                 Value.Varray { bounds = (l, d, r); elems }
               | _ -> v
             in
             let init =
               try rebound_to_port (Value_ops.slice parent.Rt.current rng)
               with Value_ops.Runtime_error m ->
                 err "slice actual for port %s of %s: %s" p.Kir.pd_name inst_path m
             in
             let port_sig =
               make_signal ctx
                 ~path:(Printf.sprintf "%s:%s" inst_path p.Kir.pd_name)
                 ~ty:p.Kir.pd_ty ~kind:`Plain ~resolution:None
                 ~init:(Value.default_of p.Kir.pd_ty)
             in
             port_sig.Rt.current <- init;
             port_sig.Rt.last_value <- init;
             connectors :=
               (p.Kir.pd_mode, parent, `Slice (rng, rebound_to_port), port_sig, p.Kir.pd_name)
               :: !connectors;
             Some port_sig
           | Some (Kir.Act_expr e) ->
             (* expression actual: a fresh signal holding the value *)
             let v =
               match eval_static subst e with
               | Some v -> v
               | None -> Value.default_of p.Kir.pd_ty
             in
             let s =
               make_signal ctx
                 ~path:(Printf.sprintf "%s:%s" inst_path p.Kir.pd_name)
                 ~ty:p.Kir.pd_ty ~kind:`Plain ~resolution:None
                 ~init:(Value.default_of p.Kir.pd_ty)
             in
             s.Rt.current <- v;
             s.Rt.last_value <- v;
             Some s
           | Some Kir.Act_open | None -> None)
         sub_entity.Unit_info.en_ports)
  in
  ignore comp_ports;
  (* implicit connector processes for element associations *)
  List.iter
    (fun (mode, parent, part, port_sig, pname) ->
      let connect ~run label sensitivity =
        ignore
          (Kernel.add_process ctx.kernel
             ~name:(Printf.sprintf "%s:%s:%s" inst_path pname label)
             ~sensitivity ~has_wait:false
             ~body:(fun proc -> Kernel.Body (fun () -> run proc.Rt.proc_id)))
      in
      let now () = Kernel.now ctx.kernel in
      let owned_indices =
        match part with
        | `Ix ix -> [ ix ]
        | `Slice ((lo, d, hi), _) -> Value.range_indices (lo, d, hi)
      in
      let read_part () =
        match part with
        | `Ix ix -> Value.array_get parent.Rt.current ix
        | `Slice (rng, rebound) -> (
          try Some (rebound (Value_ops.slice parent.Rt.current rng))
          with Value_ops.Runtime_error _ -> None)
      in
      let write_part base =
        match part with
        | `Ix ix -> Value_ops.update_index base ix port_sig.Rt.current
        | `Slice (rng, _) -> Value_ops.update_slice base rng port_sig.Rt.current
      in
      (match mode with
      | Kir.Arg_in | Kir.Arg_inout ->
        (* port follows the parent part *)
        connect "conn_in" [ parent ] ~run:(fun pid ->
            match read_part () with
            | Some v ->
              let d = Rt.driver_of port_sig ~proc_id:pid in
              Rt.schedule d ~mode:Kir.Inertial ~transactions:[ (now (), Some v) ]
            | None -> ())
      | Kir.Arg_out -> ());
      match mode with
      | Kir.Arg_out | Kir.Arg_inout ->
        (* parent part follows the port *)
        connect "conn_out" [ port_sig ] ~run:(fun pid ->
            let d = Rt.driver_of parent ~proc_id:pid in
            d.Rt.drv_indices <- Some owned_indices;
            let base =
              match List.rev d.Rt.drv_wave with
              | (_, Some v) :: _ -> v
              | (_, None) :: _ | [] -> d.Rt.drv_value
            in
            let whole = write_part base in
            Rt.schedule d ~mode:Kir.Inertial ~transactions:[ (now (), Some whole) ];
            (* schedule clears ownership-agnostic state; restore the mask *)
            d.Rt.drv_indices <- Some owned_indices)
      | Kir.Arg_in -> ())
    !connectors;
  elaborate_instance ctx ~path:inst_path ~entity:sub_entity ~arch:sub_arch ~generic_values
    ~port_signals ~config_specs:[]

(* ------------------------------------------------------------------ *)
(* Entry point *)

type top =
  | Top_entity of { entity : string; arch : string option }
  | Top_configuration of string

(** Elaborate [top] from [lv] into a fresh kernel.  [step_budget] bounds
    the number of elaboration steps (signals + processes + instances);
    beyond it {!Budget_exhausted} is raised — callers convert it into a
    budget diagnostic. *)
let elaborate ?(trace_signals = true) ?step_budget (lv : library_view) (top : top) :
    model =
  let kernel = Kernel.create () in
  let ctx =
    {
      lv;
      kernel;
      ns = Name_server.create ();
      trace = Trace.create ();
      globals = Hashtbl.create 16;
      pkg_functions =
        (let deferred = package_deferred lv in
         let subst =
           {
             Kir_util.generic = (fun _ -> None);
             unit_const = (fun name -> Hashtbl.find_opt deferred name);
           }
         in
         let tbl = Hashtbl.create 64 in
         Hashtbl.iter
           (fun k (s : Kir.subprogram) ->
             Hashtbl.replace tbl k
               (Interp.entry { s with Kir.sub_body = Kir_util.subst_stmts subst s.Kir.sub_body }))
           (package_functions lv);
         tbl);
      pkg_deferred = package_deferred lv;
      sig_counter = 0;
      instance_count = 0;
      trace_signals;
      step_budget;
      steps_used = 0;
    }
  in
  elaborate_package_signals ctx;
  let entity_name, arch_name, config_specs =
    match top with
    | Top_entity { entity; arch } -> (entity, arch, [])
    | Top_configuration name -> (
      match lv.lv_find ~library:"WORK" ~key:("config:" ^ name) with
      | Some { Unit_info.u_info = Unit_info.Uconfig cf; _ } ->
        (cf.Unit_info.cf_entity, Some cf.Unit_info.cf_arch, cf.Unit_info.cf_specs)
      | _ -> err "no configuration %s in the working library" name)
  in
  let entity =
    match find_entity lv ~library:"WORK" entity_name with
    | Some en -> en
    | None -> err "no entity %s in the working library" entity_name
  in
  let arch =
    match arch_name with
    | Some a -> (
      match find_arch lv ~library:"WORK" ~entity:entity_name a with
      | Some ar -> ar
      | None -> err "no architecture %s of entity %s" a entity_name)
    | None -> (
      match latest_arch lv ~library:"WORK" ~entity:entity_name with
      | Some ar -> ar
      | None -> err "entity %s has no architecture" entity_name)
  in
  let n_ports = List.length entity.Unit_info.en_ports in
  (* the top entity's generics take their default values *)
  let generic_values =
    List.concat
      (List.mapi
         (fun i (g : Kir.generic_decl) ->
           match Option.bind g.Kir.gd_default Const_eval.eval_opt with
           | Some v -> [ (i, v) ]
           | None -> [])
         entity.Unit_info.en_generics)
  in
  elaborate_instance ctx
    ~path:(":" ^ String.lowercase_ascii entity_name)
    ~entity ~arch ~generic_values
    ~port_signals:(Array.make (max 1 n_ports) None)
    ~config_specs;
  {
    m_kernel = kernel;
    m_ns = ctx.ns;
    m_trace = ctx.trace;
    m_globals = ctx.globals;
    m_functions_loaded = Hashtbl.length ctx.pkg_functions;
    m_instances = ctx.instance_count;
  }
