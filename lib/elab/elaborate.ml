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

(* Package bodies: their subprograms by mangled name, linked with the
   deferred package constants (LRM 4.3.1.1) the bodies supply, keyed
   "PKG.NAME".  Packages carry no generics, so both are
   instance-independent; every instance's unit constants fall back to the
   deferred ones. *)
let package_bodies lv =
  let deferred = Hashtbl.create 8 and functions = Hashtbl.create 64 in
  let consts = { Const_eval.none with unit_const = Hashtbl.find_opt deferred } in
  List.iter
    (fun (u : Unit_info.compiled_unit) ->
      match u.Unit_info.u_info with
      | Unit_info.Upackage_body pb ->
        List.iter (fun (n, v) -> Hashtbl.replace deferred n v) pb.Unit_info.pb_deferred;
        List.iter
          (fun (s : Kir.subprogram) ->
            Hashtbl.replace functions s.Kir.sub_name (Interp.entry consts s))
          pb.Unit_info.pb_subprograms
      | _ -> ())
    (lv.lv_all ());
  (consts, functions)

(* ------------------------------------------------------------------ *)
(* Elaboration context *)

type ctx = {
  lv : library_view;
  kernel : Kernel.t;
  ns : Name_server.t;
  trace : Trace.t;
  globals : (string * string, Rt.signal) Hashtbl.t;
  pkg_consts : Const_eval.consts;
  pkg_functions : (string, Interp.entry) Hashtbl.t;
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

(* A signal-less environment over [consts] and [functions]: for
   elaboration-time values that may call user functions (LRM 4.3.1.2
   default expressions, architecture constants, signal initial values) and
   for resolution functions. *)
let function_env ctx ~consts ~functions =
  Interp.env ~consts ~signals:[||] ~guard:None ~globals:ctx.globals ~functions ~proc_id:(-1)
    ~name:"elaboration" ~kernel:ctx.kernel
    ~emit:(fun ~severity:_ ~line:_ _ -> ())
    ()

(* One evaluation through the one translation; a dynamic error in it is
   the design's, reported as an elaboration error about [what ()]. *)
let eval_init env ~what e =
  match Interp.eval env e with
  | v -> v
  | exception Rt.Simulation_error { msg; _ } -> err "%s: %s" (what ()) msg

let declared_init env ~path ty = function
  | None -> Value.default_of ty
  | Some e -> eval_init env ~what:(fun () -> "initial value of " ^ path) e

let make_signal ctx ~path ~ty ~kind ~resolution ~init =
  charge ctx;
  let s =
    Rt.make_signal ~id:(fresh_sig_id ctx) ~name:path ~ty ~kind ~resolution ~init
  in
  Kernel.register_signal ctx.kernel s;
  Name_server.register ctx.ns path (Name_server.Signal s);
  if ctx.trace_signals then Trace.watch ctx.trace path s;
  s

(* a fresh signal for port [p] of the instance at [inst_path], holding [v]
   from the start *)
let fresh_port ctx ~inst_path (p : Kir.port_decl) v =
  let s =
    make_signal ctx
      ~path:(Printf.sprintf "%s:%s" inst_path p.Kir.pd_name)
      ~ty:p.Kir.pd_ty ~kind:`Plain ~resolution:None
      ~init:(Value.default_of p.Kir.pd_ty)
  in
  s.Rt.current <- v;
  s.Rt.last_value <- v;
  s

(* The signal object [sref] names in an instance whose signal table is
   [signals], inside the block whose GUARD is [guard]; [bad sref] reports
   a reference that names none.  Process sensitivity and port actuals
   resolve through it. *)
let signal_of ctx ~signals ~guard ~bad (sref : Kir.sig_ref) =
  match (sref, guard) with
  | Kir.Sig_local i, _ when i < Array.length signals -> signals.(i)
  | Kir.Sig_guard, Some g -> g
  | Kir.Sig_global { package; name }, _ -> (
    match Hashtbl.find_opt ctx.globals (package, name) with
    | Some s -> s
    | None -> err "global signal %s.%s not elaborated" package name)
  | (Kir.Sig_local _ | Kir.Sig_guard | Kir.Sig_param _), _ -> bad sref

(* global package signals, created once *)
let elaborate_package_signals ctx =
  let env = function_env ctx ~consts:ctx.pkg_consts ~functions:ctx.pkg_functions in
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
                  ~init:(declared_init env ~path sd.Kir.sd_ty sd.Kir.sd_init)
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

(* The implicit connector processes of an element or slice association of
   port [pname] (mode [mode]) with the part of [parent] that [read] reads,
   [write] writes and [owned] indexes. *)
let connect ctx ~inst_path ~pname ~mode parent port_sig ~owned ~read ~write =
  let add label sensitivity run =
    ignore
      (Kernel.add_process ctx.kernel
         ~name:(Printf.sprintf "%s:%s:%s" inst_path pname label)
         ~sensitivity ~has_wait:false
         ~body:(fun proc -> Kernel.Body (fun () -> run proc.Rt.proc_id)))
  in
  let now () = Kernel.now ctx.kernel in
  (match mode with
  | Kir.Arg_in | Kir.Arg_inout ->
    (* port follows the parent part *)
    add "conn_in" [ parent ] (fun pid ->
        match read parent.Rt.current with
        | Some v ->
          let d = Rt.driver_of port_sig ~proc_id:pid in
          Rt.schedule d ~mode:Kir.Inertial ~transactions:[ (now (), Some v) ]
        | None -> ())
  | Kir.Arg_out -> ());
  match mode with
  | Kir.Arg_out | Kir.Arg_inout ->
    (* parent part follows the port *)
    add "conn_out" [ port_sig ] (fun pid ->
        let d = Rt.driver_of parent ~proc_id:pid in
        d.Rt.drv_indices <- Some owned;
        let base =
          match List.rev d.Rt.drv_wave with
          | (_, Some v) :: _ -> v
          | (_, None) :: _ | [] -> d.Rt.drv_value
        in
        let whole = write base port_sig.Rt.current in
        Rt.schedule d ~mode:Kir.Inertial ~transactions:[ (now (), Some whole) ];
        (* schedule clears ownership-agnostic state; restore the mask *)
        d.Rt.drv_indices <- Some owned)
  | Kir.Arg_in -> ()

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
  (* the instance's generics, then its architecture constants in order *)
  let unit_consts : (string, Value.t) Hashtbl.t = Hashtbl.create 8 in
  let consts =
    {
      Const_eval.generic = (fun i -> List.assoc_opt i generic_values);
      unit_const =
        (fun name ->
          match Hashtbl.find_opt unit_consts name with
          | Some v -> Some v
          | None -> ctx.pkg_consts.Const_eval.unit_const name);
    }
  in
  (* instance-private function table: package functions + the
     architecture's subprograms, linked with this instance's constants *)
  let functions = Hashtbl.copy ctx.pkg_functions in
  List.iter
    (fun (s : Kir.subprogram) -> Hashtbl.replace functions s.Kir.sub_name (Interp.entry consts s))
    arch.Unit_info.ar_subprograms;
  let env = function_env ctx ~consts ~functions in
  List.iter
    (fun (name, _, init) ->
      Hashtbl.replace unit_consts name
        (eval_init env ~what:(fun () -> Printf.sprintf "constant %s of %s" name path) init))
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
            ~init:(declared_init env ~path p.Kir.pd_ty p.Kir.pd_default)
      in
      table.(i) <- Some s)
    entity.Unit_info.en_ports;
  List.iteri
    (fun i (sd : Kir.signal_decl) ->
      let s =
        let path = Printf.sprintf "%s:%s" path sd.Kir.sd_name in
        make_signal ctx ~path ~ty:sd.Kir.sd_ty ~kind:sd.Kir.sd_kind
          ~resolution:(resolution_of sd.Kir.sd_resolution)
          ~init:(declared_init env ~path sd.Kir.sd_ty sd.Kir.sd_init)
      in
      (match sd.Kir.sd_disconnect with
      | Some e -> (
        match Const_eval.eval_opt consts e with
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
  elaborate_concurrents ctx ~path ~arch ~consts ~functions ~signals ~guard:None ~config_specs
    arch.Unit_info.ar_body

and elaborate_concurrents ctx ~path ~arch ~consts ~functions ~signals ~guard ~config_specs
    concs =
  List.iter
    (fun (c : Kir.concurrent) ->
      match c with
      | Kir.C_process p -> elaborate_process ctx ~path ~consts ~functions ~signals ~guard p
      | Kir.C_instance inst ->
        elaborate_sub_instance ctx ~path ~arch ~consts ~signals ~guard ~config_specs inst
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
            elaborate_process ctx ~path ~consts ~functions ~signals ~guard:(Some g)
              {
                Kir.proc_label = blk_label ^ "_guard";
                proc_sensitivity = sens;
                proc_locals = [];
                proc_body = body;
                proc_postponed_wait = true;
              };
            Some g
        in
        elaborate_concurrents ctx ~path:(Printf.sprintf "%s:%s" path blk_label) ~arch ~consts
          ~functions ~signals
          ~guard:(match guard_sig with Some g -> Some g | None -> guard)
          ~config_specs blk_body
      | Kir.C_generate { gen_label; gen_var; gen_range = lo, d, hi; gen_body } ->
        (* expand the generate statement: the parameter rides through the
           body as a unit constant, one value per iteration *)
        let bound e =
          match Const_eval.eval_opt consts e with
          | Some v -> Value.as_int v
          | None -> err "generate range of %s is not static" gen_label
        in
        let rewrap =
          match Const_eval.eval_opt consts lo with
          | Some (Value.Venum _) -> fun i -> Value.Venum i
          | _ -> fun i -> Value.Vint i
        in
        List.iter
          (fun i ->
            let consts' =
              {
                consts with
                Const_eval.unit_const =
                  (fun name ->
                    if String.equal name gen_var then Some (rewrap i)
                    else consts.Const_eval.unit_const name);
              }
            in
            elaborate_concurrents ctx
              ~path:(Printf.sprintf "%s:%s(%d)" path gen_label i)
              ~arch ~consts:consts' ~functions ~signals ~guard ~config_specs gen_body)
          (Value.range_indices (bound lo, d, bound hi))
      | Kir.C_if_generate { ig_label; ig_cond; ig_body } -> (
        match Const_eval.eval_opt consts ig_cond with
        | Some v when Value.truth v ->
          elaborate_concurrents ctx
            ~path:(Printf.sprintf "%s:%s" path ig_label)
            ~arch ~consts ~functions ~signals ~guard ~config_specs ig_body
        | Some _ -> ()
        | None -> err "if-generate condition of %s is not static" ig_label))
    concs

and elaborate_process ctx ~path ~consts ~functions ~signals ~guard (p : Kir.process) =
  charge ctx;
  let proc_path = Printf.sprintf "%s:%s" path p.Kir.proc_label in
  let bad = function
    | Kir.Sig_local i -> err "sensitivity index %d out of range in %s" i proc_path
    | Kir.Sig_guard -> err "process %s uses GUARD outside a guarded block" proc_path
    | _ -> err "signal parameter in the sensitivity of %s" proc_path
  in
  let sensitivity = List.map (signal_of ctx ~signals ~guard ~bad) p.Kir.proc_sensitivity in
  let body = p.Kir.proc_body in
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
          Interp.env ~consts ~signals ~guard ~globals:ctx.globals ~functions
            ~proc_id:proc.Rt.proc_id ~name:proc_path ~kernel:ctx.kernel
            ~emit:(Kernel.emit ctx.kernel) ~frame ()
        in
        (* initialize locals (may call functions) *)
        List.iteri
          (fun i (l : Kir.local) ->
            frame.(i) <-
              (match l.Kir.l_init with
              | Some e ->
                eval_init env ~what:(fun () -> Printf.sprintf "%s of %s" l.Kir.l_name proc_path) e
              | None -> Value.default_of l.Kir.l_ty))
          p.Kir.proc_locals;
        Interp.process_body env body)
  in
  Name_server.register ctx.ns proc_path (Name_server.Process proc)

and elaborate_sub_instance ctx ~path ~arch ~consts ~signals ~guard ~config_specs
    (inst : Kir.instance) =
  let inst_path = Printf.sprintf "%s:%s" path inst.Kir.inst_label in
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
            match Const_eval.eval_opt consts e with
            | Some v -> Some v
            | None -> err "generic %s of %s is not static" g.Kir.gd_name inst_path)
          | Some Kir.Act_open | None -> (
            match g.Kir.gd_default with
            | Some e -> Const_eval.eval_opt consts e
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
  (* port connections in the sub-entity's formal order; the connector
     processes of element and slice associations are added after every
     port has its signal *)
  let connectors = ref [] in
  let port (p : Kir.port_decl) actual =
    let parent what =
      signal_of ctx ~signals ~guard ~bad:(fun _ ->
          err "bad %s actual for port %s of %s" what p.Kir.pd_name inst_path)
    in
    let static what e =
      match Const_eval.eval_opt consts e with
      | Some v -> Value.as_int v
      | None -> err "%s for port %s of %s is not static" what p.Kir.pd_name inst_path
    in
    (* element or slice association: a fresh port signal holding [init],
       and the implicit connector processes between it and the part *)
    let associate parent ~owned ~read ~write init =
      let port_sig = fresh_port ctx ~inst_path p init in
      connectors :=
        (fun () ->
          connect ctx ~inst_path ~pname:p.Kir.pd_name ~mode:p.Kir.pd_mode parent port_sig ~owned
            ~read ~write)
        :: !connectors;
      Some port_sig
    in
    match actual with
    | Some (Kir.Act_signal sref) -> Some (parent "signal" sref)
    | Some (Kir.Act_signal_index (sref, ix)) ->
      let parent = parent "element" sref and ix = static "element index" ix in
      let init =
        match Value.array_get parent.Rt.current ix with
        | Some v -> v
        | None -> err "element index %d out of range for %s" ix parent.Rt.sig_name
      in
      associate parent ~owned:[ ix ]
        ~read:(fun w -> Value.array_get w ix)
        ~write:(fun w v -> Value_ops.update_index w ix v)
        init
    | Some (Kir.Act_signal_slice (sref, (lo, dir, hi))) ->
      let parent = parent "slice" sref in
      let rng = (static "slice bound" lo, dir, static "slice bound" hi) in
      (* the slice keeps the parent's index values; inside the instance
         the port's own bounds apply *)
      let part w = Value_ops.to_subtype p.Kir.pd_ty (Value_ops.slice w rng) in
      let init =
        try part parent.Rt.current
        with Value_ops.Runtime_error m ->
          err "slice actual for port %s of %s: %s" p.Kir.pd_name inst_path m
      in
      associate parent ~owned:(Value.range_indices rng)
        ~read:(fun w -> try Some (part w) with Value_ops.Runtime_error _ -> None)
        ~write:(fun w v -> Value_ops.update_slice w rng v)
        init
    | Some (Kir.Act_expr e) ->
      (* expression actual: a fresh signal holding the value *)
      let v = Option.value (Const_eval.eval_opt consts e) ~default:(Value.default_of p.Kir.pd_ty) in
      Some (fresh_port ctx ~inst_path p v)
    | Some Kir.Act_open | None -> None
  in
  let port_signals =
    Array.of_list
      (List.map
         (fun (p : Kir.port_decl) -> port p (List.assoc_opt p.Kir.pd_name inst.Kir.inst_port_map))
         sub_entity.Unit_info.en_ports)
  in
  List.iter (fun connect -> connect ()) !connectors;
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
  let pkg_consts, pkg_functions = package_bodies lv in
  let ctx =
    {
      lv;
      kernel;
      ns = Name_server.create ();
      trace = Trace.create ();
      globals = Hashtbl.create 16;
      pkg_consts;
      pkg_functions;
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
           match Option.bind g.Kir.gd_default (Const_eval.eval_opt Const_eval.none) with
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
