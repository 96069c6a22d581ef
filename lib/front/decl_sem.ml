(** Out-of-line semantics for names and declarations (principal AG).

    The central function is {!classify}: it consults the ENV attribute — the
    applicative symbol table — to turn an identifier into classified LEF
    tokens, which is where "very different phrase structure can be built for
    two identical pieces of source text". *)

open Pval

(* ------------------------------------------------------------------ *)
(* Name classification *)

let classify_denots ~line ~name (denots : Denot.t list) : Lef.tok list * Diag.t list =
  let tok kind = { Lef.l_kind = kind; l_line = line } in
  match denots with
  | [] -> ([ tok (Lef.Kident name) ], [])
  | _ ->
    let enums =
      List.filter_map
        (function
          | Denot.Denum_lit { ty; pos; image } -> Some (ty, pos, image)
          | _ -> None)
        denots
    in
    let subprogs =
      List.filter_map (function Denot.Dsubprog s -> Some s | _ -> None) denots
    in
    if enums <> [] then ([ tok (Lef.Kenum enums) ], [])
    else if subprogs <> [] then
      let functions = List.filter (fun s -> s.Denot.ss_kind = `Function) subprogs in
      if functions <> [] then ([ tok (Lef.Kfunc functions) ], [])
      else ([ tok (Lef.Kproc subprogs) ], [])
    else begin
      match List.hd denots with
      | Denot.Dobject { cls; ty; mode; slot; name } -> (
        match (cls, slot) with
        | _, Denot.Sl_static value -> ([ tok (Lef.Kconst_val { name; ty; value }) ], [])
        | _, Denot.Sl_unit_const name -> ([ tok (Lef.Kunitconst { name; ty }) ], [])
        | Denot.Csignal, Denot.Sl_signal sref -> ([ tok (Lef.Ksig { name; ty; sref; mode }) ], [])
        | _, Denot.Sl_signal sref -> ([ tok (Lef.Ksig { name; ty; sref; mode }) ], [])
        | _, Denot.Sl_frame { level; index } ->
          ([ tok (Lef.Kvar { name; ty; level; index }) ], [])
        | _, Denot.Sl_generic index -> ([ tok (Lef.Kgeneric { name; ty; index }) ], []))
      | Denot.Dtype ty | Denot.Dsubtype ty -> ([ tok (Lef.Ktype ty) ], [])
      | Denot.Dlibrary l -> ([ tok (Lef.Kscope (Lef.Slib l)) ], [])
      | Denot.Dunit { library; unit_name } ->
        ([ tok (Lef.Kscope (Lef.Sunit { library; unit_name })) ], [])
      | Denot.Dattr_value { value; ty; _ } -> ([ tok (Lef.Kattrval { value; ty }) ], [])
      | Denot.Dphys_unit _ | Denot.Dcomponent _ | Denot.Dattr_decl _ | Denot.Dlabel _
      | Denot.Denum_lit _ | Denot.Dsubprog _ ->
        ([ tok (Lef.Kident name) ], [])
    end

(** Classify an operator occurrence: plain token, or — when a string
    designator like [function "+"] is visible — a token carrying the user
    overload candidates (paper §4.1's token-value mechanism). *)
let classify_op ~env ~line op : Lef.tok =
  match
    List.filter_map
      (function Denot.Dsubprog s -> Some s | _ -> None)
      (Env.lookup env (Lef.operator_key op))
  with
  | [] -> Lef.op ~line op
  | cands -> { Lef.l_kind = Lef.Kop_user { op; cands }; l_line = line }

(** Classify a plain identifier through the environment. *)
let classify ~env ~line name : Lef.tok list * Diag.t list =
  classify_denots ~line ~name (Env.lookup env name)

(** Selected name [prefix . id]: package item, library unit, or record
    field.  [prefix_lef] is the prefix's LEF. *)
let classify_selected ~env ~line prefix_lef id : Lef.tok list * Diag.t list =
  ignore env;
  match prefix_lef with
  | [ { Lef.l_kind = Lef.Kscope (Lef.Slib library); _ } ] -> (
    match Session.find_unit ~library ~key:("package:" ^ id) with
    | Some _ ->
      ([ { Lef.l_kind = Lef.Kscope (Lef.Sunit { library; unit_name = id }); l_line = line } ], [])
    | None -> (
      match Session.find_unit ~library ~key:("entity:" ^ id) with
      | Some _ ->
        ( [ { Lef.l_kind = Lef.Kscope (Lef.Sunit { library; unit_name = id }); l_line = line } ],
          [] )
      | None ->
        ( [ { Lef.l_kind = Lef.Kident id; l_line = line } ],
          [ Diag.error ~line "no unit %s in library %s" id library ] )))
  | [ { Lef.l_kind = Lef.Kscope (Lef.Sunit { library; unit_name }); _ } ] -> (
    match Session.find_unit ~library ~key:("package:" ^ unit_name) with
    | Some { Unit_info.u_info = Unit_info.Upackage pk; _ } -> (
      let denots =
        List.filter_map
          (fun (n, d) -> if String.equal n id then Some d else None)
          pk.Unit_info.pk_exports
      in
      match denots with
      | [] ->
        ( [ { Lef.l_kind = Lef.Kident id; l_line = line } ],
          [ Diag.error ~line "package %s has no declaration named %s" unit_name id ] )
      | _ -> classify_denots ~line ~name:id denots)
    | _ ->
      ( [ { Lef.l_kind = Lef.Kident id; l_line = line } ],
        [ Diag.error ~line "%s is not a package" unit_name ] ))
  | _ ->
    (* record field selection: resolved by the expression AG *)
    (prefix_lef @ [ Lef.punct ~line "."; { Lef.l_kind = Lef.Kident id; l_line = line } ], [])

(** Attribute mark [prefix ' id]: a user-defined attribute value wins over
    the predefined attribute of the same name (the paper's
    X'REVERSE_RANGE discussion). *)
let classify_attribute ~env ~line ~base prefix_lef id : Lef.tok list * Diag.t list =
  let key = base ^ "'" ^ id in
  match Env.lookup env key with
  | Denot.Dattr_value { value; ty; _ } :: _ ->
    ([ { Lef.l_kind = Lef.Kattrval { value; ty }; l_line = line } ], [])
  | _ -> (prefix_lef @ [ Lef.punct ~line "'"; { Lef.l_kind = Lef.Kattr id; l_line = line } ], [])

(** Physical literal [n unit] / [x unit]. *)
let classify_physical ~env ~line ~abstract unit_name : Lef.tok list * Diag.t list =
  match Env.lookup env unit_name with
  | Denot.Dphys_unit { ty; scale; _ } :: _ ->
    let value =
      match abstract with
      | `Int n -> n * scale
      | `Real x -> int_of_float (x *. float_of_int scale)
    in
    ([ { Lef.l_kind = Lef.Kphys { value; ty }; l_line = line } ], [])
  | _ ->
    ( [ { Lef.l_kind = Lef.Kident unit_name; l_line = line } ],
      [ Diag.error ~line "%s is not a physical unit" unit_name ] )

(* ------------------------------------------------------------------ *)
(* Subtype indications *)

(** Split a LEF list at top-level [to]/[downto]. *)
let split_range lef =
  let rec go depth acc = function
    | [] -> None
    | ({ Lef.l_kind = Lef.Kpunct "("; _ } as t) :: rest -> go (depth + 1) (t :: acc) rest
    | ({ Lef.l_kind = Lef.Kpunct ")"; _ } as t) :: rest -> go (depth - 1) (t :: acc) rest
    | { Lef.l_kind = Lef.Kpunct (("to" | "downto") as d); _ } :: rest when depth = 0 ->
      let dir = if d = "to" then Types.To else Types.Downto in
      Some (List.rev acc, dir, rest)
    | t :: rest -> go depth (t :: acc) rest
  in
  go 0 [] lef

type resolved_subtype = {
  rs_ty : Types.t;
  rs_resolution : Denot.subprog_sig option;
  rs_msgs : Diag.t list;
}

let static_int_of ~level ~line ~expected lef : (int, Diag.t) result =
  let r = Expr_eval.eval ~expected ~level ~line lef in
  match r.x_static with
  | Some v -> Ok (Value.as_int v)
  | None -> (
    match r.x_msgs with
    | d :: _ -> Error d
    | [] -> Error (Diag.error ~line "bound is not static"))

(** Resolve a subtype indication given as (resolution?, type-mark LEF with
    optional parenthesized constraint). *)
let resolve_subtype ~level ~line (lef : Lef.tok list) : resolved_subtype =
  let fail msg =
    { rs_ty = Expr_sem.error_ty; rs_resolution = None; rs_msgs = [ Diag.error ~line "%s" msg ] }
  in
  let resolution, rest =
    match lef with
    | { Lef.l_kind = Lef.Kfunc (s :: _); _ } :: (_ :: _ as rest) -> (Some s, rest)
    | _ -> (None, lef)
  in
  match rest with
  | [ { Lef.l_kind = Lef.Ktype ty; _ } ] -> { rs_ty = ty; rs_resolution = resolution; rs_msgs = [] }
  | { Lef.l_kind = Lef.Ktype ty; _ }
    :: { Lef.l_kind = Lef.Kpunct "("; _ }
    :: inner_and_close
    when inner_and_close <> [] -> (
    (* index constraint: strip the final ')' *)
    let inner = List.filteri (fun i _ -> i < List.length inner_and_close - 1) inner_and_close in
    match ty.Types.kind with
    | Types.Karray { index; _ } -> (
      match split_range inner with
      | Some (lo_lef, dir, hi_lef) -> (
        let expected = { index with Types.constr = None } in
        match
          (static_int_of ~level ~line ~expected lo_lef, static_int_of ~level ~line ~expected hi_lef)
        with
        | Ok lo, Ok hi ->
          {
            rs_ty = Types.subtype ty ~constr:(Types.Crange (lo, dir, hi));
            rs_resolution = resolution;
            rs_msgs = [];
          }
        | Error d, _ | _, Error d ->
          { rs_ty = ty; rs_resolution = resolution; rs_msgs = [ d ] })
      | None -> (
        (* attribute range: X'RANGE *)
        let (lo, dir, hi), _, msgs = Expr_eval.eval_range ~level ~line inner in
        let static = Const_eval.eval_opt Const_eval.none in
        match (static lo, static hi) with
        | Some l, Some h ->
          {
            rs_ty = Types.subtype ty ~constr:(Types.Crange (Value.as_int l, dir, Value.as_int h));
            rs_resolution = resolution;
            rs_msgs = msgs;
          }
        | _ ->
          {
            rs_ty = ty;
            rs_resolution = resolution;
            rs_msgs = msgs @ [ Diag.error ~line "index constraint must be static" ];
          }))
    | _ -> fail "only array types take index constraints")
  | _ -> fail "invalid subtype indication"

(** Scalar range constraint: [type-mark range l dir r]. *)
let resolve_range_subtype ~level ~line (mark_lef : Lef.tok list) (lo_lef : Lef.tok list)
    (dir : Types.dir) (hi_lef : Lef.tok list) : resolved_subtype =
  let base = resolve_subtype ~level ~line mark_lef in
  if base.rs_msgs <> [] then base
  else begin
    let ty = base.rs_ty in
    match ty.Types.kind with
    | Types.Kfloat -> (
      let ev lef = Expr_eval.eval ~expected:{ ty with Types.constr = None } ~level ~line lef in
      let l = ev lo_lef and h = ev hi_lef in
      match (l.x_static, h.x_static) with
      | Some lv, Some hv ->
        {
          base with
          rs_ty =
            Types.subtype ty
              ~constr:(Types.Cfloat_range (Value.as_float lv, dir, Value.as_float hv));
        }
      | _ -> { base with rs_msgs = [ Diag.error ~line "range bounds must be static" ] })
    | _ -> (
      let expected = { ty with Types.constr = None } in
      match
        (static_int_of ~level ~line ~expected lo_lef, static_int_of ~level ~line ~expected hi_lef)
      with
      | Ok lo, Ok hi ->
        { base with rs_ty = Types.subtype ty ~constr:(Types.Crange (lo, dir, hi)) }
      | Error d, _ | _, Error d -> { base with rs_msgs = [ d ] })
  end

(* ------------------------------------------------------------------ *)
(* Type declarations *)

let qualify ~unit_name name = unit_name ^ "." ^ name

(** Enumeration type definition: returns the Tydef closure. *)
let enum_type_def ~unit_name (literals : (string * int) list) =
  Tydef
    (fun name ->
      let ty =
        {
          Types.base = qualify ~unit_name name;
          kind = Types.Kenum (Array.of_list (List.map fst literals));
          constr = None;
        }
      in
      let binds =
        List.mapi
          (fun pos (image, _line) -> (image, Denot.Denum_lit { ty; pos; image }))
          literals
      in
      (ty, binds))

let record_type_def ~unit_name ~(fields : (string * Types.t) list) =
  Tydef
    (fun name ->
      let ty =
        { Types.base = qualify ~unit_name name; kind = Types.Krecord fields; constr = None }
      in
      (ty, []))

(* ------------------------------------------------------------------ *)
(* Object declarations *)

type object_context = {
  oc_env : Env.t;
  oc_level : int;
  oc_unit : string; (* qualified unit name, for mangling *)
  oc_kind : [ `Package of string | `Architecture | `Process | `Subprogram | `Entity | `Block ];
  oc_slot_base : int; (* next frame slot *)
  oc_sig_base : int; (* next signal index *)
}

let eval_default ~level ~line ~ty lef =
  match lef with
  | [] -> (None, [])
  | _ ->
    let r = Expr_eval.eval ~expected:ty ~level ~line lef in
    (Some r.x_code, r.x_msgs)

(** Constant declarations. *)
let constant_decl (oc : object_context) ~line (names : (string * int) list) (ty : Types.t)
    (init_lef : Lef.tok list) : decl_out * Diag.t list =
  let init, msgs = eval_default ~level:oc.oc_level ~line ~ty init_lef in
  match init with
  | None -> (
    match oc.oc_kind with
    | `Package pkg ->
      (* deferred constant (LRM 4.3.1.1): the package body supplies the
         value; references late-bind through the unit-constant slot *)
      let binds =
        List.map
          (fun (name, _) ->
            ( name,
              Denot.Dobject
                {
                  name;
                  cls = Denot.Cconstant;
                  ty;
                  mode = None;
                  slot = Denot.Sl_unit_const (pkg ^ "." ^ name);
                } ))
          names
      in
      ({ out_empty with o_binds = binds }, msgs)
    | _ ->
      (out_empty, msgs @ [ Diag.error ~line "constant declaration requires an initial value" ]))
  | Some code -> (
    let static, msgs =
      match Const_eval.eval Const_eval.none code with
      | static -> (static, msgs)
      | exception Value_ops.Runtime_error m ->
        (* a static value whose evaluation fails is an analysis error; the
           names stay declared, with the type's default value *)
        (Some (Value.default_of ty), msgs @ [ Diag.error ~line "%s" m ])
    in
    match static with
    | Some value ->
      let binds =
        List.map
          (fun (name, _) ->
            ( name,
              Denot.Dobject
                {
                  name;
                  cls = Denot.Cconstant;
                  ty;
                  mode = None;
                  slot = Denot.Sl_static value;
                } ))
          names
      in
      let deferred =
        (* in a package (declaration or body) also publish the qualified
           value, so a body's full declaration completes a deferred one *)
        match oc.oc_kind with
        | `Package pkg -> List.map (fun (name, _) -> (pkg ^ "." ^ name, value)) names
        | _ -> []
      in
      ({ out_empty with o_binds = binds; o_deferred = deferred }, msgs)
    | None -> (
      match oc.oc_kind with
      | `Process | `Subprogram ->
        (* frame-allocated constant *)
        let locals, binds, _ =
          List.fold_left
            (fun (locals, binds, idx) (name, _) ->
              ( { Kir.l_name = name; l_ty = ty; l_init = Some code } :: locals,
                ( name,
                  Denot.Dobject
                    {
                      name;
                      cls = Denot.Cconstant;
                      ty;
                      mode = None;
                      slot = Denot.Sl_frame { level = oc.oc_level; index = idx };
                    } )
                :: binds,
                idx + 1 ))
            ([], [], oc.oc_slot_base) names
        in
        ({ out_empty with o_locals = List.rev locals; o_binds = List.rev binds }, msgs)
      | `Architecture | `Block ->
        (* elaboration-time constant (depends on generics) *)
        let binds =
          List.map
            (fun (name, _) ->
              ( name,
                Denot.Dobject
                  {
                    name;
                    cls = Denot.Cconstant;
                    ty;
                    mode = None;
                    slot = Denot.Sl_unit_const name;
                  } ))
            names
        in
        (* ride the initializer through o_locals with a marker type: the
           architecture rule moves these into ar_constants *)
        let locals =
          List.map (fun (name, _) -> { Kir.l_name = name; l_ty = ty; l_init = Some code }) names
        in
        ({ out_empty with o_binds = binds; o_locals = locals }, msgs)
      | `Package _ | `Entity ->
        (out_empty, msgs @ [ Diag.error ~line "constant in this context must be static" ])))

(** Disconnection specification (LRM 5.3):
    [disconnect s1, s2 : type after 5 ns;] sets the delay before a guarded
    disconnect of these signals' drivers takes effect. *)
let disconnect_spec ~level ~line (name_lefs : Lef.tok list list)
    (after_lef : Lef.tok list) : decl_out * Diag.t list =
  let delay = Expr_eval.eval ~expected:Std.time ~level ~line after_lef in
  let entries, msgs =
    List.fold_left
      (fun (entries, msgs) lef ->
        match lef with
        | [ { Lef.l_kind = Lef.Ksig { name; _ }; _ } ] ->
          ((name, delay.x_code) :: entries, msgs)
        | _ ->
          ( entries,
            msgs @ [ Diag.error ~line "disconnect specification requires signal names" ] ))
      ([], []) name_lefs
  in
  ({ out_empty with o_disconnects = List.rev entries }, delay.x_msgs @ msgs)

(** Signal declarations. *)
let signal_decl (oc : object_context) ~line (names : (string * int) list) (rs : resolved_subtype)
    ~(kind : [ `Plain | `Bus | `Register ]) (init_lef : Lef.tok list) : decl_out * Diag.t list =
  let ty = rs.rs_ty in
  let init, msgs = eval_default ~level:oc.oc_level ~line ~ty init_lef in
  let resolution = Option.map (fun s -> Kir.F_user s.Denot.ss_mangled) rs.rs_resolution in
  match oc.oc_kind with
  | `Process | `Subprogram ->
    (out_empty, msgs @ [ Diag.error ~line "signals may not be declared here" ])
  | `Package pkg_name ->
    let signals, binds =
      List.split
        (List.map
           (fun (name, _) ->
             ( {
                 Kir.sd_name = name;
                 sd_ty = ty;
                 sd_init = init;
                 sd_resolution = resolution;
                 sd_kind = kind;
                 sd_disconnect = None;
               },
               ( name,
                 Denot.Dobject
                   {
                     name;
                     cls = Denot.Csignal;
                     ty;
                     mode = None;
                     slot =
                       Denot.Sl_signal (Kir.Sig_global { package = pkg_name; name });
                   } ) ))
           names)
    in
    ({ out_empty with o_signals = signals; o_binds = binds }, msgs)
  | `Architecture | `Block | `Entity ->
    let signals, binds, _ =
      List.fold_left
        (fun (sigs, binds, idx) (name, _) ->
          ( {
              Kir.sd_name = name;
              sd_ty = ty;
              sd_init = init;
              sd_resolution = resolution;
              sd_kind = kind;
              sd_disconnect = None;
            }
            :: sigs,
            ( name,
              Denot.Dobject
                {
                  name;
                  cls = Denot.Csignal;
                  ty;
                  mode = None;
                  slot = Denot.Sl_signal (Kir.Sig_local idx);
                } )
            :: binds,
            idx + 1 ))
        ([], [], oc.oc_sig_base) names
    in
    ({ out_empty with o_signals = List.rev signals; o_binds = List.rev binds }, msgs)

(** Variable declarations. *)
let variable_decl (oc : object_context) ~line (names : (string * int) list) (ty : Types.t)
    (init_lef : Lef.tok list) : decl_out * Diag.t list =
  match oc.oc_kind with
  | `Process | `Subprogram ->
    let init, msgs = eval_default ~level:oc.oc_level ~line ~ty init_lef in
    let locals, binds, _ =
      List.fold_left
        (fun (locals, binds, idx) (name, _) ->
          ( { Kir.l_name = name; l_ty = ty; l_init = init } :: locals,
            ( name,
              Denot.Dobject
                {
                  name;
                  cls = Denot.Cvariable;
                  ty;
                  mode = None;
                  slot = Denot.Sl_frame { level = oc.oc_level; index = idx };
                } )
            :: binds,
            idx + 1 ))
        ([], [], oc.oc_slot_base) names
    in
    ({ out_empty with o_locals = List.rev locals; o_binds = List.rev binds }, msgs)
  | `Package _ | `Architecture | `Block | `Entity ->
    ( out_empty,
      [ Diag.error ~line "variables may only be declared in processes and subprograms" ] )

(* ------------------------------------------------------------------ *)
(* Interfaces and subprograms *)

let mangle ~unit_name ~name ?ret (params : iface list) =
  let sigs =
    List.concat_map
      (fun p -> List.map (fun _ -> Types.short_name p.if_ty) p.if_names)
      params
  in
  (* the profile includes the result type (LRM 2.3: functions may be
     overloaded on the result alone) *)
  let ret_part =
    match ret with
    | Some (ty : Types.t) -> "->" ^ Types.short_name ty
    | None -> ""
  in
  Printf.sprintf "%s:%s/%s%s" unit_name name (String.concat "," sigs) ret_part

let iface_params (ifaces : iface list) : Denot.param list =
  List.concat_map
    (fun i ->
      List.map
        (fun (name, _) ->
          {
            Denot.p_name = name;
            p_mode = Option.value i.if_mode ~default:Kir.Arg_in;
            p_class =
              (match i.if_class with
              | Some c -> c
              | None -> (
                match i.if_mode with
                | Some Kir.Arg_in | None -> Denot.Cconstant
                | Some (Kir.Arg_out | Kir.Arg_inout) -> Denot.Cvariable));
            p_ty = i.if_ty;
            p_default = i.if_default;
          })
        i.if_names)
    ifaces

(** Build the signature denotation of a subprogram spec. *)
let subprog_sig ~unit_name (spec : subprog_spec) : Denot.subprog_sig =
  {
    Denot.ss_name = spec.sp_name;
    ss_mangled = mangle ~unit_name ~name:spec.sp_name ?ret:spec.sp_ret spec.sp_params;
    ss_kind = spec.sp_kind;
    ss_params = iface_params spec.sp_params;
    ss_ret = spec.sp_ret;
    ss_builtin = false;
  }

(** LRM 2.1: the parameters of a function must all be of mode [in]. *)
let validate_spec ~line (s : Denot.subprog_sig) : Diag.t list =
  match s.Denot.ss_kind with
  | `Procedure -> []
  | `Function ->
    List.filter_map
      (fun (p : Denot.param) ->
        if p.Denot.p_mode <> Kir.Arg_in then
          Some
            (Diag.error ~line "parameter %s of function %s must be of mode in"
               p.Denot.p_name s.Denot.ss_name)
        else None)
      s.Denot.ss_params

(** Environment bindings for a subprogram's parameters (frame slots 0..). *)
let param_binds ~level (s : Denot.subprog_sig) =
  List.mapi
    (fun idx (p : Denot.param) ->
      ( p.Denot.p_name,
        Denot.Dobject
          {
            name = p.Denot.p_name;
            cls = p.Denot.p_class;
            ty = p.Denot.p_ty;
            mode = Some p.Denot.p_mode;
            slot =
              (* signal-class parameters are signals, not frame values: the
                 actual is bound at each call (LRM 2.1.1.2) *)
              (if p.Denot.p_class = Denot.Csignal then
                 Denot.Sl_signal (Kir.Sig_param idx)
               else Denot.Sl_frame { level; index = idx });
          } ))
    s.Denot.ss_params

(* ------------------------------------------------------------------ *)
(* Context clauses *)

(** Resolve a USE clause path. *)
let resolve_use ~line (parts : string list) ~(all : bool) : decl_out * Diag.t list =
  match parts with
  | [ lib; "STANDARD" ] when lib = "STD" && all ->
    ({ out_empty with o_binds = Env.bindings (Std.env ()) |> List.rev }, [])
  | lib :: pkg :: rest when rest = [] || List.length rest = 1 -> (
    if not (Session.known_library lib) then
      (out_empty, [ Diag.error ~line "library %s is not visible (missing library clause?)" lib ])
    else
      match Session.find_unit ~library:lib ~key:("package:" ^ pkg) with
      | Some { Unit_info.u_info = Unit_info.Upackage pk; _ } ->
        let deps = [ (lib, "package:" ^ pkg) ] in
        let binds =
          match (rest, all) with
          | [], true -> pk.Unit_info.pk_exports
          | [], false -> [ (pkg, Denot.Dunit { library = lib; unit_name = pkg }) ]
          | [ item ], _ ->
            List.filter (fun (n, _) -> String.equal n item) pk.Unit_info.pk_exports
          | _ -> []
        in
        let msgs =
          match (rest, binds) with
          | [ item ], [] -> [ Diag.error ~line "package %s has no declaration named %s" pkg item ]
          | _ -> []
        in
        ({ out_empty with o_binds = binds; o_deps = deps }, msgs)
      | Some _ -> (out_empty, [ Diag.error ~line "%s is not a package" pkg ])
      | None -> (out_empty, [ Diag.error ~line "no package %s in library %s" pkg lib ]))
  | _ -> (out_empty, [ Diag.error ~line "unsupported use clause" ])

(** LIBRARY clause. *)
let resolve_library ~line names : decl_out * Diag.t list =
  let binds, msgs =
    List.fold_left
      (fun (binds, msgs) (name, _) ->
        if Session.known_library name then ((name, Denot.Dlibrary name) :: binds, msgs)
        else
          ( (name, Denot.Dlibrary name) :: binds,
            msgs @ [ Diag.warning ~line "library %s is not known; treating as empty" name ] ))
      ([], []) names
  in
  ({ out_empty with o_binds = List.rev binds }, msgs)

(** The implicit context of every design unit: LIBRARY WORK, STD;
    USE STD.STANDARD.ALL. *)
let initial_env () =
  let std = Std.env () in
  Env.extend_many std
    [ ("WORK", Denot.Dlibrary Session.work); ("STD", Denot.Dlibrary "STD") ]

(* ------------------------------------------------------------------ *)
(* Miscellaneous declarations *)

let attribute_decl ~line ~name (ty_lef : Lef.tok list) ~level : decl_out * Diag.t list =
  let rs = resolve_subtype ~level ~line ty_lef in
  ( { out_empty with o_binds = [ (name, Denot.Dattr_decl { name; ty = rs.rs_ty }) ] },
    rs.rs_msgs )

let attribute_spec ~env ~line ~attr ~of_name (value_lef : Lef.tok list) ~level :
    decl_out * Diag.t list =
  match Env.lookup env attr with
  | Denot.Dattr_decl { ty; _ } :: _ -> (
    let r = Expr_eval.eval ~expected:ty ~level ~line value_lef in
    match r.x_static with
    | Some value ->
      ( {
          out_empty with
          o_binds =
            [ (of_name ^ "'" ^ attr, Denot.Dattr_value { of_name; attr; value; ty }) ];
        },
        r.x_msgs )
    | None -> (out_empty, r.x_msgs @ [ Diag.error ~line "attribute value must be static" ]))
  | _ -> (out_empty, [ Diag.error ~line "%s is not a declared attribute" attr ])

let alias_decl ~env ~line ~name ~target ~(target_lef : Lef.tok list) :
    decl_out * Diag.t list =
  (* only whole-object aliases: a slice or element target would silently
     alias the base object, so reject it instead *)
  if List.length target_lef > 1 then
    ( out_empty,
      [
        Diag.error ~line
          "alias target must be a whole object (slices and elements are not \
           supported)";
      ] )
  else
    match Env.lookup env target with
    | d :: _ -> ({ out_empty with o_binds = [ (name, d) ] }, [])
    | [] -> (out_empty, [ Diag.error ~line "alias target %s is not declared" target ])

let component_decl ~line ~name ~(generics : iface list) ~(ports : iface list) :
    decl_out * Diag.t list =
  ignore line;
  let generic_decls =
    List.concat_map
      (fun i ->
        List.map
          (fun (n, _) -> { Kir.gd_name = n; gd_ty = i.if_ty; gd_default = i.if_default })
          i.if_names)
      generics
  in
  let port_decls =
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
      ports
  in
  ( {
      out_empty with
      o_binds = [ (name, Denot.Dcomponent { name; generics = generic_decls; ports = port_decls }) ];
      o_components = [ (name, generic_decls, port_decls) ];
    },
    [] )
