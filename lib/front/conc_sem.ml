(** Out-of-line semantics for concurrent statements (principal AG).

    Concurrent signal assignments desugar into equivalent processes
    (LRM 9.5), component instantiations into {!Kir.instance}, blocks into
    {!Kir.C_block} with their guard expression. *)

open Pval

(* Anonymous-statement labels are their prefix behind a leading '%'
   (impossible in a VHDL identifier); {!Kir_util.normalize_labels} numbers
   them in source order when the architecture is assembled, so the names
   never depend on attribute evaluation order — the demand and staged
   evaluators must produce byte-identical VIF (see lib/difftest). *)
let fresh_label prefix = "%" ^ prefix

(** A process from a desugared concurrent assignment: sensitive to every
    signal read by the statement(s). *)
let assignment_process ~label (stmts : Kir.stmt list) : Kir.concurrent =
  let rec signals_of_stmt acc (s : Kir.stmt) =
    match s with
    | Kir.Ssig_assign { waveform; _ } ->
      List.fold_left
        (fun acc (w : Kir.waveform_element) ->
          let acc =
            match w.Kir.wv_value with
            | Some e -> Kir_util.signals_read_expr_acc acc e
            | None -> acc
          in
          match w.Kir.wv_after with
          | Some e -> Kir_util.signals_read_expr_acc acc e
          | None -> acc)
        acc waveform
    | Kir.Sif (arms, els) ->
      let acc =
        List.fold_left
          (fun acc (c, body) ->
            List.fold_left signals_of_stmt (Kir_util.signals_read_expr_acc acc c) body)
          acc arms
      in
      List.fold_left signals_of_stmt acc els
    | Kir.Scase (e, alts) ->
      let acc = Kir_util.signals_read_expr_acc acc e in
      List.fold_left (fun acc (_, body) -> List.fold_left signals_of_stmt acc body) acc alts
    | Kir.Sdisconnect _ -> acc
    | _ -> acc
  in
  let sensitivity = List.rev (List.fold_left signals_of_stmt [] stmts) in
  Kir.C_process
    {
      Kir.proc_label = label;
      proc_sensitivity = sensitivity;
      proc_locals = [];
      proc_body = stmts;
      proc_postponed_wait = true;
    }

(** Plain concurrent signal assignment: [target <= waveform;]. *)
let concurrent_assign ~level ~line ~label ~transport ~guarded target_lef waves :
    Kir.concurrent list * Diag.t list =
  let stmts, msgs =
    Stmt_sem.build_signal_assign ~level ~line ~transport ~guarded target_lef waves
  in
  let label = match label with Some l -> l | None -> fresh_label "csa" in
  if stmts = [] then ([], msgs) else ([ assignment_process ~label stmts ], msgs)

(** Conditional signal assignment:
    [target <= w1 when c1 else w2 when c2 else w3;]. *)
let conditional_assign ~level ~line ~label ~transport ~guarded target_lef
    (arms : (wave_src list * Lef.tok list) list) (final : wave_src list option) :
    Kir.concurrent list * Diag.t list =
  let assign waves =
    Stmt_sem.build_signal_assign ~level ~line ~transport ~guarded target_lef waves
  in
  let arms, msgs =
    List.split
      (List.map
         (fun (waves, cond_lef) ->
           let stmts, m1 = assign waves in
           let c, m2 = Stmt_sem.boolean_cond ~level ~line cond_lef in
           ((c, stmts), m1 @ m2))
         arms)
  in
  let msgs = List.concat msgs in
  let else_stmts, msgs =
    match final with
    | None -> ([], msgs)
    | Some waves ->
      let stmts, m = assign waves in
      (stmts, msgs @ m)
  in
  let label = match label with Some l -> l | None -> fresh_label "csa" in
  ([ assignment_process ~label [ Kir.Sif (arms, else_stmts) ] ], msgs)

(** Selected signal assignment:
    [with e select target <= w1 when ch1, w2 when others;]. *)
let selected_assign ~level ~line ~label ~transport ~guarded selector_lef target_lef
    (alts : (wave_src list * choice_src list) list) : Kir.concurrent list * Diag.t list =
  let sel = Expr_eval.eval ~level ~line selector_lef in
  let case_alts, msgs =
    List.split
      (List.map
         (fun (waves, choices) ->
           let stmts, m1 =
             Stmt_sem.build_signal_assign ~level ~line ~transport ~guarded target_lef waves
           in
           let choices, m2 =
             List.split
               (List.map (Stmt_sem.resolve_choice ~level ~line ~selector_ty:sel.x_ty) choices)
           in
           ((choices, stmts), m1 @ List.concat m2))
         alts)
  in
  let msgs = List.concat msgs in
  let label = match label with Some l -> l | None -> fresh_label "csa" in
  ( [ assignment_process ~label [ Kir.Scase (sel.x_code, case_alts) ] ],
    sel.x_msgs @ msgs )

(** Explicit process statement. *)
let process_stmt ~label ~(sensitivity : Lef.tok list list) ~line ~(out : decl_out)
    ~(body : Kir.stmt list) : (Kir.concurrent list * decl_out) * Diag.t list =
  let sens_refs, msgs = Stmt_sem.sig_refs_of_name_lefs ~line sensitivity in
  let has_sens = sensitivity <> [] in
  let msgs =
    if has_sens && Kir_util.has_wait body then
      msgs @ [ Diag.error ~line "a process with a sensitivity list may not contain wait statements" ]
    else if (not has_sens) && not (Kir_util.may_wait body) then
      msgs @ [ Diag.warning ~line "process has no sensitivity list and no wait statement; it runs once and terminates" ]
    else msgs
  in
  let label = match label with Some l -> l | None -> fresh_label "proc" in
  let proc =
    Kir.C_process
      {
        Kir.proc_label = label;
        proc_sensitivity = sens_refs;
        proc_locals = out.o_locals;
        proc_body = body;
        proc_postponed_wait = has_sens;
      }
  in
  (* locals are consumed here; subprograms and deps continue upward *)
  (([ proc ], { out with o_binds = []; o_locals = []; o_signals = [] }), msgs)

(* A formal designator may shadow or collide with a visible name, in which
   case classification already resolved it; recover the plain name from any
   single-token LEF (the paper's §3.2 "extending visibility by selection"
   pain point — formals are resolved against the component, not the
   enclosing scope). *)
let formal_name_of_lef = function
  | [ { Lef.l_kind = Lef.Kident f; _ } ] -> Some f
  | [ { Lef.l_kind = Lef.Ksig { name; _ }; _ } ]
  | [ { Lef.l_kind = Lef.Kvar { name; _ }; _ } ]
  | [ { Lef.l_kind = Lef.Kconst_val { name; _ }; _ } ]
  | [ { Lef.l_kind = Lef.Kgeneric { name; _ }; _ } ]
  | [ { Lef.l_kind = Lef.Kunitconst { name; _ }; _ } ] -> Some name
  | [ { Lef.l_kind = Lef.Kenum ((_, _, image) :: _); _ } ] -> Some image
  | [ { Lef.l_kind = Lef.Kfunc (s :: _); _ } ] | [ { Lef.l_kind = Lef.Kproc (s :: _); _ } ] ->
    Some s.Denot.ss_name
  | _ -> None

(** Component instantiation. *)
let instance ~env ~level ~line ~label ~component_name
    ~(generic_map : assoc_src list) ~(port_map : assoc_src list) :
    Kir.concurrent list * Diag.t list =
  match Env.lookup env component_name with
  | Denot.Dcomponent { generics; ports; name } :: _ ->
    let msgs = ref [] in
    let resolve_assocs (formals : (string * Types.t) list) (assocs : assoc_src list)
        ~signal_ok =
      (* positional then named association *)
      let bind i (a : assoc_src) =
        let formal_name, formal_ty =
          match Option.map formal_name_of_lef a.a_formal with
          | Some (Some f) -> (
            match List.assoc_opt f formals with
            | Some ty -> (Some f, Some ty)
            | None ->
              msgs := !msgs @ [ Diag.error ~line:a.a_line "no formal named %s" f ];
              (None, None))
          | Some None ->
            msgs :=
              !msgs
              @ [
                  Diag.error ~line:a.a_line
                    "only simple names are supported as formals (no conversion functions)";
                ];
            (None, None)
          | None -> (
            match List.nth_opt formals i with
            | Some (f, ty) -> (Some f, Some ty)
            | None ->
              msgs := !msgs @ [ Diag.error ~line:a.a_line "too many associations" ];
              (None, None))
        in
        match (formal_name, formal_ty, a.a_actual) with
        | Some f, Some _, `Open -> Some (f, Kir.Act_open)
        | Some f, Some ty, `Lef lef -> (
          (* a signal actual stays a signal reference; anything else is an
             expression (generics, or expression actuals for in ports) *)
          match lef with
          | [ { Lef.l_kind = Lef.Ksig { sref; ty = sty; _ }; _ } ] when signal_ok ->
            if not (Expr_sem.compat sty ty) then
              msgs :=
                !msgs
                @ [ Diag.error ~line:a.a_line "actual for %s has the wrong type" f ];
            Some (f, Kir.Act_signal sref)
          | { Lef.l_kind = Lef.Ksig { sref; ty = sty; _ }; _ }
            :: { Lef.l_kind = Lef.Kpunct "("; _ }
            :: _
            when signal_ok && Types.is_array sty -> (
            (* element association: signal(index) *)
            let r = Expr_eval.eval ~level ~line:a.a_line lef in
            msgs := !msgs @ r.x_msgs;
            match r.x_code with
            | Kir.Eindex (Kir.Esig _, ix) -> Some (f, Kir.Act_signal_index (sref, ix))
            | Kir.Eslice (Kir.Esig _, rng) -> Some (f, Kir.Act_signal_slice (sref, rng))
            | _ ->
              msgs :=
                !msgs
                @ [
                    Diag.error ~line:a.a_line
                      "only indexing or slicing is supported in signal actuals";
                  ];
              Some (f, Kir.Act_open))
          | _ ->
            let r = Expr_eval.eval ~expected:ty ~level ~line:a.a_line lef in
            msgs := !msgs @ r.x_msgs;
            (* §3.2: conversion functions in association lists are the hard
               case — diagnose instead of silently freezing the value *)
            if signal_ok && Kir_util.signals_read_expr r.x_code <> [] then
              msgs :=
                !msgs
                @ [
                    Diag.error ~line:a.a_line
                      "actual for %s applies an expression to a signal; \
                       conversion functions in association lists are not \
                       supported — associate a signal and convert inside"
                      f;
                  ];
            Some (f, Kir.Act_expr r.x_code))
        | _ -> None
      in
      List.filteri (fun _ _ -> true) assocs |> List.mapi bind |> List.filter_map Fun.id
    in
    let generic_formals = List.map (fun (g : Kir.generic_decl) -> (g.Kir.gd_name, g.Kir.gd_ty)) generics in
    let port_formals = List.map (fun (p : Kir.port_decl) -> (p.Kir.pd_name, p.Kir.pd_ty)) ports in
    let gmap = resolve_assocs generic_formals generic_map ~signal_ok:false in
    let pmap = resolve_assocs port_formals port_map ~signal_ok:true in
    (* unassociated ports without defaults are errors (LRM 4.3.3.2) *)
    List.iter
      (fun (p : Kir.port_decl) ->
        if (not (List.mem_assoc p.Kir.pd_name pmap)) && p.Kir.pd_default = None
           && p.Kir.pd_mode = Kir.Arg_in
        then
          msgs :=
            !msgs @ [ Diag.error ~line "input port %s is not associated and has no default" p.Kir.pd_name ])
      ports;
    ( [
        Kir.C_instance
          {
            Kir.inst_label = label;
            inst_component = name;
            inst_generic_map = gmap;
            inst_port_map = pmap;
          };
      ],
      !msgs )
  | _ :: _ -> ([], [ Diag.error ~line "%s is not a component" component_name ])
  | [] -> ([], [ Diag.error ~line "component %s is not declared" component_name ])

(** Block statement. *)
let block ~level ~line ~label ~(guard : Lef.tok list option) ~(out : decl_out)
    ~(body : Kir.concurrent list) : (Kir.concurrent list * decl_out) * Diag.t list =
  let guard_code, msgs =
    match guard with
    | None -> (None, [])
    | Some lef ->
      let c, m = Stmt_sem.boolean_cond ~level ~line lef in
      (Some c, m)
  in
  ( ( [ Kir.C_block { blk_label = label; blk_guard = guard_code; blk_body = body } ],
      { out with o_binds = []; o_locals = [] } ),
    msgs )
