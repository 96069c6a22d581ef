(** Out-of-line semantics for sequential statements (principal AG). *)

open Pval

(* ------------------------------------------------------------------ *)
(* Targets *)

let rec expr_to_target (e : Kir.expr) : Kir.target option =
  match e with
  | Kir.Ederef a -> Option.map (fun t -> Kir.Tderef t) (expr_to_target a)
  | _ -> expr_to_target_rest e

and expr_to_target_rest (e : Kir.expr) : Kir.target option =
  match e with
  | Kir.Evar { level; index; name } -> Some (Kir.Tvar { level; index; name })
  | Kir.Eindex (a, i) ->
    Option.map (fun t -> Kir.Tindex (t, i)) (expr_to_target a)
  | Kir.Eslice (a, r) -> Option.map (fun t -> Kir.Tslice (t, r)) (expr_to_target a)
  | Kir.Efield (a, f) -> Option.map (fun t -> Kir.Tfield (t, f)) (expr_to_target a)
  | _ -> None

let rec expr_to_sig_target (e : Kir.expr) : Kir.sig_target option =
  match e with
  | Kir.Esig sref -> Some (Kir.Ts_sig sref)
  | Kir.Eindex (a, i) -> Option.map (fun t -> Kir.Ts_index (t, i)) (expr_to_sig_target a)
  | Kir.Eslice (a, r) -> Option.map (fun t -> Kir.Ts_slice (t, r)) (expr_to_sig_target a)
  | Kir.Efield (a, f) -> Option.map (fun t -> Kir.Ts_field (t, f)) (expr_to_sig_target a)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Assignments *)

let rec target_root = function
  | Kir.Tvar { index; name; level } -> (index, name, level)
  | Kir.Tderef t ->
    (* the pointer may live anywhere; the designated object is heap-side *)
    let _, name, level = target_root t in
    (0, name, level)
  | Kir.Tindex (t, _) | Kir.Tslice (t, _) | Kir.Tfield (t, _) -> target_root t

let build_var_assign ~level ~line target_lef rhs_lef : Kir.stmt list * Diag.t list =
  let t = Expr_eval.eval ~level ~line target_lef in
  match expr_to_target t.x_code with
  | None when Expr_sem.is_error_ty t.x_ty -> ([], t.x_msgs)
  | None -> ([], t.x_msgs @ [ Diag.error ~line "target is not a variable" ])
  (* loop parameters live at negative frame indices and are constants
     (LRM 8.8): they cannot be assignment targets *)
  | Some target when (fun (i, _, _) -> i < 0) (target_root target) ->
    let _, name, _ = target_root target in
    ( [],
      t.x_msgs @ [ Diag.error ~line "%s is a loop parameter and cannot be assigned" name ]
    )
  | Some target ->
    let rhs = Expr_eval.eval ~expected:t.x_ty ~level ~line rhs_lef in
    let check_ty = if t.x_ty.Types.constr = None then None else Some t.x_ty in
    ([ Kir.Sassign (target, rhs.x_code, check_ty) ], t.x_msgs @ rhs.x_msgs)

let build_waveform ~level ~line:_ ~target_ty (waves : wave_src list) :
    Kir.waveform_element list * Diag.t list =
  let els, msgs, _ =
    List.fold_left
      (fun (els, msgs, prev_delay) w ->
        let value, vmsgs =
          match w.w_value with
          | [] | [ { Lef.l_kind = Lef.Knull; _ } ] ->
            (None, []) (* null waveform element: disconnect *)
          | lef ->
            let v = Expr_eval.eval ~expected:target_ty ~level ~line:w.w_line lef in
            (Some v.x_code, v.x_msgs)
        in
        let after, amsgs, delay =
          match w.w_after with
          | None -> (None, [], Some 0)
          | Some lef ->
            let a = Expr_eval.eval ~expected:Std.time ~level ~line:w.w_line lef in
            (Some a.x_code, a.x_msgs, Option.map Value.as_int a.x_static)
        in
        (* LRM 8.3: waveform elements must be in ascending time order *)
        let order_msgs =
          match (prev_delay, delay) with
          | Some p, Some d when d <= p ->
            [ Diag.error ~line:w.w_line "waveform elements must have ascending delays" ]
          | _ -> []
        in
        ( els @ [ { Kir.wv_value = value; wv_after = after } ],
          msgs @ vmsgs @ amsgs @ order_msgs,
          delay ))
      ([], [], None) waves
  in
  (els, msgs)

let build_signal_assign ~level ~line ~(transport : bool) ~(guarded : bool) target_lef
    (waves : wave_src list) : Kir.stmt list * Diag.t list =
  let t = Expr_eval.eval ~level ~line target_lef in
  match expr_to_sig_target t.x_code with
  | None when Expr_sem.is_error_ty t.x_ty -> ([], t.x_msgs)
  | None -> ([], t.x_msgs @ [ Diag.error ~line "target is not a signal" ])
  | Some target ->
    let waveform, msgs = build_waveform ~level ~line ~target_ty:t.x_ty waves in
    let mode = if transport then Kir.Transport else Kir.Inertial in
    let assign = Kir.Ssig_assign { target; mode; waveform; guarded; line } in
    let stmt =
      if guarded then
        Kir.Sif ([ (Kir.Esig Kir.Sig_guard, [ assign ]) ], [ Kir.Sdisconnect target ])
      else assign
    in
    ([ stmt ], t.x_msgs @ msgs)

(* ------------------------------------------------------------------ *)
(* Procedure calls *)

let rec build_proc_call ~level ~line name_lef : Kir.stmt list * Diag.t list =
  (* DEALLOCATE is implicitly declared for every access type (LRM 3.3.1):
     with garbage collection underneath, its effect is [p := null] *)
  match name_lef with
  | { Lef.l_kind = Lef.Kident "DEALLOCATE"; _ }
    :: { Lef.l_kind = Lef.Kpunct "("; _ }
    :: rest -> (
    let arg_lef = List.filteri (fun i _ -> i < List.length rest - 1) rest in
    let t = Expr_eval.eval ~level ~line arg_lef in
    match (expr_to_target t.x_code, t.x_ty.Types.kind) with
    | Some target, Types.Kaccess _ ->
      ([ Kir.Sassign (target, Kir.Enull, None) ], t.x_msgs)
    | _ ->
      ( [],
        t.x_msgs
        @ [ Diag.error ~line "deallocate requires an access-valued variable" ] ))
  | _ -> build_user_proc_call ~level ~line name_lef

and build_user_proc_call ~level ~line name_lef : Kir.stmt list * Diag.t list =
  (* the name (with its arguments) evaluates to a void call through the
     expression AG; rebuild the Scall with parameter modes for copy-back.
     The callee's signature is among the candidates classification put in
     the name's own LEF tokens. *)
  let r = Expr_eval.eval ~expected:Expr_sem.void_ty ~level ~line name_lef in
  let callee mangled =
    List.find_map
      (fun (tok : Lef.tok) ->
        match tok.Lef.l_kind with
        | Lef.Kfunc sigs | Lef.Kproc sigs ->
          List.find_opt (fun s -> s.Denot.ss_mangled = mangled) sigs
        | _ -> None)
      name_lef
  in
  match r.x_code with
  | Kir.Ecall (Kir.F_user mangled, args) -> (
    match callee mangled with
    | Some s ->
      let call_args =
        List.map2
          (fun (p : Denot.param) arg ->
            let is_signal = p.Denot.p_class = Denot.Csignal in
            {
              Kir.ca_mode = p.Denot.p_mode;
              ca_expr = arg;
              ca_target =
                (match p.Denot.p_mode with
                | Kir.Arg_in -> None
                | (Kir.Arg_out | Kir.Arg_inout) when is_signal -> None
                | Kir.Arg_out | Kir.Arg_inout -> expr_to_target arg);
              ca_signal =
                (if is_signal then
                   match arg with
                   | Kir.Esig sref -> Some sref
                   | _ -> None
                 else None);
            })
          s.Denot.ss_params args
      in
      let bad_out =
        List.exists2
          (fun (p : Denot.param) (a : Kir.call_arg) ->
            p.Denot.p_class <> Denot.Csignal
            && a.Kir.ca_mode <> Kir.Arg_in
            && a.Kir.ca_target = None)
          s.Denot.ss_params call_args
      in
      let bad_signal =
        List.exists2
          (fun (p : Denot.param) (a : Kir.call_arg) ->
            p.Denot.p_class = Denot.Csignal && a.Kir.ca_signal = None)
          s.Denot.ss_params call_args
      in
      if bad_out then
        ([], r.x_msgs @ [ Diag.error ~line "out parameter requires a variable actual" ])
      else if bad_signal then
        ( [],
          r.x_msgs @ [ Diag.error ~line "signal-class parameter requires a signal actual" ]
        )
      else ([ Kir.Scall (Kir.P_user mangled, call_args) ], r.x_msgs)
    | None -> ([], r.x_msgs @ [ Diag.error ~line "unknown procedure" ]))
  | _ when Expr_sem.is_error_ty r.x_ty -> ([], r.x_msgs)
  | _ -> ([], r.x_msgs @ [ Diag.error ~line "this name is not a procedure call" ])

(* ------------------------------------------------------------------ *)
(* Control flow *)

let boolean_cond ~level ~line lef =
  let r = Expr_eval.eval ~expected:Std.boolean ~level ~line lef in
  (r.x_code, r.x_msgs)

let build_if ~level ~line ~(arms : (Lef.tok list * Kir.stmt list) list)
    ~(else_ : Kir.stmt list) : Kir.stmt list * Diag.t list =
  let arms, msgs =
    List.fold_left
      (fun (arms, msgs) (cond_lef, body) ->
        let c, m = boolean_cond ~level ~line cond_lef in
        (arms @ [ (c, body) ], msgs @ m))
      ([], []) arms
  in
  ([ Kir.Sif (arms, else_) ], msgs)

let resolve_choice ~level ~line ~(selector_ty : Types.t) (c : choice_src) :
    Kir.case_choice * Diag.t list =
  match c with
  | CSothers -> (Kir.Ch_others, [])
  | CSlef lef -> (
    let r = Expr_eval.eval ~expected:selector_ty ~level ~line lef in
    match r.x_static with
    | Some v -> (Kir.Ch_value v, r.x_msgs)
    | None -> (Kir.Ch_others, r.x_msgs @ [ Diag.error ~line "case choice must be static" ]))
  | CSrange (lo_lef, d, hi_lef) -> (
    let expected = { selector_ty with Types.constr = None } in
    let lo = Expr_eval.eval ~expected ~level ~line lo_lef in
    let hi = Expr_eval.eval ~expected ~level ~line hi_lef in
    match (lo.x_static, hi.x_static) with
    | Some l, Some h -> (Kir.Ch_range (Value.as_int l, d, Value.as_int h), lo.x_msgs @ hi.x_msgs)
    | _ ->
      ( Kir.Ch_others,
        lo.x_msgs @ hi.x_msgs @ [ Diag.error ~line "case range choice must be static" ] ))

let build_case ~level ~line selector_lef (alts : (choice_src list * Kir.stmt list) list) :
    Kir.stmt list * Diag.t list =
  let sel = Expr_eval.eval ~level ~line selector_lef in
  let alts, msgs =
    List.split
      (List.map
         (fun (choices, body) ->
           let choices, ms =
             List.split (List.map (resolve_choice ~level ~line ~selector_ty:sel.x_ty) choices)
           in
           ((choices, body), List.concat ms))
         alts)
  in
  let msgs = List.concat msgs in
  (* completeness: others or full coverage — warn only (the kernel raises a
     runtime error on a fall-through, like the original simulator) *)
  let has_others =
    List.exists (fun (cs, _) -> List.exists (fun c -> c = Kir.Ch_others) cs) alts
  in
  let msgs =
    if has_others then msgs
    else begin
      match Types.bounds sel.x_ty with
      | Some (lo, hi) ->
        let covered = Hashtbl.create 16 in
        List.iter
          (fun (cs, _) ->
            List.iter
              (fun c ->
                match c with
                | Kir.Ch_value v -> Hashtbl.replace covered (Value.as_int v) ()
                | Kir.Ch_range (l, d, r) ->
                  List.iter
                    (fun i -> Hashtbl.replace covered i ())
                    (Value.range_indices (l, d, r))
                | Kir.Ch_others -> ())
              cs)
          alts;
        let missing = ref [] in
        if hi - lo >= 0 && hi - lo < 10000 then
          for i = hi downto lo do
            if not (Hashtbl.mem covered i) then missing := i :: !missing
          done;
        if !missing <> [] then
          msgs
          @ [
              Diag.error ~line "case statement does not cover all choices (missing %d values)"
                (List.length !missing);
            ]
        else msgs
      | None -> msgs
    end
  in
  ([ Kir.Scase (sel.x_code, alts) ], sel.x_msgs @ msgs)

(** Discrete range of a for loop: either explicit bounds or an attribute
    range. *)
let build_for ?loop_label ~level ~line ~loop_depth ~var_name
    ~(range : [ `Bounds of Lef.tok list * Types.dir * Lef.tok list | `Lef of Lef.tok list ])
    ~(body : Kir.stmt list) () : Kir.stmt list * Diag.t list =
  let (lo, d, hi), msgs =
    match range with
    | `Bounds (lo_lef, d, hi_lef) ->
      let lo = Expr_eval.eval ~level ~line lo_lef in
      let hi = Expr_eval.eval ~level ~line hi_lef in
      ((lo.x_code, d, hi.x_code), lo.x_msgs @ hi.x_msgs)
    | `Lef lef ->
      let r, _, msgs = Expr_eval.eval_range ~level ~line lef in
      (r, msgs)
  in
  ( [ Kir.Sfor { var = loop_depth; var_name; range = (lo, d, hi); body; loop_label } ],
    msgs )

(** Type of a for-loop variable given its range source. *)
let for_var_type ~level ~line
    ~(range : [ `Bounds of Lef.tok list * Types.dir * Lef.tok list | `Lef of Lef.tok list ]) :
    Types.t =
  match range with
  | `Bounds (lo_lef, _, _) ->
    let r = Expr_eval.eval ~level ~line lo_lef in
    if Expr_sem.is_error_ty r.x_ty then Std.integer else r.x_ty
  | `Lef lef -> (
    let _, ity, _ = Expr_eval.eval_range ~level ~line lef in
    match ity with
    | Some t -> t
    | None -> Std.integer)

(* ------------------------------------------------------------------ *)
(* Wait / assert / return *)

let sig_refs_of_name_lefs ~line (name_lefs : Lef.tok list list) :
    Kir.sig_ref list * Diag.t list =
  List.fold_left
    (fun (refs, msgs) lef ->
      match lef with
      | { Lef.l_kind = Lef.Ksig { sref; _ }; _ } :: _ -> (refs @ [ sref ], msgs)
      | _ -> (refs, msgs @ [ Diag.error ~line "a signal name is required here" ]))
    ([], []) name_lefs

let build_wait ~level ~line ~(on : Lef.tok list list) ~(until : Lef.tok list option)
    ~(for_ : Lef.tok list option) : Kir.stmt list * Diag.t list =
  let on_refs, msgs = sig_refs_of_name_lefs ~line on in
  let until_code, msgs =
    match until with
    | None -> (None, msgs)
    | Some lef ->
      let c, m = boolean_cond ~level ~line lef in
      (Some c, msgs @ m)
  in
  let for_code, msgs =
    match for_ with
    | None -> (None, msgs)
    | Some lef ->
      let r = Expr_eval.eval ~expected:Std.time ~level ~line lef in
      (Some r.x_code, msgs @ r.x_msgs)
  in
  (* an "until" with no "on" list is sensitive to the signals it reads *)
  let on_refs =
    if on_refs = [] then
      match until_code with
      | Some c -> Kir_util.signals_read_expr c
      | None -> []
    else on_refs
  in
  ([ Kir.Swait { on = on_refs; until = until_code; for_ = for_code; line } ], msgs)

let build_assert ~level ~line ~cond ~report ~severity : Kir.stmt list * Diag.t list =
  let c, msgs = boolean_cond ~level ~line cond in
  let report_code, msgs =
    match report with
    | None -> (None, msgs)
    | Some lef ->
      let r = Expr_eval.eval ~expected:Std.string_ty ~level ~line lef in
      (Some r.x_code, msgs @ r.x_msgs)
  in
  let severity_code, msgs =
    match severity with
    | None -> (None, msgs)
    | Some lef ->
      let r = Expr_eval.eval ~expected:Std.severity_level ~level ~line lef in
      (Some r.x_code, msgs @ r.x_msgs)
  in
  ([ Kir.Sassert { cond = c; report = report_code; severity = severity_code; line } ], msgs)

let build_return ~level ~line ~(ret_ty : Types.t option) (value : Lef.tok list option) :
    Kir.stmt list * Diag.t list =
  match (value, ret_ty) with
  | None, None -> ([ Kir.Sreturn None ], [])
  | None, Some _ -> ([], [ Diag.error ~line "function must return a value" ])
  | Some _, None -> ([], [ Diag.error ~line "return with a value is only valid in a function" ])
  | Some lef, Some ty ->
    let r = Expr_eval.eval ~expected:ty ~level ~line lef in
    ([ Kir.Sreturn (Some r.x_code) ], r.x_msgs)

let build_exit ?label ~level ~line ~next (cond : Lef.tok list option) () :
    Kir.stmt list * Diag.t list =
  let c, msgs =
    match cond with
    | None -> (None, [])
    | Some lef ->
      let c, m = boolean_cond ~level ~line lef in
      (Some c, m)
  in
  ( [
      (if next then Kir.Snext { cond = c; label } else Kir.Sexit { cond = c; label });
    ],
    msgs )
