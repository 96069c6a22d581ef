(** KIR traversals shared by the front end and the elaborator. *)

(* ------------------------------------------------------------------ *)
(* Signals read by an expression: the implicit sensitivity of concurrent
   signal assignments and until-clauses. *)

let rec signals_read_expr_acc acc (e : Kir.expr) =
  match e with
  | Kir.Elit _ | Kir.Evar _ | Kir.Egeneric _ | Kir.Eunit_const _ | Kir.Enull -> acc
  | Kir.Enew (_, e) -> (
    match e with Some e -> signals_read_expr_acc acc e | None -> acc)
  | Kir.Ederef e -> signals_read_expr_acc acc e
  | Kir.Esig sref -> if List.mem sref acc then acc else sref :: acc
  | Kir.Esig_attr (sref, _) -> if List.mem sref acc then acc else sref :: acc
  | Kir.Ebin (_, a, b) -> signals_read_expr_acc (signals_read_expr_acc acc a) b
  | Kir.Eun (_, a) -> signals_read_expr_acc acc a
  | Kir.Eindex (a, i) -> signals_read_expr_acc (signals_read_expr_acc acc a) i
  | Kir.Eslice (a, (l, _, r)) ->
    signals_read_expr_acc (signals_read_expr_acc (signals_read_expr_acc acc a) l) r
  | Kir.Efield (a, _) -> signals_read_expr_acc acc a
  | Kir.Eaggregate (els, _) ->
    List.fold_left
      (fun acc el ->
        match el with
        | Kir.Ag_pos e | Kir.Ag_named (_, e) | Kir.Ag_field (_, e) | Kir.Ag_others e ->
          signals_read_expr_acc acc e)
      acc els
  | Kir.Ecall (_, args) -> List.fold_left signals_read_expr_acc acc args
  | Kir.Econvert (_, a) -> signals_read_expr_acc acc a
  | Kir.Earray_attr (a, _) -> signals_read_expr_acc acc a

let signals_read_expr e = List.rev (signals_read_expr_acc [] e)

let signals_read_exprs es = List.rev (List.fold_left signals_read_expr_acc [] es)

(* ------------------------------------------------------------------ *)
(* Substitution of elaboration-time values (generics, unit constants):
   performed once per instance when the code is "linked" with the kernel. *)

type subst = {
  generic : int -> Value.t option;
  unit_const : string -> Value.t option;
}

let rec subst_expr (s : subst) (e : Kir.expr) : Kir.expr =
  match e with
  | Kir.Elit _ | Kir.Evar _ | Kir.Esig _ | Kir.Esig_attr _ | Kir.Enull -> e
  | Kir.Enew (ty, init) -> Kir.Enew (ty, Option.map (subst_expr s) init)
  | Kir.Ederef a -> Kir.Ederef (subst_expr s a)
  | Kir.Egeneric { index; name } -> (
    match s.generic index with
    | Some v -> Kir.Elit v
    | None -> Kir.Egeneric { index; name })
  | Kir.Eunit_const { name } -> (
    match s.unit_const name with
    | Some v -> Kir.Elit v
    | None -> Kir.Eunit_const { name })
  | Kir.Ebin (op, a, b) -> Kir.Ebin (op, subst_expr s a, subst_expr s b)
  | Kir.Eun (op, a) -> Kir.Eun (op, subst_expr s a)
  | Kir.Eindex (a, i) -> Kir.Eindex (subst_expr s a, subst_expr s i)
  | Kir.Eslice (a, (l, d, r)) -> Kir.Eslice (subst_expr s a, (subst_expr s l, d, subst_expr s r))
  | Kir.Efield (a, f) -> Kir.Efield (subst_expr s a, f)
  | Kir.Eaggregate (els, shape) ->
    Kir.Eaggregate
      ( List.map
          (fun el ->
            match el with
            | Kir.Ag_pos e -> Kir.Ag_pos (subst_expr s e)
            | Kir.Ag_named (i, e) -> Kir.Ag_named (i, subst_expr s e)
            | Kir.Ag_field (f, e) -> Kir.Ag_field (f, subst_expr s e)
            | Kir.Ag_others e -> Kir.Ag_others (subst_expr s e))
          els,
        shape )
  | Kir.Ecall (f, args) -> Kir.Ecall (f, List.map (subst_expr s) args)
  | Kir.Econvert (c, a) -> Kir.Econvert (c, subst_expr s a)
  | Kir.Earray_attr (a, at) -> Kir.Earray_attr (subst_expr s a, at)

let rec subst_target (s : subst) (t : Kir.target) : Kir.target =
  match t with
  | Kir.Tvar _ -> t
  | Kir.Tderef t' -> Kir.Tderef (subst_target s t')
  | Kir.Tindex (t', i) -> Kir.Tindex (subst_target s t', subst_expr s i)
  | Kir.Tslice (t', (l, d, r)) ->
    Kir.Tslice (subst_target s t', (subst_expr s l, d, subst_expr s r))
  | Kir.Tfield (t', f) -> Kir.Tfield (subst_target s t', f)

let rec subst_sig_target (s : subst) (t : Kir.sig_target) : Kir.sig_target =
  match t with
  | Kir.Ts_sig _ -> t
  | Kir.Ts_index (t', i) -> Kir.Ts_index (subst_sig_target s t', subst_expr s i)
  | Kir.Ts_slice (t', (l, d, r)) ->
    Kir.Ts_slice (subst_sig_target s t', (subst_expr s l, d, subst_expr s r))
  | Kir.Ts_field (t', f) -> Kir.Ts_field (subst_sig_target s t', f)

let rec subst_stmt (s : subst) (st : Kir.stmt) : Kir.stmt =
  match st with
  | Kir.Snull -> st
  | Kir.Sassign (t, e, ty) -> Kir.Sassign (subst_target s t, subst_expr s e, ty)
  | Kir.Ssig_assign { target; mode; waveform; guarded; line } ->
    Kir.Ssig_assign
      {
        target = subst_sig_target s target;
        mode;
        waveform =
          List.map
            (fun (w : Kir.waveform_element) ->
              {
                Kir.wv_value = Option.map (subst_expr s) w.Kir.wv_value;
                wv_after = Option.map (subst_expr s) w.Kir.wv_after;
              })
            waveform;
        guarded;
        line;
      }
  | Kir.Sif (arms, els) ->
    Kir.Sif
      ( List.map (fun (c, body) -> (subst_expr s c, List.map (subst_stmt s) body)) arms,
        List.map (subst_stmt s) els )
  | Kir.Scase (e, alts) ->
    Kir.Scase
      ( subst_expr s e,
        List.map (fun (cs, body) -> (cs, List.map (subst_stmt s) body)) alts )
  | Kir.Sfor { var; var_name; range = l, d, r; body; loop_label } ->
    Kir.Sfor
      {
        var;
        var_name;
        range = (subst_expr s l, d, subst_expr s r);
        body = List.map (subst_stmt s) body;
        loop_label;
      }
  | Kir.Swhile (c, body, lbl) -> Kir.Swhile (subst_expr s c, List.map (subst_stmt s) body, lbl)
  | Kir.Sloop (body, lbl) -> Kir.Sloop (List.map (subst_stmt s) body, lbl)
  | Kir.Sexit { cond; label } -> Kir.Sexit { cond = Option.map (subst_expr s) cond; label }
  | Kir.Snext { cond; label } -> Kir.Snext { cond = Option.map (subst_expr s) cond; label }
  | Kir.Swait { on; until; for_; line } ->
    Kir.Swait
      { on; until = Option.map (subst_expr s) until; for_ = Option.map (subst_expr s) for_; line }
  | Kir.Sdisconnect t -> Kir.Sdisconnect (subst_sig_target s t)
  | Kir.Sreturn e -> Kir.Sreturn (Option.map (subst_expr s) e)
  | Kir.Sassert { cond; report; severity; line } ->
    Kir.Sassert
      {
        cond = subst_expr s cond;
        report = Option.map (subst_expr s) report;
        severity = Option.map (subst_expr s) severity;
        line;
      }
  | Kir.Scall (p, args) ->
    Kir.Scall
      ( p,
        List.map
          (fun (a : Kir.call_arg) ->
            {
              a with
              Kir.ca_expr = subst_expr s a.Kir.ca_expr;
              ca_target = Option.map (subst_target s) a.Kir.ca_target;
            })
          args )

let subst_stmts s = List.map (subst_stmt s)

(* ------------------------------------------------------------------ *)
(* A variable target read as the expression it names *)

let rec target_expr : Kir.target -> Kir.expr = function
  | Kir.Tvar { level; index; name } -> Kir.Evar { level; index; name }
  | Kir.Tderef t -> Kir.Ederef (target_expr t)
  | Kir.Tindex (t, i) -> Kir.Eindex (target_expr t, i)
  | Kir.Tslice (t, r) -> Kir.Eslice (target_expr t, r)
  | Kir.Tfield (t, f) -> Kir.Efield (target_expr t, f)

(* Maximum for-loop nesting depth: sizes the loop-variable stack of a frame. *)
let rec loop_depth_stmt (st : Kir.stmt) =
  match st with
  | Kir.Sfor { body; var; _ } ->
    max (var + 1) (List.fold_left (fun m s -> max m (loop_depth_stmt s)) 0 body)
  | Kir.Sif (arms, els) ->
    let m = List.fold_left (fun m (_, body) -> max m (loop_depth body)) 0 arms in
    max m (loop_depth els)
  | Kir.Scase (_, alts) -> List.fold_left (fun m (_, body) -> max m (loop_depth body)) 0 alts
  | Kir.Swhile (_, body, _) | Kir.Sloop (body, _) -> loop_depth body
  | Kir.Snull | Kir.Sassign _ | Kir.Ssig_assign _ | Kir.Sexit _ | Kir.Snext _ | Kir.Swait _
  | Kir.Sdisconnect _ | Kir.Sreturn _ | Kir.Sassert _ | Kir.Scall _ ->
    0

and loop_depth body = List.fold_left (fun m s -> max m (loop_depth_stmt s)) 0 body

(* Does a body contain a wait statement (needed for process legality and
   kernel setup)? *)
let rec has_wait_stmt (st : Kir.stmt) =
  match st with
  | Kir.Swait _ -> true
  | Kir.Sif (arms, els) -> List.exists (fun (_, b) -> has_wait b) arms || has_wait els
  | Kir.Scase (_, alts) -> List.exists (fun (_, b) -> has_wait b) alts
  | Kir.Sfor { body; _ } | Kir.Swhile (_, body, _) | Kir.Sloop (body, _) -> has_wait body
  | Kir.Snull | Kir.Sassign _ | Kir.Ssig_assign _ | Kir.Sexit _ | Kir.Snext _
  | Kir.Sdisconnect _ | Kir.Sreturn _ | Kir.Sassert _ | Kir.Scall _ ->
    false

and has_wait body = List.exists has_wait_stmt body

(* Conservative form: procedure calls may wait inside the callee, so they
   count as possible waits (used for the no-sensitivity-no-wait warning). *)
let rec may_wait_stmt (st : Kir.stmt) =
  match st with
  | Kir.Swait _ | Kir.Scall _ -> true
  | Kir.Sif (arms, els) -> List.exists (fun (_, b) -> may_wait b) arms || may_wait els
  | Kir.Scase (_, alts) -> List.exists (fun (_, b) -> may_wait b) alts
  | Kir.Sfor { body; _ } | Kir.Swhile (_, body, _) | Kir.Sloop (body, _) -> may_wait body
  | Kir.Snull | Kir.Sassign _ | Kir.Ssig_assign _ | Kir.Sexit _ | Kir.Snext _
  | Kir.Sdisconnect _ | Kir.Sreturn _ | Kir.Sassert _ ->
    false

and may_wait body = List.exists may_wait_stmt body

(* ------------------------------------------------------------------ *)
(* Anonymous-label normalization *)

(* Number the '%'-prefixed labels of anonymous concurrent statements (see
   Conc_sem.fresh_label) as "<prefix>_<k>", with [k] counted per prefix in
   traversal (source) order, so the compiled unit's labels depend on
   nothing but its source. *)
let normalize_labels (concs : Kir.concurrent list) =
  let counts = Hashtbl.create 8 in
  let rename label =
    if String.length label > 1 && label.[0] = '%' then begin
      let prefix = String.sub label 1 (String.length label - 1) in
      let k = Option.value (Hashtbl.find_opt counts prefix) ~default:0 + 1 in
      Hashtbl.replace counts prefix k;
      Printf.sprintf "%s_%d" prefix k
    end
    else label
  in
  let rec conc (c : Kir.concurrent) =
    match c with
    | Kir.C_process p -> Kir.C_process { p with Kir.proc_label = rename p.Kir.proc_label }
    | Kir.C_instance i ->
      Kir.C_instance { i with Kir.inst_label = rename i.Kir.inst_label }
    | Kir.C_block { blk_label; blk_guard; blk_body } ->
      Kir.C_block
        { blk_label = rename blk_label; blk_guard; blk_body = List.map conc blk_body }
    | Kir.C_generate { gen_label; gen_var; gen_range; gen_body } ->
      Kir.C_generate
        {
          gen_label = rename gen_label;
          gen_var;
          gen_range;
          gen_body = List.map conc gen_body;
        }
    | Kir.C_if_generate { ig_label; ig_cond; ig_body } ->
      Kir.C_if_generate
        { ig_label = rename ig_label; ig_cond; ig_body = List.map conc ig_body }
  in
  List.map conc concs
