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
