(** The one translator of KIR expressions (see the interface). *)

type 'env code = 'env -> Value.t

type ('ctx, 'env) leaves = {
  var : 'ctx -> level:int -> index:int -> name:string -> 'env code;
  generic : 'ctx -> index:int -> name:string -> 'env code;
  unit_const : 'ctx -> string -> 'env code;
  signal : 'ctx -> Kir.sig_ref -> 'env code;
  signal_attr : 'ctx -> Kir.sig_ref -> Kir.sattr -> 'env code;
  call : 'ctx -> string -> 'env code list -> 'env code;
  alloc : 'ctx -> 'env code -> 'env code;
}

(* Operands run in OCaml's right-to-left argument order ([binop op (a env)
   (b env)] runs [b] first): the order in which errors and the side effects
   of calls happen, which the kernel goldens pin. *)
let rec translate lv ctx (e : Kir.expr) : 'env code =
  let tr = translate lv ctx in
  match e with
  | Kir.Elit v -> fun _ -> v
  | Kir.Enull -> fun _ -> Value.Vnull
  | Kir.Enew (ty, init) ->
    lv.alloc ctx (match init with Some e -> tr e | None -> fun _ -> Value.default_of ty)
  | Kir.Ederef a ->
    let a = tr a in
    fun env -> Value_ops.deref (a env)
  | Kir.Evar { level; index; name } -> lv.var ctx ~level ~index ~name
  | Kir.Egeneric { index; name } -> lv.generic ctx ~index ~name
  | Kir.Eunit_const { name } -> lv.unit_const ctx name
  | Kir.Esig sref -> lv.signal ctx sref
  | Kir.Esig_attr (sref, attr) -> lv.signal_attr ctx sref attr
  | Kir.Ebin (((Kir.Band | Kir.Bor) as op), a, b) ->
    (* short-circuit boolean and/or (LRM 7.2.1): [stop] decides alone *)
    let a = tr a and b = tr b and stop = if op = Kir.Band then 0 else 1 in
    fun env ->
      (match a env with
      | Value.Venum n when n = stop -> Value.vbool (stop = 1)
      | Value.Venum n when n = 1 - stop -> b env
      | va -> Value_ops.binop op va (b env))
  | Kir.Ebin (op, a, b) ->
    let a = tr a and b = tr b in
    fun env -> Value_ops.binop op (a env) (b env)
  | Kir.Eun (op, a) ->
    let a = tr a in
    fun env -> Value_ops.unop op (a env)
  | Kir.Eindex (a, i) ->
    let a = tr a and i = tr i in
    fun env -> Value_ops.index (a env) (Value.as_int (i env))
  | Kir.Eslice (a, (l, d, r)) ->
    let a = tr a and l = tr l and r = tr r in
    fun env -> Value_ops.slice (a env) (Value.as_int (l env), d, Value.as_int (r env))
  | Kir.Efield (a, f) ->
    let a = tr a in
    fun env -> Value_ops.field (a env) f
  | Kir.Eaggregate (els, shape) -> aggregate tr els shape
  | Kir.Ecall (Kir.F_user f, args) -> lv.call ctx f (List.map tr args)
  | Kir.Econvert (conv, a) ->
    let a = tr a in
    fun env -> Value_ops.convert conv (a env)
  | Kir.Earray_attr (a, attr) ->
    let a = tr a in
    fun env -> Value_ops.array_attr attr (a env)

(* Which element fills which field or slot is decided here; the closure
   computes the elements in source order, positional ones first. *)
and aggregate tr els shape =
  let pick f = List.filter_map f els in
  match shape with
  | Kir.Sh_record field_names ->
    let named = pick (function Kir.Ag_field (f, e) -> Some (f, e) | _ -> None) in
    let positional = pick (function Kir.Ag_pos e -> Some e | _ -> None) in
    let field i name =
      match (List.assoc_opt name named, List.nth_opt positional i) with
      | Some e, _ | None, Some e -> (name, tr e)
      | None, None -> (name, fun _ -> Value_ops.fail "record aggregate misses field %s" name)
    in
    let fields = List.mapi field field_names in
    fun env -> Value.Vrecord (List.map (fun (name, c) -> (name, c env)) fields)
  | Kir.Sh_array bounds_opt ->
    let positional = pick (function Kir.Ag_pos e -> Some (tr e) | _ -> None) in
    let named = pick (function Kir.Ag_named (i, e) -> Some (i, tr e) | _ -> None) in
    let others = List.find_map (function Kir.Ag_others e -> Some (tr e) | _ -> None) els in
    let bounds =
      match bounds_opt with
      | Some b -> b
      | None ->
        (* positional aggregate without context: index from 1 upward *)
        (1, Types.To, List.length positional + List.length named)
    in
    let n = Value.range_length bounds in
    let named = List.map (fun (i, c) -> (i, Value.array_offset bounds i, c)) named in
    let fill env = function
      | Some v -> v
      | None -> (
        match others with
        | Some c -> c env
        | None -> Value_ops.fail "aggregate leaves elements undefined")
    in
    fun env ->
      let slots = Array.make n None in
      List.iteri (fun k c -> if k < n then slots.(k) <- Some (c env)) positional;
      List.iter
        (fun (i, off, c) ->
          match off with
          | Some off -> slots.(off) <- Some (c env)
          | None -> Value_ops.fail "aggregate choice %d out of bounds" i)
        named;
      Value.Varray { bounds; elems = Array.map (fill env) slots }

let eval lv ctx env e = translate lv ctx e env
