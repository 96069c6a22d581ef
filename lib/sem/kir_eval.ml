(** The one evaluator of KIR expressions (see the interface). *)

type 'env leaves = {
  var : 'env -> level:int -> index:int -> name:string -> Value.t;
  generic : 'env -> index:int -> name:string -> Value.t;
  unit_const : 'env -> string -> Value.t;
  signal : 'env -> Kir.sig_ref -> Value.t;
  signal_attr : 'env -> Kir.sig_ref -> Kir.sattr -> Value.t;
  call : 'env -> string -> Value.t list -> Value.t;
  alloc : 'env -> Value.t -> Value.t;
}

let deref = function
  | Value.Vaccess r -> !r
  | Value.Vnull -> Value_ops.fail "dereference of a null access value"
  | _ -> Value_ops.fail "dereference of a non-access value"

let rec eval lv env (e : Kir.expr) : Value.t =
  match e with
  | Kir.Elit v -> v
  | Kir.Enull -> Value.Vnull
  | Kir.Enew (ty, init) ->
    lv.alloc env (match init with Some e -> eval lv env e | None -> Value.default_of ty)
  | Kir.Ederef e -> deref (eval lv env e)
  | Kir.Evar { level; index; name } -> lv.var env ~level ~index ~name
  | Kir.Egeneric { index; name } -> lv.generic env ~index ~name
  | Kir.Eunit_const { name } -> lv.unit_const env name
  | Kir.Esig sref -> lv.signal env sref
  | Kir.Esig_attr (sref, attr) -> lv.signal_attr env sref attr
  | Kir.Ebin (op, a, b) -> (
    (* short-circuit boolean and/or (LRM 7.2.1) *)
    match op with
    | Kir.Band -> (
      match eval lv env a with
      | Value.Venum 0 -> Value.vbool false
      | Value.Venum 1 -> eval lv env b
      | va -> Value_ops.binop op va (eval lv env b))
    | Kir.Bor -> (
      match eval lv env a with
      | Value.Venum 1 -> Value.vbool true
      | Value.Venum 0 -> eval lv env b
      | va -> Value_ops.binop op va (eval lv env b))
    | _ -> Value_ops.binop op (eval lv env a) (eval lv env b))
  | Kir.Eun (op, a) -> Value_ops.unop op (eval lv env a)
  | Kir.Eindex (a, i) -> Value_ops.index (eval lv env a) (Value.as_int (eval lv env i))
  | Kir.Eslice (a, (l, d, r)) ->
    Value_ops.slice (eval lv env a)
      (Value.as_int (eval lv env l), d, Value.as_int (eval lv env r))
  | Kir.Efield (a, f) -> Value_ops.field (eval lv env a) f
  | Kir.Eaggregate (els, shape) -> eval_aggregate lv env els shape
  | Kir.Ecall (Kir.F_user f, args) -> lv.call env f (eval_args lv env args)
  | Kir.Econvert (conv, a) -> convert conv (eval lv env a)
  | Kir.Earray_attr (a, attr) -> (
    match eval lv env a with
    | Value.Varray { bounds = l, d, r; _ } ->
      Value.Vint
        (match attr with
        | Kir.At_left -> l
        | Kir.At_right -> r
        | Kir.At_high -> ( match d with Kir.To -> r | Kir.Downto -> l)
        | Kir.At_low -> ( match d with Kir.To -> l | Kir.Downto -> r)
        | Kir.At_length -> Value.range_length (l, d, r))
    | _ -> Value_ops.fail "array attribute of a non-array value")

(* arguments left to right, without a closure per call *)
and eval_args lv env = function
  | [] -> []
  | a :: rest ->
    let v = eval lv env a in
    v :: eval_args lv env rest

and convert conv v =
  match conv with
  | Kir.To_integer -> (
    match v with
    | Value.Vfloat x -> Value.Vint (int_of_float (Float.round x))
    | v -> Value.Vint (Value.as_int v))
  | Kir.To_float -> ( match v with Value.Vint n -> Value.Vfloat (float_of_int n) | v -> v)
  | Kir.To_pos -> Value.Vint (Value.as_int v)
  | Kir.To_val ty ->
    let n = Value.as_int v in
    let result =
      match ty.Types.kind with
      | Types.Kenum lits ->
        if n < 0 || n >= Array.length lits then
          Value_ops.fail "T'VAL(%d) out of range for %s" n (Types.short_name ty)
        else Value.Venum n
      | Types.Kphys _ -> Value.Vphys n
      | _ -> Value.Vint n
    in
    Value_ops.check_constraint ty result;
    result

and eval_aggregate lv env els shape =
  match shape with
  | Kir.Sh_record field_names ->
    let named = List.filter_map (function Kir.Ag_field (f, e) -> Some (f, e) | _ -> None) els in
    let positional = List.filter_map (function Kir.Ag_pos e -> Some e | _ -> None) els in
    Value.Vrecord
      (List.mapi
         (fun i name ->
           match List.assoc_opt name named with
           | Some e -> (name, eval lv env e)
           | None -> (
             match List.nth_opt positional i with
             | Some e -> (name, eval lv env e)
             | None -> Value_ops.fail "record aggregate misses field %s" name))
         field_names)
  | Kir.Sh_array bounds_opt ->
    let positional = List.filter_map (function Kir.Ag_pos e -> Some e | _ -> None) els in
    let named = List.filter_map (function Kir.Ag_named (i, e) -> Some (i, e) | _ -> None) els in
    let others = List.find_map (function Kir.Ag_others e -> Some e | _ -> None) els in
    let bounds =
      match bounds_opt with
      | Some b -> b
      | None ->
        (* positional aggregate without context: index from 1 upward *)
        (1, Types.To, List.length positional + List.length named)
    in
    let slots = Array.make (Value.range_length bounds) None in
    List.iteri
      (fun k e -> if k < Array.length slots then slots.(k) <- Some (eval lv env e))
      positional;
    List.iter
      (fun (i, e) ->
        match Value.array_offset bounds i with
        | Some off -> slots.(off) <- Some (eval lv env e)
        | None -> Value_ops.fail "aggregate choice %d out of bounds" i)
      named;
    Value.Varray
      {
        bounds;
        elems =
          Array.map
            (function
              | Some v -> v
              | None -> (
                match others with
                | Some e -> eval lv env e
                | None -> Value_ops.fail "aggregate leaves elements undefined"))
            slots;
      }
