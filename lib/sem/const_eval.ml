(** Static evaluation of KIR expressions.

    Used for constant declarations, type ranges, case choices, and generic
    defaults at analysis time, and again at elaboration time once generic
    actuals are known.  Signals and user subprogram calls are not static in
    this subset. *)

exception Not_static of string

let not_static fmt = Format.kasprintf (fun s -> raise (Not_static s)) fmt

type ctx = {
  generics : (int * Value.t) list; (* generic index -> value *)
  frame : Value.t option array list; (* innermost first; loop vars etc. *)
}

let empty = { generics = []; frame = [] }

let rec eval ctx (e : Kir.expr) : Value.t =
  match e with
  | Kir.Elit v -> v
  | Kir.Enull -> Value.Vnull
  | Kir.Enew _ -> not_static "allocators are evaluated at run time"
  | Kir.Ederef _ -> not_static "access dereference is not static"
  | Kir.Evar { level; index; name } -> (
    (* levels count outward from the innermost frame *)
    match List.nth_opt ctx.frame level with
    | Some frame when index < Array.length frame -> (
      match frame.(index) with
      | Some v -> v
      | None -> not_static "variable %s is not static" name)
    | _ -> not_static "variable %s is not static" name)
  | Kir.Egeneric { index; name } -> (
    match List.assoc_opt index ctx.generics with
    | Some v -> v
    | None -> not_static "generic %s is not yet bound" name)
  | Kir.Esig _ | Kir.Esig_attr _ -> not_static "signal values are not static"
  | Kir.Eunit_const { name } -> not_static "constant %s is not known until elaboration" name
  | Kir.Ebin (op, a, b) -> (
    (* short-circuit per LRM for and/or on booleans *)
    match op with
    | Kir.Band ->
      let va = eval ctx a in
      (match va with
      | Value.Venum 0 -> Value.vbool false
      | Value.Venum 1 -> eval ctx b
      | _ -> Value_ops.binop op va (eval ctx b))
    | Kir.Bor ->
      let va = eval ctx a in
      (match va with
      | Value.Venum 1 -> Value.vbool true
      | Value.Venum 0 -> eval ctx b
      | _ -> Value_ops.binop op va (eval ctx b))
    | _ -> Value_ops.binop op (eval ctx a) (eval ctx b))
  | Kir.Eun (op, a) -> Value_ops.unop op (eval ctx a)
  | Kir.Eindex (a, i) -> Value_ops.index (eval ctx a) (Value.as_int (eval ctx i))
  | Kir.Eslice (a, (l, d, r)) ->
    Value_ops.slice (eval ctx a)
      (Value.as_int (eval ctx l), d, Value.as_int (eval ctx r))
  | Kir.Efield (a, f) -> Value_ops.field (eval ctx a) f
  | Kir.Eaggregate (elements, shape) -> eval_aggregate ctx elements shape
  | Kir.Ecall (Kir.F_user f, _) -> not_static "call to %s is not static" f
  | Kir.Econvert (Kir.To_integer, a) -> (
    match eval ctx a with
    | Value.Vfloat x -> Value.Vint (int_of_float (Float.round x))
    | Value.Vint n -> Value.Vint n
    | _ -> not_static "integer conversion of a non-numeric value")
  | Kir.Econvert (Kir.To_float, a) -> (
    match eval ctx a with
    | Value.Vint n -> Value.Vfloat (float_of_int n)
    | Value.Vfloat x -> Value.Vfloat x
    | _ -> not_static "real conversion of a non-numeric value")
  | Kir.Econvert (Kir.To_pos, a) -> Value.Vint (Value.as_int (eval ctx a))
  | Kir.Econvert (Kir.To_val ty, a) ->
    let n = Value.as_int (eval ctx a) in
    let v =
      match ty.Types.kind with
      | Types.Kenum _ -> Value.Venum n
      | Types.Kphys _ -> Value.Vphys n
      | _ -> Value.Vint n
    in
    Value_ops.check_constraint ty v;
    v
  | Kir.Earray_attr (a, attr) -> (
    match eval ctx a with
    | Value.Varray { bounds = l, d, r; _ } ->
      let v =
        match attr with
        | Kir.At_left -> l
        | Kir.At_right -> r
        | Kir.At_high -> ( match d with Kir.To -> r | Kir.Downto -> l)
        | Kir.At_low -> ( match d with Kir.To -> l | Kir.Downto -> r)
        | Kir.At_length -> Value.range_length (l, d, r)
      in
      Value.Vint v
    | _ -> not_static "array attribute of a non-array value")

and eval_aggregate ctx elements shape =
  match shape with
  | Kir.Sh_record field_names ->
    let fields =
      List.map
        (fun name ->
          let value =
            List.find_map
              (function
                | Kir.Ag_field (f, e) when f = name -> Some (eval ctx e)
                | Kir.Ag_field _ -> None
                | Kir.Ag_pos _ -> None
                | Kir.Ag_named _ -> None
                | Kir.Ag_others e -> Some (eval ctx e))
              elements
          in
          match value with
          | Some v -> (name, v)
          | None -> not_static "record aggregate misses field %s" name)
        field_names
    in
    (* positional elements fill fields in order when no names are given *)
    let positional = List.filter_map (function Kir.Ag_pos e -> Some e | _ -> None) elements in
    if positional <> [] then
      Value.Vrecord
        (List.mapi
           (fun i name ->
             match List.nth_opt positional i with
             | Some e -> (name, eval ctx e)
             | None -> List.nth fields i)
           field_names)
    else Value.Vrecord fields
  | Kir.Sh_array bounds_opt ->
    let positional = List.filter_map (function Kir.Ag_pos e -> Some e | _ -> None) elements in
    let named = List.filter_map (function Kir.Ag_named (i, e) -> Some (i, e) | _ -> None) elements in
    let others = List.find_map (function Kir.Ag_others e -> Some e | _ -> None) elements in
    let bounds =
      match bounds_opt with
      | Some b -> b
      | None ->
        (* positional aggregate without context: index from 1 upward *)
        let n = List.length positional + List.length named in
        (1, Types.To, n)
    in
    let len = Value.range_length bounds in
    let elems = Array.make len None in
    List.iteri
      (fun k e -> if k < len then elems.(k) <- Some (eval ctx e))
      positional;
    List.iter
      (fun (i, e) ->
        match Value.array_offset bounds i with
        | Some off -> elems.(off) <- Some (eval ctx e)
        | None -> not_static "aggregate choice %d out of bounds" i)
      named;
    let filled =
      Array.map
        (fun slot ->
          match slot with
          | Some v -> v
          | None -> (
            match others with
            | Some e -> eval ctx e
            | None -> not_static "aggregate leaves elements undefined"))
        elems
    in
    Value.Varray { bounds; elems = filled }

(** Best-effort fold: literal when static, original expression otherwise. *)
let fold ctx e =
  match eval ctx e with
  | v -> Kir.Elit v
  | exception Not_static _ -> e
  | exception Value_ops.Runtime_error _ -> e

let eval_opt ctx e =
  match eval ctx e with
  | v -> Some v
  | exception Not_static _ -> None
  | exception Value_ops.Runtime_error _ -> None
