(** Runtime support: the predefined VHDL operations.

    This is the paper's "runtime support functions [that] perform all the
    predefined VHDL operations" — one of the four modules of the target
    virtual machine.  The closures {!Kir_eval} translates expressions into
    apply every KIR operator through this module, statically and at run
    time. *)

exception Runtime_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(* VHDL mod: result has the sign of the divisor; rem: sign of the dividend. *)
let vhdl_mod a b =
  if b = 0 then fail "mod by zero"
  else
    let r = a mod b in
    if r <> 0 && (r < 0) <> (b < 0) then r + b else r

let vhdl_rem a b = if b = 0 then fail "rem by zero" else a mod b

let int_pow base exp =
  if exp < 0 then fail "negative exponent for integer **"
  else begin
    let rec go acc base exp =
      if exp = 0 then acc
      else if exp land 1 = 1 then go (acc * base) (base * base) (exp asr 1)
      else go acc (base * base) (exp asr 1)
    in
    go 1 base exp
  end

let logical name f a b =
  match (a, b) with
  | Value.Venum x, Value.Venum y ->
    (* BOOLEAN and BIT are both two-valued enumerations with FALSE/'0' at
       position 0, so the boolean tables apply to both *)
    Value.vbool (f (x = 1) (y = 1))
  | Value.Varray { bounds; elems = xs }, Value.Varray { elems = ys; _ } ->
    if Array.length xs <> Array.length ys then
      fail "%s: arrays of different lengths" name
    else
      Value.Varray
        {
          bounds;
          elems =
            Array.init (Array.length xs) (fun i ->
                match (xs.(i), ys.(i)) with
                | Value.Venum x, Value.Venum y ->
                  Value.Venum (if f (x = 1) (y = 1) then 1 else 0)
                | _ -> fail "%s: non-logical array elements" name);
        }
  | _ -> fail "%s: operands must be boolean, bit, or arrays thereof" name

let concat a b =
  match (a, b) with
  | Value.Varray { bounds = l, d, _; elems = xs }, Value.Varray { elems = ys; _ } ->
    let n = Array.length xs + Array.length ys in
    let bounds =
      match d with
      | Value.To -> (l, Value.To, l + n - 1)
      | Value.Downto -> (l, Value.Downto, l - n + 1)
    in
    Value.Varray { bounds; elems = Array.append xs ys }
  | Value.Varray { bounds = l, d, r; elems = xs }, elem ->
    ignore r;
    let n = Array.length xs + 1 in
    let bounds =
      match d with
      | Value.To -> (l, Value.To, l + n - 1)
      | Value.Downto -> (l, Value.Downto, l - n + 1)
    in
    Value.Varray { bounds; elems = Array.append xs [| elem |] }
  | elem, Value.Varray { bounds = _, d, _; elems = ys } ->
    let n = Array.length ys + 1 in
    (* result uses the default 1-based positional bounds on the left operand's
       direction, mirroring LRM 7.2.3 closely enough for the subset *)
    let bounds =
      match d with
      | Value.To -> (1, Value.To, n)
      | Value.Downto -> (n, Value.Downto, 1)
    in
    Value.Varray { bounds; elems = Array.append [| elem |] ys }
  | a, b ->
    Value.Varray { bounds = (1, Value.To, 2); elems = [| a; b |] }

let arith name fi ff a b =
  match (a, b) with
  | Value.Vint x, Value.Vint y -> Value.Vint (fi x y)
  | Value.Vfloat x, Value.Vfloat y -> Value.Vfloat (ff x y)
  | Value.Vphys x, Value.Vphys y -> Value.Vphys (fi x y)
  | _ -> fail "%s: numeric operands required" name

let binop (op : Kir.binop) a b =
  match op with
  | Kir.Band -> logical "and" ( && ) a b
  | Kir.Bor -> logical "or" ( || ) a b
  | Kir.Bnand -> logical "nand" (fun x y -> not (x && y)) a b
  | Kir.Bnor -> logical "nor" (fun x y -> not (x || y)) a b
  | Kir.Bxor -> logical "xor" ( <> ) a b
  | Kir.Beq -> Value.vbool (Value.equal a b)
  | Kir.Bneq -> Value.vbool (not (Value.equal a b))
  | Kir.Blt -> Value.vbool (Value.compare_v a b < 0)
  | Kir.Ble -> Value.vbool (Value.compare_v a b <= 0)
  | Kir.Bgt -> Value.vbool (Value.compare_v a b > 0)
  | Kir.Bge -> Value.vbool (Value.compare_v a b >= 0)
  | Kir.Badd -> (
    (* physical * abstract mixing is handled before we get here; +/- on
       same-type operands only *)
    match (a, b) with
    | Value.Venum _, _ | _, Value.Venum _ -> fail "+: numeric operands required"
    | _ -> arith "+" ( + ) ( +. ) a b)
  | Kir.Bsub -> arith "-" ( - ) ( -. ) a b
  | Kir.Bmul -> (
    match (a, b) with
    | Value.Vphys x, Value.Vint y -> Value.Vphys (x * y)
    | Value.Vint x, Value.Vphys y -> Value.Vphys (x * y)
    | Value.Vphys x, Value.Vfloat y -> Value.Vphys (int_of_float (float_of_int x *. y))
    | Value.Vfloat x, Value.Vphys y -> Value.Vphys (int_of_float (x *. float_of_int y))
    | _ -> arith "*" ( * ) ( *. ) a b)
  | Kir.Bdiv -> (
    match (a, b) with
    | Value.Vphys x, Value.Vint y ->
      if y = 0 then fail "division by zero" else Value.Vphys (x / y)
    | Value.Vphys x, Value.Vphys y ->
      if y = 0 then fail "division by zero" else Value.Vint (x / y)
    | Value.Vint _, Value.Vint 0 -> fail "division by zero"
    | _ -> arith "/" ( / ) ( /. ) a b)
  | Kir.Bmod -> (
    match (a, b) with
    | Value.Vint x, Value.Vint y -> Value.Vint (vhdl_mod x y)
    | _ -> fail "mod: integer operands required")
  | Kir.Brem -> (
    match (a, b) with
    | Value.Vint x, Value.Vint y -> Value.Vint (vhdl_rem x y)
    | _ -> fail "rem: integer operands required")
  | Kir.Bexp -> (
    match (a, b) with
    | Value.Vint x, Value.Vint y -> Value.Vint (int_pow x y)
    | Value.Vfloat x, Value.Vint y -> Value.Vfloat (x ** float_of_int y)
    | _ -> fail "**: invalid operands")
  | Kir.Bconcat -> concat a b

let unop (op : Kir.unop) a =
  match op with
  | Kir.Uneg -> (
    match a with
    | Value.Vint x -> Value.Vint (-x)
    | Value.Vfloat x -> Value.Vfloat (-.x)
    | Value.Vphys x -> Value.Vphys (-x)
    | _ -> fail "unary -: numeric operand required")
  | Kir.Uplus -> (
    match a with
    | Value.Vint _ | Value.Vfloat _ | Value.Vphys _ -> a
    | _ -> fail "unary +: numeric operand required")
  | Kir.Uabs -> (
    match a with
    | Value.Vint x -> Value.Vint (abs x)
    | Value.Vfloat x -> Value.Vfloat (abs_float x)
    | Value.Vphys x -> Value.Vphys (abs x)
    | _ -> fail "abs: numeric operand required")
  | Kir.Unot -> (
    match a with
    | Value.Venum ((0 | 1) as x) -> Value.vbool (x = 0)
    | Value.Venum x -> Value.Venum (1 - x)
    | Value.Varray { bounds; elems } ->
      Value.Varray
        {
          bounds;
          elems =
            Array.map
              (function
                | Value.Venum x -> Value.Venum (1 - x)
                | _ -> fail "not: non-logical array element")
              elems;
        }
    | _ -> fail "not: boolean, bit, or array thereof required")

(** Index an array value, with bounds checking. *)
let index v i =
  match Value.array_get v i with
  | Some e -> e
  | None -> fail "array index %d out of bounds" i

(** Slice an array value. *)
let slice v (l, d, r) =
  match v with
  | Value.Varray { bounds; elems } ->
    let idxs = Value.range_indices (l, d, r) in
    let picked =
      List.map
        (fun i ->
          match Value.array_offset bounds i with
          | Some off -> elems.(off)
          | None -> fail "slice index %d out of bounds" i)
        idxs
    in
    Value.Varray { bounds = (l, d, r); elems = Array.of_list picked }
  | _ -> fail "slice of a non-array value"

let field v name =
  match v with
  | Value.Vrecord fields -> (
    match List.assoc_opt name fields with
    | Some x -> x
    | None -> fail "no record field %s" name)
  | _ -> fail "field selection on a non-record value"

(** Functional update at an array index. *)
let update_index v i e =
  match v with
  | Value.Varray { bounds; elems } -> (
    match Value.array_offset bounds i with
    | Some off ->
      let elems = Array.copy elems in
      elems.(off) <- e;
      Value.Varray { bounds; elems }
    | None -> fail "array index %d out of bounds in assignment" i)
  | _ -> fail "indexed assignment to a non-array value"

let update_slice v (l, d, r) rhs =
  match (v, rhs) with
  | Value.Varray { bounds; elems }, Value.Varray { elems = src; _ } ->
    let idxs = Value.range_indices (l, d, r) in
    if List.length idxs <> Array.length src then fail "slice assignment length mismatch"
    else begin
      let elems = Array.copy elems in
      List.iteri
        (fun k i ->
          match Value.array_offset bounds i with
          | Some off -> elems.(off) <- src.(k)
          | None -> fail "slice index %d out of bounds in assignment" i)
        idxs;
      Value.Varray { bounds; elems }
    end
  | _ -> fail "slice assignment requires array values"

let update_field v name e =
  match v with
  | Value.Vrecord fields ->
    if not (List.mem_assoc name fields) then fail "no record field %s" name
    else Value.Vrecord (List.map (fun (n, x) -> if n = name then (n, e) else (n, x)) fields)
  | _ -> fail "field assignment to a non-record value"

(** Subtype constraint check on assignment (LRM 3: range checks). *)
let check_constraint (ty : Types.t) v =
  match (ty.Types.constr, v) with
  | Some (Types.Crange (a, d, b)), (Value.Vint _ | Value.Venum _ | Value.Vphys _) ->
    let x = Value.as_int v in
    let lo, hi = match d with Types.To -> (a, b) | Types.Downto -> (b, a) in
    if x < lo || x > hi then
      fail "value %d out of range %d %s %d" x a
        (match d with Types.To -> "to" | Types.Downto -> "downto")
        b
  | Some (Types.Cfloat_range (a, d, b)), Value.Vfloat x ->
    let lo, hi = match d with Types.To -> (a, b) | Types.Downto -> (b, a) in
    if x < lo || x > hi then fail "value %g out of range" x
  | _ -> ()

(* LRM 8.5, 8.3: an array value assigned to an object of a constrained
   array subtype takes the subtype's index range when the lengths match *)
let to_subtype (ty : Types.t) v =
  match (ty.Types.kind, ty.Types.constr, v) with
  | Types.Karray _, Some (Types.Crange (l, d, r)), Value.Varray { bounds = l', d', r'; elems } ->
    let n = Value.range_length (l, d, r) in
    if Array.length elems <> n then
      fail "array of %d elements assigned to a subtype of %d" (Array.length elems) n
    else if l = l' && r = r' && d = d' then v
    else Value.Varray { bounds = (l, d, r); elems }
  | _ ->
    check_constraint ty v;
    v

(* ------------------------------------------------------------------ *)
(* Conversions, array attributes, dereference *)

let convert (conv : Kir.conv) v =
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
          fail "T'VAL(%d) out of range for %s" n (Types.short_name ty)
        else Value.Venum n
      | Types.Kphys _ -> Value.Vphys n
      | _ -> Value.Vint n
    in
    check_constraint ty result;
    result

let array_attr (attr : Kir.array_attr) = function
  | Value.Varray { bounds = l, d, r; _ } ->
    Value.Vint
      (match attr with
      | Kir.At_left -> l
      | Kir.At_right -> r
      | Kir.At_high -> ( match d with Kir.To -> r | Kir.Downto -> l)
      | Kir.At_low -> ( match d with Kir.To -> l | Kir.Downto -> r)
      | Kir.At_length -> Value.range_length (l, d, r))
  | _ -> fail "array attribute of a non-array value"

let deref = function
  | Value.Vaccess r -> !r
  | Value.Vnull -> fail "dereference of a null access value"
  | _ -> fail "dereference of a non-access value"
