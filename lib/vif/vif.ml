(** VIF — the VHDL Intermediate Format (paper §2.2, §4.3).

    "Our compiler supports a machine-readable intermediate language that is
    generated for each separately-compilable unit and read in when that unit
    is referenced from another."

    The concrete syntax is s-expressions, written and read by {!Vif_codec}
    with no tree in between: each [write_X] appends an [X] to a buffer and
    each [read_X] decodes one from a reader, field by field in the order the
    writer emits them.  Like the original, VIF values are applicative: they
    are built by attribute evaluation and never mutated. *)

module W = Vif_codec.W
module R = Vif_codec.R

(* A keyword standing for a constructor: written with [write_name], read
   with [read_name], both from one association list. *)
let rec read_name what names r =
  match names with
  | [] -> R.error r "bad %s" what
  | (x, n) :: rest -> if R.kw r n then x else read_name what rest r

let write_name names b x = W.atom b (List.assoc x names)

let write_opt f b = function
  | None -> W.atom b "none"
  | Some x -> W.field "some" f b x

let read_opt f r = if R.kw r "none" then None else Some (R.field "some" f r)

(* ------------------------------------------------------------------ *)
(* Types *)

let dir_names = [ (Types.To, "to"); (Types.Downto, "downto") ]
let write_dir = write_name dir_names
let read_dir r = read_name "direction" dir_names r

let rec write_ty b (t : Types.t) =
  W.tag b "";
  W.atom b t.Types.base;
  (match t.Types.kind with
  | Types.Kint -> W.tag b "int"
  | Types.Kfloat -> W.tag b "float"
  | Types.Kenum lits -> W.tag b "enum"; Array.iter (W.atom b) lits
  | Types.Kphys units -> W.tag b "phys"; List.iter (W.pair W.atom W.int b) units
  | Types.Karray { index; elem } -> W.tag b "array"; write_ty b index; write_ty b elem
  | Types.Krecord fields -> W.tag b "record"; List.iter (W.pair W.atom write_ty b) fields
  | Types.Kaccess designated -> W.tag b "access"; write_ty b designated);
  W.close b;
  (match t.Types.constr with
  | None -> ()
  | Some (Types.Crange (l, d, r)) ->
    W.tag b "range"; W.int b l; write_dir b d; W.int b r; W.close b
  | Some (Types.Cfloat_range (l, d, r)) ->
    W.tag b "frange"; W.float b l; write_dir b d; W.float b r; W.close b);
  W.close b

let rec read_ty r : Types.t =
  R.enter r;
  let base = R.atom r in
  let kind = R.list read_kind r in
  let constr = if R.at_close r then None else Some (R.list read_constraint r) in
  R.leave r;
  { Types.base; kind; constr }

and read_kind r =
  if R.kw r "int" then Types.Kint
  else if R.kw r "float" then Types.Kfloat
  else if R.kw r "enum" then Types.Kenum (Array.of_list (R.rest R.atom r))
  else if R.kw r "phys" then Types.Kphys (R.rest (R.pair R.atom R.int) r)
  else if R.kw r "array" then
    let index = read_ty r in
    Types.Karray { index; elem = read_ty r }
  else if R.kw r "record" then Types.Krecord (R.rest (R.pair R.atom read_ty) r)
  else if R.kw r "access" then Types.Kaccess (read_ty r)
  else R.error r "bad type kind"

and read_constraint r =
  if R.kw r "range" then
    let l = R.int r in
    let d = read_dir r in
    Types.Crange (l, d, R.int r)
  else if R.kw r "frange" then
    let l = R.float r in
    let d = read_dir r in
    Types.Cfloat_range (l, d, R.float r)
  else R.error r "bad type constraint"

(* ------------------------------------------------------------------ *)
(* Values *)

let write_tagged_int b t n = W.tag b t; W.int b n; W.close b

let rec write_value b (v : Value.t) =
  match v with
  | Value.Vnull -> W.atom b "null"
  | Value.Vint n -> write_tagged_int b "i" n
  | Value.Venum n -> write_tagged_int b "e" n
  | Value.Vphys n -> write_tagged_int b "p" n
  | Value.Vfloat x -> W.tag b "f"; W.float b x; W.close b
  | Value.Varray { bounds = l, d, r; elems } ->
    W.tag b "a"; W.int b l; write_dir b d; W.int b r;
    Array.iter (write_value b) elems;
    W.close b
  | Value.Vrecord fields ->
    W.tag b "r"; List.iter (W.pair W.atom write_value b) fields; W.close b
  | Value.Vaccess _ ->
    (* access values are variable-local and never reach the VIF; a constant
       folded to one would be a front-end bug *)
    failwith "Vif: access values are not serializable"

let rec read_value r : Value.t =
  if R.kw r "null" then Value.Vnull else R.list read_value_list r

and read_value_list r =
  if R.kw r "i" then Value.Vint (R.int r)
  else if R.kw r "e" then Value.Venum (R.int r)
  else if R.kw r "p" then Value.Vphys (R.int r)
  else if R.kw r "f" then Value.Vfloat (R.float r)
  else if R.kw r "a" then
    let l = R.int r in
    let d = read_dir r in
    let hi = R.int r in
    Value.Varray { bounds = (l, d, hi); elems = Array.of_list (R.rest read_value r) }
  else if R.kw r "r" then Value.Vrecord (R.rest (R.pair R.atom read_value) r)
  else R.error r "bad value"

(* ------------------------------------------------------------------ *)
(* KIR expressions and statements *)

let write_sref b = function
  | Kir.Sig_guard -> W.atom b "guard"
  | Kir.Sig_local i -> write_tagged_int b "local" i
  | Kir.Sig_param i -> write_tagged_int b "param" i
  | Kir.Sig_global { package; name } ->
    W.tag b "global"; W.atom b package; W.atom b name; W.close b

let read_sref_list r =
  if R.kw r "local" then Kir.Sig_local (R.int r)
  else if R.kw r "param" then Kir.Sig_param (R.int r)
  else if R.kw r "global" then
    let package = R.atom r in
    Kir.Sig_global { package; name = R.atom r }
  else R.error r "bad signal reference"

let read_sref r = if R.kw r "guard" then Kir.Sig_guard else R.list read_sref_list r

let binop_names =
  [
    (Kir.Band, "and"); (Kir.Bor, "or"); (Kir.Bnand, "nand"); (Kir.Bnor, "nor");
    (Kir.Bxor, "xor"); (Kir.Beq, "eq"); (Kir.Bneq, "neq"); (Kir.Blt, "lt");
    (Kir.Ble, "le"); (Kir.Bgt, "gt"); (Kir.Bge, "ge"); (Kir.Badd, "add");
    (Kir.Bsub, "sub"); (Kir.Bconcat, "concat"); (Kir.Bmul, "mul"); (Kir.Bdiv, "div");
    (Kir.Bmod, "mod"); (Kir.Brem, "rem"); (Kir.Bexp, "exp");
  ]

let unop_names = [ (Kir.Uneg, "neg"); (Kir.Uplus, "plus"); (Kir.Uabs, "abs"); (Kir.Unot, "not") ]

let sattr_names =
  [ (Kir.Sa_event, "event"); (Kir.Sa_active, "active"); (Kir.Sa_last_value, "last_value");
    (Kir.Sa_stable, "stable"); (Kir.Sa_last_event, "last_event") ]

let aattr_names =
  [ (Kir.At_left, "left"); (Kir.At_right, "right"); (Kir.At_high, "high");
    (Kir.At_low, "low"); (Kir.At_length, "length") ]

let rec write_expr b (e : Kir.expr) =
  match e with
  | Kir.Enull -> W.atom b "enull"
  | Kir.Elit v -> W.tag b "lit"; write_value b v; W.close b
  | Kir.Enew (ty, init) -> W.tag b "new"; write_ty b ty; write_opt write_expr b init; W.close b
  | Kir.Ederef a -> W.tag b "deref"; write_expr b a; W.close b
  | Kir.Evar { level; index; name } ->
    W.tag b "var"; W.int b level; W.int b index; W.atom b name; W.close b
  | Kir.Egeneric { index; name } -> W.tag b "generic"; W.int b index; W.atom b name; W.close b
  | Kir.Eunit_const { name } -> W.tag b "uconst"; W.atom b name; W.close b
  | Kir.Esig sref -> W.tag b "sig"; write_sref b sref; W.close b
  | Kir.Esig_attr (sref, a) ->
    W.tag b "sattr"; write_sref b sref; write_name sattr_names b a; W.close b
  | Kir.Ebin (op, x, y) ->
    W.tag b "bin"; write_name binop_names b op; write_expr b x; write_expr b y; W.close b
  | Kir.Eun (op, a) -> W.tag b "un"; write_name unop_names b op; write_expr b a; W.close b
  | Kir.Eindex (a, i) -> W.tag b "index"; write_expr b a; write_expr b i; W.close b
  | Kir.Eslice (a, range) -> W.tag b "slice"; write_expr b a; write_range b range; W.close b
  | Kir.Efield (a, f) -> W.tag b "field"; write_expr b a; W.atom b f; W.close b
  | Kir.Eaggregate (els, shape) ->
    W.tag b "agg";
    W.list write_agg_elem b els;
    (match shape with
    | Kir.Sh_array None -> W.tag b "array"
    | Kir.Sh_array (Some (l, d, r)) -> W.tag b "array"; W.int b l; write_dir b d; W.int b r
    | Kir.Sh_record fields -> W.tag b "record"; List.iter (W.atom b) fields);
    W.close b;
    W.close b
  | Kir.Ecall (Kir.F_user f, args) ->
    W.tag b "call"; W.atom b f; List.iter (write_expr b) args; W.close b
  | Kir.Econvert (c, a) ->
    W.tag b "conv";
    (match c with
    | Kir.To_integer -> W.atom b "to_int"
    | Kir.To_float -> W.atom b "to_float"
    | Kir.To_pos -> W.atom b "to_pos"
    | Kir.To_val ty -> W.tag b "to_val"; write_ty b ty; W.close b);
    write_expr b a;
    W.close b
  | Kir.Earray_attr (a, at) ->
    W.tag b "aattr"; write_expr b a; write_name aattr_names b at; W.close b

and write_range b (l, d, r) = write_expr b l; write_dir b d; write_expr b r

and write_agg_elem b = function
  | Kir.Ag_pos e -> W.tag b "pos"; write_expr b e; W.close b
  | Kir.Ag_named (i, e) -> W.tag b "named"; W.int b i; write_expr b e; W.close b
  | Kir.Ag_field (f, e) -> W.tag b "fld"; W.atom b f; write_expr b e; W.close b
  | Kir.Ag_others e -> W.tag b "others"; write_expr b e; W.close b

let rec read_expr r : Kir.expr = if R.kw r "enull" then Kir.Enull else R.list read_expr_list r

and read_expr_list r : Kir.expr =
  if R.kw r "lit" then Kir.Elit (read_value r)
  else if R.kw r "new" then
    let ty = read_ty r in
    Kir.Enew (ty, read_opt read_expr r)
  else if R.kw r "deref" then Kir.Ederef (read_expr r)
  else if R.kw r "var" then
    let level = R.int r in
    let index = R.int r in
    Kir.Evar { level; index; name = R.atom r }
  else if R.kw r "generic" then
    let index = R.int r in
    Kir.Egeneric { index; name = R.atom r }
  else if R.kw r "uconst" then Kir.Eunit_const { name = R.atom r }
  else if R.kw r "sig" then Kir.Esig (read_sref r)
  else if R.kw r "sattr" then
    let sref = read_sref r in
    Kir.Esig_attr (sref, read_name "signal attribute" sattr_names r)
  else if R.kw r "bin" then
    let op = read_name "binop" binop_names r in
    let x = read_expr r in
    Kir.Ebin (op, x, read_expr r)
  else if R.kw r "un" then
    let op = read_name "unop" unop_names r in
    Kir.Eun (op, read_expr r)
  else if R.kw r "index" then
    let a = read_expr r in
    Kir.Eindex (a, read_expr r)
  else if R.kw r "slice" then
    let a = read_expr r in
    Kir.Eslice (a, read_range r)
  else if R.kw r "field" then
    let a = read_expr r in
    Kir.Efield (a, R.atom r)
  else if R.kw r "agg" then
    let els = R.items read_agg_elem r in
    Kir.Eaggregate (els, R.list read_shape r)
  else if R.kw r "call" then
    let f = R.atom r in
    Kir.Ecall (Kir.F_user f, R.rest read_expr r)
  else if R.kw r "conv" then
    let c =
      if R.kw r "to_int" then Kir.To_integer
      else if R.kw r "to_float" then Kir.To_float
      else if R.kw r "to_pos" then Kir.To_pos
      else Kir.To_val (R.field "to_val" read_ty r)
    in
    Kir.Econvert (c, read_expr r)
  else if R.kw r "aattr" then
    let a = read_expr r in
    Kir.Earray_attr (a, read_name "array attribute" aattr_names r)
  else R.error r "bad expression"

and read_range r =
  let l = read_expr r in
  let d = read_dir r in
  (l, d, read_expr r)

and read_agg_elem r = R.list read_agg_elem_list r

and read_agg_elem_list r =
  if R.kw r "pos" then Kir.Ag_pos (read_expr r)
  else if R.kw r "named" then
    let i = R.int r in
    Kir.Ag_named (i, read_expr r)
  else if R.kw r "fld" then
    let f = R.atom r in
    Kir.Ag_field (f, read_expr r)
  else if R.kw r "others" then Kir.Ag_others (read_expr r)
  else R.error r "bad aggregate element"

and read_shape r =
  if R.kw r "array" then
    if R.at_close r then Kir.Sh_array None
    else
      let l = R.int r in
      let d = read_dir r in
      Kir.Sh_array (Some (l, d, R.int r))
  else if R.kw r "record" then Kir.Sh_record (R.rest R.atom r)
  else R.error r "bad aggregate shape"

let rec write_target b (t : Kir.target) =
  match t with
  | Kir.Tvar { level; index; name } ->
    W.tag b "tvar"; W.int b level; W.int b index; W.atom b name; W.close b
  | Kir.Tindex (t', i) -> W.tag b "tindex"; write_target b t'; write_expr b i; W.close b
  | Kir.Tslice (t', range) -> W.tag b "tslice"; write_target b t'; write_range b range; W.close b
  | Kir.Tfield (t', f) -> W.tag b "tfield"; write_target b t'; W.atom b f; W.close b
  | Kir.Tderef t' -> W.tag b "tderef"; write_target b t'; W.close b

let rec read_target r : Kir.target = R.list read_target_list r

and read_target_list r =
  if R.kw r "tvar" then
    let level = R.int r in
    let index = R.int r in
    Kir.Tvar { level; index; name = R.atom r }
  else if R.kw r "tindex" then
    let t = read_target r in
    Kir.Tindex (t, read_expr r)
  else if R.kw r "tslice" then
    let t = read_target r in
    Kir.Tslice (t, read_range r)
  else if R.kw r "tfield" then
    let t = read_target r in
    Kir.Tfield (t, R.atom r)
  else if R.kw r "tderef" then Kir.Tderef (read_target r)
  else R.error r "bad target"

let rec write_sig_target b (t : Kir.sig_target) =
  match t with
  | Kir.Ts_sig sref -> W.tag b "ssig"; write_sref b sref; W.close b
  | Kir.Ts_index (t', i) -> W.tag b "sindex"; write_sig_target b t'; write_expr b i; W.close b
  | Kir.Ts_slice (t', range) ->
    W.tag b "sslice"; write_sig_target b t'; write_range b range; W.close b
  | Kir.Ts_field (t', f) -> W.tag b "sfield"; write_sig_target b t'; W.atom b f; W.close b

let rec read_sig_target r : Kir.sig_target = R.list read_sig_target_list r

and read_sig_target_list r =
  if R.kw r "ssig" then Kir.Ts_sig (read_sref r)
  else if R.kw r "sindex" then
    let t = read_sig_target r in
    Kir.Ts_index (t, read_expr r)
  else if R.kw r "sslice" then
    let t = read_sig_target r in
    Kir.Ts_slice (t, read_range r)
  else if R.kw r "sfield" then
    let t = read_sig_target r in
    Kir.Ts_field (t, R.atom r)
  else R.error r "bad signal target"

let mode_names = [ (Kir.Arg_in, "in"); (Kir.Arg_out, "out"); (Kir.Arg_inout, "inout") ]
let write_arg_mode = write_name mode_names
let read_arg_mode r = read_name "mode" mode_names r
let delay_names = [ (Kir.Inertial, "inertial"); (Kir.Transport, "transport") ]

let rec write_stmt b (st : Kir.stmt) =
  match st with
  | Kir.Snull -> W.atom b "null"
  | Kir.Sassign (t, e, ty) ->
    W.tag b "assign"; write_target b t; write_expr b e; write_opt write_ty b ty; W.close b
  | Kir.Ssig_assign { target; mode; waveform; guarded; line } ->
    W.tag b "sassign";
    write_sig_target b target;
    write_name delay_names b mode;
    W.list
      (fun b (w : Kir.waveform_element) ->
        W.pair (write_opt write_expr) (write_opt write_expr) b (w.Kir.wv_value, w.Kir.wv_after))
      b waveform;
    W.bool b guarded;
    W.int b line;
    W.close b
  | Kir.Sif (arms, els) ->
    W.tag b "if"; W.list (W.pair write_expr write_stmts) b arms; write_stmts b els; W.close b
  | Kir.Scase (e, alts) ->
    W.tag b "case";
    write_expr b e;
    W.list (W.pair (W.list write_choice) write_stmts) b alts;
    W.close b
  | Kir.Sfor { var; var_name; range; body; loop_label } ->
    W.tag b "for";
    W.int b var;
    W.atom b var_name;
    write_range b range;
    write_stmts b body;
    write_opt W.atom b loop_label;
    W.close b
  | Kir.Swhile (c, body, lbl) ->
    W.tag b "while"; write_expr b c; write_stmts b body; write_opt W.atom b lbl; W.close b
  | Kir.Sloop (body, lbl) -> W.tag b "loop"; write_stmts b body; write_opt W.atom b lbl; W.close b
  | Kir.Sexit { cond; label } ->
    W.tag b "exit"; write_opt write_expr b cond; write_opt W.atom b label; W.close b
  | Kir.Snext { cond; label } ->
    W.tag b "next"; write_opt write_expr b cond; write_opt W.atom b label; W.close b
  | Kir.Swait { on; until; for_; line } ->
    W.tag b "wait";
    W.list write_sref b on;
    write_opt write_expr b until;
    write_opt write_expr b for_;
    W.int b line;
    W.close b
  | Kir.Sdisconnect t -> W.tag b "disconnect"; write_sig_target b t; W.close b
  | Kir.Sreturn e -> W.tag b "return"; write_opt write_expr b e; W.close b
  | Kir.Sassert { cond; report; severity; line } ->
    W.tag b "assert";
    write_expr b cond;
    write_opt write_expr b report;
    write_opt write_expr b severity;
    W.int b line;
    W.close b
  | Kir.Scall (Kir.P_user p, args) ->
    W.tag b "pcall";
    W.atom b p;
    W.list
      (fun b (a : Kir.call_arg) ->
        W.tag b "";
        write_arg_mode b a.Kir.ca_mode;
        write_expr b a.Kir.ca_expr;
        write_opt write_target b a.Kir.ca_target;
        write_opt write_sref b a.Kir.ca_signal;
        W.close b)
      b args;
    W.close b

and write_stmts b body = W.list write_stmt b body

and write_choice b = function
  | Kir.Ch_others -> W.atom b "others"
  | Kir.Ch_value v -> W.tag b "v"; write_value b v; W.close b
  | Kir.Ch_range (l, d, r) -> W.tag b "rng"; W.int b l; write_dir b d; W.int b r; W.close b

let rec read_stmt r : Kir.stmt = if R.kw r "null" then Kir.Snull else R.list read_stmt_list r

and read_stmt_list r : Kir.stmt =
  if R.kw r "assign" then
    let t = read_target r in
    let e = read_expr r in
    Kir.Sassign (t, e, read_opt read_ty r)
  else if R.kw r "sassign" then
    let target = read_sig_target r in
    let mode = read_name "delay mode" delay_names r in
    let waveform = R.items read_waveform_element r in
    let guarded = R.bool r in
    Kir.Ssig_assign { target; mode; waveform; guarded; line = R.int r }
  else if R.kw r "if" then
    let arms = R.items (R.pair read_expr read_stmts) r in
    Kir.Sif (arms, read_stmts r)
  else if R.kw r "case" then
    let e = read_expr r in
    Kir.Scase (e, R.items (R.pair (R.items read_choice) read_stmts) r)
  else if R.kw r "for" then
    let var = R.int r in
    let var_name = R.atom r in
    let range = read_range r in
    let body = read_stmts r in
    Kir.Sfor { var; var_name; range; body; loop_label = read_opt R.atom r }
  else if R.kw r "while" then
    let c = read_expr r in
    let body = read_stmts r in
    Kir.Swhile (c, body, read_opt R.atom r)
  else if R.kw r "loop" then
    let body = read_stmts r in
    Kir.Sloop (body, read_opt R.atom r)
  else if R.kw r "exit" then
    let cond = read_opt read_expr r in
    Kir.Sexit { cond; label = read_opt R.atom r }
  else if R.kw r "next" then
    let cond = read_opt read_expr r in
    Kir.Snext { cond; label = read_opt R.atom r }
  else if R.kw r "wait" then
    let on = R.items read_sref r in
    let until = read_opt read_expr r in
    let for_ = read_opt read_expr r in
    Kir.Swait { on; until; for_; line = R.int r }
  else if R.kw r "disconnect" then Kir.Sdisconnect (read_sig_target r)
  else if R.kw r "return" then Kir.Sreturn (read_opt read_expr r)
  else if R.kw r "assert" then
    let cond = read_expr r in
    let report = read_opt read_expr r in
    let severity = read_opt read_expr r in
    Kir.Sassert { cond; report; severity; line = R.int r }
  else if R.kw r "pcall" then
    let p = R.atom r in
    Kir.Scall (Kir.P_user p, R.items read_call_arg r)
  else R.error r "bad statement"

and read_stmts r = R.items read_stmt r

and read_waveform_element r =
  R.enter r;
  let wv_value = read_opt read_expr r in
  let wv_after = read_opt read_expr r in
  R.leave r;
  { Kir.wv_value; wv_after }

and read_choice r =
  if R.kw r "others" then Kir.Ch_others
  else
    R.list
      (fun r ->
        if R.kw r "v" then Kir.Ch_value (read_value r)
        else if R.kw r "rng" then
          let l = R.int r in
          let d = read_dir r in
          Kir.Ch_range (l, d, R.int r)
        else R.error r "bad choice")
      r

and read_call_arg r =
  R.enter r;
  let ca_mode = read_arg_mode r in
  let ca_expr = read_expr r in
  let ca_target = read_opt read_target r in
  let ca_signal = read_opt read_sref r in
  R.leave r;
  { Kir.ca_mode; ca_expr; ca_target; ca_signal }
