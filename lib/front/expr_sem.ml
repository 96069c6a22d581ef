(** Out-of-line semantic functions of the expression AG.

    The paper keeps complex semantic rules in "out-of-line,
    separately-compiled functions" (18% of the original compiler); these are
    ours for expression typing: candidate-set construction, operator typing,
    overload resolution, aggregate coercion, and attribute evaluation. *)

open Pval

(** Type used to keep going after an error has been reported; compatible
    with everything so one mistake produces one message. *)
let error_ty : Types.t = { Types.base = "%ERROR%"; kind = Types.Kint; constr = None }

let is_error_ty (ty : Types.t) = ty.Types.base = "%ERROR%"

let compat a b = is_error_ty a || is_error_ty b || Types.compatible a b

let error_cand = Cv { ty = error_ty; code = Kir.Elit (Value.Vint 0); static = None }

(** Pseudo-type of a procedure call "expression": lets procedure-call
    statements reuse the expression AG for argument matching. *)
let void_ty : Types.t = { Types.base = "%VOID%"; kind = Types.Kint; constr = None }

let cv ty code static =
  match static with
  | Some v -> Cv { ty; code = Kir.Elit v; static }
  | None -> Cv { ty; code; static }

(* ------------------------------------------------------------------ *)
(* Candidate sets for LEF head tokens *)

let head_cands ~level (tok : Lef.tok) : cand list =
  match tok.Lef.l_kind with
  | Lef.Kvar { ty; level = abs_level; index; name } ->
    [ Cv { ty; code = Kir.Evar { level = level - abs_level; index; name }; static = None } ]
  | Lef.Ksig { ty; sref; _ } -> [ Cv { ty; code = Kir.Esig sref; static = None } ]
  | Lef.Kconst_val { ty; value; _ } ->
    [ Cv { ty; code = Kir.Elit value; static = Some value } ]
  | Lef.Kgeneric { ty; index; name } ->
    [ Cv { ty; code = Kir.Egeneric { index; name }; static = None } ]
  | Lef.Kunitconst { ty; name } ->
    [ Cv { ty; code = Kir.Eunit_const { name }; static = None } ]
  | Lef.Kattrval { ty; value } -> [ Cv { ty; code = Kir.Elit value; static = Some value } ]
  | _ -> [ error_cand ]

let literal_cands (tok : Lef.tok) : cand list =
  match tok.Lef.l_kind with
  | Lef.Kint n -> [ Cv { ty = Std.integer; code = Kir.Elit (Value.Vint n); static = Some (Value.Vint n) } ]
  | Lef.Kreal x ->
    [ Cv { ty = Std.real; code = Kir.Elit (Value.Vfloat x); static = Some (Value.Vfloat x) } ]
  | Lef.Kphys { value; ty } ->
    [ Cv { ty; code = Kir.Elit (Value.Vphys value); static = Some (Value.Vphys value) } ]
  | Lef.Kstr s ->
    let as_string = Std.string_value s in
    let base =
      [ Cv { ty = Std.string_ty; code = Kir.Elit as_string; static = Some as_string } ]
    in
    let base =
      if String.for_all (fun c -> c = '0' || c = '1') s && s <> "" then
        let bv = Std.bit_vector_value s in
        Cv { ty = Std.bit_vector; code = Kir.Elit bv; static = Some bv } :: base
      else base
    in
    base @ [ Cstr s ]
  | Lef.Kbitstr s ->
    let bv = Std.bit_vector_value s in
    [ Cv { ty = Std.bit_vector; code = Kir.Elit bv; static = Some bv }; Cstr s ]
  | Lef.Kenum cands ->
    List.map
      (fun (ty, pos, _) ->
        Cv { ty; code = Kir.Elit (Value.Venum pos); static = Some (Value.Venum pos) })
      cands
  | _ -> [ error_cand ]

(* ------------------------------------------------------------------ *)
(* Static folding *)

(* a candidate whose code becomes a literal when it is static *)
let folded ty code = cv ty code (Const_eval.eval_opt Const_eval.none code)

(* an operator folds when its operands already folded to literals; a
   non-literal operand is not static, so the walk is not tried *)
let fold_operator ty code =
  match code with
  | Kir.Ebin (_, Kir.Elit _, Kir.Elit _) | Kir.Eun (_, Kir.Elit _) -> folded ty code
  | _ -> cv ty code None

(* ------------------------------------------------------------------ *)
(* Operator typing (LRM 7.2) *)

let is_logical_ty (ty : Types.t) =
  Types.same_base ty Std.boolean || Types.same_base ty Std.bit
  ||
  match ty.Types.kind with
  | Types.Karray { elem; _ } ->
    Types.same_base elem Std.boolean || Types.same_base elem Std.bit
  | _ -> false

let is_numeric_ty (ty : Types.t) =
  match ty.Types.kind with
  | Types.Kint | Types.Kfloat | Types.Kphys _ -> true
  | _ -> false

let is_discrete_array (ty : Types.t) =
  match ty.Types.kind with
  | Types.Karray { elem; _ } -> Types.is_scalar elem
  | _ -> false

let kir_binop = function
  | "and" -> Kir.Band
  | "or" -> Kir.Bor
  | "nand" -> Kir.Bnand
  | "nor" -> Kir.Bnor
  | "xor" -> Kir.Bxor
  | "=" -> Kir.Beq
  | "/=" -> Kir.Bneq
  | "<" -> Kir.Blt
  | "<=" -> Kir.Ble
  | ">" -> Kir.Bgt
  | ">=" -> Kir.Bge
  | "+" -> Kir.Badd
  | "-" -> Kir.Bsub
  | "&" -> Kir.Bconcat
  | "*" -> Kir.Bmul
  | "/" -> Kir.Bdiv
  | "mod" -> Kir.Bmod
  | "rem" -> Kir.Brem
  | "**" -> Kir.Bexp
  | op -> internal "unknown binary operator %s" op

(* unconstrained version of an array type, for & results *)
let unconstrained (ty : Types.t) = { ty with Types.constr = None }

let binop_result op (ta : Types.t) (tb : Types.t) : Types.t option =
  match op with
  | "and" | "or" | "nand" | "nor" | "xor" ->
    if compat ta tb && is_logical_ty ta then Some ta else None
  | "=" | "/=" ->
    let access_compat =
      (* access equality: same access type, or either side is null or an
         allocator adapting to the other (LRM 3.3) *)
      match (ta.Types.kind, tb.Types.kind) with
      | Types.Kaccess _, Types.Kaccess _ ->
        compat ta tb
        || ta.Types.base = "%NULL%" || tb.Types.base = "%NULL%"
        || ta.Types.base = "%ACCESS%" || tb.Types.base = "%ACCESS%"
      | _ -> false
    in
    if compat ta tb || access_compat then Some Std.boolean else None
  | "<" | "<=" | ">" | ">=" ->
    if compat ta tb && (Types.is_scalar ta || is_discrete_array ta) then Some Std.boolean
    else None
  | "+" | "-" -> if compat ta tb && is_numeric_ty ta then Some ta else None
  | "&" -> (
    match (ta.Types.kind, tb.Types.kind) with
    | Types.Karray { elem = ea; _ }, Types.Karray _ when compat ta tb ->
      ignore ea;
      Some (unconstrained ta)
    | Types.Karray { elem; _ }, _ when compat elem tb -> Some (unconstrained ta)
    | _, Types.Karray { elem; _ } when compat ta elem -> Some (unconstrained tb)
    | _ -> None)
  | "*" | "/" -> (
    match (ta.Types.kind, tb.Types.kind) with
    | Types.Kphys _, Types.Kint -> Some ta
    | Types.Kint, Types.Kphys _ when op = "*" -> Some tb
    | Types.Kphys _, Types.Kphys _ when op = "/" && compat ta tb -> Some Std.integer
    | (Types.Kint | Types.Kfloat), _ when compat ta tb -> Some ta
    | _ -> None)
  | "mod" | "rem" -> (
    match (ta.Types.kind, tb.Types.kind) with
    | Types.Kint, Types.Kint when compat ta tb -> Some ta
    | _ -> None)
  | "**" -> (
    match (ta.Types.kind, tb.Types.kind) with
    | Types.Kint, Types.Kint -> Some ta
    | Types.Kfloat, Types.Kint -> Some ta
    | _ -> None)
  | _ -> None

(* Turn candidates into plain value candidates (drop ranges, aggregates are
   kept: operators reject them; function sets are not in operand position in
   this pass because heads become calls in apply_args). *)
let value_cands cands =
  List.filter (function Cv _ -> true | Cagg _ | Cstr _ | Crng _ -> false) cands

let apply_binop_predefined ~line op lcands rcands : cand list * Diag.t list =
  let results = ref [] in
  List.iter
    (fun lc ->
      List.iter
        (fun rc ->
          match (lc, rc) with
          | Cv { ty = ta; code = ca; _ }, Cv { ty = tb; code = cb; _ } -> (
            match binop_result op ta tb with
            | Some rty ->
              if is_error_ty ta || is_error_ty tb then results := error_cand :: !results
              else begin
                results := fold_operator rty (Kir.Ebin (kir_binop op, ca, cb)) :: !results
              end
            | None -> ())
          | _ -> ())
        rcands)
    lcands;
  match !results with
  | [] ->
    if lcands = [] || rcands = [] then ([ error_cand ], [])
    else
      ( [ error_cand ],
        [
          Diag.error ~line "operator \"%s\" is not defined for these operand types%s" op
            (match (value_cands lcands, value_cands rcands) with
            | Cv { ty = a; _ } :: _, Cv { ty = b; _ } :: _ ->
              Printf.sprintf " (%s, %s)" (Types.short_name a) (Types.short_name b)
            | _ -> "");
        ] )
  | cands -> (List.rev cands, [])

let kir_unop = function
  | "-" -> Kir.Uneg
  | "+" -> Kir.Uplus
  | "abs" -> Kir.Uabs
  | "not" -> Kir.Unot
  | op -> internal "unknown unary operator %s" op

let apply_unop_predefined ~line op cands : cand list * Diag.t list =
  let results =
    List.filter_map
      (fun c ->
        match c with
        | Cv { ty; code; _ } ->
          let ok =
            match op with
            | "-" | "+" | "abs" -> is_numeric_ty ty
            | "not" -> is_logical_ty ty
            | _ -> false
          in
          if not ok then None
          else if is_error_ty ty then Some error_cand
          else Some (fold_operator ty (Kir.Eun (kir_unop op, code)))
        | Cagg _ | Cstr _ | Crng _ -> None)
      cands
  in
  match results with
  | [] ->
    if cands = [] then ([ error_cand ], [])
    else
      ([ error_cand ], [ Diag.error ~line "operator \"%s\" is not defined for this operand" op ])
  | _ -> (results, [])

(* ------------------------------------------------------------------ *)
(* Coercion of a candidate set to an expected type *)

let static_int cands =
  List.find_map
    (function
      | Cv { static = Some v; ty; _ } when Types.is_discrete ty || is_error_ty ty ->
        Some (Value.as_int v)
      | _ -> None)
    cands

(* a string literal as a value of any 1-D array-of-enumeration type: each
   character must be a literal of the element type (LRM 7.3.1) *)
let string_literal_value ~(expected : Types.t) (s : string) : Value.t option =
  match expected.Types.kind with
  | Types.Karray { elem; _ } -> (
    match Types.enum_literals elem with
    | None -> None
    | Some lits ->
      let pos_of c =
        let image = Printf.sprintf "'%c'" c in
        let rec scan i =
          if i >= Array.length lits then None
          else if lits.(i) = image then Some i
          else scan (i + 1)
        in
        scan 0
      in
      let rec build i acc =
        if i >= String.length s then Some (List.rev acc)
        else
          match pos_of s.[i] with
          | Some p -> build (i + 1) (Value.Venum p :: acc)
          | None -> None
      in
      Option.map
        (fun elems ->
          let n = List.length elems in
          let bounds =
            match Types.range expected with
            | Some (l, d, r) when Value.range_length (l, d, r) = n -> (l, d, r)
            | _ -> (
              match Types.bounds (Option.value (Types.index_type expected) ~default:Std.integer) with
              | Some (lo, _) -> (lo, Types.To, lo + n - 1)
              | None -> (1, Types.To, n))
          in
          Value.Varray { bounds; elems = Array.of_list elems })
        (build 0 [])
    )
  | _ -> None

(* ---- access types (LRM 3.3): null, allocators, dereference ---- *)

(* [null] and allocators denote "some access type" until the context picks
   one; these anonymous bases are recognized by [coerce] *)
let null_ty = { Types.base = "%NULL%"; kind = Types.Kaccess error_ty; constr = None }

let anon_access_ty designated =
  { Types.base = "%ACCESS%"; kind = Types.Kaccess designated; constr = None }

let null_cand = Cv { ty = null_ty; code = Kir.Enull; static = None }

let is_adaptable_access ~(expected : Types.t) (ty : Types.t) =
  match expected.Types.kind with
  | Types.Kaccess designated -> (
    match ty.Types.base, ty.Types.kind with
    | "%NULL%", _ -> true
    | "%ACCESS%", Types.Kaccess d -> compat d designated
    | _ -> false)
  | _ -> false

(* Subtype conversion of a statically known array value (LRM 3.2.1.1):
   when the context's subtype is constrained, the value's index bounds
   become the subtype's — a string literal for [bit_vector (3 to 6)] has
   left bound 3, and so do its runtime attributes. *)
let rebound_static ~(expected : Types.t) (code, static) =
  match (static, Types.range expected) with
  | Some (Value.Varray { bounds; elems }), Some (l, d, r)
    when Value.range_length (l, d, r) = Array.length elems && bounds <> (l, d, r) ->
    let v = Value.Varray { bounds = (l, d, r); elems } in
    (Kir.Elit v, Some v)
  | _ -> (code, static)

let rec coerce ~line ~(expected : Types.t) (cands : cand list) :
    (Kir.expr * Value.t option, Diag.t) result =
  if is_error_ty expected then Ok (Kir.Elit (Value.Vint 0), None)
  else begin
    let matches =
      List.filter_map
        (fun c ->
          match c with
          | Cv { ty; code; static } ->
            if is_error_ty ty then Some (Kir.Elit (Value.Vint 0), None)
            else if compat ty expected then Some (rebound_static ~expected (code, static))
            else if is_adaptable_access ~expected ty then Some (code, static)
            else if
              (* universal literals (LRM 7.3.5): a locally static INTEGER or
                 REAL expression converts implicitly to any type of the same
                 abstract numeric class — [0] is a legal sat value *)
              static <> None
              && ((ty.Types.base = "STD.STANDARD.INTEGER"
                  && (match expected.Types.kind with Types.Kint -> true | _ -> false))
                 || (ty.Types.base = "STD.STANDARD.REAL"
                    && (match expected.Types.kind with Types.Kfloat -> true | _ -> false)))
            then Some (code, static)
            else None
          | Cagg items -> (
            match coerce_aggregate ~line ~expected items with
            | Ok pair -> Some pair
            | Error _ -> None)
          | Cstr s -> (
            match string_literal_value ~expected s with
            | Some v -> Some (Kir.Elit v, Some v)
            | None -> None)
          | Crng _ -> None)
        cands
    in
    match matches with
    | [ m ] -> Ok m
    | m :: _ ->
      (* several candidates of the same base type are interchangeable after
         base-type filtering; anything else is a genuine ambiguity *)
      Ok m
    | [] -> (
      match cands with
      | [ Cagg items ] -> (
        match coerce_aggregate ~line ~expected items with
        | Ok pair -> Ok pair
        | Error d -> Error d)
      | _ ->
        Error
          (Diag.error ~line "expression does not match expected type %s"
             (Types.short_name expected)))
  end

and coerce_aggregate ~line ~expected items =
  match expected.Types.kind with
  | Types.Karray { elem; index } -> (
    ignore index;
    let errors = ref [] in
    let elem_expr cands =
      match coerce ~line ~expected:elem cands with
      | Ok (code, _) -> code
      | Error d ->
        errors := d :: !errors;
        Kir.Elit (Value.Vint 0)
    in
    let elements = ref [] in
    let named_indices = ref [] in
    let positional_count = ref 0 in
    List.iter
      (fun item ->
        match item with
        | Ipos cands ->
          incr positional_count;
          elements := Kir.Ag_pos (elem_expr cands) :: !elements
        | Inamed (choices, cands) ->
          let e = elem_expr cands in
          List.iter
            (fun choice ->
              match choice with
              | Cothers -> elements := Kir.Ag_others e :: !elements
              | Cexpr ch_cands -> (
                match static_int ch_cands with
                | Some i ->
                  named_indices := i :: !named_indices;
                  elements := Kir.Ag_named (i, e) :: !elements
                | None ->
                  errors := Diag.error ~line "aggregate choice is not static" :: !errors)
              | Cchoice_range (lo, d, hi) -> (
                match (static_int lo, static_int hi) with
                | Some l, Some h ->
                  let idxs = Value.range_indices (l, d, h) in
                  named_indices := idxs @ !named_indices;
                  List.iter (fun i -> elements := Kir.Ag_named (i, e) :: !elements) idxs
                | _ -> errors := Diag.error ~line "aggregate range choice is not static" :: !errors)
              | Cident _ ->
                errors :=
                  Diag.error ~line "named aggregate choice is not valid for an array" :: !errors)
            choices)
      items;
    let shape =
      match Types.range expected with
      | Some (l, d, r) -> Kir.Sh_array (Some (l, d, r))
      | None ->
        if !named_indices <> [] && !positional_count = 0 then begin
          let lo = List.fold_left min max_int !named_indices in
          let hi = List.fold_left max min_int !named_indices in
          Kir.Sh_array (Some (lo, Types.To, hi))
        end
        else Kir.Sh_array None
    in
    match !errors with
    | [] ->
      let agg = Kir.Eaggregate (List.rev !elements, shape) in
      let static = Const_eval.eval_opt Const_eval.none agg in
      let code = match static with Some v -> Kir.Elit v | None -> agg in
      Ok (code, static)
    | d :: _ -> Error d)
  | Types.Krecord fields -> (
    let errors = ref [] in
    let elements = ref [] in
    let positional = ref 0 in
    List.iter
      (fun item ->
        match item with
        | Ipos cands ->
          (* positional record element: by field order *)
          (match List.nth_opt fields !positional with
          | Some (fname, fty) -> (
            match coerce ~line ~expected:fty cands with
            | Ok (code, _) -> elements := Kir.Ag_field (fname, code) :: !elements
            | Error d -> errors := d :: !errors)
          | None -> errors := Diag.error ~line "too many elements in record aggregate" :: !errors);
          incr positional
        | Inamed (choices, cands) ->
          List.iter
            (fun choice ->
              match choice with
              | Cident fname -> (
                match List.assoc_opt fname fields with
                | Some fty -> (
                  match coerce ~line ~expected:fty cands with
                  | Ok (code, _) -> elements := Kir.Ag_field (fname, code) :: !elements
                  | Error d -> errors := d :: !errors)
                | None ->
                  errors :=
                    Diag.error ~line "record type %s has no field %s"
                      (Types.short_name expected) fname
                    :: !errors)
              | Cothers ->
                (* others covers all remaining fields *)
                let covered =
                  List.filter_map
                    (function Kir.Ag_field (f, _) -> Some f | _ -> None)
                    !elements
                in
                List.iter
                  (fun (fname, fty) ->
                    if not (List.mem fname covered) then
                      match coerce ~line ~expected:fty cands with
                      | Ok (code, _) -> elements := Kir.Ag_field (fname, code) :: !elements
                      | Error d -> errors := d :: !errors)
                  fields
              | Cexpr _ | Cchoice_range _ ->
                errors := Diag.error ~line "invalid choice in record aggregate" :: !errors)
            choices)
      items;
    match !errors with
    | [] ->
      let agg =
        Kir.Eaggregate (List.rev !elements, Kir.Sh_record (List.map fst fields))
      in
      let static = Const_eval.eval_opt Const_eval.none agg in
      let code = match static with Some v -> Kir.Elit v | None -> agg in
      Ok (code, static)
    | d :: _ -> Error d)
  | _ -> Error (Diag.error ~line "aggregate used where %s is expected" (Types.short_name expected))

(* ------------------------------------------------------------------ *)
(* Indexing / slicing / calls: pname ( items ) *)

let mangle_call (s : Denot.subprog_sig) args = Kir.Ecall (Kir.F_user s.Denot.ss_mangled, args)

(** Match an argument list against a subprogram signature; returns the
    argument expressions in parameter order. *)
let match_call ~line (s : Denot.subprog_sig) (items : aitem list) :
    (Kir.expr list, Diag.t) result =
  let params = s.Denot.ss_params in
  let positional = List.filter_map (function Ipos c -> Some c | _ -> None) items in
  let named =
    List.concat_map
      (function
        | Inamed (choices, cands) ->
          List.filter_map
            (function Cident f -> Some (f, cands) | _ -> None)
            choices
        | Ipos _ -> [])
      items
  in
  let n_items =
    List.length positional + List.length named
  in
  if n_items > List.length params then Error (Diag.error ~line "too many arguments to %s" s.Denot.ss_name)
  else begin
    let rec build i params acc =
      match params with
      | [] -> Ok (List.rev acc)
      | (p : Denot.param) :: rest -> (
        let cands =
          if i < List.length positional then Some (List.nth positional i)
          else
            match List.assoc_opt p.Denot.p_name named with
            | Some c -> Some c
            | None -> None
        in
        match cands with
        | Some cands -> (
          match coerce ~line ~expected:p.Denot.p_ty cands with
          | Ok (code, _) -> build (i + 1) rest (code :: acc)
          | Error _ ->
            Error
              (Diag.error ~line "argument %s of %s has the wrong type" p.Denot.p_name
                 s.Denot.ss_name))
        | None -> (
          match p.Denot.p_default with
          | Some d -> build (i + 1) rest (d :: acc)
          | None ->
            Error (Diag.error ~line "missing argument %s of %s" p.Denot.p_name s.Denot.ss_name)))
    in
    build 0 params []
  end

(* ---- operator application, predefined + user overloads ----
   A string-designator function [function "+" (...) return ...] reaches the
   expression AG as candidates riding on the operator token (Kop_user).
   Matching ones become call candidates alongside the predefined operators;
   the usual expected-type filtering picks the survivor. *)

let is_error_cand = function
  | Cv { ty; _ } -> is_error_ty ty
  | Cagg _ | Cstr _ | Crng _ -> false

let user_op_cands ~line (user : Denot.subprog_sig list) (items : aitem list) : cand list =
  List.filter_map
    (fun (s : Denot.subprog_sig) ->
      match (s.Denot.ss_kind, s.Denot.ss_ret) with
      | `Function, Some rty -> (
        match match_call ~line s items with
        | Ok args -> Some (Cv { ty = rty; code = mangle_call s args; static = None })
        | Error _ -> None)
      | _ -> None)
    user

let apply_binop ~line ?(user = []) op lcands rcands : cand list * Diag.t list =
  let ucands = user_op_cands ~line user [ Ipos lcands; Ipos rcands ] in
  let pre, msgs = apply_binop_predefined ~line op lcands rcands in
  match ucands with
  | [] -> (pre, msgs)
  | _ ->
    (* a user overload matched: predefined failures are no longer errors *)
    let pre_ok = List.filter (fun c -> not (is_error_cand c)) pre in
    (ucands @ pre_ok, [])

let apply_unop ~line ?(user = []) op cands : cand list * Diag.t list =
  let ucands = user_op_cands ~line user [ Ipos cands ] in
  let pre, msgs = apply_unop_predefined ~line op cands in
  match ucands with
  | [] -> (pre, msgs)
  | _ ->
    let pre_ok = List.filter (fun c -> not (is_error_cand c)) pre in
    (ucands @ pre_ok, [])

(** Candidates for a parameterless subprogram reference. *)
let func_cands ~line (sigs : Denot.subprog_sig list) : cand list * Diag.t list =
  let callable =
    List.filter_map
      (fun s ->
        match match_call ~line s [] with
        | Ok args -> (
          match (s.Denot.ss_kind, s.Denot.ss_ret) with
          | `Function, Some rty -> Some (Cv { ty = rty; code = mangle_call s args; static = None })
          | `Procedure, _ -> Some (Cv { ty = void_ty; code = mangle_call s args; static = None })
          | `Function, None -> None)
        | Error _ -> None)
      sigs
  in
  match callable with
  | [] -> ([ error_cand ], [ Diag.error ~line "subprogram requires arguments" ])
  | _ -> (callable, [])

(** The range denoted by an item, for slicing. *)
let item_range item : ((Kir.expr * Types.dir * Kir.expr) * Types.t option) option =
  match item with
  | Ipos cands ->
    List.find_map (function Crng (r, ity) -> Some (r, ity) | _ -> None) cands
  | Inamed _ -> None

let apply_args ~line (head_tok : Lef.tok option) (cands : cand list) (items : aitem list) :
    cand list * Diag.t list =
  (* function heads: resolve overloads *)
  let func_results =
    match head_tok with
    | Some { Lef.l_kind = Lef.Kfunc sigs | Lef.Kproc sigs; _ } ->
      List.filter_map
        (fun s ->
          match match_call ~line s items with
          | Ok args -> (
            match (s.Denot.ss_kind, s.Denot.ss_ret) with
            | `Function, Some rty -> Some (Cv { ty = rty; code = mangle_call s args; static = None })
            | `Procedure, _ -> Some (Cv { ty = void_ty; code = mangle_call s args; static = None })
            | `Function, None -> None)
          | Error _ -> None)
        sigs
    | _ -> []
  in
  (* array heads: index or slice *)
  let array_results = ref [] in
  let array_errors = ref [] in
  List.iter
    (fun c ->
      match c with
      | Cv { ty; code; _ } when Types.is_array ty -> (
        let elem = Option.get (Types.element_type ty) in
        let index_ty = Option.get (Types.index_type ty) in
        match items with
        | [ item ] -> (
          match item_range item with
          | Some ((lo, d, hi), _) ->
            array_results := folded ty (Kir.Eslice (code, (lo, d, hi))) :: !array_results
          | None -> (
            match item with
            | Ipos icands -> (
              match coerce ~line ~expected:index_ty icands with
              | Ok (icode, _) ->
                array_results := folded elem (Kir.Eindex (code, icode)) :: !array_results
              | Error d -> array_errors := d :: !array_errors)
            | Inamed _ -> ()))
        | _ when List.for_all (function Ipos _ -> true | _ -> false) items ->
          (* multi-dimensional indexing on nested arrays: m(i, j) = m(i)(j) *)
          let rec go ty code = function
            | [] -> array_results := folded ty code :: !array_results
            | Ipos icands :: rest when Types.is_array ty -> (
              let elem = Option.get (Types.element_type ty) in
              let index_ty = Option.get (Types.index_type ty) in
              match coerce ~line ~expected:index_ty icands with
              | Ok (icode, _) -> go elem (Kir.Eindex (code, icode)) rest
              | Error d -> array_errors := d :: !array_errors)
            | _ :: _ ->
              array_errors :=
                Diag.error ~line "too many indices for this array" :: !array_errors
          in
          go ty code items
        | _ ->
          array_errors :=
            Diag.error ~line "only positional indices are supported here"
            :: !array_errors)
      | _ -> ())
    cands;
  let results = func_results @ List.rev !array_results in
  match results with
  | [] ->
    let msg =
      match !array_errors with
      | d :: _ -> d
      | [] -> (
        match head_tok with
        | Some { Lef.l_kind = Lef.Kfunc (s :: _); _ } ->
          Diag.error ~line "no overload of %s matches these arguments" s.Denot.ss_name
        | _ -> Diag.error ~line "this name cannot be indexed, sliced, or called")
    in
    ([ error_cand ], [ msg ])
  | _ -> (results, [])

(* ------------------------------------------------------------------ *)
(* Selection (record fields), attributes, conversions *)

let select_field ~line cands fname : cand list * Diag.t list =
  let results =
    List.filter_map
      (fun c ->
        match c with
        | Cv { ty; code; _ } -> (
          match Types.field_type ty fname with
          | Some fty -> Some (Cv { ty = fty; code = Kir.Efield (code, fname); static = None })
          | None -> None)
        | _ -> None)
      cands
  in
  match results with
  | [] -> ([ error_cand ], [ Diag.error ~line "no record field named %s" fname ])
  | _ -> (results, [])

let scalar_type_attr ~line (ty : Types.t) attr : cand list * Diag.t list =
  let static_scalar v =
    let value =
      match ty.Types.kind with
      | Types.Kenum _ -> Value.Venum v
      | Types.Kphys _ -> Value.Vphys v
      | _ -> Value.Vint v
    in
    ([ Cv { ty; code = Kir.Elit value; static = Some value } ], [])
  in
  match Types.range ty with
  | Some (l, d, r) -> (
    match attr with
    | "LEFT" -> static_scalar l
    | "RIGHT" -> static_scalar r
    | "HIGH" -> static_scalar (match d with Types.To -> r | Types.Downto -> l)
    | "LOW" -> static_scalar (match d with Types.To -> l | Types.Downto -> r)
    | "RANGE" ->
      ([ Crng ((Kir.Elit (Value.Vint l), d, Kir.Elit (Value.Vint r)), Some ty) ], [])
    | "REVERSE_RANGE" ->
      let d' = match d with Types.To -> Types.Downto | Types.Downto -> Types.To in
      ([ Crng ((Kir.Elit (Value.Vint r), d', Kir.Elit (Value.Vint l)), Some ty) ], [])
    | _ -> ([ error_cand ], [ Diag.error ~line "unknown attribute '%s for this type" attr ])
  )
  | None -> (
    match (ty.Types.kind, attr) with
    | Types.Kenum lits, "LEFT" | Types.Kenum lits, "LOW" ->
      ignore lits;
      ([ Cv { ty; code = Kir.Elit (Value.Venum 0); static = Some (Value.Venum 0) } ], [])
    | Types.Kenum lits, ("RIGHT" | "HIGH") ->
      let v = Value.Venum (Array.length lits - 1) in
      ([ Cv { ty; code = Kir.Elit v; static = Some v } ], [])
    | Types.Kenum lits, "RANGE" ->
      ( [
          Crng
            ( (Kir.Elit (Value.Vint 0), Types.To, Kir.Elit (Value.Vint (Array.length lits - 1))),
              Some ty );
        ],
        [] )
    | _ -> ([ error_cand ], [ Diag.error ~line "attribute '%s is not defined for this type" attr ]))

(** [T'POS(x)], [T'VAL(n)], [T'SUCC(x)], [T'PRED(x)] are attribute
    functions; they surface as TYPE ' ATTR followed by an argument list and
    are resolved in {!apply_type_attr_args}. *)
let type_attr_is_function = function
  | "POS" | "VAL" | "SUCC" | "PRED" | "LEFTOF" | "RIGHTOF" -> true
  | _ -> false

let apply_type_attr_args ~line (ty : Types.t) attr (items : aitem list) :
    cand list * Diag.t list =
  match items with
  | [ Ipos cands ] -> (
    let arg_expected = if attr = "VAL" then Std.integer else ty in
    match coerce ~line ~expected:arg_expected cands with
    | Ok (code, _) -> (
      let pos_code = if attr = "VAL" then code else Kir.Econvert (Kir.To_pos, code) in
      match attr with
      | "POS" -> ([ Cv { ty = Std.integer; code = pos_code; static = None } ], [])
      | "VAL" -> ([ Cv { ty; code = Kir.Econvert (Kir.To_val ty, code); static = None } ], [])
      | "SUCC" | "RIGHTOF" ->
        let succ = Kir.Ebin (Kir.Badd, pos_code, Kir.Elit (Value.Vint 1)) in
        ([ Cv { ty; code = Kir.Econvert (Kir.To_val ty, succ); static = None } ], [])
      | "PRED" | "LEFTOF" ->
        let pred = Kir.Ebin (Kir.Bsub, pos_code, Kir.Elit (Value.Vint 1)) in
        ([ Cv { ty; code = Kir.Econvert (Kir.To_val ty, pred); static = None } ], [])
      | _ -> ([ error_cand ], [ Diag.error ~line "unknown attribute function '%s" attr ]))
    | Error d -> ([ error_cand ], [ d ]))
  | _ -> ([ error_cand ], [ Diag.error ~line "attribute '%s takes one argument" attr ])

(** Attributes applied to a name (signal attributes, array attributes). *)
let apply_name_attr ~line cands attr : cand list * Diag.t list =
  let signal_ref =
    List.find_map
      (function
        | Cv { code = Kir.Esig sref; ty; _ } -> Some (sref, ty)
        | _ -> None)
      cands
  in
  let array_cand =
    List.find_map
      (function
        | Cv { ty; code; _ } when Types.is_array ty -> Some (ty, code)
        | _ -> None)
      cands
  in
  match attr with
  | "EVENT" | "ACTIVE" | "STABLE" -> (
    match signal_ref with
    | Some (sref, _) ->
      let sa =
        match attr with
        | "EVENT" -> Kir.Sa_event
        | "ACTIVE" -> Kir.Sa_active
        | _ -> Kir.Sa_stable
      in
      ([ Cv { ty = Std.boolean; code = Kir.Esig_attr (sref, sa); static = None } ], [])
    | None -> ([ error_cand ], [ Diag.error ~line "'%s requires a signal" attr ]))
  | "LAST_VALUE" -> (
    match signal_ref with
    | Some (sref, ty) ->
      ([ Cv { ty; code = Kir.Esig_attr (sref, Kir.Sa_last_value); static = None } ], [])
    | None -> ([ error_cand ], [ Diag.error ~line "'LAST_VALUE requires a signal" ]))
  | "LAST_EVENT" -> (
    match signal_ref with
    | Some (sref, _) ->
      ([ Cv { ty = Std.time; code = Kir.Esig_attr (sref, Kir.Sa_last_event); static = None } ], [])
    | None -> ([ error_cand ], [ Diag.error ~line "'LAST_EVENT requires a signal" ]))
  | "LEFT" | "RIGHT" | "HIGH" | "LOW" | "LENGTH" -> (
    match array_cand with
    | Some (ty, code) -> (
      let at =
        match attr with
        | "LEFT" -> Kir.At_left
        | "RIGHT" -> Kir.At_right
        | "HIGH" -> Kir.At_high
        | "LOW" -> Kir.At_low
        | _ -> Kir.At_length
      in
      (* static when the array subtype is constrained *)
      match Types.range ty with
      | Some (l, d, r) ->
        let v =
          match at with
          | Kir.At_left -> l
          | Kir.At_right -> r
          | Kir.At_high -> ( match d with Types.To -> r | Types.Downto -> l)
          | Kir.At_low -> ( match d with Types.To -> l | Types.Downto -> r)
          | Kir.At_length -> Value.range_length (l, d, r)
        in
        ([ Cv { ty = Std.integer; code = Kir.Elit (Value.Vint v); static = Some (Value.Vint v) } ], [])
      | None ->
        ([ Cv { ty = Std.integer; code = Kir.Earray_attr (code, at); static = None } ], []))
    | None -> ([ error_cand ], [ Diag.error ~line "'%s requires an array" attr ]))
  | "RANGE" | "REVERSE_RANGE" -> (
    match array_cand with
    | Some (ty, code) -> (
      let index_ty = Types.index_type ty in
      match Types.range ty with
      | Some (l, d, r) ->
        let d = if attr = "RANGE" then d else match d with Types.To -> Types.Downto | Types.Downto -> Types.To in
        let l, r = if attr = "RANGE" then (l, r) else (r, l) in
        ([ Crng ((Kir.Elit (Value.Vint l), d, Kir.Elit (Value.Vint r)), index_ty) ], [])
      | None ->
        let lo = Kir.Earray_attr (code, Kir.At_left)
        and hi = Kir.Earray_attr (code, Kir.At_right) in
        let rng =
          if attr = "RANGE" then (lo, Types.To, hi) (* direction unknown: assume to *)
          else (hi, Types.Downto, lo)
        in
        ([ Crng (rng, index_ty) ], []))
    | None -> ([ error_cand ], [ Diag.error ~line "'%s requires an array" attr ]))
  | _ -> ([ error_cand ], [ Diag.error ~line "unknown attribute '%s" attr ])

let conversion ~line (target : Types.t) cands : cand list * Diag.t list =
  let results =
    List.filter_map
      (fun c ->
        match c with
        | Cv { ty; code; static } ->
          if compat ty target then Some (cv target code static) (* identity / subtype *)
          else begin
            match (ty.Types.kind, target.Types.kind) with
            | Types.Kint, Types.Kfloat ->
              Some (Cv { ty = target; code = Kir.Econvert (Kir.To_float, code); static = None })
            | Types.Kfloat, Types.Kint ->
              Some (Cv { ty = target; code = Kir.Econvert (Kir.To_integer, code); static = None })
            (* LRM 7.3.5: any two abstract numeric types are convertible *)
            | Types.Kint, Types.Kint | Types.Kfloat, Types.Kfloat ->
              Some (cv target code static)
            | Types.Karray { elem = ea; _ }, Types.Karray { elem = eb; _ }
              when compat ea eb ->
              Some (cv target code static)
            | _ -> None
          end
        | _ -> None)
      cands
  in
  match results with
  | [] -> ([ error_cand ], [ Diag.error ~line "invalid type conversion to %s" (Types.short_name target) ])
  | _ -> (results, [])

(* [.all]: the designated object of an access value *)
let deref ~line cands : cand list * Diag.t list =
  let results =
    List.filter_map
      (function
        | Cv { ty; code; _ } -> (
          match ty.Types.kind with
          | Types.Kaccess designated ->
            Some (Cv { ty = designated; code = Kir.Ederef code; static = None })
          | _ -> None)
        | _ -> None)
      cands
  in
  match results with
  | [] -> ([ error_cand ], [ Diag.error ~line ".all requires an access value" ])
  | _ -> (results, [])

let qualified ~line (target : Types.t) cands : cand list * Diag.t list =
  match coerce ~line ~expected:target cands with
  | Ok (code, static) -> ([ cv target code static ], [])
  | Error d -> ([ error_cand ], [ d ])

(* ------------------------------------------------------------------ *)
(* Final selection at the root of the expression AG *)

let select ~line ~(expected : Types.t option) (cands : cand list) msgs : xres =
  let fail d =
    { x_ty = error_ty; x_code = Kir.Elit (Value.Vint 0); x_static = None; x_msgs = msgs @ [ d ] }
  in
  match expected with
  | Some ty -> (
    match coerce ~line ~expected:ty cands with
    | Ok (code, static) -> { x_ty = ty; x_code = code; x_static = static; x_msgs = msgs }
    | Error d -> fail d)
  | None -> (
    let values =
      List.filter_map
        (function
          | Cv { ty; code; static } -> Some (ty, code, static)
          | Cagg _ | Cstr _ | Crng _ -> None)
        cands
    in
    (* distinct base types = ambiguity; same base = interchangeable *)
    let distinct =
      List.sort_uniq compare (List.map (fun (ty, _, _) -> ty.Types.base) values)
    in
    match (values, distinct) with
    | (ty, code, static) :: _, [ _ ] ->
      { x_ty = ty; x_code = code; x_static = static; x_msgs = msgs }
    | _ :: _, _ -> fail (Diag.error ~line "ambiguous expression; use a qualified expression")
    | [], _ ->
      if msgs <> [] then
        { x_ty = error_ty; x_code = Kir.Elit (Value.Vint 0); x_static = None; x_msgs = msgs }
      else fail (Diag.error ~line "cannot resolve this expression"))

(** The range denoted by an expression's candidates (for discrete ranges). *)
let select_range ~line (cands : cand list) msgs :
    (Kir.expr * Types.dir * Kir.expr) * Types.t option * Diag.t list =
  match List.find_map (function Crng (r, ity) -> Some (r, ity) | _ -> None) cands with
  | Some (r, ity) -> (r, ity, msgs)
  | None ->
    ( (Kir.Elit (Value.Vint 0), Types.To, Kir.Elit (Value.Vint 0)),
      None,
      msgs @ [ Diag.error ~line "a range is required here" ] )
