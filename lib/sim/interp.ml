(** The KIR interpreter: executes process bodies and subprograms.

    This is the "programmable in terms of C primitives" half of the paper's
    virtual machine — where their generated C executes natively, our KIR is
    interpreted.  Processes suspend on wait statements by performing the
    {!Wait} effect, captured by the kernel scheduler. *)

type frame = {
  vars : Value.t array;
  loop_vars : Value.t array;
}

type env = {
  e_signals : Rt.signal array; (* instance signal table (ports first) *)
  e_guard : Rt.signal option;
  e_globals : (string * string, Rt.signal) Hashtbl.t;
  e_functions : (string, Kir.subprogram) Hashtbl.t;
  e_proc_id : int;
  e_proc_name : string;
  e_now : unit -> Rt.time;
  e_sig_params : Rt.signal option array;
      (* by parameter index: the signals bound to the running procedure's
         signal-class parameters (None for value parameters) *)
  e_display : frame option array; (* by absolute level *)
  e_level : int; (* absolute level of the running frame *)
  e_emit : severity:int -> line:int -> string -> unit; (* assert/report *)
}

type wait_req = {
  wr_on : Rt.signal list;
  wr_until : (unit -> bool) option;
  wr_for : Rt.time option; (* absolute wake time *)
}

type _ Effect.t += Wait : wait_req -> unit Effect.t

exception Return_exc of Value.t option
exception Exit_exc of string option (* labeled exit: None = innermost *)
exception Next_exc of string option

let error env fmt = Rt.sim_error ~time:(env.e_now ()) fmt

let signal_of env = function
  | Kir.Sig_local i ->
    if i < Array.length env.e_signals then env.e_signals.(i)
    else error env "signal index %d out of range in %s" i env.e_proc_name
  | Kir.Sig_guard -> (
    match env.e_guard with
    | Some g -> g
    | None -> error env "GUARD referenced outside a guarded block")
  | Kir.Sig_global { package; name } -> (
    match Hashtbl.find_opt env.e_globals (package, name) with
    | Some s -> s
    | None -> error env "global signal %s.%s is not elaborated" package name)
  | Kir.Sig_param i -> (
    match if i < Array.length env.e_sig_params then env.e_sig_params.(i) else None with
    | Some s -> s
    | None ->
      error env
        "signal parameter #%d is unbound (signal-class parameters are only \
         supported in procedure calls)" i)

let frame_at env ~rel_level =
  let abs = env.e_level - rel_level in
  if abs < 0 || abs >= Array.length env.e_display then
    error env "frame level %d out of range" abs
  else
    match env.e_display.(abs) with
    | Some f -> f
    | None -> error env "no frame at level %d" abs

let read_var env ~level ~index ~name =
  let f = frame_at env ~rel_level:level in
  if index >= 0 then begin
    if index < Array.length f.vars then f.vars.(index)
    else error env "variable %s: slot %d out of range" name index
  end
  else begin
    let li = -index - 1 in
    if li < Array.length f.loop_vars then f.loop_vars.(li)
    else error env "loop variable %s: slot %d out of range" name li
  end

(* an unlabelled exit/next targets the innermost loop; a labelled one only
   the loop bearing that label *)
let loop_matches loop_label raised_label =
  match raised_label with
  | None -> true
  | Some l -> loop_label = Some l

let write_var env ~level ~index v =
  let f = frame_at env ~rel_level:level in
  if index >= 0 then f.vars.(index) <- v
  else f.loop_vars.(-index - 1) <- v

(* ------------------------------------------------------------------ *)
(* Expressions: the one walk over run-time leaves *)

let signal_value env sref = (signal_of env sref).Rt.current

let signal_attr env sref attr =
  let s = signal_of env sref in
  match attr with
  | Kir.Sa_event -> Value.vbool s.Rt.event
  | Kir.Sa_active -> Value.vbool s.Rt.active
  | Kir.Sa_stable -> Value.vbool (not s.Rt.event)
  | Kir.Sa_last_value -> s.Rt.last_value
  | Kir.Sa_last_event -> Value.Vphys (env.e_now () - s.Rt.last_event)

(* A user call runs statements, which evaluate expressions through the
   leaves: the call leaf reaches [call_function] through this cell, set
   once below.  Built inside the recursive group instead, the record would
   make every interpreter function a closure over it, and the walk measurably
   slower. *)
let call_function_cell = ref (fun env f _ -> error env "function %s is not linked" f)

let leaves =
  {
    Kir_eval.var = read_var;
    generic =
      (fun env ~index:_ ~name -> error env "generic %s was not substituted at elaboration" name);
    unit_const =
      (fun env name -> error env "constant %s was not substituted at elaboration" name);
    signal = signal_value;
    signal_attr;
    call = (fun env f args -> !call_function_cell env f args);
    alloc = (fun _ v -> Value.Vaccess (ref v));
  }

let rec eval env e = Kir_eval.eval leaves env e

and call_function env mangled (args : Value.t list) : Value.t =
  match run_subprogram env mangled args with
  | Some v, _ -> v
  | None, _ -> error env "function %s returned no value" mangled

(* Run a subprogram: returns (return value, final frame) — the frame is
   needed for out-parameter copy-back. *)
and run_subprogram ?(sig_params = [||]) env mangled (args : Value.t list) :
    Value.t option * frame =
  let sub =
    match Hashtbl.find_opt env.e_functions mangled with
    | Some s -> s
    | None -> error env "subprogram %s is not linked" mangled
  in
  let n_params = List.length sub.Kir.sub_params in
  let n_locals = List.length sub.Kir.sub_locals in
  let level = sub.Kir.sub_level in
  let frame =
    {
      vars = Array.make (max 1 (n_params + n_locals)) (Value.Vint 0);
      loop_vars = Array.make (max 1 (Kir_util.loop_depth sub.Kir.sub_body)) (Value.Vint 0);
    }
  in
  List.iteri (fun i v -> frame.vars.(i) <- v) args;
  (* display save/restore around the call (shallow binding) *)
  let saved =
    if level < Array.length env.e_display then env.e_display.(level) else None
  in
  if level >= Array.length env.e_display then error env "call nesting too deep";
  env.e_display.(level) <- Some frame;
  let inner = { env with e_level = level; e_sig_params = sig_params } in
  (* locals with initializers *)
  List.iteri
    (fun i (l : Kir.local) ->
      let v =
        match l.Kir.l_init with
        | Some e -> eval inner e
        | None -> Value.default_of l.Kir.l_ty
      in
      frame.vars.(n_params + i) <- v)
    sub.Kir.sub_locals;
  let result =
    match exec_list inner sub.Kir.sub_body with
    | () -> None
    | exception Return_exc v -> v
  in
  env.e_display.(level) <- saved;
  (result, frame)

(* ------------------------------------------------------------------ *)
(* Targets *)

and assign_target env (t : Kir.target) (v : Value.t) : unit =
  match t with
  | Kir.Tvar { level; index; _ } -> write_var env ~level ~index v
  | Kir.Tderef t' -> (
    match read_target env t' with
    | Value.Vaccess r -> r := v
    | Value.Vnull -> error env "dereference of a null access value in assignment"
    | _ -> error env "dereference of a non-access value in assignment")
  | Kir.Tindex (t', i) ->
    let old = read_target env t' in
    assign_target env t' (Value_ops.update_index old (Value.as_int (eval env i)) v)
  | Kir.Tslice (t', (l, d, r)) ->
    let old = read_target env t' in
    assign_target env t'
      (Value_ops.update_slice old (Value.as_int (eval env l), d, Value.as_int (eval env r)) v)
  | Kir.Tfield (t', f) ->
    let old = read_target env t' in
    assign_target env t' (Value_ops.update_field old f v)

and read_target env (t : Kir.target) : Value.t =
  match t with
  | Kir.Tvar { level; index; name } -> read_var env ~level ~index ~name
  | Kir.Tderef t' -> Kir_eval.deref (read_target env t')
  | Kir.Tindex (t', i) -> Value_ops.index (read_target env t') (Value.as_int (eval env i))
  | Kir.Tslice (t', (l, d, r)) ->
    Value_ops.slice (read_target env t')
      (Value.as_int (eval env l), d, Value.as_int (eval env r))
  | Kir.Tfield (t', f) -> Value_ops.field (read_target env t') f

(* Signal targets: root signal plus a path-update function applied to the
   driver's projected value (read-modify-write of composite drivers; see
   DESIGN.md). *)
and sig_target_parts env (t : Kir.sig_target) : Rt.signal * (Value.t -> Value.t -> Value.t) =
  match t with
  | Kir.Ts_sig sref -> (signal_of env sref, fun _old v -> v)
  | Kir.Ts_index (t', i) ->
    let s, update = sig_target_parts env t' in
    let idx = Value.as_int (eval env i) in
    (s, fun old v -> update old (Value_ops.update_index (apply_path env t' old) idx v))
  | Kir.Ts_slice (t', (l, d, r)) ->
    let s, update = sig_target_parts env t' in
    let rng = (Value.as_int (eval env l), d, Value.as_int (eval env r)) in
    (s, fun old v -> update old (Value_ops.update_slice (apply_path env t' old) rng v))
  | Kir.Ts_field (t', f) ->
    let s, update = sig_target_parts env t' in
    (s, fun old v -> update old (Value_ops.update_field (apply_path env t' old) f v))

(* project the current (old) whole-signal value down the path prefix *)
and apply_path env (t : Kir.sig_target) (whole : Value.t) : Value.t =
  match t with
  | Kir.Ts_sig _ -> whole
  | Kir.Ts_index (t', i) ->
    Value_ops.index (apply_path env t' whole) (Value.as_int (eval env i))
  | Kir.Ts_slice (t', (l, d, r)) ->
    Value_ops.slice (apply_path env t' whole)
      (Value.as_int (eval env l), d, Value.as_int (eval env r))
  | Kir.Ts_field (t', f) -> Value_ops.field (apply_path env t' whole) f

(* a waveform's transactions on a driver of [s], its elements evaluated in
   order; on a composite path each element modifies the previous one *)
and sig_transactions env s update ~now ~line base = function
  | [] -> []
  | (w : Kir.waveform_element) :: rest -> (
    let delay =
      match w.Kir.wv_after with
      | None -> 0
      | Some e -> Value.as_int (eval env e)
    in
    if delay < 0 then error env "negative delay in signal assignment at line %d" line;
    match w.Kir.wv_value with
    | None ->
      (* null transaction: disconnect the driver when it matures
         (LRM 8.3: only guarded signals may be assigned null) *)
      if s.Rt.sig_kind = `Plain then
        error env "line %d: null transaction on the unguarded signal %s" line s.Rt.sig_name;
      (now + delay, None) :: sig_transactions env s update ~now ~line base rest
    | Some ve ->
      let whole = update base (eval env ve) in
      (now + delay, Some whole) :: sig_transactions env s update ~now ~line whole rest)

(* ------------------------------------------------------------------ *)
(* Statements *)

and exec_list env = function
  | [] -> ()
  | st :: rest ->
    exec env st;
    exec_list env rest

and exec_if env els = function
  | [] -> exec_list env els
  | (c, body) :: rest ->
    if Value.truth (eval env c) then exec_list env body else exec_if env els rest

and exec env (st : Kir.stmt) : unit =
  match st with
  | Kir.Snull -> ()
  | Kir.Sassign (t, e, check_ty) ->
    let v = eval env e in
    (match check_ty with Some ty -> Value_ops.check_constraint ty v | None -> ());
    assign_target env t v
  | Kir.Ssig_assign { target; mode; waveform; line; _ } ->
    let s, update = sig_target_parts env target in
    let d = Rt.driver_of s ~proc_id:env.e_proc_id in
    let now = env.e_now () in
    (* base value each transaction of a composite path modifies: the
       value the driver will hold last *)
    let base =
      match target with
      | Kir.Ts_sig _ -> d.Rt.drv_value
      | _ -> (
        match List.rev d.Rt.drv_wave with
        | (_, Some v) :: _ -> v
        | (_, None) :: _ | [] -> d.Rt.drv_value)
    in
    let transactions = sig_transactions env s update ~now ~line base waveform in
    (* range check scalar element assignments against the signal subtype *)
    (match transactions with
    | (_, Some v) :: _ -> (
      try Value_ops.check_constraint s.Rt.sig_ty v
      with Value_ops.Runtime_error m -> error env "line %d: %s" line m)
    | (_, None) :: _ | [] -> ());
    Rt.schedule d ~mode ~transactions
  | Kir.Sdisconnect target ->
    let s, _ = sig_target_parts env target in
    let d = Rt.driver_of s ~proc_id:env.e_proc_id in
    if s.Rt.sig_disconnect > 0 then
      (* disconnection specification: the driver lets go only after the
         declared delay (a pending null transaction) *)
      Rt.schedule d ~mode:Kir.Transport
        ~transactions:[ (env.e_now () + s.Rt.sig_disconnect, None) ]
    else Rt.disconnect d
  | Kir.Sif (arms, els) -> exec_if env els arms
  | Kir.Scase (e, alts) -> (
    let v = eval env e in
    let matches choice =
      match choice with
      | Kir.Ch_others -> true
      | Kir.Ch_value cv -> Value.equal v cv
      | Kir.Ch_range (l, d, r) -> (
        match v with
        | Value.Vint n | Value.Venum n ->
          let lo, hi = match d with Kir.To -> (l, r) | Kir.Downto -> (r, l) in
          n >= lo && n <= hi
        | _ -> false)
    in
    match List.find_opt (fun (choices, _) -> List.exists matches choices) alts with
    | Some (_, body) -> exec_list env body
    | None -> error env "case statement: no choice matches %s" (Value.image v))
  | Kir.Sfor { var; range = lo_e, d, hi_e; body; loop_label; _ } -> (
    let vlo = eval env lo_e and vhi = eval env hi_e in
    let rewrap =
      match vlo with
      | Value.Venum _ -> fun n -> Value.Venum n
      | Value.Vphys _ -> fun n -> Value.Vphys n
      | _ -> fun n -> Value.Vint n
    in
    let indices = Value.range_indices (Value.as_int vlo, d, Value.as_int vhi) in
    try
      List.iter
        (fun i ->
          write_var env ~level:0 ~index:(-var - 1) (rewrap i);
          try exec_list env body
          with Next_exc l when loop_matches loop_label l -> ())
        indices
    with Exit_exc l when loop_matches loop_label l -> ())
  | Kir.Swhile (c, body, loop_label) -> (
    try
      while Value.truth (eval env c) do
        try exec_list env body
        with Next_exc l when loop_matches loop_label l -> ()
      done
    with Exit_exc l when loop_matches loop_label l -> ())
  | Kir.Sloop (body, loop_label) -> (
    try
      while true do
        try exec_list env body
        with Next_exc l when loop_matches loop_label l -> ()
      done
    with Exit_exc l when loop_matches loop_label l -> ())
  | Kir.Sexit { cond; label } -> (
    match cond with
    | None -> raise (Exit_exc label)
    | Some c -> if Value.truth (eval env c) then raise (Exit_exc label))
  | Kir.Snext { cond; label } -> (
    match cond with
    | None -> raise (Next_exc label)
    | Some c -> if Value.truth (eval env c) then raise (Next_exc label))
  | Kir.Swait { on; until; for_; line = _ } ->
    let signals = List.map (signal_of env) on in
    let until_fn = Option.map (fun c () -> Value.truth (eval env c)) until in
    let wake_at =
      Option.map (fun e -> env.e_now () + Value.as_int (eval env e)) for_
    in
    Effect.perform (Wait { wr_on = signals; wr_until = until_fn; wr_for = wake_at })
  | Kir.Sreturn e -> raise (Return_exc (Option.map (eval env) e))
  | Kir.Sassert { cond; report; severity; line } ->
    if not (Value.truth (eval env cond)) then begin
      let msg =
        match report with
        | Some e -> Std.value_string (eval env e)
        | None -> "Assertion violation."
      in
      let sev =
        match severity with
        | Some e -> Value.as_int (eval env e)
        | None -> 2 (* ERROR *)
      in
      env.e_emit ~severity:sev ~line msg
    end
  | Kir.Scall (Kir.P_user mangled, args) ->
    let arg_values = List.map (fun (a : Kir.call_arg) -> eval env a.Kir.ca_expr) args in
    let sig_params =
      Array.of_list
        (List.map
           (fun (a : Kir.call_arg) -> Option.map (signal_of env) a.Kir.ca_signal)
           args)
    in
    let _, frame = run_subprogram ~sig_params env mangled arg_values in
    (* copy back out/inout parameters *)
    List.iteri
      (fun i (a : Kir.call_arg) ->
        match (a.Kir.ca_mode, a.Kir.ca_target) with
        | (Kir.Arg_out | Kir.Arg_inout), Some t -> assign_target env t frame.vars.(i)
        | _ -> ())
      args

let () = call_function_cell := call_function

(* evaluation outside a process body (elaboration): a dynamic error is a
   simulation error at the current time *)
let eval env e = try eval env e with Value_ops.Runtime_error m -> error env "%s" m
