(** The KIR translator: process bodies and subprograms become closures,
    once, at elaboration (see the interface). *)

(* variables first, then loop variables from the end: loop-variable slot
   [k] (KIR index [-k - 1]) is at [length - k - 1] *)
type frame = Value.t array

let max_levels = 16

type env = {
  consts : Const_eval.consts; (* generics and unit constants *)
  signals : Rt.signal array; (* instance signal table (ports first) *)
  guard : Rt.signal option;
  globals : (string * string, Rt.signal) Hashtbl.t;
  functions : (string, entry) Hashtbl.t;
  proc_id : int;
  name : string;
  kernel : Kernel.t;
  emit : severity:int -> line:int -> string -> unit; (* assert/report *)
  display : frame array; (* by absolute level (shallow binding) *)
  mutable sig_params : Rt.signal option array;
      (* by parameter index: the signals bound to the running procedure's
         signal-class parameters (None for value parameters) *)
}

(* a function-table entry: its body is translated on the first call, with
   the constants it was linked with *)
and entry = { sub : Kir.subprogram; linked : Const_eval.consts; mutable code : compiled option }

and compiled = { c_level : int; c_size : int; c_body : env -> unit }

exception Return_exc of Value.t option

(* A translation knows the static level of the frame its code runs in, the
   environment whose tables resolve callees and global signals, whether it
   is a process body (its instance signals and guard resolve now) or a
   subprogram body (they are the caller's), the generics and unit
   constants its code reads, and the enclosing loops. *)
type ctx = { level : int; home : env; own : bool; consts : Const_eval.consts; loops : loop list }
and loop = { label : string option; mutable exits : bool; mutable nexts : bool }

exception Exit_loop of loop
exception Next_loop of loop

(* a signal: resolved at translation, or read from the running environment
   (signal parameters, and instance signals in subprograms) *)
type sig_at = Fixed of Rt.signal | Running of (env -> Rt.signal)

let now env = Kernel.now env.kernel
let error env fmt = Rt.sim_error ~time:(now env) fmt

let entry linked sub = { sub; linked; code = None }

let env ~consts ~signals ~guard ~globals ~functions ~proc_id ~name ~kernel ~emit ?(frame = [||])
    () =
  let display = Array.make max_levels [||] in
  display.(0) <- frame;
  { consts; signals; guard; globals; functions; proc_id; name; kernel; emit; display;
    sig_params = [||] }

let sig_at ctx : Kir.sig_ref -> sig_at = function
  | Kir.Sig_local i when ctx.own && i < Array.length ctx.home.signals -> Fixed ctx.home.signals.(i)
  | Kir.Sig_local i ->
    Running
      (fun env ->
        if i < Array.length env.signals then env.signals.(i)
        else error env "signal index %d out of range in %s" i env.name)
  | Kir.Sig_guard when ctx.own && ctx.home.guard != None -> Fixed (Option.get ctx.home.guard)
  | Kir.Sig_guard ->
    let missing env = error env "GUARD referenced outside a guarded block" in
    Running (fun env -> match env.guard with Some g -> g | None -> missing env)
  | Kir.Sig_global { package; name } -> (
    match Hashtbl.find_opt ctx.home.globals (package, name) with
    | Some s -> Fixed s
    | None -> Running (fun env -> error env "global signal %s.%s is not elaborated" package name))
  | Kir.Sig_param i ->
    Running
      (fun env ->
        match if i < Array.length env.sig_params then env.sig_params.(i) else None with
        | Some s -> s
        | None -> error env "signal parameter #%d is unbound outside a procedure call" i)

let resolve = function Fixed s -> fun _ -> s | Running g -> g

(* Variables: the frame [level] levels up is display entry [ctx.level -
   level], fixed at translation; the slot is checked when the code runs,
   since an up-level frame belongs to another subprogram. *)
let slot env abs index name =
  let f = env.display.(abs) in
  let i = if index < 0 then Array.length f + index else index in
  if i >= 0 && i < Array.length f then i
  else error env "variable %s: no slot %d at level %d" name index abs

let var_read ctx ~level ~index ~name =
  let abs = ctx.level - level in
  if abs < 0 || abs >= max_levels then fun env -> error env "frame level %d out of range" abs
  else fun env -> env.display.(abs).(slot env abs index name)

let var_write ctx ~level ~index ~name =
  let abs = ctx.level - level in
  if abs < 0 || abs >= max_levels then fun env _ -> error env "frame level %d out of range" abs
  else fun env v -> env.display.(abs).(slot env abs index name) <- v

(* the driver of the running process on [s], cached by its statement:
   drivers are never removed *)
let driver cache env s =
  match !cache with
  | Some d when d.Rt.drv_signal == s && d.Rt.drv_owner = env.proc_id -> d
  | _ ->
    let d = Rt.driver_of s ~proc_id:env.proc_id in
    cache := Some d;
    d

let rec steps env = function [] -> [] | p :: rest -> p env :: steps env rest

(* [whole] with the part at [path] (root first) replaced by [v] *)
let rec set_path whole v = function
  | [] -> v
  | (get, set) :: rest -> set whole (set_path (get whole) v rest)

(* a waveform's transactions on a driver of [s], its elements evaluated in
   order; on a composite path each element modifies the previous one.  Each
   value is converted to the signal's subtype. *)
let rec transactions env s path ~now ~line base = function
  | [] -> []
  | (after, value) :: rest -> (
    let delay = match after with None -> 0 | Some e -> Value.as_int (e env) in
    if delay < 0 then error env "negative delay in signal assignment at line %d" line;
    match value with
    | None ->
      (* null transaction: disconnect the driver when it matures
         (LRM 8.3: only guarded signals may be assigned null) *)
      if s.Rt.sig_kind = `Plain then
        error env "line %d: null transaction on the unguarded signal %s" line s.Rt.sig_name;
      (now + delay, None) :: transactions env s path ~now ~line base rest
    | Some ve ->
      let whole =
        try Value_ops.to_subtype s.Rt.sig_ty (set_path base (ve env) path)
        with Value_ops.Runtime_error m -> error env "line %d: %s" line m
      in
      (now + delay, Some whole) :: transactions env s path ~now ~line whole rest)

let choice_matches v = function
  | Kir.Ch_others -> true
  | Kir.Ch_value cv -> Value.equal v cv
  | Kir.Ch_range (l, d, r) -> (
    let lo, hi = match d with Kir.To -> (l, r) | Kir.Downto -> (r, l) in
    match v with Value.Vint n | Value.Venum n -> n >= lo && n <= hi | _ -> false)

(* a new frame for [c], its arguments computed left to right *)
let rec fill frame env i = function
  | [] -> frame
  | a :: rest ->
    frame.(i) <- a env;
    fill frame env (i + 1) rest

let enter c env args = fill (Array.make c.c_size (Value.Vint 0)) env 0 args

(* run [c] in [frame], the display entry saved and restored around the
   call (shallow binding); its return value *)
let run c env frame sig_params =
  if c.c_level >= max_levels then error env "call nesting too deep";
  let saved = env.display.(c.c_level) and saved_params = env.sig_params in
  env.display.(c.c_level) <- frame;
  env.sig_params <- sig_params;
  let result = match c.c_body env with () -> None | exception Return_exc v -> v in
  env.display.(c.c_level) <- saved;
  env.sig_params <- saved_params;
  result

(* a function call's value *)
let apply f c env args =
  match run c env (enter c env args) [||] with
  | Some v -> v
  | None -> error env "function %s returned no value" f

let signal_attr : Kir.sattr -> env -> Rt.signal -> Value.t = function
  | Kir.Sa_event -> fun _ s -> Value.vbool s.Rt.event
  | Kir.Sa_active -> fun _ s -> Value.vbool s.Rt.active
  | Kir.Sa_stable -> fun _ s -> Value.vbool (not s.Rt.event)
  | Kir.Sa_last_value -> fun _ s -> s.Rt.last_value
  | Kir.Sa_last_event -> fun env s -> Value.Vphys (now env - s.Rt.last_event)

(* a generic or unit constant: its value, known when the code is linked *)
let known what name = function
  | Some v -> fun _ -> v
  | None -> fun env -> error env "%s %s was not substituted at elaboration" what name

let rec leaves =
  {
    Kir_eval.var = var_read;
    generic = (fun ctx ~index ~name -> known "generic" name (ctx.consts.generic index));
    unit_const = (fun ctx name -> known "constant" name (ctx.consts.unit_const name));
    signal =
      (fun ctx sref ->
        match sig_at ctx sref with
        | Fixed s -> fun _ -> s.Rt.current
        | Running g -> fun env -> (g env).Rt.current);
    signal_attr =
      (fun ctx sref attr ->
        match sig_at ctx sref with
        | Fixed s -> fun env -> signal_attr attr env s
        | Running g -> fun env -> signal_attr attr env (g env));
    call = (fun ctx f args -> callee ctx f (fun c env -> apply f c env args));
    alloc = (fun _ init env -> Value.Vaccess (ref (init env)));
  }

and expr ctx e = Kir_eval.translate leaves ctx e

(* a callee is resolved now; its body is translated on its first call *)
and callee : 'a. ctx -> string -> (compiled -> env -> 'a) -> env -> 'a =
 fun ctx f k ->
  match Hashtbl.find_opt ctx.home.functions f with
  | None -> fun env -> error env "subprogram %s is not linked" f
  | Some en -> fun env -> k (compiled env en) env

(* local initializers run as the first statements of the body *)
and compiled env en =
  match en.code with
  | Some c -> c
  | None ->
    let sub = en.sub in
    let first = List.length sub.Kir.sub_params in
    let init i (l : Kir.local) =
      let value = Option.value l.Kir.l_init ~default:(Kir.Elit (Value.default_of l.Kir.l_ty)) in
      Kir.Sassign (Kir.Tvar { level = 0; index = first + i; name = l.Kir.l_name }, value, None)
    in
    let ctx =
      { level = sub.Kir.sub_level; home = env; own = false; consts = en.linked; loops = [] }
    in
    let c =
      { c_level = sub.Kir.sub_level;
        c_size = first + List.length sub.Kir.sub_locals + Kir_util.loop_depth sub.Kir.sub_body;
        c_body = stmts ctx (List.mapi init sub.Kir.sub_locals @ sub.Kir.sub_body) }
    in
    en.code <- Some c;
    c

and target ctx (t : Kir.target) : env -> Value.t -> unit =
  (* read-modify-write of the enclosing target *)
  let update t' f =
    let r = expr ctx (Kir_util.target_expr t') and w = target ctx t' in
    fun env v ->
      let old = r env in
      w env (f env old v)
  in
  match t with
  | Kir.Tvar { level; index; name } -> var_write ctx ~level ~index ~name
  | Kir.Tderef t' -> (
    let r = expr ctx (Kir_util.target_expr t') in
    fun env v ->
      match r env with
      | Value.Vaccess x -> x := v
      | Value.Vnull -> error env "dereference of a null access value in assignment"
      | _ -> error env "dereference of a non-access value in assignment")
  | Kir.Tindex (t', i) ->
    let i = expr ctx i in
    update t' (fun env old v -> Value_ops.update_index old (Value.as_int (i env)) v)
  | Kir.Tslice (t', (l, d, r)) ->
    let l = expr ctx l and r = expr ctx r in
    update t' (fun env old v ->
        Value_ops.update_slice old (Value.as_int (l env), d, Value.as_int (r env)) v)
  | Kir.Tfield (t', f) -> update t' (fun _ old v -> Value_ops.update_field old f v)

(* A signal target: its root, and root first the (get, set) pair of each
   step of its path (read-modify-write of composite drivers; see
   DESIGN.md), whose index expressions run with the assignment. *)
and sig_target ctx (t : Kir.sig_target) path =
  let step t' p = sig_target ctx t' (p :: path) in
  match t with
  | Kir.Ts_sig sref -> (resolve (sig_at ctx sref), path)
  | Kir.Ts_index (t', i) ->
    let i = expr ctx i in
    step t' (fun env ->
        let k = Value.as_int (i env) in
        ((fun w -> Value_ops.index w k), fun w v -> Value_ops.update_index w k v))
  | Kir.Ts_slice (t', (l, d, r)) ->
    let l = expr ctx l and r = expr ctx r in
    step t' (fun env ->
        let rng = (Value.as_int (l env), d, Value.as_int (r env)) in
        ((fun w -> Value_ops.slice w rng), fun w v -> Value_ops.update_slice w rng v))
  | Kir.Ts_field (t', f) ->
    step t' (fun _ -> ((fun w -> Value_ops.field w f), fun w v -> Value_ops.update_field w f v))

and stmts ctx = function
  | [] -> fun _ -> ()
  | st :: rest ->
    let first = stmt ctx st and rest = stmts ctx rest in
    fun env ->
      first env;
      rest env

(* a loop statement: exit and next are caught only where its body has them *)
and loop ctx label body run =
  let lp = { label; exits = false; nexts = false } in
  let body = stmts { ctx with loops = lp :: ctx.loops } body in
  let body =
    if lp.nexts then fun env -> (try body env with Next_loop l when l == lp -> ()) else body
  in
  let run = run body in
  if lp.exits then fun env -> (try run env with Exit_loop l when l == lp -> ()) else run

(* an unlabelled exit/next targets the innermost loop; a labelled one the
   innermost loop bearing that label *)
and jump ctx ~what cond label mark =
  match List.find_opt (fun lp -> label = None || lp.label = label) ctx.loops with
  | None -> fun env -> error env "%s statement outside a loop" what
  | Some lp -> (
    let exn = mark lp in
    match cond with
    | None -> fun _ -> raise_notrace exn
    | Some c ->
      let c = expr ctx c in
      fun env -> if Value.truth (c env) then raise_notrace exn)

and stmt ctx (st : Kir.stmt) : env -> unit =
  let opt = Option.map (expr ctx) in
  match st with
  | Kir.Snull -> fun _ -> ()
  | Kir.Sassign (t, e, check_ty) -> (
    let e = expr ctx e and w = target ctx t in
    (* a slice target has its prefix's subtype: [update_slice] checks it *)
    match (check_ty, t) with
    | Some ty, (Kir.Tvar _ | Kir.Tderef _ | Kir.Tindex _ | Kir.Tfield _) ->
      let convert = Value_ops.to_subtype ty in
      fun env -> w env (convert (e env))
    | _ -> fun env -> w env (e env))
  | Kir.Ssig_assign { target; mode; waveform; line; _ } ->
    let root, path = sig_target ctx target [] and cache = ref None in
    let element (w : Kir.waveform_element) = (opt w.Kir.wv_after, opt w.Kir.wv_value) in
    let wave = List.map element waveform in
    fun env ->
      let s = root env in
      let path = steps env path in
      let d = driver cache env s in
      let now = now env in
      (* base value each transaction of a composite path modifies: the
         value the driver will hold last *)
      let base =
        match path with
        | [] -> d.Rt.drv_value
        | _ -> ( match List.rev d.Rt.drv_wave with (_, Some v) :: _ -> v | _ -> d.Rt.drv_value)
      in
      Rt.schedule d ~mode ~transactions:(transactions env s path ~now ~line base wave)
  | Kir.Sdisconnect target ->
    let root, path = sig_target ctx target [] and cache = ref None in
    fun env ->
      let s = root env in
      ignore (steps env path);
      let d = driver cache env s in
      (* a disconnection specification delays it: a null transaction *)
      if s.Rt.sig_disconnect > 0 then
        Rt.schedule d ~mode:Kir.Transport ~transactions:[ (now env + s.Rt.sig_disconnect, None) ]
      else Rt.disconnect d
  | Kir.Sif (arms, els) ->
    List.fold_right
      (fun (c, body) next ->
        let c = expr ctx c and body = stmts ctx body in
        fun env -> if Value.truth (c env) then body env else next env)
      arms (stmts ctx els)
  | Kir.Scase (e, alts) -> (
    let e = expr ctx e and alts = List.map (fun (cs, body) -> (cs, stmts ctx body)) alts in
    fun env ->
      let v = e env in
      match List.find_opt (fun (cs, _) -> List.exists (choice_matches v) cs) alts with
      | Some (_, body) -> body env
      | None -> error env "case statement: no choice matches %s" (Value.image v))
  | Kir.Sfor { var; range = lo, d, hi; body; loop_label; _ } ->
    let lo = expr ctx lo and hi = expr ctx hi and level = ctx.level in
    loop ctx loop_label body (fun body env ->
        let vlo = lo env and vhi = hi env in
        let rewrap =
          match vlo with
          | Value.Venum _ -> fun n -> Value.Venum n
          | Value.Vphys _ -> fun n -> Value.Vphys n
          | _ -> fun n -> Value.Vint n
        in
        let f = env.display.(level) in
        let iteration i =
          f.(Array.length f - var - 1) <- rewrap i;
          body env
        in
        match d with
        | Kir.To -> for i = Value.as_int vlo to Value.as_int vhi do iteration i done
        | Kir.Downto -> for i = Value.as_int vlo downto Value.as_int vhi do iteration i done)
  | Kir.Swhile (c, body, label) ->
    let c = expr ctx c in
    loop ctx label body (fun body env -> while Value.truth (c env) do body env done)
  | Kir.Sloop (body, label) -> loop ctx label body (fun body env -> while true do body env done)
  | Kir.Sexit { cond; label } ->
    jump ctx ~what:"exit" cond label (fun lp ->
        lp.exits <- true;
        Exit_loop lp)
  | Kir.Snext { cond; label } ->
    jump ctx ~what:"next" cond label (fun lp ->
        lp.nexts <- true;
        Next_loop lp)
  | Kir.Swait { on; until; for_; _ } ->
    let req = wait ctx on until for_ in
    fun env -> Effect.perform (Rt.Wait (req env))
  | Kir.Sreturn None ->
    let exn = Return_exc None in
    fun _ -> raise_notrace exn
  | Kir.Sreturn (Some e) ->
    let e = expr ctx e in
    fun env -> raise_notrace (Return_exc (Some (e env)))
  | Kir.Sassert { cond; report; severity; line } ->
    let cond = expr ctx cond and report = opt report and severity = opt severity in
    fun env ->
      if not (Value.truth (cond env)) then begin
        let text e = Std.value_string (e env) in
        let msg = Option.fold report ~none:"Assertion violation." ~some:text in
        let severity = match severity with Some e -> Value.as_int (e env) | None -> 2 (* ERROR *) in
        env.emit ~severity ~line msg
      end
  | Kir.Scall (Kir.P_user mangled, args) ->
    let values = List.map (fun (a : Kir.call_arg) -> expr ctx a.Kir.ca_expr) args in
    let signal (a : Kir.call_arg) = Option.map (fun r -> resolve (sig_at ctx r)) a.Kir.ca_signal in
    let signals = List.map signal args in
    let copy i (a : Kir.call_arg) =
      match (a.Kir.ca_mode, a.Kir.ca_target) with
      | (Kir.Arg_out | Kir.Arg_inout), Some t -> [ (i, target ctx t) ]
      | _ -> []
    in
    let copies = List.concat (List.mapi copy args) in
    callee ctx mangled (fun c env ->
        let frame = enter c env values in
        let sig_params = Array.of_list (List.map (Option.map (fun g -> g env)) signals) in
        ignore (run c env frame sig_params);
        (* copy back out/inout parameters *)
        List.iter (fun (i, w) -> w env frame.(i)) copies)

(* what a wait statement waits for *)
and wait ctx on until for_ =
  let on = List.map (fun r -> resolve (sig_at ctx r)) on in
  let until = Option.map (expr ctx) until and for_ = Option.map (expr ctx) for_ in
  fun env ->
    let until_fn = match until with Some c -> Some (fun () -> Value.truth (c env)) | None -> None in
    let wake_at = match for_ with Some e -> Some (now env + Value.as_int (e env)) | None -> None in
    { Rt.wr_on = steps env on; wr_until = until_fn; wr_for = wake_at }

let home env = { level = 0; home = env; own = true; consts = env.consts; loops = [] }

(* a body whose only wait is its last statement runs without a fiber *)
let process_body env body =
  let ctx = home env in
  match List.rev body with
  | Kir.Swait { on; until; for_; _ } :: rest when not (Kir_util.may_wait rest) ->
    let run = stmts ctx (List.rev rest) and wait = wait ctx on until for_ in
    Kernel.Until_wait (fun () -> run env; wait env)
  | _ ->
    let run = stmts ctx body in
    Kernel.Body (fun () -> run env)

(* evaluation outside a process body (elaboration): a dynamic error is a
   simulation error at the current time *)
let eval env e =
  try Kir_eval.eval leaves (home env) env e with Value_ops.Runtime_error m -> error env "%s" m

let call_function env name =
  let call = callee (home env) name (apply name) in
  fun args -> call env (List.map (fun v _ -> v) args)
