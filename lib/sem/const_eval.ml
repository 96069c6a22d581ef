(** Static evaluation of KIR expressions: {!Kir_eval} with leaves that are
    never static. *)

exception Not_static

let not_static _ = raise Not_static

let leaves : (unit, unit) Kir_eval.leaves =
  {
    Kir_eval.var = (fun () ~level:_ ~index:_ ~name:_ -> not_static);
    generic = (fun () ~index:_ ~name:_ -> not_static);
    unit_const = (fun () _ -> not_static);
    signal = (fun () _ -> not_static);
    signal_attr = (fun () _ _ -> not_static);
    call = (fun () _ _ -> not_static);
    alloc = (fun () _ -> not_static);
  }

let eval e = match Kir_eval.eval leaves () () e with v -> Some v | exception Not_static -> None

let eval_opt e = try eval e with Value_ops.Runtime_error _ -> None
