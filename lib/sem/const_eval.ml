(** Static evaluation of KIR expressions: {!Kir_eval} with leaves that are
    static only when the record of elaboration-time values knows them. *)

type consts = {
  generic : int -> Value.t option;
  unit_const : string -> Value.t option;
}

let none = { generic = (fun _ -> None); unit_const = (fun _ -> None) }

exception Not_static

let not_static _ = raise Not_static

let known = function Some v -> fun _ -> v | None -> not_static

let leaves : (consts, unit) Kir_eval.leaves =
  {
    Kir_eval.var = (fun _ ~level:_ ~index:_ ~name:_ -> not_static);
    generic = (fun c ~index ~name:_ -> known (c.generic index));
    unit_const = (fun c name -> known (c.unit_const name));
    signal = (fun _ _ -> not_static);
    signal_attr = (fun _ _ _ -> not_static);
    call = (fun _ _ _ -> not_static);
    alloc = (fun _ _ -> not_static);
  }

let eval consts e =
  match Kir_eval.eval leaves consts () e with v -> Some v | exception Not_static -> None

let eval_opt consts e = try eval consts e with Value_ops.Runtime_error _ -> None
