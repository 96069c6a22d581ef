(** Denotations: what a name may stand for.

    The applicative environment ({!Env}) maps identifiers to lists of
    denotations; LEF tokens carry denotations into the expression AG (the
    paper's token-value mechanism); overload resolution filters candidate
    lists. *)

type obj_class =
  | Cconstant
  | Cvariable
  | Csignal

(** Where the generated code finds the object's storage. *)
type slot =
  | Sl_frame of { level : int; index : int } (* variable/constant in a frame *)
  | Sl_signal of Kir.sig_ref
  | Sl_generic of int
  | Sl_static of Value.t (* folded constant *)
  | Sl_unit_const of string (* architecture constant, elaboration-time value *)

type param = {
  p_name : string;
  p_mode : Kir.arg_mode;
  p_class : obj_class; (* constant (default for in) / variable / signal *)
  p_ty : Types.t;
  p_default : Kir.expr option;
}

type subprog_sig = {
  ss_name : string; (* source name, original case-folded *)
  ss_mangled : string; (* unique qualified name used by KIR calls *)
  ss_kind : [ `Function | `Procedure ];
  ss_params : param list;
  ss_ret : Types.t option;
  ss_builtin : bool;
}

type t =
  | Dobject of {
      name : string;
      cls : obj_class;
      ty : Types.t;
      mode : Kir.arg_mode option; (* for ports/parameters *)
      slot : slot;
    }
  | Dtype of Types.t
  | Dsubtype of Types.t
  | Denum_lit of { ty : Types.t; pos : int; image : string }
  | Dsubprog of subprog_sig
  | Dcomponent of {
      name : string;
      generics : Kir.generic_decl list;
      ports : Kir.port_decl list;
    }
  | Dattr_decl of { name : string; ty : Types.t } (* user-defined attribute *)
  | Dattr_value of { of_name : string; attr : string; value : Value.t; ty : Types.t }
  | Dunit of { library : string; unit_name : string } (* entity/package name made visible *)
  | Dlibrary of string (* a design library made visible by a LIBRARY clause *)
  | Dlabel of string
  | Dphys_unit of { ty : Types.t; scale : int; image : string } (* ns, us, ... *)

(** Overloadable denotations coexist under one name (LRM 10.3): subprograms
    and enumeration literals.  Everything else hides. *)
let overloadable = function
  | Dsubprog _ | Denum_lit _ -> true
  | Dobject _ | Dtype _ | Dsubtype _ | Dcomponent _ | Dattr_decl _ | Dattr_value _
  | Dunit _ | Dlibrary _ | Dlabel _ | Dphys_unit _ -> false
