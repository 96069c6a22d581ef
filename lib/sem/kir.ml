(** KIR — the kernel intermediate representation.

    The paper's compiler emits C source that is compiled by the host system
    and linked with the Vantage simulation kernel.  Our substitution keeps
    the same phase structure: the front end emits KIR, and the "link" step
    (elaboration) translates it once into closures the kernel runs,
    binding generics, constants, signals and callees to their runtime
    values and objects as it translates.  See DESIGN.md for why this
    preserves the behaviours under study.

    References are symbolic enough to survive the VIF (separate
    compilation): variables are (level, index) frame slots — which directly
    supports VHDL's up-level references from nested subprograms, the feature
    the paper notes C lacks — signals are indices into the enclosing
    design-unit's signal table, and user subprograms are referenced by
    mangled qualified name. *)

type dir = Types.dir =
  | To
  | Downto

type binop =
  | Band
  | Bor
  | Bnand
  | Bnor
  | Bxor
  | Beq
  | Bneq
  | Blt
  | Ble
  | Bgt
  | Bge
  | Badd
  | Bsub
  | Bconcat
  | Bmul
  | Bdiv
  | Bmod
  | Brem
  | Bexp

type unop =
  | Uneg
  | Uplus
  | Uabs
  | Unot

(** Signal references, resolved at elaboration time. *)
type sig_ref =
  | Sig_local of int (* index into the design unit's signal table (ports first) *)
  | Sig_guard (* the implicit GUARD signal of the enclosing block *)
  | Sig_global of { package : string; name : string }
  | Sig_param of int
      (* signal-class subprogram parameter: index into the signals bound at
         the enclosing procedure call *)

type sattr =
  | Sa_event
  | Sa_active
  | Sa_last_value
  | Sa_stable
  | Sa_last_event (* time elapsed since the last event *)

type func_ref =
  | F_user of string (* mangled qualified name *)

type expr =
  | Elit of Value.t
  | Evar of { level : int; index : int; name : string }
      (* negative index: for-loop variable slot -(index+1) *)
  | Egeneric of { index : int; name : string } (* resolved when linked *)
  | Eunit_const of { name : string }
      (* architecture-level constant whose initializer depends on generics,
         a generate parameter or a deferred package constant; resolved
         when linked *)
  | Esig of sig_ref
  | Esig_attr of sig_ref * sattr
  | Ebin of binop * expr * expr
  | Eun of unop * expr
  | Eindex of expr * expr
  | Eslice of expr * (expr * dir * expr)
  | Efield of expr * string
  | Eaggregate of agg_element list * agg_shape
  | Ecall of func_ref * expr list
  | Econvert of conv * expr
  (* array attributes that may be dynamic (unconstrained formals) *)
  | Earray_attr of expr * array_attr
  | Enew of Types.t * expr option
      (* allocator (LRM 7.3.6): new T, or new T'(e) with an initial value *)
  | Ederef of expr (* .all: the designated object of an access value *)
  | Enull (* the null access literal *)

and agg_element =
  | Ag_pos of expr
  | Ag_named of int * expr (* index choice (static) *)
  | Ag_field of string * expr
  | Ag_others of expr

and agg_shape =
  | Sh_array of (int * dir * int) option (* static bounds if known *)
  | Sh_record of string list (* field names in declaration order *)

and conv =
  | To_integer
  | To_float
  | To_pos (* T'POS: enumeration/discrete value to its position number *)
  | To_val of Types.t (* T'VAL: position number to a value of T, range checked *)

and array_attr =
  | At_left
  | At_right
  | At_high
  | At_low
  | At_length

type target =
  | Tderef of target (* assignment through an access value: p.all := e *)
  | Tvar of { level : int; index : int; name : string }
  | Tindex of target * expr
  | Tslice of target * (expr * dir * expr)
  | Tfield of target * string

type sig_target =
  | Ts_sig of sig_ref
  | Ts_index of sig_target * expr
  | Ts_slice of sig_target * (expr * dir * expr)
  | Ts_field of sig_target * string

type delay_mode =
  | Inertial
  | Transport

type waveform_element = {
  wv_value : expr option; (* None = null transaction: disconnect (LRM 8.3) *)
  wv_after : expr option; (* TIME expression; None = delta *)
}

type proc_ref =
  | P_user of string

type stmt =
  | Snull
  | Sassign of target * expr * Types.t option
      (* target subtype, when constrained: drives the runtime range check
         on variable assignment (LRM 8.4) *)
  | Ssig_assign of {
      target : sig_target;
      mode : delay_mode;
      waveform : waveform_element list;
      guarded : bool; (* emit disconnect when the block guard is false *)
      line : int;
    }
  | Sif of (expr * stmt list) list * stmt list (* (cond, then)+ , else *)
  | Scase of expr * (case_choice list * stmt list) list
  | Sfor of {
      var : int; (* loop-variable slot in the current frame *)
      var_name : string;
      range : expr * dir * expr;
      body : stmt list;
      loop_label : string option;
    }
  | Swhile of expr * stmt list * string option
  | Sloop of stmt list * string option
  | Sexit of { cond : expr option; label : string option }
  | Snext of { cond : expr option; label : string option }
  | Swait of {
      on : sig_ref list;
      until : expr option;
      for_ : expr option;
      line : int;
    }
  | Sdisconnect of sig_target (* guarded assignment with a false guard *)
  | Sreturn of expr option
  | Sassert of {
      cond : expr;
      report : expr option;
      severity : expr option;
      line : int;
    }
  | Scall of proc_ref * call_arg list

and case_choice =
  | Ch_value of Value.t
  | Ch_range of int * dir * int
  | Ch_others

and call_arg = {
  ca_mode : arg_mode;
  ca_expr : expr; (* for In *)
  ca_target : target option; (* copy-back destination for Out/Inout *)
  ca_signal : sig_ref option;
      (* for signal-class parameters: the actual signal (drivers belong to
         the calling process, LRM 2.1.1.2) *)
}

and arg_mode =
  | Arg_in
  | Arg_out
  | Arg_inout

(** A local in a frame: name, type, optional initializer. *)
type local = {
  l_name : string;
  l_ty : Types.t;
  l_init : expr option;
}

type subprogram = {
  sub_name : string; (* mangled qualified name *)
  sub_kind : [ `Function | `Procedure ];
  sub_params : local list; (* first slots of the frame, in order *)
  sub_param_modes : arg_mode list;
  sub_locals : local list; (* remaining slots *)
  sub_ret : Types.t option;
  sub_level : int; (* static nesting level of the frame *)
  sub_body : stmt list;
}

type process = {
  proc_label : string;
  proc_sensitivity : sig_ref list;
  proc_locals : local list;
  proc_body : stmt list;
  proc_postponed_wait : bool;
      (* true when the process has an explicit sensitivity list: the kernel
         appends the implicit "wait on <list>;" at the end of the body *)
}

(** Signal declared by an architecture (ports occupy the first indices). *)
type signal_decl = {
  sd_name : string;
  sd_ty : Types.t;
  sd_init : expr option;
  sd_resolution : func_ref option; (* bus resolution function *)
  sd_kind : [ `Plain | `Bus | `Register ];
  sd_disconnect : expr option;
      (* disconnection specification (LRM 5.3): time before a guarded
         disconnect of this signal's drivers takes effect *)
}

type port_decl = {
  pd_name : string;
  pd_mode : arg_mode;
  pd_ty : Types.t;
  pd_default : expr option;
}

type generic_decl = {
  gd_name : string;
  gd_ty : Types.t;
  gd_default : expr option;
}

(** Association in a generic or port map. *)
type actual =
  | Act_open
  | Act_expr of expr (* generics, or expression actuals *)
  | Act_signal of sig_ref (* parent-scope signal *)
  | Act_signal_index of sig_ref * expr
  | Act_signal_slice of sig_ref * (expr * Types.dir * expr)
      (* slice association: the formal connects to a static slice of the
         parent signal via implicit connector processes *)
      (* element association, e.g. [q => taps(i)]: connected through an
         implicit connector process at elaboration *)

type instance = {
  inst_label : string;
  inst_component : string; (* component name resolved in the arch env *)
  inst_generic_map : (string * actual) list; (* formal name -> actual *)
  inst_port_map : (string * actual) list;
}

(** Concurrent statements after translation: everything becomes processes
    and instances; blocks contribute a guard expression evaluated in a
    dedicated implicit process. *)
type concurrent =
  | C_process of process
  | C_instance of instance
  | C_block of {
      blk_label : string;
      blk_guard : expr option; (* drives the implicit GUARD signal *)
      blk_body : concurrent list;
    }
  | C_generate of {
      gen_label : string;
      gen_var : string; (* rides through the code as a unit constant *)
      gen_range : expr * dir * expr;
      gen_body : concurrent list;
    }
  | C_if_generate of {
      ig_label : string;
      ig_cond : expr; (* static at elaboration *)
      ig_body : concurrent list;
    }

let rec pp_expr fmt = function
  | Elit v -> Value.pp fmt v
  | Evar { name; level; index } -> Format.fprintf fmt "%s@[<h>{%d.%d}@]" name level index
  | Egeneric { name; _ } -> Format.fprintf fmt "generic:%s" name
  | Eunit_const { name } -> Format.fprintf fmt "const:%s" name
  | Esig (Sig_local i) -> Format.fprintf fmt "sig#%d" i
  | Esig Sig_guard -> Format.pp_print_string fmt "GUARD"
  | Esig (Sig_global { package; name }) -> Format.fprintf fmt "sig:%s.%s" package name
  | Esig (Sig_param i) -> Format.fprintf fmt "sigparam#%d" i
  | Enew (ty, init) ->
    Format.fprintf fmt "new %s" (Types.short_name ty);
    Option.iter (fun e -> Format.fprintf fmt "'(%a)" pp_expr e) init
  | Ederef e -> Format.fprintf fmt "%a.all" pp_expr e
  | Enull -> Format.pp_print_string fmt "null"
  | Esig_attr (s, a) ->
    pp_expr fmt (Esig s);
    Format.pp_print_string fmt
      (match a with
      | Sa_event -> "'EVENT"
      | Sa_active -> "'ACTIVE"
      | Sa_last_value -> "'LAST_VALUE"
      | Sa_stable -> "'STABLE"
      | Sa_last_event -> "'LAST_EVENT")
  | Ebin (op, a, b) ->
    Format.fprintf fmt "(%a %s %a)" pp_expr a
      (match op with
      | Band -> "and"
      | Bor -> "or"
      | Bnand -> "nand"
      | Bnor -> "nor"
      | Bxor -> "xor"
      | Beq -> "="
      | Bneq -> "/="
      | Blt -> "<"
      | Ble -> "<="
      | Bgt -> ">"
      | Bge -> ">="
      | Badd -> "+"
      | Bsub -> "-"
      | Bconcat -> "&"
      | Bmul -> "*"
      | Bdiv -> "/"
      | Bmod -> "mod"
      | Brem -> "rem"
      | Bexp -> "**")
      pp_expr b
  | Eun (op, a) ->
    Format.fprintf fmt "(%s %a)"
      (match op with
      | Uneg -> "-"
      | Uplus -> "+"
      | Uabs -> "abs"
      | Unot -> "not")
      pp_expr a
  | Eindex (a, i) -> Format.fprintf fmt "%a(%a)" pp_expr a pp_expr i
  | Eslice (a, (l, d, r)) ->
    Format.fprintf fmt "%a(%a %s %a)" pp_expr a pp_expr l
      (match d with To -> "to" | Downto -> "downto")
      pp_expr r
  | Efield (a, f) -> Format.fprintf fmt "%a.%s" pp_expr a f
  | Eaggregate (_, _) -> Format.pp_print_string fmt "<aggregate>"
  | Ecall (F_user f, args) ->
    Format.fprintf fmt "%s(%a)" f
      (Format.pp_print_list ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ") pp_expr)
      args
  | Econvert (To_integer, e) -> Format.fprintf fmt "integer(%a)" pp_expr e
  | Econvert (To_float, e) -> Format.fprintf fmt "real(%a)" pp_expr e
  | Econvert (To_pos, e) -> Format.fprintf fmt "pos(%a)" pp_expr e
  | Econvert (To_val ty, e) -> Format.fprintf fmt "%s'val(%a)" (Types.short_name ty) pp_expr e
  | Earray_attr (e, a) ->
    Format.fprintf fmt "%a'%s" pp_expr e
      (match a with
      | At_left -> "LEFT"
      | At_right -> "RIGHT"
      | At_high -> "HIGH"
      | At_low -> "LOW"
      | At_length -> "LENGTH")
