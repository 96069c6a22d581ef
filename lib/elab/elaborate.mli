(** Elaboration: from compiled design units to a runnable simulation model
    — the "link" step of the paper's pipeline.

    Implements the §3.3 binding rules: explicit configuration
    specifications in the architecture, then the configuration unit, then
    the default rule — bind to the entity with the component's name and its
    {e latest compiled architecture} (the usage-history-dependent default
    the paper calls out as making descriptions non-deterministic). *)

type library_view = {
  lv_find : library:string -> key:string -> Unit_info.compiled_unit option;
  lv_all : unit -> Unit_info.compiled_unit list;
}

exception Elaboration_error of string

exception Budget_exhausted of { steps : int; limit : int }
(** The [?step_budget] of {!elaborate} ran out: the design expanded into
    more signals + processes + instances than the budget allows. *)

type model = {
  m_kernel : Kernel.t;
  m_ns : Name_server.t;
  m_trace : Trace.t;
  m_globals : (string * string, Rt.signal) Hashtbl.t;
  m_functions_loaded : int; (* instrumentation *)
  m_instances : int;
}

val latest_arch :
  library_view -> library:string -> entity:string -> Unit_info.arch_info option
(** The §3.3 default: the architecture of [entity] with the highest
    compilation-order stamp. *)

type top =
  | Top_entity of { entity : string; arch : string option }
  | Top_configuration of string

val elaborate : ?trace_signals:bool -> ?step_budget:int -> library_view -> top -> model
(** Build the instance hierarchy, create runtime signals and processes,
    translate their KIR with each instance's generics and elaboration-time
    constants as leaves, and register everything with a fresh kernel and
    name server.
    [step_budget] bounds the hierarchy expansion (@raise Budget_exhausted
    beyond it). *)
