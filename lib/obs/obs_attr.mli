(** Phase attribution: maps the compiler's prose phase names to the
    short ["ph_<name>"] / ["al_<name>"] event fields, renders "p99 driven
    by" strings, and decides the adaptive slow-request (exemplar)
    threshold. *)

val short_phase : string -> string
(** ["attribute evaluation"] → ["attrs"], ["codegen+link (elaboration)"]
    → ["elaborate"], …; unknown names are sanitized to [[A-Za-z0-9_]]. *)

val with_other : total:float -> (string * float) list -> (string * float) list
(** Short-named positive per-phase shares plus the ["other"] residual (the
    part of [total] no compiler phase claimed), summing to [total].  The
    same helper attributes service microseconds and allocated bytes. *)

val fields :
  prefix:string -> (string * float) list -> (string * Obs_event.field_value) list
(** One numeric [prefix ^ name] event field per phase: ["ph_"] fields
    carry microseconds, ["al_"] fields bytes. *)

val attribution : ?top:int -> (string * float) list -> string
(** ["elaborate 48%, cascade 31%"] — the largest [top] (default 3)
    shares, sub-1% shares elided; [""] when nothing to attribute. *)

val exemplar_threshold_us :
  objectives:Obs_slo.objectives ->
  summary:Obs_slo.summary ->
  k:float ->
  min_observed:int ->
  float option
(** Latency above which a finished request earns an exemplar dump: the
    p99 objective when one is configured, else [k] × the window p50
    once the window holds [min_observed] measured requests ([None]
    before that — no defensible baseline, no dumping). *)
