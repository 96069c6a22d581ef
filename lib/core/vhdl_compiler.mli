(** The public compiler and simulator API.

    Mirrors Figure 1 of the paper: source text flows through the scanner,
    the LALR parser, and the attribute evaluator generated from the
    principal AG (with [exprEval] cascading into the expression AG); the
    resulting design units are placed in the working library as VIF;
    elaboration links them against the simulation kernel.

    {[
      let c = Vhdl_compiler.create () in
      ignore (Vhdl_compiler.compile c source);
      let sim = Vhdl_compiler.elaborate c ~top:"tb" () in
      ignore (Vhdl_compiler.run c sim ~max_ns:1000);
      Vhdl_compiler.history sim ":tb:Q"
    ]} *)

type t
(** A compiler instance: a working library plus phase instrumentation. *)

exception Compile_error of Diag.t list
(** Raised when nothing in a source parses, on semantic errors unless
    [~fail_on_error:false], and on contained internal errors or exhausted
    budgets (diagnostics with [Internal] / [Budget] origins). *)

(** Attribute-evaluation strategy used by [compile].  [Staged] (the
    default) drives each design unit through the static evaluation plan
    ({!Analysis.plan}) with copy rules elided in both attribute grammars —
    the way a plan-based (Linguist-style) evaluator proceeds.  [Demand] is
    the reference path: goal-directed memoizing evaluation with elision
    off in both grammars, kept as the fuzz oracle.  The
    two must agree — the differential fuzzer ([lib/difftest],
    [bin/vhdlfuzz]) checks it. *)
type strategy =
  | Demand
  | Staged

val create :
  ?work_dir:string ->
  ?strategy:strategy ->
  ?budgets:Supervisor.budgets ->
  ?provenance:Provenance.t ->
  unit ->
  t
(** Create a compiler.  With [work_dir] the working library is disk-backed
    (one VIF file per unit, shared across compiler instances); without it
    the library lives in memory.  [strategy] defaults to [Staged];
    [budgets] turns on resource containment (default: unlimited).
    [provenance] arms the attribute-dependency recorder: every compile
    records its dynamic dependency graph there — both AGs, the cascade
    records into the same recorder — feeding [vhdlc explain] and the
    hot-rule profiler. *)

val strategy : t -> strategy
val budgets : t -> Supervisor.budgets

val provenance : t -> Provenance.t option
(** The recorder passed at [create], if any. *)

val add_reference_library : t -> name:string -> dir:string -> unit
(** Attach a read-only reference library under logical [name] (the paper's
    second library argument). *)

val load_generated : unit -> unit
(** Load both grammars' build-time generated tables and the principal
    evaluation plan, once per process, then run one full major
    collection.  [compile] does this first; call it
    earlier to keep the load out of a measured region (the one-shot CLI's
    start-up, a daemon's first request).
    @raise Generated.Stale if the linked tables belong to another grammar. *)

val compile : ?fail_on_error:bool -> t -> string -> Unit_info.compiled_unit list
(** Compile one source text (possibly several design units) into the
    working library and return the units placed there: a design unit
    enters the library only when its analysis reports no error, so later
    units in the source see only error-free ones.  Diagnostics accumulate
    on the compiler.  The parser recovers from syntax errors (all are
    reported in one run; well-formed sibling units still analyze), and
    each design unit's analysis runs under the {!Supervisor} firewall. *)

val compile_file : ?fail_on_error:bool -> t -> string -> Unit_info.compiled_unit list

val diagnostics : t -> Diag.t list
(** All diagnostics so far, oldest first. *)

val last_report : t -> Supervisor.unit_report list
(** Per-unit partial-result report of the most recent [compile]: which
    design units compiled, errored, were poisoned by a contained internal
    error, or were skipped after a budget died. *)

val session : t -> Session.t
(** The read-only session view the semantic rules use to reach foreign
    units. *)

val work_library : t -> Library.t

val timer : t -> Vhdl_util.Phase_timer.t
(** Per-phase wall-clock accounting (the PERF-PHASE experiment). *)

val library_view : t -> Elaborate.library_view

(** {1 Elaboration and simulation} *)

type simulation = {
  top : string; (* the name elaborated, for diagnostics *)
  model : Elaborate.model;
  mutable messages : (Rt.time * int * string) list; (* newest first *)
}

val elaborate :
  ?arch:string ->
  ?configuration:string ->
  ?trace:bool ->
  t ->
  top:string ->
  unit ->
  simulation
(** Elaborate entity [top] (with [?arch], defaulting to the latest compiled
    architecture — the paper's §3.3 rule) or a [?configuration] unit.
    All three names ignore case.  [?trace:false] disables the waveform
    observers. *)

val run : t -> simulation -> max_ns:int -> Kernel.outcome
(** Run the simulation up to [max_ns] nanoseconds of simulated time,
    under the firewall: an internal escape raises {!Compile_error} with
    an [internal:simulation] diagnostic. *)

val kernel : simulation -> Kernel.t
val name_server : simulation -> Name_server.t
val trace : simulation -> Trace.t

val messages : simulation -> (Rt.time * int * string) list
(** assert/report output so far, oldest first: (time, severity, text). *)

val history : simulation -> string -> (Rt.time * Value.t) list
(** Signal-change history by hierarchical path, e.g. [":tb:Q"]. *)

val value : simulation -> string -> Value.t option
(** Current value of a signal by path. *)
