(** The dual-evaluator differential oracle.

    Each design is compiled twice — once on the [Demand] reference path
    (goal-directed memoizing evaluation, no copy elision in either
    attribute grammar), once on the [Staged] default (per-unit
    {!Analysis.plan} runs with copy elision) — then both results are
    elaborated and simulated to a bounded horizon.  The oracle asserts
    identical compiled unit keys, identical human-readable VIF for every
    unit, identical diagnostics, and identical simulation traces,
    assert/report output, and kernel outcome. *)

(** What one strategy produced (everything rendered to strings so the two
    sides compare structurally). *)
type side = {
  s_label : string;
  s_phase : string; (* "compile" | "elaborate" | "simulate" | "done" *)
  s_rejected : string option; (* compile/elaboration diagnostics, if rejected *)
  s_crash : string option; (* Cycle / Missing_rule / Internal / unexpected exn *)
  s_units : string list;
  s_vif : string list;
  s_diags : string list;
  s_outcome : string;
  s_trace : string list;
  s_messages : string list;
}

type verdict =
  | Agree of {
      compiled : bool;
      simulated : bool;
      units : int;
      trace_changes : int;
    }
  | Divergence of { stage : string; detail : string }
  | Crash of { side_ : string; stage : string; detail : string }

val run_side :
  strategy:Vhdl_compiler.strategy ->
  ?inject_fault:bool ->
  max_ns:int ->
  top:string option ->
  string ->
  side
(** Compile (and, with a top, elaborate + simulate) one source text under
    one strategy.  [inject_fault] activates the armed semantic-rule flip
    around the staged side only. *)

val check : ?inject_fault:bool -> Difftest_gen.design -> verdict
(** Run both sides on a design and compare. *)

val check_source : ?inject_fault:bool -> ?max_ns:int -> top:string option -> string -> verdict

val check_contained :
  ?budgets:Supervisor.budgets -> ?max_ns:int -> top:string option -> string -> verdict
(** Single-side containment oracle for budget campaigns (where the two
    strategies legitimately disagree): every phase must succeed, reject
    with diagnostics, or report a budget exhaustion.  A raw exception
    escape or an [Internal]-origin diagnostic is a [Crash] finding. *)

val same_class : verdict -> verdict -> bool
(** Same verdict constructor and stage — the shrinker's "still interesting"
    test (details may drift while a design shrinks). *)

val describe : verdict -> string
