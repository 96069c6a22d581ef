(** Differential fuzzing campaigns: generate → dual-compile → compare →
    shrink → persist reproducers.

    The deterministic smoke campaign (fixed seed range, ~100 designs) runs
    under [dune runtest]; the open-ended soak campaign lives behind
    [bin/vhdlfuzz --soak] and the [@fuzz-smoke] alias so it never blocks
    tier-1. *)

type summary = {
  mutable total : int;
  mutable compiled : int; (* designs both sides accepted *)
  mutable simulated : int; (* designs that also ran to the horizon *)
  mutable rejected : int; (* designs both sides rejected identically *)
  mutable divergences : int;
  mutable crashes : int;
  mutable shrunk : (int * string * Difftest_oracle.verdict) list;
      (* (seed, minimized source, verdict) for each failure, newest first *)
  mutable reproducer_files : string list;
}

val run_campaign :
  ?inject_fault:bool ->
  ?corpus_dir:string ->
  ?log:(string -> unit) ->
  seeds:int list ->
  size:int ->
  unit ->
  summary
(** Fuzz every seed.  On a divergence or crash the design is minimized with
    {!Difftest_shrink.shrink} (re-running the oracle as the predicate) and,
    when [corpus_dir] is given, written there as a replayable reproducer. *)

val smoke_seeds : int list
(** The fixed seed range of the smoke campaign (100 seeds). *)

val default_campaign_budgets : Supervisor.budgets
(** Budgets of {!run_budget_campaign}: tight enough to trip on runaway
    behavior, loose enough that ordinary generated designs pass. *)

val run_budget_campaign :
  ?budgets:Supervisor.budgets ->
  ?corpus_dir:string ->
  ?log:(string -> unit) ->
  seeds:int list ->
  size:int ->
  unit ->
  summary
(** Containment campaign ([vhdlfuzz --budget]): each design runs once
    under resource budgets through {!Difftest_oracle.check_contained}; any
    raw exception escape or internal-error diagnostic counts as a crash
    and is shrunk/archived like a differential finding. *)

(** {1 Reproducer corpus} *)

val save_reproducer :
  dir:string ->
  seed:int ->
  top:string option ->
  max_ns:int ->
  verdict:Difftest_oracle.verdict ->
  string ->
  string
(** Write a reproducer file ([vhdlfuzz] header comments + source); returns
    the path. *)

type corpus_entry = {
  ce_path : string;
  ce_top : string option;
  ce_max_ns : int;
  ce_source : string;
}

val load_corpus_file : string -> corpus_entry
(** Parse the [-- vhdlfuzz] header comments of a corpus file.  Plain VHDL
    files (no header) replay with [top = None] and the default horizon. *)

val replay : ?inject_fault:bool -> string -> Difftest_oracle.verdict
(** Re-run the oracle on a corpus file. *)

val pp_summary : Format.formatter -> summary -> unit
