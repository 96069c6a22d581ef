(** The performance observatory: statistical benchmark sessions, the
    canonical [BENCH_report.json] schema with persisted baselines, a
    noise-aware regression gate, and collapsed-stack profile export from
    telemetry spans.

    All timing uses the monotonic wall clock ({!Vhdl_telemetry.Telemetry.now_s}),
    never [Sys.time] (CPU time). *)

module Telemetry = Vhdl_telemetry.Telemetry

(** Robust statistics over repetition times. *)
module Stat : sig
  val median : float array -> float
  val mean : float array -> float

  val mad : float array -> float
  (** Median absolute deviation from the median (unscaled) — the robust
      spread estimate the significance test is built on. *)

  val bootstrap_ci :
    ?seed:int -> ?iters:int -> ?confidence:float -> float array -> float * float
  (** Percentile-bootstrap confidence interval of the median (default
      95%, 1000 resamples, deterministic seed). *)
end

(** GC work over a measured section (the words it allocated are the
    sample's [s_allocs]). *)
module Gc_delta : sig
  type t = {
    minor_collections : int;
    major_collections : int;
    compactions : int;
    heap_words : int; (* live heap words at section end *)
    top_heap_words : int; (* process peak heap words *)
  }

  val zero : t
end

(** One measured experiment. *)
module Sample : sig
  type t = {
    s_name : string;
    s_warmup : int;
    s_times : float array; (* seconds per repetition, monotonic wall clock *)
    s_allocs : float array; (* words allocated per repetition *)
    s_gc : Gc_delta.t; (* over all measured repetitions *)
    s_counters : (string * int) list; (* telemetry counter deltas *)
    s_phases : (string * float) list; (* phase self-time seconds *)
    s_metrics : (string * float) list; (* derived rates, caller-defined *)
  }

  val reps : t -> int
  val median : t -> float
  val mad : t -> float
  val ci : t -> float * float

  val alloc_median : t -> float
  (** Median words allocated per repetition; [nan] when the sample
      predates allocation capture ([s_allocs = [||]]). *)

  val alloc_ci : t -> float * float

  val alloc_bytes_median : t -> float
  (** {!alloc_median} in bytes — the bytes/compile figure the report
      persists and the gate compares. *)

  val rate : t -> string -> float option
  (** [rate s counter] is the counter's per-repetition delta divided by
      the median repetition time — tokens/s, attrs/s, delta-cycles/s. *)

  val with_metrics : t -> (string * float) list -> t
end

val perturb_env : string
(** ["VHDLC_PERF_PERTURB"] — the artificial-slowdown test seam: ["MS"]
    busy-waits MS extra milliseconds in every measured repetition,
    ["NAME:MS"] only in experiments whose name contains NAME.  This is
    how the regression gate's non-zero exit is exercised end to end. *)

val perturb_s : name:string -> float
(** Extra seconds the hook injects into experiment [name] (0 when the
    variable is unset or names a different experiment). *)

val perturb_alloc_env : string
(** ["VHDLC_PERF_PERTURB_ALLOC"] — the allocation twin of the slowdown
    seam: ["BYTES"] allocates BYTES extra bytes in every measured
    repetition, ["NAME:BYTES"] only in experiments whose name contains
    NAME.  Exercises the alloc half of the regression gate end to end. *)

val perturb_alloc_b : name:string -> int
(** Extra bytes the hook injects into experiment [name] (0 when unset or
    targeting a different experiment). *)

val run :
  ?warmup:int ->
  ?repeats:int ->
  ?quota_s:float ->
  ?phases:(unit -> (string * float) list) ->
  name:string ->
  (unit -> unit) ->
  Sample.t
(** [run ~name f] measures [f]: [warmup] (default 1) unrecorded calls,
    then up to [repeats] (default 5) timed repetitions on the monotonic
    wall clock, stopping early once [quota_s] seconds of measurement are
    spent (never below one repetition).  Telemetry counters are
    snapshotted around the measured portion; [phases] is read once after
    the last repetition (pass the compiler's phase-timer report). *)

(** The canonical benchmark report. *)
module Report : sig
  type t = {
    r_schema : string;
    r_meta : (string * string) list;
    r_samples : Sample.t list;
  }

  val schema : string
  (** ["vhdl-bench/1"]. *)

  val make : ?meta:(string * string) list -> Sample.t list -> t
  (** Attach machine metadata (created/hostname/os/ocaml/word size/git
      commit/stack ulimit, all best-effort) plus [meta] to the samples. *)

  val to_json : t -> string
  val of_json : string -> (t, string) result
  val save : string -> t -> unit
  val load : string -> (t, string) result
end

(** Baseline diffing: the regression gate behind [vhdlc bench --against]. *)
module Diff : sig
  type verdict = Regression | Improvement | Unchanged | Added | Removed

  type row = {
    d_name : string;
    d_base : float; (* baseline median seconds (nan when Added) *)
    d_cur : float; (* current median seconds (nan when Removed) *)
    d_ratio : float; (* cur / base *)
    d_verdict : verdict;
  }

  val alloc_suffix : string
  (** [" [alloc]"] — appended to the experiment name on allocation rows,
      whose [d_base]/[d_cur] are bytes per repetition, not seconds. *)

  val is_alloc_row : row -> bool

  val compare_reports :
    ?threshold:float ->
    ?alloc_threshold:float ->
    baseline:Report.t ->
    current:Report.t ->
    unit ->
    row list
  (** Match experiments by name and classify each.  A change is only
      significant when the median ratio clears [threshold] (default
      0.25, i.e. 25%) {e and} the bootstrap confidence intervals of the
      two medians are disjoint — so a 2x slowdown is flagged while
      sub-noise jitter is not, regardless of sample luck.

      When both sides carry per-repetition allocation samples, each
      experiment also yields a ["name [alloc]"] row gated the same way
      at [alloc_threshold] (default 0.5 — allocation is near-
      deterministic rep to rep, so 50% is far above noise while a
      planted 2x blow-up trips it).  Experiments whose baseline predates
      allocation capture get no alloc row. *)

  val compare_series :
    ?threshold:float ->
    ?min_samples:int ->
    base:(string * float array) list ->
    cur:(string * float array) list ->
    unit ->
    row list
  (** The same noise-aware gate over raw named series (values in
      seconds) instead of persisted reports — used by
      [vhdlc analyze --against] on per-request latency and per-phase
      samples from two event logs.  A side with fewer than
      [min_samples] (default 3) observations yields [Unchanged]. *)

  val regressions : row list -> row list
  val verdict_name : verdict -> string
  val pp : Format.formatter -> row list -> unit
end

(** Collapsed-stack ("folded") export of the telemetry span tree. *)
module Flame : sig
  val self_times : Telemetry.span list -> (string * float) list
  (** Aggregated self time (duration minus direct children) per span
      name, seconds, sorted by name. *)

  val self_allocs : Telemetry.span list -> (string * float) list
  (** Aggregated self-allocated words ([sp_alloc_w] minus direct
      children's) per span name, sorted by name. *)

  val folded : Telemetry.span list -> string
  (** One line per distinct stack, [root;child;leaf <self-us>] — the
      input format of flamegraph.pl and speedscope.  Lines whose self
      time rounds to zero microseconds are dropped, so the folded totals
      equal {!self_times} within rounding. *)

  val folded_alloc : Telemetry.span list -> string
  (** The allocation flamegraph: same folded format with self-allocated
      bytes as the counts.  Word counts are integral, so the folded
      totals equal {!self_allocs} (times the word size) {e exactly};
      zero-allocation stacks are dropped. *)
end
