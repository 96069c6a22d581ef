(** Offline analytics over a serve event log — the engine behind
    [vhdlc analyze].  Percentiles replay the events through {!Obs_slo}
    so the offline numbers use the live window's own bucketized
    estimator; {!against} diffs two logs with the perf library's
    noise-aware significance rule. *)

type slow = {
  sl_rid : int;
  sl_verb : string;
  sl_status : string;
  sl_service_us : float;
  sl_phases_us : (string * float) list;
}

type slice = {
  c_start_s : float; (* offset from the log's first event *)
  c_summary : Obs_slo.summary;
}

type report = {
  a_events : int;
  a_span_s : float; (* last ts - first ts *)
  a_finishes : int;
  a_sheds : int;
  a_rejects : int;
  a_breaches : int;
  a_heap_breaches : int;
  a_dumps : int;
  a_statuses : (string * int) list; (* finish statuses, most common first *)
  a_shed_reasons : (string * int) list;
  a_summary : Obs_slo.summary; (* whole-log window, incl. phase table *)
  a_tail_phase_us : (string * float) list; (* slowest decile only *)
  a_slowest : slow list; (* top-K by service latency *)
  a_slices : slice list; (* per-window timeline *)
}

val analyze : ?window_s:float -> ?top_k:int -> Obs_event.t list -> report
(** Aggregate a parsed log: whole-log window summary with phase
    attribution, tail (slowest-decile) attribution, the [top_k]
    (default 5) slowest requests, and a timeline of [window_s] (default
    60) slices. *)

val against :
  ?threshold:float ->
  ?min_samples:int ->
  base:Obs_event.t list ->
  cur:Obs_event.t list ->
  unit ->
  Vhdl_perf.Perf.Diff.row list
(** Diff two logs' latency and per-phase series with the bench gate's
    rule: regression only when the median ratio clears [threshold] and
    the bootstrap CIs are disjoint. *)

val pp : Format.formatter -> report -> unit
val to_json : report -> string
