(** Rolling SLO windows: a ring of fixed-width time buckets summarizing
    the last window of service latency (p50/p95/p99), shed rate, and
    contained-escape rate, checked against configurable objectives.
    Each slot keeps its latency in a telemetry histogram and a summary
    merges them, so a window spanning the whole run agrees with the
    process-lifetime percentiles. *)

type t

val create : ?window_s:float -> ?buckets:int -> unit -> t
(** A sliding window of [window_s] seconds (default 60) sliced into
    [buckets] slots (default 12).  Expiry is lazy; no timer thread. *)

val window_s : t -> float

val observe :
  t ->
  now:float ->
  ?latency_us:float ->
  ?phases:(string * float) list ->
  ?allocs:(string * float) list ->
  ?alloc_b:float ->
  shed:bool ->
  internal:bool ->
  unit ->
  unit
(** Record one request outcome into the bucket holding [now].
    [latency_us] is supplied for requests that ran (the same value the
    [serve.latency_us] histogram observes); sheds have none.  [phases]
    is the request's per-phase attribution [(phase, microseconds)],
    [allocs] the same attribution in bytes, and [alloc_b] the
    request's total allocated bytes — all aggregated per bucket. *)

type summary = {
  s_window_s : float;
  s_requests : int;
  s_observed : int; (* requests with a measured service latency *)
  s_shed : int;
  s_internal : int;
  s_p50_us : float;
  s_p95_us : float;
  s_p99_us : float;
  s_shed_pct : float;
  s_internal_pct : float;
  s_phase_us : (string * float) list; (* per-phase self-time, largest first *)
  s_alloc_b : float; (* total request allocation in the window, bytes *)
  s_alloc_phase_b : (string * float) list; (* per-phase allocation, largest first *)
}

val summary : t -> now:float -> summary
(** Merge the buckets still inside the window ending at [now]. *)

type objectives = {
  o_p99_ms : float option; (* window p99 service latency must stay below *)
  o_shed_pct : float option; (* window shed rate must stay below *)
}

val no_objectives : objectives

type breach = {
  br_metric : string; (* "p99_ms" | "shed_pct" *)
  br_value : float;
  br_objective : float;
}

val breaches : objectives -> summary -> breach list
(** Objectives violated by a summary; an empty window breaches nothing. *)

val pp_summary : Format.formatter -> summary -> unit
val summary_json : summary -> string
