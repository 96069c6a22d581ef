(** The compile-service daemon: a select-based event loop over a
    Unix-domain socket, one request and one response per connection.

    Framing failures are answered [bad-request]; admission sheds with
    [overload] (retry-after hint) or [draining]; processing runs on the
    warm {!Serve_worker} whose firewall and watchdog guarantee a
    structured response; SIGTERM/SIGINT drain gracefully.  Invariant:
    [serve.requests = serve.answered + serve.shed + serve.client_gone].

    Observability: every accepted connection gets a monotone request id
    (echoed as [rid=N] in the response header and attached to the
    request's trace span); the daemon narrates itself as typed
    {!Obs_event} events into the {!Obs_ring} flight recorder and an
    optional JSONL sink; rolling {!Obs_slo} windows are queryable via
    the [slo] verb and checked against objectives once a second; the
    flight recorder is dumped ({!Obs_log.dump}, one document schema) on
    firewall trips, watchdog fires, heap breaches, SIGUSR1 and slow
    requests.  The [stats] verb answers one JSON document; its text form
    is that document flattened to one [path value] line per scalar.
    Event-grammar invariant: every substantive response has exactly one
    [start] and one [finish] sharing its request id.

    Tail triage: every [finish] carries the request's per-phase
    attribution ([ph_*] fields summing to [service_us]); each request's
    spans are buffered (bounded by [d_span_cap]) whether or not global
    tracing is on, and a request slower than the adaptive threshold
    (the p99 objective, else 4 x window p50) produces a rid-named
    flight dump with reason [exemplar] that adds the phase breakdown,
    the threshold, the request's counter delta and its Chrome trace —
    rate-limited and retention-capped.

    Allocation attribution: every [finish] also carries per-phase
    allocated bytes ([al_*] fields summing to [alloc_b]), measured by
    {!Vhdl_telemetry.Telemetry.allocated_words_now} deltas on the
    worker; SLO windows fold them into bytes-per-window and a
    per-phase "allocated by" breakdown.  A heap-health watchdog samples
    live words into a ring each tick and, when the least-squares fit
    grows past [d_heap_growth_pct] over the window, emits one
    edge-triggered [heap_breach] event plus a flight dump, then re-arms
    on the next episode. *)

type config = {
  d_socket : string;
  d_queue_capacity : int;
  d_max_frame : int;
  d_idle_timeout_s : float; (* partial frame older than this is torn *)
  d_worker : Serve_worker.config;
  d_metrics_out : string option; (* telemetry JSON: periodic + at drain *)
  d_metrics_flush_ticks : int; (* flush every N ticks (0 = drain only) *)
  d_obs : Obs_log.config; (* event log + flight recorder *)
  d_slo_window_s : float; (* rolling-window width *)
  d_slo : Obs_slo.objectives; (* breach thresholds (may be empty) *)
  d_span_cap : int; (* per-request span buffer (0 = no exemplars) *)
  d_heap_growth_pct : float;
      (* heap-health watchdog: emit [heap_breach] + flight dump when the
         linear fit over the live-words ring grows past this percentage
         across the sampled window (0 = disabled) *)
  d_log : string -> unit;
}

val default_config : config

type t

val create : config -> (t, string) result
(** Open the event sink, bind and listen on [d_socket] (an existing
    socket file is replaced), and warm up the worker.  [Error] names the
    sink or socket that could not be opened; nothing is left bound. *)

val tick : ?timeout_s:float -> t -> unit
(** One event-loop turn: accept, read, reap idle partial frames, drain the
    admission queue, check SLO objectives, run a periodic metrics flush
    when due.  Exposed for the unit battery; {!serve} loops it. *)

val serve : t -> unit
(** Run until a drain completes (SIGTERM/SIGINT or a [shutdown] request).
    Installs drain and SIGUSR1 flight-dump handlers and ignores SIGPIPE
    for the duration; on exit the telemetry is flushed and the socket
    file removed. *)

val shutdown : t -> unit
(** Drain immediately: answer queued requests, shed reading connections,
    flush telemetry (atomic rename), close the event log, unlink the
    socket. *)
