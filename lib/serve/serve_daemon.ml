(** The compile-service daemon: a select-based event loop over a
    Unix-domain socket, one request and one response per connection.

    Robustness layers, outermost first:

    - {b framing}: per-connection bytes accumulate through the pure
      {!Serve_protocol.parse_frame}; bad magic, oversized declarations,
      and torn frames (EOF or idle timeout mid-frame) are answered
      [bad-request] and counted without disturbing the loop;
    - {b admission}: a complete frame must clear the bounded
      {!Serve_queue} — a full queue sheds with [overload] and an honest
      retry-after hint, a draining daemon sheds with [draining];
    - {b processing}: one queued request per loop tick runs on the
      {!Serve_worker}, with a fresh compiler over the warm tables, whose
      firewall and watchdog guarantee a structured response;
    - {b shutdown}: SIGTERM/SIGINT start a graceful drain — in-flight and
      already-queued requests are answered, new ones shed, telemetry
      flushed — and the socket file is removed.

    Observability (lib/obs), threaded through every layer above:

    - every accepted connection is assigned a monotone {b request id},
      echoed in the response header ([rid=N]), carried by every event
      about that request, and attached to the request's telemetry span —
      one number correlates the client's response, the log, and the
      trace;
    - the daemon narrates itself as {b typed events} (accept / admit /
      shed / start / finish / reject / drain / breach / dump / flush)
      into the always-on flight-recorder ring and, when configured, an
      append-only JSONL sink;
    - the {b flight recorder} is dumped to a timestamped file when the
      request firewall trips, when the watchdog breaks a wedged request,
      when the heap watchdog fires, on SIGUSR1, and (rate-limited) after
      a slow request — one writer, one document schema, crash forensics
      without always-on logging cost;
    - {b rolling SLO windows} summarize the last window of service
      latency (p50/p95/p99), shed rate and [internal] rate, are
      queryable live via the [slo] verb, and are checked each second
      against configured objectives (breaches are events);
    - the [stats] verb answers one JSON document; its text form is the
      same document flattened to one [path value] line per scalar.

    Accounting invariant, asserted by the chaos campaign: every complete
    or failed frame resolves to exactly one of [answered], [shed], or
    [client_gone], so [serve.requests = serve.answered + serve.shed +
    serve.client_gone] at all times.  Event-grammar invariant, asserted
    over the log: every substantive response has exactly one [start] and
    one [finish] sharing its request id. *)

module Tm = Vhdl_telemetry.Telemetry

let m_requests = Tm.counter "serve.requests"
let m_answered = Tm.counter "serve.answered"
let m_shed = Tm.counter "serve.shed"
let m_client_gone = Tm.counter "serve.client_gone"
let m_torn = Tm.counter "serve.torn_frames"
let m_oversized = Tm.counter "serve.oversized"
let m_bad_requests = Tm.counter "serve.bad_requests"
let m_connections = Tm.counter "serve.connections"
let m_breaches = Tm.counter "serve.slo_breaches"
let m_heap_breaches = Tm.counter "serve.heap_breaches"
let m_latency = Tm.histogram "serve.latency_us"
let g_queue_depth = Tm.gauge "serve.queue_depth"

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
  d_heap_growth_pct : float; (* heap watchdog threshold (0 = disabled) *)
  d_log : string -> unit;
}

let default_config =
  {
    d_socket = "vhdl-serve.sock";
    d_queue_capacity = 16;
    d_max_frame = Serve_protocol.default_max_frame;
    d_idle_timeout_s = 2.0;
    d_worker = Serve_worker.default_config;
    d_metrics_out = None;
    d_metrics_flush_ticks = 200;
    d_obs = Obs_log.default_config;
    d_slo_window_s = 60.0;
    d_slo = Obs_slo.no_objectives;
    d_span_cap = 512;
    d_heap_growth_pct = 0.0;
    d_log = ignore;
  }

(* one client connection, from accept to close *)
type conn = {
  fd : Unix.file_descr;
  rid : int; (* the request id, assigned at accept *)
  buf : Buffer.t;
  mutable last_read : float;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  worker : Serve_worker.t;
  queue : (conn * Serve_protocol.request * float) Serve_queue.t;
  obs : Obs_log.t;
  slo : Obs_slo.t;
  mutable next_rid : int;
  mutable ticks : int;
  mutable last_slo_check : float;
  mutable breached : string list; (* metrics currently in breach *)
  mutable last_request : (int * string * string * float) option;
      (* rid, verb, status, service seconds — for stats and dumps *)
  heap : (float * float) Obs_ring.ring; (* heap watchdog: (time, live words) *)
  mutable conns : conn list; (* still reading their request frame *)
  mutable draining : bool;
  mutable stop : bool; (* drain finished: leave the loop *)
}

let now = Vhdl_util.Unix_compat.now

(* absent a p99 objective, a request slower than [exemplar_k] window
   p50s earns an exemplar dump, once the window holds [exemplar_min_obs]
   measured requests *)
let exemplar_k = 4.0
let exemplar_min_obs = 8

(* ------------------------------------------------------------------ *)
(* Response delivery.  The write is blocking (responses are small and
   local); a peer that vanished mid-response surfaces as a write error
   (EPIPE/ECONNRESET — with SIGPIPE ignored) and is accounted
   [client_gone]. *)

type fate =
  | Answered
  | Shed_
  | Client_gone

let count_fate = function
  | Answered -> Tm.incr m_answered
  | Shed_ -> Tm.incr m_shed
  | Client_gone -> Tm.incr m_client_gone

let fate_name = function
  | Answered -> "answered"
  | Shed_ -> "shed"
  | Client_gone -> "client_gone"

let send_response conn (resp : Serve_protocol.response) : fate =
  let bytes = Serve_protocol.frame (Serve_protocol.encode_response resp) in
  match
    Unix.clear_nonblock conn.fd;
    Serve_client.send_all conn.fd bytes
  with
  | Ok () -> if Serve_protocol.is_shed resp.Serve_protocol.rs_status then Shed_ else Answered
  | Error _ | (exception Unix.Unix_error (Unix.EBADF, _, _)) -> Client_gone

let close_conn t conn =
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c -> c != conn) t.conns

(** The [start] event: response computation for [conn]'s request begins.
    Every substantive response is bracketed by exactly one of these and
    the [finish] that {!finish} emits. *)
let emit_start t conn ~verb ?queue_wait_us ?reason () =
  Obs_log.event t.obs ~rid:conn.rid
    ~fields:
      (List.concat
         [
           [ ("verb", Obs_event.S verb) ];
           (match queue_wait_us with
           | Some x -> [ ("queue_wait_us", Obs_event.F x) ]
           | None -> []);
           (match reason with
           | Some r -> [ ("reason", Obs_event.S r) ]
           | None -> []);
         ])
    Obs_event.Start

(** Resolve one request attempt: count it, stamp the request id into the
    response header, deliver, count and log the fate, feed the SLO
    window.  Admission rejections become [shed] events; everything else
    becomes the [finish] that pairs with the request's [start], stamped
    with its per-phase attribution ([ph_*] fields, microseconds).

    [verb] lets the SLO window keep daemon-verb answers (stats, slo,
    bad-request) out of its latency sample — the window summarizes
    compile service time, not bookkeeping — while their finish events
    still carry [service_us] and phases so the log-level phase-sum
    invariant holds for every finish. *)
let finish ?verb ?service_us ?(phases = []) ?(allocs = []) ?alloc_b t conn resp =
  Tm.incr m_requests;
  let resp = { resp with Serve_protocol.rs_request_id = Some conn.rid } in
  let fate = send_response conn resp in
  count_fate fate;
  let status = resp.Serve_protocol.rs_status in
  let shed = Serve_protocol.is_shed status in
  Obs_slo.observe t.slo ~now:(now ()) ?verb ?latency_us:service_us ~phases ~allocs
    ?alloc_b ~shed ~internal:(status = Serve_protocol.Internal) ();
  let base =
    [
      ( (if shed then "reason" else "status"),
        Obs_event.S (Serve_protocol.status_name status) );
      ("fate", Obs_event.S (fate_name fate));
    ]
  in
  if shed then
    Obs_log.event t.obs ~rid:conn.rid
      ~fields:
        (base
        @
        match resp.Serve_protocol.rs_retry_after_s with
        | Some s -> [ ("retry_after_s", Obs_event.F s) ]
        | None -> [])
      Obs_event.Shed
  else
    Obs_log.event t.obs ~rid:conn.rid
      ~fields:
        (List.concat
           [
             base;
             (match service_us with
             | Some x -> [ ("service_us", Obs_event.F x) ]
             | None -> []);
             Obs_attr.fields ~prefix:Obs_event.phase_prefix phases;
             (* the allocation attribution: al_* per phase plus the total
                the check_log invariant ties them to *)
             (match alloc_b with
             | Some total ->
               Obs_attr.fields ~prefix:Obs_event.alloc_prefix allocs
               @ [ ("alloc_b", Obs_event.F total) ]
             | None -> []);
             (if resp.Serve_protocol.rs_wedged then [ ("wedged", Obs_event.I 1) ]
              else []);
           ])
      Obs_event.Finish;
  close_conn t conn

(** Finish for requests the daemon answers inline (stats, slo, shutdown,
    bad frames): the whole service time is daemon bookkeeping, so the
    attribution is all ["other"], and the SLO window leaves it out. *)
let finish_inline ~t0 ~verb t conn resp =
  let svc = (now () -. t0) *. 1e6 in
  finish ~verb ~service_us:svc
    ~phases:[ ("other", svc) ]
    ~allocs:[ ("other", 0.0) ]
    ~alloc_b:0.0 t conn resp

(* ------------------------------------------------------------------ *)
(* Flight dumps *)

(** Dump the flight recorder, the live SLO summary and [fields] to a
    timestamped file named after the last serviced request — on firewall
    trips, watchdog fires, heap breaches, SIGUSR1, and slow requests
    (exemplars).  Quiet on exemplar rate-limit suppression; a failed
    write is logged, never fatal. *)
let dump t ~reason fields =
  let rid = Option.map (fun (r, _, _, _) -> r) t.last_request in
  let slo = Obs_slo.summary_json (Obs_slo.summary t.slo ~now:(now ())) in
  match Obs_log.dump ~reason ?rid ~fields:(("slo", slo) :: fields) t.obs with
  | Ok None -> ()
  | Ok (Some path) -> t.cfg.d_log (Printf.sprintf "flight dump %s (%s)" path reason)
  | Error msg -> t.cfg.d_log (Printf.sprintf "%s dump failed: %s" reason msg)

(* ------------------------------------------------------------------ *)
(* Frame and request intake *)

(* the request ledger, in the order the stats document lists it *)
let ledger =
  [
    "serve.requests"; "serve.answered"; "serve.shed"; "serve.client_gone";
    "serve.torn_frames"; "serve.oversized"; "serve.bad_requests";
    "serve.faults_contained"; "serve.timeouts"; "serve.wedges";
    "serve.connections"; "serve.events";
    "serve.flight_dumps"; "serve.slo_breaches"; "serve.heap_breaches";
  ]

(** The stats document `vhdlc request --stats --json` and `vhdlc top`
    read: ledger, queue, worker, latency percentiles, heap, the last
    serviced request, and the live SLO window. *)
let stats_json t =
  let module J = Tm.Json in
  let st = Gc.quick_stat () in
  J.obj
    [
      ("uptime_s", J.float (now ()));
      ("draining", (if t.draining then "true" else "false"));
      ( "ledger",
        J.obj (List.map (fun name -> (name, J.int (Tm.counter_value name))) ledger) );
      ( "queue",
        J.obj
          [
            ("depth", J.int (Serve_queue.length t.queue));
            ("capacity", J.int (Serve_queue.capacity t.queue));
            ("retry_after_s", J.float (Serve_queue.retry_after_s t.queue));
          ] );
      ("worker", J.obj [ ("served", J.int (Serve_worker.served t.worker)) ]);
      ( "latency_us",
        J.obj
          [
            ("p50", J.float (Tm.percentile m_latency 0.50));
            ("p90", J.float (Tm.percentile m_latency 0.90));
            ("p99", J.float (Tm.percentile m_latency 0.99));
          ] );
      ( "heap",
        J.obj
          [
            ("live_words", J.int st.Gc.heap_words);
            ("top_words", J.int st.Gc.top_heap_words);
            ("allocated_words", J.float (Tm.allocated_words_now ()));
          ] );
      ( "last_request",
        match t.last_request with
        | None -> "null"
        | Some (rid, verb, status, service_s) ->
          J.obj
            [
              ("rid", J.int rid);
              ("verb", J.str verb);
              ("status", J.str status);
              ("service_us", J.float (service_s *. 1e6));
            ] );
      ("slo", Obs_slo.summary_json (Obs_slo.summary t.slo ~now:(now ())));
    ]

(** The text form of a stats document: one [path value] line per scalar
    leaf, the path joining the object keys with dots. *)
let stats_text doc =
  let module J = Tm.Json in
  let b = Buffer.create 1024 in
  let rec leaves path (j : J.t) =
    match j with
    | J.Obj kvs ->
      List.iter (fun (k, v) -> leaves (if path = "" then k else path ^ "." ^ k) v) kvs
    | J.Num x -> Printf.bprintf b "%s %s\n" path (J.float x)
    | J.Str s -> Printf.bprintf b "%s %s\n" path s
    | J.Bool v -> Printf.bprintf b "%s %b\n" path v
    | J.Null | J.Arr _ -> ()
  in
  (match J.parse doc with
  | Ok j -> leaves "" j
  | Error msg -> Printf.bprintf b "unreadable stats document: %s\n" msg);
  Buffer.contents b

let pp_objective b name limit value breached =
  match limit with
  | None -> ()
  | Some l ->
    Printf.bprintf b "objective %s <= %.3f: %.3f (%s)\n" name l value
      (if breached then "BREACHED" else "ok")

let slo_body t =
  let s = Obs_slo.summary t.slo ~now:(now ()) in
  let b = Buffer.create 256 in
  Printf.bprintf b "%s\n" (Format.asprintf "%a" Obs_slo.pp_summary s);
  (match Obs_attr.attribution s.Obs_slo.s_phase_us with
  | "" -> ()
  | att -> Printf.bprintf b "driven by: %s\n" att);
  (match Obs_attr.attribution s.Obs_slo.s_alloc_phase_b with
  | "" -> ()
  | att -> Printf.bprintf b "allocated by: %s\n" att);
  let breached metric = List.mem metric t.breached in
  pp_objective b "p99_ms" t.cfg.d_slo.Obs_slo.o_p99_ms
    (s.Obs_slo.s_p99_us /. 1000.0) (breached "p99_ms");
  pp_objective b "shed_pct" t.cfg.d_slo.Obs_slo.o_shed_pct s.Obs_slo.s_shed_pct
    (breached "shed_pct");
  Printf.bprintf b "breaches_total %d\n" (Tm.counter_value "serve.slo_breaches");
  Buffer.contents b

let slo_json t =
  let module J = Tm.Json in
  let opt = function None -> "null" | Some x -> J.float x in
  J.obj
    [
      ("slo", Obs_slo.summary_json (Obs_slo.summary t.slo ~now:(now ())));
      ( "objectives",
        J.obj
          [
            ("p99_ms", opt t.cfg.d_slo.Obs_slo.o_p99_ms);
            ("shed_pct", opt t.cfg.d_slo.Obs_slo.o_shed_pct);
          ] );
      ("breached", J.arr (List.map J.str t.breached));
      ("breaches_total", J.int (Tm.counter_value "serve.slo_breaches"));
    ]

(** Flip into draining exactly once, with the event that records why. *)
let begin_drain t ~reason =
  if not t.draining then begin
    t.draining <- true;
    Obs_log.event t.obs
      ~fields:
        [ ("phase", Obs_event.S "begin"); ("reason", Obs_event.S reason) ]
      Obs_event.Drain;
    t.cfg.d_log (reason ^ "; draining")
  end

(** A complete frame arrived on [conn]: decode, dispatch daemon-level
    verbs, or pass admission. *)
let intake t conn payload =
  let t0 = now () in
  match Serve_protocol.decode_request payload with
  | Error msg ->
    Tm.incr m_bad_requests;
    emit_start t conn ~verb:"invalid" ~reason:msg ();
    finish_inline ~t0 ~verb:"invalid" t conn
      (Serve_protocol.response Serve_protocol.Bad_request ~body:(msg ^ "\n"))
  | Ok rq -> (
    match rq.Serve_protocol.rq_verb with
    | Serve_protocol.Stats ->
      emit_start t conn ~verb:"stats" ();
      let doc = stats_json t in
      let body = if rq.Serve_protocol.rq_json then doc ^ "\n" else stats_text doc in
      finish_inline ~t0 ~verb:"stats" t conn (Serve_protocol.response Serve_protocol.Ok_ ~body)
    | Serve_protocol.Slo ->
      emit_start t conn ~verb:"slo" ();
      let body =
        if rq.Serve_protocol.rq_json then slo_json t ^ "\n" else slo_body t
      in
      finish_inline ~t0 ~verb:"slo" t conn (Serve_protocol.response Serve_protocol.Ok_ ~body)
    | Serve_protocol.Shutdown ->
      emit_start t conn ~verb:"shutdown" ();
      begin_drain t ~reason:"shutdown requested";
      finish_inline ~t0 ~verb:"shutdown" t conn
        (Serve_protocol.response Serve_protocol.Ok_ ~body:"draining\n")
    | _ when t.draining ->
      finish t conn (Serve_protocol.response Serve_protocol.Draining ~body:"daemon is draining\n")
    | _ -> (
      match Serve_queue.admit t.queue (conn, rq, now ()) with
      | Serve_queue.Admitted ->
        Tm.set g_queue_depth (float_of_int (Serve_queue.length t.queue));
        Obs_log.event t.obs ~rid:conn.rid
          ~fields:[ ("queue_depth", Obs_event.I (Serve_queue.length t.queue)) ]
          Obs_event.Admit;
        (* admitted: the conn leaves the reading list; it is answered when
           its request is popped and processed *)
        t.conns <- List.filter (fun c -> c != conn) t.conns
      | Serve_queue.Shed { retry_after_s } ->
        finish t conn
          (Serve_protocol.response Serve_protocol.Overload ~retry_after_s
             ~body:
               (Printf.sprintf "queue full (%d deep); retry after %.3fs\n"
                  (Serve_queue.capacity t.queue) retry_after_s))))

let frame_failure t conn err =
  let t0 = now () in
  (match err with
  | Serve_protocol.Torn _ -> Tm.incr m_torn
  | Serve_protocol.Oversized _ -> Tm.incr m_oversized
  | Serve_protocol.Bad_magic -> Tm.incr m_bad_requests);
  emit_start t conn ~verb:"invalid"
    ~reason:(Serve_protocol.frame_error_to_string err) ();
  finish_inline ~t0 ~verb:"invalid" t conn
    (Serve_protocol.response Serve_protocol.Bad_request
       ~body:(Serve_protocol.frame_error_to_string err ^ "\n"))

(** Drain readable bytes from [conn]; act once a frame completes or the
    framing fails.  EOF with a partial frame is a torn frame from a
    vanished client. *)
let service_readable t conn =
  let chunk = Bytes.create 4096 in
  let rec read_avail () =
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 -> `Eof
    | n ->
      Buffer.add_subbytes conn.buf chunk 0 n;
      conn.last_read <- now ();
      read_avail ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `More
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) -> `Eof
  in
  let eof = read_avail () = `Eof in
  match Serve_protocol.parse_frame ~max_frame:t.cfg.d_max_frame (Buffer.contents conn.buf) with
  | `Frame (payload, _) -> intake t conn payload
  | `Error err -> frame_failure t conn err
  | `Incomplete _ when eof ->
    if Buffer.length conn.buf = 0 then begin
      (* connected and left without a byte: not a request *)
      Obs_log.event t.obs ~rid:conn.rid
        ~fields:[ ("reason", Obs_event.S "closed without a request") ]
        Obs_event.Reject;
      close_conn t conn
    end
    else begin
      Tm.incr m_torn;
      Tm.incr m_requests;
      Tm.incr m_client_gone;
      Obs_log.event t.obs ~rid:conn.rid
        ~fields:
          [
            ("reason", Obs_event.S "torn frame: client vanished mid-frame");
            ("fate", Obs_event.S "client_gone");
          ]
        Obs_event.Reject;
      close_conn t conn
    end
  | `Incomplete _ -> ()

(** Partial frames whose client stopped sending: torn after the idle
    timeout, so a stalled writer cannot pin a connection forever. *)
let reap_idle t =
  let deadline = now () -. t.cfg.d_idle_timeout_s in
  List.iter
    (fun conn ->
      if conn.last_read < deadline && Buffer.length conn.buf > 0 then
        frame_failure t conn
          (Serve_protocol.Torn
             (Printf.sprintf "idle %.1fs mid-frame" t.cfg.d_idle_timeout_s))
      else if conn.last_read < deadline then close_conn t conn)
    t.conns

(* ------------------------------------------------------------------ *)
(* Processing *)

(** Pop and answer one admitted request.  The compile itself is blocking —
    the daemon is single-threaded by design; boundedness comes from the
    per-request deadline and the watchdog, not concurrency.  (Frames that
    arrive during a long compile sit in kernel socket buffers and are read
    on the next tick; the admission queue fills — and sheds — then.) *)
let process_one t =
  match Serve_queue.pop t.queue with
  | None -> false
  | Some (conn, rq, admitted_at) ->
    Tm.set g_queue_depth (float_of_int (Serve_queue.length t.queue));
    let verb = Serve_protocol.verb_name rq.Serve_protocol.rq_verb in
    let started = now () in
    emit_start t conn ~verb ~queue_wait_us:((started -. admitted_at) *. 1e6) ();
    let snap = Tm.snapshot () in
    let run () =
      Tm.with_span ~cat:"serve"
        ~args:[ ("rid", string_of_int conn.rid); ("verb", verb) ]
        "serve.request"
        (fun () -> Serve_worker.handle t.worker rq)
    in
    (* the request's spans are buffered (bounded) whether or not global
       tracing is on, so a slow request can always produce an exemplar *)
    let resp, req_spans, spans_dropped =
      if t.cfg.d_span_cap > 0 then
        Tm.with_request_spans ~cap:t.cfg.d_span_cap run
      else (run (), [], 0)
    in
    let elapsed = now () -. admitted_at in
    Serve_queue.note_service_time t.queue elapsed;
    Tm.observe m_latency (elapsed *. 1e6);
    let counters = Tm.delta snap in
    Obs_log.note_request_delta t.obs ~rid:conn.rid counters;
    let status = Serve_protocol.status_name resp.Serve_protocol.rs_status in
    t.last_request <- Some (conn.rid, verb, status, elapsed);
    (* the post-mortem moments: a tripped firewall or a fired watchdog
       leaves its evidence on disk, named after the offending request *)
    if resp.Serve_protocol.rs_wedged then dump t ~reason:"watchdog" []
    else if resp.Serve_protocol.rs_status = Serve_protocol.Internal then
      dump t ~reason:"firewall" [];
    let service_us = elapsed *. 1e6 in
    let phases =
      Obs_attr.with_other ~total:service_us
        (List.map
           (fun (name, s) -> (name, s *. 1e6))
           (Serve_worker.last_phases t.worker))
    in
    (* the slow bar is set by the window as it was BEFORE this request
       is observed — a request cannot raise its own threshold *)
    let threshold_us =
      if t.cfg.d_span_cap > 0 then
        Obs_attr.exemplar_threshold_us ~objectives:t.cfg.d_slo
          ~summary:(Obs_slo.summary t.slo ~now:(now ()))
          ~k:exemplar_k ~min_observed:exemplar_min_obs
      else None
    in
    let bpw = float_of_int Tm.bytes_per_word in
    let alloc_b = Serve_worker.last_alloc_w t.worker *. bpw in
    let allocs =
      Obs_attr.with_other ~total:alloc_b
        (List.map
           (fun (name, w) -> (name, w *. bpw))
           (Serve_worker.last_allocs t.worker))
    in
    finish ~verb ~service_us ~phases ~allocs ~alloc_b t conn resp;
    (* a slow request leaves an exemplar: its span tree as a Chrome
       trace, its phase breakdown, and the counters it moved *)
    (match threshold_us with
    | Some th when service_us > th ->
      let module J = Tm.Json in
      dump t ~reason:"exemplar"
        [
          ("service_us", J.float service_us);
          ("threshold_us", J.float th);
          ("phases_us", J.obj (List.map (fun (k, v) -> (k, J.float v)) phases));
          ("counters", J.obj (List.map (fun (k, v) -> (k, J.int v)) counters));
          ("spans_dropped", J.int spans_dropped);
          ("trace", Tm.to_chrome_trace ~process_name:"vhdlc-serve" ~spans:req_spans ());
        ]
    | Some _ | None -> ());
    true

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let signal_drain = ref false
let signal_dump = ref false

let create (cfg : config) =
  (* every write to a peer that hung up must surface as EPIPE for the
     fate accounting, never as a fatal signal — also covers callers that
     drive [tick] directly instead of going through [serve] *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* the event sink opens before the bind, so a bad sink path leaves no
     socket file behind *)
  match Obs_log.create cfg.d_obs with
  | exception Sys_error msg -> Error msg
  | obs -> (
    (try Unix.unlink cfg.d_socket with Unix.Unix_error _ -> ());
    let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.bind listen_fd (Unix.ADDR_UNIX cfg.d_socket);
      Unix.listen listen_fd 64;
      Unix.set_nonblock listen_fd
    with
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close listen_fd;
      (try Unix.unlink cfg.d_socket with Unix.Unix_error _ -> ());
      Obs_log.close obs;
      Error (Printf.sprintf "cannot listen on %s: %s" cfg.d_socket (Unix.error_message e))
    | () ->
      Ok
        {
          cfg;
          listen_fd;
          worker = Serve_worker.create cfg.d_worker;
          queue = Serve_queue.create ~capacity:cfg.d_queue_capacity;
          obs;
          slo = Obs_slo.create ~window_s:cfg.d_slo_window_s ();
          next_rid = 0;
          ticks = 0;
          last_slo_check = now ();
          breached = [];
          last_request = None;
          heap = Obs_ring.ring_create 64;
          conns = [];
          draining = false;
          stop = false;
        })

let accept_ready t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
      Unix.set_nonblock fd;
      Tm.incr m_connections;
      t.next_rid <- t.next_rid + 1;
      let c = { fd; rid = t.next_rid; buf = Buffer.create 256; last_read = now () } in
      Obs_log.event t.obs ~rid:c.rid Obs_event.Accept;
      t.conns <- c :: t.conns;
      loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  loop ()

(** Write the telemetry JSON via a temp file + atomic rename, so a
    SIGKILL mid-write can never leave a half-written metrics file — a
    reader sees the previous interval or this one, nothing in between. *)
let flush_metrics ?(event = true) t =
  match t.cfg.d_metrics_out with
  | None -> ()
  | Some path ->
    let tmp = path ^ ".tmp" in
    (try
       Vhdl_util.Unix_compat.write_file tmp (Tm.metrics_json ());
       Unix.rename tmp path;
       if event then
         Obs_log.event t.obs ~fields:[ ("path", Obs_event.S path) ] Obs_event.Flush
     with Sys_error msg | Unix.Unix_error (_, msg, _) ->
       t.cfg.d_log (Printf.sprintf "metrics flush failed: %s" msg))

(** Once a second: summarize the window, compare against the objectives,
    and log transitions into breach (edge-triggered, one event per
    metric per excursion — a sustained breach is one event, not a
    torrent). *)
let check_slo t =
  let ts = now () in
  if ts -. t.last_slo_check >= 1.0 then begin
    t.last_slo_check <- ts;
    let s = Obs_slo.summary t.slo ~now:ts in
    let brs = Obs_slo.breaches t.cfg.d_slo s in
    let attribution = Obs_attr.attribution s.Obs_slo.s_phase_us in
    List.iter
      (fun (b : Obs_slo.breach) ->
        if not (List.mem b.Obs_slo.br_metric t.breached) then begin
          Tm.incr m_breaches;
          Obs_log.event t.obs
            ~fields:
              (List.concat
                 [
                   [
                     ("metric", Obs_event.S b.Obs_slo.br_metric);
                     ("value", Obs_event.F b.Obs_slo.br_value);
                     ("objective", Obs_event.F b.Obs_slo.br_objective);
                     ("window_requests", Obs_event.I s.Obs_slo.s_requests);
                   ];
                   (if attribution = "" then []
                    else [ ("attribution", Obs_event.S attribution) ]);
                 ])
            Obs_event.Breach;
          t.cfg.d_log
            (Printf.sprintf "SLO breach: %s %.3f exceeds %.3f%s"
               b.Obs_slo.br_metric b.Obs_slo.br_value b.Obs_slo.br_objective
               (if attribution = "" then ""
                else " (driven by: " ^ attribution ^ ")"))
        end)
      brs;
    t.breached <- List.map (fun (b : Obs_slo.breach) -> b.Obs_slo.br_metric) brs
  end

(** Heap-health watchdog, when armed: push one (time, live words) sample
    into the ring per tick and, once the ring holds enough history,
    least-squares fit live words against time.  When the fitted growth
    across the sampled window exceeds [d_heap_growth_pct] percent, emit
    one [heap_breach] event, dump the flight recorder, and clear the
    ring — the edge trigger: a heap that leaked and then plateaus fires
    exactly once, and re-arming requires fresh post-breach history. *)
let heap_watch t =
  if t.cfg.d_heap_growth_pct > 0.0 then begin
    let live_w = float_of_int (Gc.quick_stat ()).Gc.heap_words in
    Obs_ring.ring_push t.heap (now (), live_w);
    let samples = Obs_ring.ring_to_list t.heap in
    let n = List.length samples in
    let t_min = List.fold_left (fun a (ts, _) -> Float.min a ts) infinity samples in
    let span = List.fold_left (fun a (ts, _) -> Float.max a ts) neg_infinity samples -. t_min in
    let sx, sy, sxx, sxy =
      List.fold_left
        (fun (sx, sy, sxx, sxy) (ts, y) ->
          let x = ts -. t_min in
          (sx +. x, sy +. y, sxx +. (x *. x), sxy +. (x *. y)))
        (0.0, 0.0, 0.0, 0.0) samples
    in
    let fn = float_of_int n in
    let denom = (fn *. sxx) -. (sx *. sx) in
    if n >= 16 && denom > 0.0 then begin
      let slope = ((fn *. sxy) -. (sx *. sy)) /. denom in
      let intercept = (sy -. (slope *. sx)) /. fn in
      let growth_pct = 100.0 *. slope *. span /. Float.max intercept 1.0 in
      if growth_pct > t.cfg.d_heap_growth_pct then begin
        Tm.incr m_heap_breaches;
        Obs_log.event t.obs
          ~fields:
            [
              ("live_words", Obs_event.F live_w);
              ("growth_pct", Obs_event.F growth_pct);
              ("window_s", Obs_event.F span);
              ("objective", Obs_event.F t.cfg.d_heap_growth_pct);
            ]
          Obs_event.Heap_breach;
        t.cfg.d_log
          (Printf.sprintf
             "heap breach: live words grew %.1f%% over %.1fs (objective %.1f%%)"
             growth_pct span t.cfg.d_heap_growth_pct);
        dump t ~reason:"heap" [];
        (* re-arm: drop the pre-breach history so the plateau that
           follows a one-time step does not re-fire *)
        Obs_ring.ring_clear t.heap
      end
    end
  end

(** Graceful drain: answer everything already admitted, shed the rest,
    flush telemetry, remove the socket. *)
let shutdown t =
  t.cfg.d_log "draining: answering queued requests";
  while process_one t do () done;
  List.iter
    (fun conn ->
      finish t conn
        (Serve_protocol.response Serve_protocol.Draining ~body:"daemon is draining\n"))
    t.conns;
  flush_metrics ~event:false t;
  Obs_log.event t.obs
    ~fields:[ ("phase", Obs_event.S "stopped") ]
    Obs_event.Drain;
  Obs_log.close t.obs;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.cfg.d_socket with Unix.Unix_error _ -> ());
  t.cfg.d_log "stopped"

(** One event-loop tick: accept, read, reap idle partials, process the
    queued requests, keep the periodic duties (SLO check, metrics
    flush).  Exposed for the unit battery; {!serve} loops it. *)
let tick ?(timeout_s = 0.05) t =
  if !signal_drain then begin
    signal_drain := false;
    if t.draining then t.stop <- true else begin_drain t ~reason:"signal received"
  end;
  if !signal_dump then begin
    signal_dump := false;
    dump t ~reason:"sigusr1" []
  end;
  t.ticks <- t.ticks + 1;
  let read_fds = t.listen_fd :: List.map (fun c -> c.fd) t.conns in
  (match Unix.select read_fds [] [] timeout_s with
  | ready, _, _ ->
    if List.mem t.listen_fd ready then accept_ready t;
    (* oldest connection first, so same-tick admission is FIFO-fair *)
    List.iter
      (fun conn -> if List.mem conn.fd ready then service_readable t conn)
      (List.rev (List.filter (fun c -> List.mem c.fd ready) t.conns))
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  reap_idle t;
  while process_one t do () done;
  check_slo t;
  heap_watch t;
  if t.cfg.d_metrics_flush_ticks > 0 && t.ticks mod t.cfg.d_metrics_flush_ticks = 0
  then flush_metrics t;
  if t.draining && Serve_queue.length t.queue = 0 then t.stop <- true

(** Run the daemon until a drain completes.  Installs SIGTERM/SIGINT
    drain handlers and a SIGUSR1 flight-dump handler, and ignores
    SIGPIPE for the duration. *)
let serve t =
  let drain_handler = Sys.Signal_handle (fun _ -> signal_drain := true) in
  let dump_handler = Sys.Signal_handle (fun _ -> signal_dump := true) in
  let old_term = Sys.signal Sys.sigterm drain_handler in
  let old_int = Sys.signal Sys.sigint drain_handler in
  let old_usr1 = Sys.signal Sys.sigusr1 dump_handler in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigusr1 old_usr1;
      Sys.set_signal Sys.sigpipe old_pipe)
    (fun () ->
      t.cfg.d_log (Printf.sprintf "listening on %s" t.cfg.d_socket);
      while not t.stop do
        tick t
      done;
      shutdown t)
