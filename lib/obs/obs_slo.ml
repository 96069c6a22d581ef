(** Rolling SLO windows: time-sliced summaries of service latency, shed
    rate, and contained-escape ([internal]) rate, checked against
    configurable objectives.

    The telemetry histograms (PR 3) summarize a whole process lifetime;
    a service needs "the last minute".  The window here is a ring of
    fixed-width time buckets: observing a request lands it in the bucket
    of [now / bucket width], reusing slots ring-wise and resetting a
    slot whose epoch has passed — O(1) per observation, constant
    memory, and no timer thread (expiry happens lazily on the next
    observe/summary touching a stale slot).

    Latency inside each bucket is a {!Vhdl_telemetry.Telemetry}
    histogram (kept out of the registry), and a summary merges them, so
    a window that spans the whole run reports the very percentiles the
    process-lifetime histogram does — the chaos campaign checks that
    agreement end-to-end. *)

module Tm = Vhdl_telemetry.Telemetry

type bucket = {
  mutable b_epoch : int; (* absolute bucket index; -1 = never used *)
  mutable b_requests : int;
  mutable b_shed : int;
  mutable b_internal : int;
  mutable b_latency : Tm.histogram; (* service latency, us *)
  b_phase : (string, float ref) Hashtbl.t; (* per-phase self-time, us *)
  b_alloc : (string, float ref) Hashtbl.t; (* per-phase allocation, bytes *)
  mutable b_alloc_b : float; (* total request allocation, bytes *)
}

type t = {
  bucket_s : float;
  buckets : bucket array;
}

let window_s t = t.bucket_s *. float_of_int (Array.length t.buckets)

let latency_histogram () = Tm.unregistered_histogram "slo.latency_us"

(** [create ~window_s ~buckets ()] — a sliding window of [window_s]
    seconds (default 60) sliced into [buckets] slots (default 12, i.e.
    5-second granularity at the default width). *)
let create ?(window_s = 60.0) ?(buckets = 12) () =
  let buckets = max 1 buckets and window_s = Float.max window_s 1e-3 in
  {
    bucket_s = window_s /. float_of_int buckets;
    buckets =
      Array.init buckets (fun _ ->
          {
            b_epoch = -1;
            b_requests = 0;
            b_shed = 0;
            b_internal = 0;
            b_latency = latency_histogram ();
            b_phase = Hashtbl.create 8;
            b_alloc = Hashtbl.create 8;
            b_alloc_b = 0.0;
          });
  }

let reset_bucket b epoch =
  b.b_epoch <- epoch;
  b.b_requests <- 0;
  b.b_shed <- 0;
  b.b_internal <- 0;
  b.b_latency <- latency_histogram ();
  Hashtbl.reset b.b_phase;
  Hashtbl.reset b.b_alloc;
  b.b_alloc_b <- 0.0

let slot_for t ~now =
  let epoch = int_of_float (now /. t.bucket_s) in
  let b = t.buckets.(epoch mod Array.length t.buckets) in
  if b.b_epoch <> epoch then reset_bucket b epoch;
  b

(* add [v] to the running per-phase total of [name] *)
let accumulate tbl name v =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add tbl name (ref v)

(* the verbs the daemon answers itself: bookkeeping, not compile
   service, so their (sub-microsecond) latencies would only dilute the
   window's percentiles *)
let inline_verbs = [ "stats"; "slo"; "shutdown"; "invalid" ]

(** Record one request outcome.  [latency_us] is given for requests that
    ran (the same value the [serve.latency_us] telemetry histogram
    observes); sheds have no service latency.  [phases] is the request's
    per-phase attribution [(phase, microseconds)] and [allocs] the same
    attribution in bytes, [alloc_b] the request's total allocated bytes —
    all aggregated per bucket so the window can say where its time {e and}
    its memory went.  A request whose [verb] is one of {!inline_verbs}
    counts toward the request, shed and internal totals only. *)
let observe t ~now ?verb ?latency_us ?(phases = []) ?(allocs = []) ?(alloc_b = 0.0)
    ~shed ~internal () =
  let b = slot_for t ~now in
  b.b_requests <- b.b_requests + 1;
  if shed then b.b_shed <- b.b_shed + 1;
  if internal then b.b_internal <- b.b_internal + 1;
  if not (List.mem (Option.value verb ~default:"") inline_verbs) then begin
    List.iter (fun (name, us) -> accumulate b.b_phase name us) phases;
    List.iter (fun (name, bytes) -> accumulate b.b_alloc name bytes) allocs;
    b.b_alloc_b <- b.b_alloc_b +. alloc_b;
    Option.iter (Tm.observe b.b_latency) latency_us
  end

(* ------------------------------------------------------------------ *)
(* Summaries *)

type summary = {
  s_window_s : float;
  s_requests : int;
  s_observed : int; (* requests with a measured service latency *)
  s_shed : int;
  s_internal : int;
  s_p50_us : float;
  s_p95_us : float;
  s_p99_us : float;
  s_shed_pct : float; (* shed / requests, as a percentage *)
  s_internal_pct : float;
  s_phase_us : (string * float) list; (* per-phase self-time, largest first *)
  s_alloc_b : float; (* total request allocation in the window, bytes *)
  s_alloc_phase_b : (string * float) list; (* per-phase allocation, largest first *)
}

let largest_first tbl =
  List.sort
    (fun (_, a) (_, b) -> compare b a)
    (Hashtbl.fold (fun name r acc -> (name, !r) :: acc) tbl [])

(** Summarize the buckets still inside the window ending at [now]. *)
let summary t ~now : summary =
  let now_epoch = int_of_float (now /. t.bucket_s) in
  let n = Array.length t.buckets in
  let requests = ref 0 and shed = ref 0 and internal = ref 0 in
  let latency = latency_histogram () in
  let phase = Hashtbl.create 8 in
  let alloc = Hashtbl.create 8 in
  let alloc_b = ref 0.0 in
  Array.iter
    (fun b ->
      if b.b_epoch >= 0 && now_epoch - b.b_epoch < n then begin
        requests := !requests + b.b_requests;
        shed := !shed + b.b_shed;
        internal := !internal + b.b_internal;
        Tm.merge_histogram ~into:latency b.b_latency;
        Hashtbl.iter (fun name r -> accumulate phase name !r) b.b_phase;
        Hashtbl.iter (fun name r -> accumulate alloc name !r) b.b_alloc;
        alloc_b := !alloc_b +. b.b_alloc_b
      end)
    t.buckets;
  let pct k = if !requests = 0 then 0.0 else 100.0 *. float_of_int k /. float_of_int !requests in
  {
    s_window_s = window_s t;
    s_requests = !requests;
    s_observed = latency.Tm.h_count;
    s_shed = !shed;
    s_internal = !internal;
    s_p50_us = Tm.percentile latency 0.50;
    s_p95_us = Tm.percentile latency 0.95;
    s_p99_us = Tm.percentile latency 0.99;
    s_shed_pct = pct !shed;
    s_internal_pct = pct !internal;
    s_phase_us = largest_first phase;
    s_alloc_b = !alloc_b;
    s_alloc_phase_b = largest_first alloc;
  }

(* ------------------------------------------------------------------ *)
(* Objectives *)

type objectives = {
  o_p99_ms : float option; (* window p99 service latency must stay below *)
  o_shed_pct : float option; (* window shed rate must stay below *)
}

let no_objectives = { o_p99_ms = None; o_shed_pct = None }

type breach = {
  br_metric : string; (* "p99_ms" | "shed_pct" *)
  br_value : float;
  br_objective : float;
}

(** Objectives violated by [s].  Latency objectives need at least one
    observed request; rate objectives need at least one request in the
    window (an empty window breaches nothing). *)
let breaches (o : objectives) (s : summary) : breach list =
  List.concat
    [
      (match o.o_p99_ms with
      | Some limit when s.s_observed > 0 && s.s_p99_us /. 1000.0 > limit ->
        [ { br_metric = "p99_ms"; br_value = s.s_p99_us /. 1000.0; br_objective = limit } ]
      | _ -> []);
      (match o.o_shed_pct with
      | Some limit when s.s_requests > 0 && s.s_shed_pct > limit ->
        [ { br_metric = "shed_pct"; br_value = s.s_shed_pct; br_objective = limit } ]
      | _ -> []);
    ]

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp_summary fmt (s : summary) =
  Format.fprintf fmt
    "window %.0fs: %d requests (%d measured) — p50 %.0fus p95 %.0fus p99 %.0fus, \
     shed %.1f%%, internal %.1f%%, alloc %.0fkB"
    s.s_window_s s.s_requests s.s_observed s.s_p50_us s.s_p95_us s.s_p99_us
    s.s_shed_pct s.s_internal_pct (s.s_alloc_b /. 1024.0)

let summary_json (s : summary) =
  let j = Tm.Json.float in
  Tm.Json.obj
    [
      ("window_s", j s.s_window_s);
      ("requests", Tm.Json.int s.s_requests);
      ("observed", Tm.Json.int s.s_observed);
      ("shed", Tm.Json.int s.s_shed);
      ("internal", Tm.Json.int s.s_internal);
      ("p50_us", j s.s_p50_us);
      ("p95_us", j s.s_p95_us);
      ("p99_us", j s.s_p99_us);
      ("shed_pct", j s.s_shed_pct);
      ("internal_pct", j s.s_internal_pct);
      ( "phase_us",
        Tm.Json.obj (List.map (fun (name, us) -> (name, j us)) s.s_phase_us) );
      ("alloc_b", j s.s_alloc_b);
      ( "alloc_phase_b",
        Tm.Json.obj
          (List.map (fun (name, bts) -> (name, j bts)) s.s_alloc_phase_b) );
    ]
