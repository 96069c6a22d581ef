(** Offline analytics over a serve event log — the engine behind
    [vhdlc analyze EVENTS.jsonl].

    The summary percentiles deliberately run through {!Obs_slo} itself:
    the finish/shed events are replayed into a window wide enough to
    hold the whole log, so [analyze] reports the {e same} bucketized
    p50/p95/p99 a live daemon's window would — an operator can diff the
    offline number against the [slo] verb's live one without chasing
    estimator skew (exact sample percentiles vs power-of-two buckets
    can legitimately disagree by up to 2x at bucket edges).  The chaos
    campaign asserts this agreement end to end.

    Everything else — the phase-attribution tables, the tail breakdown,
    the top-K slowest requests, the timeline slices — is plain
    aggregation over the typed events.  Comparison between two runs
    ({!against}) reuses the perf library's noise-aware diff so a real
    phase regression is flagged while scheduler jitter is not. *)

module Perf = Vhdl_perf.Perf
module Json = Vhdl_telemetry.Telemetry.Json

(* one finished request, as reassembled from its start/finish events *)
type request = {
  rq_rid : int;
  rq_ts : float;
  rq_verb : string;
  rq_status : string;
  rq_service_us : float option;
  rq_phases_us : (string * float) list;
  rq_allocs_b : (string * float) list;
  rq_alloc_b : float option;
}

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
  a_recycles : int;
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

(* one request's observable outcome: when it resolved, and how to
   replay it into an Obs_slo window *)
type outcome = float * (Obs_slo.t -> unit)

let count_into tbl key =
  Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let sorted_counts tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) ->
         if a <> b then compare b a else compare ka kb)

let sum_phases (requests : request list) =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      List.iter
        (fun (name, us) ->
          Hashtbl.replace tbl name
            (us +. Option.value (Hashtbl.find_opt tbl name) ~default:0.0))
        r.rq_phases_us)
    requests;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* replay outcomes into a fresh window wide enough to hold them all, so
   the percentiles are the daemon's own bucketized estimator *)
let replay_window (outcomes : outcome list) =
  let first, last =
    List.fold_left
      (fun (lo, hi) (ts, _) -> (Float.min lo ts, Float.max hi ts))
      (infinity, neg_infinity) outcomes
  in
  let first = if first = infinity then 0.0 else first in
  let last = if last = neg_infinity then 0.0 else last in
  let span_s = Float.max 0.0 (last -. first) in
  let slo = Obs_slo.create ~window_s:(Float.max 1.0 ((span_s +. 1.0) *. 2.0)) () in
  List.iter (fun (_, replay) -> replay slo) outcomes;
  Obs_slo.summary slo ~now:last

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let analyze ?(window_s = 60.0) ?(top_k = 5) (events : Obs_event.t list) : report =
  let first_ts = match events with [] -> 0.0 | e :: _ -> e.Obs_event.e_ts in
  let last_ts =
    List.fold_left (fun acc e -> Float.max acc e.Obs_event.e_ts) first_ts events
  in
  (* rid -> verb, learned from start events (finish events carry status,
     not verb — the pair is the request) *)
  let verbs = Hashtbl.create 64 in
  List.iter
    (fun e ->
      match (e.Obs_event.e_kind, e.Obs_event.e_rid) with
      | Obs_event.Start, Some rid -> (
        match Obs_event.field_str e "verb" with
        | Some v -> Hashtbl.replace verbs rid v
        | None -> ())
      | _ -> ())
    events;
  let statuses = Hashtbl.create 8 and shed_reasons = Hashtbl.create 8 in
  let finishes = ref [] in
  let shed_outcomes = ref [] in
  let rejects = ref 0 and recycles = ref 0 and breaches = ref 0 and dumps = ref 0 in
  let heap_breaches = ref 0 in
  List.iter
    (fun e ->
      match e.Obs_event.e_kind with
      | Obs_event.Finish ->
        let status = Option.value (Obs_event.field_str e "status") ~default:"?" in
        count_into statuses status;
        let rid = Option.value e.Obs_event.e_rid ~default:(-1) in
        finishes :=
          {
            rq_rid = rid;
            rq_ts = e.Obs_event.e_ts;
            rq_verb = Option.value (Hashtbl.find_opt verbs rid) ~default:"?";
            rq_status = status;
            rq_service_us = Obs_event.field_num e "service_us";
            rq_phases_us = Obs_event.phase_fields e;
            rq_allocs_b = Obs_event.alloc_fields e;
            rq_alloc_b = Obs_event.field_num e "alloc_b";
          }
          :: !finishes
      | Obs_event.Shed ->
        count_into shed_reasons
          (Option.value (Obs_event.field_str e "reason") ~default:"?");
        let ts = e.Obs_event.e_ts in
        shed_outcomes :=
          (ts, fun slo -> Obs_slo.observe slo ~now:ts ~shed:true ~internal:false ())
          :: !shed_outcomes
      | Obs_event.Reject -> incr rejects
      | Obs_event.Recycle -> incr recycles
      | Obs_event.Breach -> incr breaches
      | Obs_event.Heap_breach -> incr heap_breaches
      | Obs_event.Dump -> incr dumps
      | _ -> ())
    events;
  let finishes = List.rev !finishes in
  (* replayed with their verbs, so the window leaves the daemon's inline
     answers out of its sample exactly as the live one did *)
  let outcomes : outcome list =
    List.map
      (fun r ->
        ( r.rq_ts,
          fun slo ->
            Obs_slo.observe slo ~now:r.rq_ts ~verb:r.rq_verb
              ?latency_us:r.rq_service_us ~phases:r.rq_phases_us
              ~allocs:r.rq_allocs_b ?alloc_b:r.rq_alloc_b ~shed:false
              ~internal:(r.rq_status = "internal") () ))
      finishes
    @ List.rev !shed_outcomes
  in
  let a_summary = replay_window outcomes in
  let measured =
    List.filter (fun r -> r.rq_service_us <> None) finishes
    |> List.sort (fun a b ->
           compare
             (Option.value b.rq_service_us ~default:0.0)
             (Option.value a.rq_service_us ~default:0.0))
  in
  let a_tail_phase_us =
    match measured with
    | [] -> []
    | _ -> sum_phases (take (max 1 ((List.length measured + 9) / 10)) measured)
  in
  let a_slowest =
    List.map
      (fun r ->
        {
          sl_rid = r.rq_rid;
          sl_verb = r.rq_verb;
          sl_status = r.rq_status;
          sl_service_us = Option.value r.rq_service_us ~default:0.0;
          sl_phases_us = r.rq_phases_us;
        })
      (take top_k measured)
  in
  (* timeline: fixed [window_s] slices from the first event, each
     summarized by the same replay estimator *)
  let window_s = Float.max 1e-3 window_s in
  let slice_tbl = Hashtbl.create 8 in
  List.iter
    (fun ((ts, _) as o) ->
      let i = int_of_float ((ts -. first_ts) /. window_s) in
      Hashtbl.replace slice_tbl i
        (o :: Option.value (Hashtbl.find_opt slice_tbl i) ~default:[]))
    outcomes;
  let a_slices =
    Hashtbl.fold (fun i os acc -> (i, os) :: acc) slice_tbl []
    |> List.sort compare
    |> List.map (fun (i, os) ->
           {
             c_start_s = float_of_int i *. window_s;
             c_summary = replay_window os;
           })
  in
  {
    a_events = List.length events;
    a_span_s = Float.max 0.0 (last_ts -. first_ts);
    a_finishes = List.length finishes;
    a_sheds = List.length !shed_outcomes;
    a_rejects = !rejects;
    a_recycles = !recycles;
    a_breaches = !breaches;
    a_heap_breaches = !heap_breaches;
    a_dumps = !dumps;
    a_statuses = sorted_counts statuses;
    a_shed_reasons = sorted_counts shed_reasons;
    a_summary;
    a_tail_phase_us;
    a_slowest;
    a_slices;
  }

(* ------------------------------------------------------------------ *)
(* Comparison: two runs' logs through the perf library's noise gate *)

(** Named sample series of a log, in seconds: ["service"] is every
    measured finish latency; each phase contributes its per-request
    self-time series under its short name.  What {!against} diffs. *)
let series_of (events : Obs_event.t list) : (string * float array) list =
  let service = ref [] in
  let phase_tbl : (string, float list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if e.Obs_event.e_kind = Obs_event.Finish then begin
        (match Obs_event.field_num e "service_us" with
        | Some us -> service := (us *. 1e-6) :: !service
        | None -> ());
        List.iter
          (fun (name, us) ->
            match Hashtbl.find_opt phase_tbl name with
            | Some r -> r := (us *. 1e-6) :: !r
            | None -> Hashtbl.add phase_tbl name (ref [ us *. 1e-6 ]))
          (Obs_event.phase_fields e)
      end)
    events;
  ("service", Array.of_list (List.rev !service))
  :: (Hashtbl.fold (fun name r acc -> (name, Array.of_list (List.rev !r)) :: acc)
        phase_tbl []
     |> List.sort compare)

(** Diff two logs with the bench gate's significance rule: a series
    regresses only when its median ratio clears the threshold {e and}
    the bootstrap CIs are disjoint. *)
let against ?threshold ?min_samples ~(base : Obs_event.t list)
    ~(cur : Obs_event.t list) () : Perf.Diff.row list =
  Perf.Diff.compare_series ?threshold ?min_samples ~base:(series_of base)
    ~cur:(series_of cur) ()

(* ------------------------------------------------------------------ *)
(* Rendering *)

let pp_us fmt us =
  if us >= 1e6 then Format.fprintf fmt "%.2fs" (us *. 1e-6)
  else if us >= 1e3 then Format.fprintf fmt "%.1fms" (us *. 1e-3)
  else Format.fprintf fmt "%.0fus" us

let pp_counts fmt counts =
  Format.fprintf fmt "%s"
    (String.concat ", "
       (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) counts))

let pp fmt (r : report) =
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt
    "event log: %d events over %.1fs — %d finishes, %d sheds, %d rejects, %d \
     recycles, %d breaches, %d heap breaches, %d dumps@,"
    r.a_events r.a_span_s r.a_finishes r.a_sheds r.a_rejects r.a_recycles
    r.a_breaches r.a_heap_breaches r.a_dumps;
  Format.fprintf fmt "%a@," Obs_slo.pp_summary r.a_summary;
  (match Obs_attr.attribution ~top:4 r.a_summary.Obs_slo.s_phase_us with
  | "" -> ()
  | s -> Format.fprintf fmt "phase attribution (all): %s@," s);
  (match Obs_attr.attribution ~top:4 r.a_tail_phase_us with
  | "" -> ()
  | s -> Format.fprintf fmt "tail attribution (slowest 10%%): %s@," s);
  (match Obs_attr.attribution ~top:4 r.a_summary.Obs_slo.s_alloc_phase_b with
  | "" -> ()
  | s -> Format.fprintf fmt "allocated by: %s@," s);
  if r.a_statuses <> [] then
    Format.fprintf fmt "statuses: %a@," pp_counts r.a_statuses;
  if r.a_shed_reasons <> [] then
    Format.fprintf fmt "shed reasons: %a@," pp_counts r.a_shed_reasons;
  if r.a_slowest <> [] then begin
    Format.fprintf fmt "slowest requests:@,";
    List.iter
      (fun s ->
        Format.fprintf fmt "  rid %-6d %-9s %-12s %a  %s@," s.sl_rid s.sl_verb
          s.sl_status pp_us s.sl_service_us
          (Obs_attr.attribution s.sl_phases_us))
      r.a_slowest
  end;
  if List.length r.a_slices > 1 then begin
    Format.fprintf fmt "timeline:@,";
    List.iter
      (fun c ->
        Format.fprintf fmt
          "  +%-6.0fs %5d requests  p50 %a  p99 %a  shed %.1f%%@," c.c_start_s
          c.c_summary.Obs_slo.s_requests pp_us c.c_summary.Obs_slo.s_p50_us
          pp_us c.c_summary.Obs_slo.s_p99_us c.c_summary.Obs_slo.s_shed_pct)
      r.a_slices
  end;
  Format.fprintf fmt "@]"

let to_json (r : report) =
  let phases_obj ps =
    Json.obj (List.map (fun (k, v) -> (k, Json.float v)) ps)
  in
  let counts_obj cs = Json.obj (List.map (fun (k, n) -> (k, Json.int n)) cs) in
  Json.obj
    [
      ("schema", Json.str "vhdl-analyze/1");
      ("events", Json.int r.a_events);
      ("span_s", Json.float r.a_span_s);
      ("finishes", Json.int r.a_finishes);
      ("sheds", Json.int r.a_sheds);
      ("rejects", Json.int r.a_rejects);
      ("recycles", Json.int r.a_recycles);
      ("breaches", Json.int r.a_breaches);
      ("heap_breaches", Json.int r.a_heap_breaches);
      ("dumps", Json.int r.a_dumps);
      ("statuses", counts_obj r.a_statuses);
      ("shed_reasons", counts_obj r.a_shed_reasons);
      ("summary", Obs_slo.summary_json r.a_summary);
      ("tail_phase_us", phases_obj r.a_tail_phase_us);
      ( "slowest",
        Json.arr
          (List.map
             (fun s ->
               Json.obj
                 [
                   ("rid", Json.int s.sl_rid);
                   ("verb", Json.str s.sl_verb);
                   ("status", Json.str s.sl_status);
                   ("service_us", Json.float s.sl_service_us);
                   ("phases_us", phases_obj s.sl_phases_us);
                 ])
             r.a_slowest) );
      ( "timeline",
        Json.arr
          (List.map
             (fun c ->
               Json.obj
                 [
                   ("start_s", Json.float c.c_start_s);
                   ("summary", Obs_slo.summary_json c.c_summary);
                 ])
             r.a_slices) );
    ]
