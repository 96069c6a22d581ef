(** The observability hub a daemon carries: every emitted event goes to
    the always-on flight-recorder ring and, when configured, to the
    append-only JSONL sink; {!dump} serializes the ring (plus a full
    metrics snapshot and the caller's fields) to a timestamped file.

    The sink is line-buffered and flushed per event: an event line is
    durable once {!event} returns, so a log read after a clean drain — or
    after a crash — never ends mid-line.  The write is one small
    [output_string] on a buffered channel; the serve smoke test gates
    its cost on the warm request path. *)

module Tm = Vhdl_telemetry.Telemetry
module Json = Tm.Json

let m_events = Tm.counter "serve.events"
let m_dumps = Tm.counter "serve.flight_dumps"
let m_exemplars_suppressed = Tm.counter "serve.exemplars_suppressed"
let m_dumps_pruned = Tm.counter "serve.dumps_pruned"

type config = {
  o_events_out : string option; (* JSONL sink; None = ring only *)
  o_ring_events : int; (* flight-recorder event capacity *)
  o_ring_requests : int; (* per-request counter-delta capacity *)
  o_flight_dir : string; (* where flight dumps land *)
  o_max_dumps : int; (* retention cap on dump files; 0 = unlimited *)
  o_exemplar_min_gap_s : float; (* rate limit between exemplar dumps *)
}

let default_config =
  {
    o_events_out = None;
    o_ring_events = 256;
    o_ring_requests = 32;
    o_flight_dir = ".";
    o_max_dumps = 32;
    o_exemplar_min_gap_s = 1.0;
  }

type t = {
  cfg : config;
  ring : Obs_ring.t;
  sink : out_channel option;
  mutable dump_seq : int;
  mutable last_exemplar_s : float; (* telemetry clock of the last one *)
}

let create (cfg : config) =
  let sink =
    match cfg.o_events_out with
    | None -> None
    | Some path ->
      Some (open_out_gen [ Open_creat; Open_append; Open_wronly ] 0o644 path)
  in
  {
    cfg;
    ring = Obs_ring.create ~events:cfg.o_ring_events ~requests:cfg.o_ring_requests ();
    sink;
    dump_seq = 0;
    last_exemplar_s = neg_infinity;
  }

(** Record an event: always into the ring, and durably onto the JSONL
    sink when one is configured.  A sink that went away (disk error,
    already-closed channel during double shutdown) degrades to
    ring-only; observability must never kill the daemon. *)
let event t ?rid ?fields kind =
  let e = Obs_event.make ?rid ?fields kind in
  Tm.incr m_events;
  Obs_ring.push t.ring e;
  match t.sink with
  | None -> ()
  | Some oc -> (
    try
      output_string oc (Obs_event.to_line e);
      flush oc
    with Sys_error _ -> ())

let note_request_delta t ~rid counters =
  Obs_ring.note_request_delta t.ring ~rid counters

(* ------------------------------------------------------------------ *)
(* Flight dumps *)

let timestamp () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d%02d%02d-%02d%02d%02d" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* retention only touches files this module wrote *)
let is_dump_file name =
  String.length name > 7
  && String.sub name 0 7 = "flight-"
  && Filename.check_suffix name ".json"

(** Enforce [o_max_dumps]: delete the oldest dump files until at most
    the cap remain, so a flapping firewall or a sustained slow spell
    cannot fill the disk.  Oldest = smallest mtime, file name as the
    tiebreak (the UTC-timestamped names sort chronologically).
    Best-effort: a dump directory that cannot be listed or a file that
    cannot be removed is not worth failing the daemon over. *)
let prune_dumps t =
  if t.cfg.o_max_dumps > 0 then
    match Sys.readdir t.cfg.o_flight_dir with
    | exception Sys_error _ -> ()
    | names ->
      let dumps =
        List.filter_map
          (fun name ->
            if not (is_dump_file name) then None
            else
              let path = Filename.concat t.cfg.o_flight_dir name in
              match Unix.stat path with
              | st -> Some (st.Unix.st_mtime, name, path)
              | exception Unix.Unix_error _ -> None)
          (Array.to_list names)
      in
      let excess = List.length dumps - t.cfg.o_max_dumps in
      if excess > 0 then
        List.iteri
          (fun i (_, _, path) ->
            if i < excess then (
              try
                Sys.remove path;
                Tm.incr m_dumps_pruned
              with Sys_error _ -> ()))
          (List.sort compare dumps)

(** Write one dump document to
    [FLIGHT_DIR/flight-<utc>-<pid>-<seq>[-rid<N>]-<reason>.json]: when
    and why ([dumped_at_s], [reason], [rid]), the recorded event window
    and per-request counter deltas, a metrics snapshot, then [fields].
    The document is written to the file piece by piece, each array
    element rendered as it is written: built whole, it would leave
    large blocks in the major heap on every dump, and exemplars are
    written by a warm daemon whose live heap is gated. *)
let dump ~reason ?rid ~fields t : (string option, string) result =
  let now = Tm.now_s () in
  let exemplar = reason = "exemplar" in
  if exemplar && now -. t.last_exemplar_s < t.cfg.o_exemplar_min_gap_s then begin
    Tm.incr m_exemplars_suppressed;
    Ok None
  end
  else begin
    if exemplar then t.last_exemplar_s <- now;
    t.dump_seq <- t.dump_seq + 1;
    let name =
      Printf.sprintf "flight-%s-%d-%03d%s-%s.json" (timestamp ()) (Unix.getpid ())
        t.dump_seq
        (match rid with Some r -> Printf.sprintf "-rid%d" r | None -> "")
        reason
    in
    let path = Filename.concat t.cfg.o_flight_dir name in
    let delta d =
      Json.obj
        [
          ("rid", Json.int d.Obs_ring.rd_rid);
          ( "counters",
            Json.obj (List.map (fun (k, v) -> (k, Json.int v)) d.Obs_ring.rd_counters) );
        ]
    in
    let value v oc = output_string oc v in
    (* [opening], the elements written by [f] with commas between, [closing] *)
    let seq opening f closing xs oc =
      output_char oc opening;
      List.iteri
        (fun i x ->
          if i > 0 then output_char oc ',';
          f oc x)
        xs;
      output_char oc closing
    in
    let arr to_json = seq '[' (fun oc x -> output_string oc (to_json x)) ']' in
    let doc =
      [
        ("dumped_at_s", value (Json.float now));
        ("reason", value (Json.str reason));
        ("rid", value (match rid with Some r -> Json.int r | None -> "null"));
        ("events_recorded", value (Json.int (Obs_ring.pushed t.ring)));
        ("events", arr Obs_event.to_json (Obs_ring.events t.ring));
        ("request_deltas", arr delta (Obs_ring.request_deltas t.ring));
        ("metrics", value (Tm.metrics_json ()));
      ]
      @ List.map (fun (k, v) -> (k, value v)) fields
    in
    match
      Vhdl_util.Unix_compat.mkdir_p t.cfg.o_flight_dir;
      let oc = open_out_bin path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          seq '{'
            (fun oc (k, write) ->
              output_string oc (Json.str k);
              output_char oc ':';
              write oc)
            '}' doc oc;
          close_out oc)
    with
    | () ->
      Tm.incr m_dumps;
      prune_dumps t;
      event t ?rid
        ~fields:[ ("path", Obs_event.S path); ("reason", Obs_event.S reason) ]
        Obs_event.Dump;
      Ok (Some path)
    | exception Sys_error msg -> Error msg
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  end

let close t =
  match t.sink with
  | None -> ()
  | Some oc -> ( try close_out oc with Sys_error _ -> ())
