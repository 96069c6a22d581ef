(* The serve battery: protocol framing, admission-queue bounds, per-request
   deadlines becoming structured timeouts, watchdog wedge recovery, and an
   in-process daemon socket round-trip.  The live end-to-end paths (cram,
   tools/serve_smoke.sh, vhdlfuzz --serve-chaos) build on what is pinned
   here. *)

module P = Serve_protocol

(* ------------------------------------------------------------------ *)
(* Protocol framing *)

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      match P.parse_frame (P.frame payload) with
      | `Frame (got, consumed) ->
        Alcotest.(check string) "payload survives" payload got;
        Alcotest.(check int) "consumed all" (P.header_bytes + String.length payload) consumed
      | _ -> Alcotest.fail "expected a complete frame")
    [ ""; "x"; "hello\nworld"; String.make 100_000 'q' ]

let test_frame_incremental () =
  let full = P.frame "abcdef" in
  (* every strict prefix is Incomplete, never an error or a short frame *)
  for n = 0 to String.length full - 1 do
    match P.parse_frame (String.sub full 0 n) with
    | `Incomplete need -> Alcotest.(check bool) "needs more" true (need > 0)
    | `Frame _ -> Alcotest.failf "frame complete at %d/%d bytes" n (String.length full)
    | `Error e -> Alcotest.failf "error at %d bytes: %s" n (P.frame_error_to_string e)
  done;
  (* trailing bytes beyond the frame are not consumed *)
  match P.parse_frame (full ^ "extra") with
  | `Frame (_, consumed) -> Alcotest.(check int) "consumed" (String.length full) consumed
  | _ -> Alcotest.fail "expected a frame"

let test_frame_rejections () =
  (match P.parse_frame "NOPE\x00\x00\x00\x01x" with
  | `Error P.Bad_magic -> ()
  | _ -> Alcotest.fail "bad magic undetected");
  (* bad magic is detectable from the first bytes, before a full header *)
  (match P.parse_frame "NO" with
  | `Error P.Bad_magic -> ()
  | _ -> Alcotest.fail "early bad magic undetected");
  match P.parse_frame ~max_frame:16 (P.frame (String.make 17 'x')) with
  | `Error (P.Oversized 17) -> ()
  | _ -> Alcotest.fail "oversized declaration undetected"

let test_request_roundtrip () =
  let rq =
    P.request P.Simulate ~deadline_s:2.5 ~fuel:400 ~top:"TB" ~max_ns:77
      ~poison:"entity:BAD" ~spin_ms:9 ~source:"entity e is end e;\n-- body\n"
  in
  match P.decode_request (P.encode_request rq) with
  | Error e -> Alcotest.fail e
  | Ok got ->
    Alcotest.(check bool) "verb" true (got.P.rq_verb = P.Simulate);
    Alcotest.(check (option (float 1e-9))) "deadline" (Some 2.5) got.P.rq_deadline_s;
    Alcotest.(check (option int)) "fuel" (Some 400) got.P.rq_fuel;
    Alcotest.(check (option string)) "top" (Some "TB") got.P.rq_top;
    Alcotest.(check int) "ns" 77 got.P.rq_max_ns;
    Alcotest.(check (option string)) "poison" (Some "entity:BAD") got.P.rq_poison;
    Alcotest.(check int) "spin" 9 got.P.rq_spin_ms;
    Alcotest.(check string) "source" rq.P.rq_source got.P.rq_source

let test_response_roundtrip () =
  let rs = P.response P.Overload ~retry_after_s:0.25 ~body:"queue full\n" in
  (match P.decode_response (P.encode_response rs) with
  | Ok got ->
    Alcotest.(check bool) "status" true (got.P.rs_status = P.Overload);
    Alcotest.(check (option (float 1e-9))) "retry" (Some 0.25) got.P.rs_retry_after_s;
    Alcotest.(check string) "body" "queue full\n" got.P.rs_body
  | Error e -> Alcotest.fail e);
  let rs = P.response P.Timeout ~wedged:true in
  match P.decode_response (P.encode_response rs) with
  | Ok got -> Alcotest.(check bool) "wedged survives" true got.P.rs_wedged
  | Error e -> Alcotest.fail e

let test_decode_rejects () =
  let bad payload =
    match P.decode_request payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %S" payload
  in
  bad "";
  bad "not-the-version compile\nbody";
  bad "vhdl-serve/1 frobnicate\n";
  bad "vhdl-serve/1 compile deadline=abc\n"

(* ------------------------------------------------------------------ *)
(* Admission queue *)

let test_queue_bounds () =
  let q = Serve_queue.create ~capacity:2 in
  Alcotest.(check bool) "first admitted" true (Serve_queue.admit q 1 = Serve_queue.Admitted);
  Alcotest.(check bool) "second admitted" true (Serve_queue.admit q 2 = Serve_queue.Admitted);
  (match Serve_queue.admit q 3 with
  | Serve_queue.Shed { retry_after_s } ->
    Alcotest.(check bool) "positive retry hint" true (retry_after_s > 0.0)
  | Serve_queue.Admitted -> Alcotest.fail "third request must shed");
  Alcotest.(check (option int)) "fifo pop" (Some 1) (Serve_queue.pop q);
  Alcotest.(check bool) "room again" true (Serve_queue.admit q 3 = Serve_queue.Admitted)

let test_queue_retry_hint_tracks_service_time () =
  let q = Serve_queue.create ~capacity:8 in
  ignore (Serve_queue.admit q ());
  let before = Serve_queue.retry_after_s q in
  (* a run of slow requests must raise the hint *)
  for _ = 1 to 20 do
    Serve_queue.note_service_time q 1.0
  done;
  let after = Serve_queue.retry_after_s q in
  Alcotest.(check bool)
    (Printf.sprintf "hint grows with service time (%.3f -> %.3f)" before after)
    true (after > before)

(* EWMA edge cases: the hint before any measurement, and after exactly one *)

let test_queue_retry_hint_edges () =
  let q = Serve_queue.create ~capacity:4 in
  (* no completed request yet: the default service estimate, x backlog *)
  Alcotest.(check (float 1e-9)) "no samples, empty queue" 0.05
    (Serve_queue.retry_after_s q);
  ignore (Serve_queue.admit q ());
  Alcotest.(check (float 1e-9)) "no samples, one queued" 0.10
    (Serve_queue.retry_after_s q);
  ignore (Serve_queue.pop q);
  (* a single sample moves the EWMA one alpha step toward it *)
  Serve_queue.note_service_time q 1.0;
  Alcotest.(check (float 1e-9)) "single sample"
    ((0.8 *. 0.05) +. (0.2 *. 1.0))
    (Serve_queue.retry_after_s q);
  (* clock hiccups (negative elapsed) must not poison the average *)
  Serve_queue.note_service_time q (-5.0);
  Alcotest.(check (float 1e-9)) "negative sample ignored"
    ((0.8 *. 0.05) +. (0.2 *. 1.0))
    (Serve_queue.retry_after_s q)

(* ------------------------------------------------------------------ *)
(* Worker: deadlines, firewall, watchdog *)

let worker_cfg =
  {
    Serve_worker.default_config with
    Serve_worker.w_allow_faults = true;
    w_watchdog_grace_s = 0.2;
  }

let test_worker_healthy () =
  let w = Serve_worker.create worker_cfg in
  let r = Serve_worker.handle w (P.request P.Compile ~source:"entity ok is end ok;\n") in
  Alcotest.(check bool) "ok status" true (r.P.rs_status = P.Ok_);
  Alcotest.(check bool) "names the unit" true
    (Astring_contains.contains r.P.rs_body "entity:OK")

let test_worker_fuel_timeout () =
  let w = Serve_worker.create worker_cfg in
  let r =
    Serve_worker.handle w
      (P.request P.Compile ~fuel:40 ~source:(Workload.expression_heavy ~n:40))
  in
  Alcotest.(check bool) "timeout status" true (r.P.rs_status = P.Timeout);
  Alcotest.(check bool) "budget diagnostic in body" true
    (Astring_contains.contains r.P.rs_body "fuel exhausted")

let test_worker_deadline_timeout () =
  let w = Serve_worker.create worker_cfg in
  (* a deadline no 300-constant cascade compile can meet: the evaluator's
     tick hook trips Supervisor.Deadline, which must arrive as a timeout *)
  let r =
    Serve_worker.handle w
      (P.request P.Compile ~deadline_s:0.001 ~source:(Workload.expression_heavy ~n:300))
  in
  Alcotest.(check bool) "timeout status" true (r.P.rs_status = P.Timeout);
  Alcotest.(check bool) "deadline diagnostic in body" true
    (Astring_contains.contains r.P.rs_body "deadline")

let test_worker_poison_contained () =
  let w = Serve_worker.create worker_cfg in
  let r =
    Serve_worker.handle w
      (P.request P.Compile ~poison:"entity:BAD"
         ~source:"entity bad is end bad;\nentity fine is end fine;\n")
  in
  Alcotest.(check bool) "internal status" true (r.P.rs_status = P.Internal);
  Alcotest.(check bool) "sibling still compiled" true
    (Astring_contains.contains r.P.rs_body "entity:FINE");
  (* the worker survives: the next request is healthy *)
  let r2 = Serve_worker.handle w (P.request P.Compile ~source:"entity n2 is end n2;\n") in
  Alcotest.(check bool) "worker keeps serving" true (r2.P.rs_status = P.Ok_)

let test_worker_faults_gated () =
  let w = Serve_worker.create { worker_cfg with Serve_worker.w_allow_faults = false } in
  let r =
    Serve_worker.handle w
      (P.request P.Compile ~poison:"entity:X" ~source:"entity x is end x;\n")
  in
  Alcotest.(check bool) "poison rejected without --allow-faults" true
    (r.P.rs_status = P.Bad_request)

let test_watchdog_recycles_wedged_worker () =
  let w = Serve_worker.create worker_cfg in
  let gen0 = Serve_worker.generation w in
  (* spins far past deadline+grace: only the watchdog can end it *)
  let t0 = Vhdl_util.Unix_compat.now () in
  let r =
    Serve_worker.handle w
      (P.request P.Compile ~deadline_s:0.05 ~spin_ms:5_000 ~source:"entity w is end w;\n")
  in
  let elapsed = Vhdl_util.Unix_compat.now () -. t0 in
  Alcotest.(check bool) "timeout status" true (r.P.rs_status = P.Timeout);
  Alcotest.(check bool) "marked wedged" true r.P.rs_wedged;
  Alcotest.(check bool)
    (Printf.sprintf "broken promptly (%.2fs), not after the 5s spin" elapsed)
    true (elapsed < 2.0);
  Alcotest.(check bool) "worker recycled" true (Serve_worker.generation w > gen0);
  let r2 = Serve_worker.handle w (P.request P.Ping) in
  Alcotest.(check bool) "worker answers after recycle" true (r2.P.rs_status = P.Ok_)

let test_watchdog_disarms () =
  (* after a protected region completes in time, no stray alarm may fire *)
  let v = Serve_worker.with_watchdog ~seconds:0.05 (fun () -> 41 + 1) in
  Alcotest.(check int) "value through" 42 v;
  ignore (Unix.select [] [] [] 0.12)

(* ------------------------------------------------------------------ *)
(* Daemon: in-process socket round-trip driven by explicit ticks *)

let temp_socket () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "vhdl-serve-test-%d-%d.sock" (Unix.getpid ()) (Random.int 100000))

let with_daemon ?(queue = 4) ?(cfg = fun c -> c) f =
  let socket = temp_socket () in
  let d =
    match
      Serve_daemon.create
        (cfg
           {
             Serve_daemon.default_config with
             Serve_daemon.d_socket = socket;
             d_queue_capacity = queue;
             d_idle_timeout_s = 0.2;
             d_worker = worker_cfg;
           })
    with
    | Ok d -> d
    | Error msg -> Alcotest.fail msg
  in
  Fun.protect ~finally:(fun () -> Serve_daemon.shutdown d) (fun () -> f socket d)

(* single-threaded client: send the whole frame first, tick the daemon so
   it processes and responds into the socket buffer, then read *)
let tick_roundtrip socket d rq =
  match Serve_client.connect socket with
  | Error e -> Alcotest.fail e
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (match Serve_client.send_all fd (P.frame (P.encode_request rq)) with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        for _ = 1 to 3 do
          Serve_daemon.tick ~timeout_s:0.01 d
        done;
        match Serve_client.recv_response ~timeout_s:5.0 fd with
        | Ok r -> r
        | Error e -> Alcotest.fail e)

let test_daemon_socket_roundtrip () =
  with_daemon (fun socket d ->
      let r = tick_roundtrip socket d (P.request P.Compile ~source:"entity d is end d;\n") in
      Alcotest.(check bool) "ok" true (r.P.rs_status = P.Ok_);
      Alcotest.(check bool) "compiled key in body" true
        (Astring_contains.contains r.P.rs_body "entity:D");
      (* the warm library persists across requests: simulate what the
         previous request compiled *)
      let r2 = tick_roundtrip socket d (P.request P.Ping) in
      Alcotest.(check bool) "ping ok" true (r2.P.rs_status = P.Ok_))

(* the text stats are the JSON document flattened: asked back to back,
   every ledger counter reads the same in both, except the four the
   first (text) stats request itself moved by the time the second is
   answered — one request, one answer, one connection, and three events
   (its finish, the second request's accept and start) *)
let test_daemon_stats_text_matches_json () =
  with_daemon (fun socket d ->
      ignore (tick_roundtrip socket d (P.request P.Compile ~source:"entity s is end s;\n"));
      let text = (tick_roundtrip socket d (P.request P.Stats)).P.rs_body in
      let json = (tick_roundtrip socket d (P.request ~json:true P.Stats)).P.rs_body in
      let module J = Vhdl_telemetry.Telemetry.Json in
      let ledger =
        match Result.map (J.path [ "ledger" ]) (J.parse json) with
        | Ok (Some (J.Obj kvs)) -> kvs
        | _ -> Alcotest.fail "stats JSON has no ledger object"
      in
      let text_lines = String.split_on_char '\n' text in
      let moved = [ ("serve.requests", 1); ("serve.answered", 1); ("serve.connections", 1); ("serve.events", 3) ] in
      List.iter
        (fun (name, v) ->
          let want = Option.get (J.to_int v) - Option.value (List.assoc_opt name moved) ~default:0 in
          Alcotest.(check bool)
            (Printf.sprintf "text carries ledger.%s %d" name want)
            true
            (List.mem (Printf.sprintf "ledger.%s %d" name want) text_lines))
        ledger;
      Alcotest.(check int) "every ledger counter compared" 16 (List.length ledger);
      List.iter
        (fun line ->
          Alcotest.(check bool) ("text has " ^ line) true (List.mem line text_lines))
        [ "queue.depth 0"; "worker.generation 0"; "worker.served 1"; "draining false" ])

let test_daemon_sheds_when_full () =
  with_daemon ~queue:1 (fun socket d ->
      (* two clients send before any tick: one admitted, one shed *)
      let open_and_send () =
        match Serve_client.connect socket with
        | Error e -> Alcotest.fail e
        | Ok fd ->
          (match
             Serve_client.send_all fd
               (P.frame (P.encode_request (P.request P.Compile ~source:"entity q is end q;\n")))
           with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          fd
      in
      let fd1 = open_and_send () in
      let fd2 = open_and_send () in
      for _ = 1 to 4 do
        Serve_daemon.tick ~timeout_s:0.01 d
      done;
      let read fd =
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            match Serve_client.recv_response ~timeout_s:5.0 fd with
            | Ok r -> r.P.rs_status
            | Error e -> Alcotest.fail e)
      in
      let statuses = List.sort compare [ read fd1; read fd2 ] |> List.map P.status_name in
      Alcotest.(check (list string)) "one served, one shed" [ "ok"; "overload" ]
        (List.sort compare statuses))

let test_daemon_rejects_torn_frame () =
  with_daemon (fun socket d ->
      match Serve_client.connect socket with
      | Error e -> Alcotest.fail e
      | Ok fd ->
        let full = P.frame (String.make 64 'x') in
        (match Serve_client.send_all fd (String.sub full 0 (P.header_bytes + 5)) with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
        (* one tick to accept, one to ingest the partial; past the idle
           timeout the next tick must reject it as torn *)
        Serve_daemon.tick ~timeout_s:0.01 d;
        Serve_daemon.tick ~timeout_s:0.01 d;
        ignore (Unix.select [] [] [] 0.25);
        for _ = 1 to 3 do
          Serve_daemon.tick ~timeout_s:0.01 d
        done;
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            match Serve_client.recv_response ~timeout_s:5.0 fd with
            | Ok r ->
              Alcotest.(check bool) "bad-request" true (r.P.rs_status = P.Bad_request);
              Alcotest.(check bool) "torn named" true
                (Astring_contains.contains r.P.rs_body "torn")
            | Error e -> Alcotest.fail e))

(* ------------------------------------------------------------------ *)
(* Daemon observability: request ids, the event log, flight dumps, the
   periodic metrics flush *)

let temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "vhdl-serve-obs-%d-%d" (Unix.getpid ()) (Random.int 100000))
  in
  Vhdl_util.Unix_compat.mkdir_p d;
  d

let rm_rf dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let test_daemon_rids_echoed_and_logged () =
  let dir = temp_dir () in
  let events = Filename.concat dir "events.jsonl" in
  with_daemon
    ~cfg:(fun c ->
      {
        c with
        Serve_daemon.d_obs =
          {
            Obs_log.default_config with
            Obs_log.o_events_out = Some events;
            o_ring_events = 64;
            o_ring_requests = 8;
            o_flight_dir = dir;
          };
      })
    (fun socket d ->
      let r1 = tick_roundtrip socket d (P.request P.Ping) in
      let r2 = tick_roundtrip socket d (P.request P.Compile ~source:"entity r is end r;\n") in
      (* the response header carries the daemon's request id, monotone *)
      match (r1.P.rs_request_id, r2.P.rs_request_id) with
      | Some a, Some b ->
        Alcotest.(check bool) (Printf.sprintf "rids monotone (%d < %d)" a b) true (a < b);
        Serve_daemon.shutdown d;
        (* the log tells the same story, and the grammar holds *)
        (match Obs_event.read_log events with
        | Error msg -> Alcotest.fail msg
        | Ok (log, _) ->
          Alcotest.(check (list string)) "event grammar holds" [] (Obs_event.check_log log);
          let finish_rids =
            List.filter_map
              (fun (e : Obs_event.t) ->
                if e.Obs_event.e_kind = Obs_event.Finish then e.Obs_event.e_rid else None)
              log
          in
          Alcotest.(check bool) "both requests finished in the log" true
            (List.mem a finish_rids && List.mem b finish_rids));
        rm_rf dir
      | _ -> Alcotest.fail "responses carry no request id")

let test_daemon_firewall_trip_dumps_flight () =
  let dir = temp_dir () in
  with_daemon
    ~cfg:(fun c ->
      {
        c with
        Serve_daemon.d_obs =
          { Obs_log.default_config with Obs_log.o_flight_dir = dir };
      })
    (fun socket d ->
      let r =
        tick_roundtrip socket d
          (P.request P.Compile ~poison:"entity:BAD" ~source:"entity bad is end bad;\n")
      in
      Alcotest.(check bool) "poison answered internal" true (r.P.rs_status = P.Internal);
      let rid = Option.get r.P.rs_request_id in
      let dumps =
        List.filter
          (fun f -> Astring_contains.contains f "firewall")
          (Array.to_list (Sys.readdir dir))
      in
      Alcotest.(check int) "one firewall dump" 1 (List.length dumps);
      Alcotest.(check bool) "dump named after the offending rid" true
        (Astring_contains.contains (List.hd dumps) (Printf.sprintf "-rid%d-" rid));
      rm_rf dir)

let test_daemon_periodic_metrics_flush () =
  let dir = temp_dir () in
  let metrics = Filename.concat dir "metrics.json" in
  with_daemon
    ~cfg:(fun c ->
      {
        c with
        Serve_daemon.d_metrics_out = Some metrics;
        d_metrics_flush_ticks = 2;
        d_obs = { Obs_log.default_config with Obs_log.o_flight_dir = dir };
      })
    (fun _socket d ->
      Alcotest.(check bool) "nothing flushed yet" false (Sys.file_exists metrics);
      for _ = 1 to 3 do
        Serve_daemon.tick ~timeout_s:0.01 d
      done;
      Alcotest.(check bool) "flushed while running (not just at drain)" true
        (Sys.file_exists metrics);
      (* the atomic rename leaves no half-written temp file behind *)
      Alcotest.(check bool) "no lingering temp file" false
        (Sys.file_exists (metrics ^ ".tmp"));
      Alcotest.(check bool) "flushed document parses" true
        (match Vhdl_telemetry.Telemetry.Json.parse (Vhdl_util.Unix_compat.read_file metrics) with
        | Ok _ -> true
        | Error _ -> false);
      rm_rf dir)

let suite =
  [
    Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "incremental parse never tears" `Quick test_frame_incremental;
    Alcotest.test_case "bad magic / oversized rejected" `Quick test_frame_rejections;
    Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "response round-trip" `Quick test_response_roundtrip;
    Alcotest.test_case "malformed payloads rejected" `Quick test_decode_rejects;
    Alcotest.test_case "queue bounds and shedding" `Quick test_queue_bounds;
    Alcotest.test_case "retry hint tracks service time" `Quick
      test_queue_retry_hint_tracks_service_time;
    Alcotest.test_case "retry hint edges: no samples, one sample" `Quick
      test_queue_retry_hint_edges;
    Alcotest.test_case "worker: healthy compile" `Quick test_worker_healthy;
    Alcotest.test_case "worker: fuel budget becomes timeout" `Quick
      test_worker_fuel_timeout;
    Alcotest.test_case "worker: deadline becomes timeout" `Quick
      test_worker_deadline_timeout;
    Alcotest.test_case "worker: poison contained, worker survives" `Quick
      test_worker_poison_contained;
    Alcotest.test_case "worker: fault fields gated" `Quick test_worker_faults_gated;
    Alcotest.test_case "watchdog breaks and recycles a wedged worker" `Quick
      test_watchdog_recycles_wedged_worker;
    Alcotest.test_case "watchdog disarms cleanly" `Quick test_watchdog_disarms;
    Alcotest.test_case "daemon: socket round-trip" `Quick test_daemon_socket_roundtrip;
    Alcotest.test_case "daemon: text stats are the JSON document flattened" `Quick
      test_daemon_stats_text_matches_json;
    Alcotest.test_case "daemon: sheds when the queue is full" `Quick
      test_daemon_sheds_when_full;
    Alcotest.test_case "daemon: torn frame rejected" `Quick
      test_daemon_rejects_torn_frame;
    Alcotest.test_case "daemon: rids echoed, event grammar holds" `Quick
      test_daemon_rids_echoed_and_logged;
    Alcotest.test_case "daemon: firewall trip leaves a flight dump" `Quick
      test_daemon_firewall_trip_dumps_flight;
    Alcotest.test_case "daemon: periodic metrics flush is atomic" `Quick
      test_daemon_periodic_metrics_flush;
  ]
