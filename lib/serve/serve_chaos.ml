(** The chaos campaign: hundreds of randomized healthy and faulty requests
    fired at a live daemon, with per-shot expectations and end-of-campaign
    invariant checks.

    Shot mix: healthy compiles and simulates (workload generators), pings,
    concurrent bursts (to exercise admission shedding), and every site in
    {!Difftest_fault.serve_faults} — torn frames, bad magic, oversized
    declarations, poisoned units, wedged requests, deadline busts, client
    aborts.  Deterministic for a given seed.

    What must hold (violations are collected, not thrown):
    - the daemon answers every shot that expects a reply, with the status
      the fault site predicts (poison → [internal], wedge → [timeout]
      with [wedged=1], bust → [timeout], framing faults → [bad-request]);
    - burst shots resolve as [ok] or a clean [overload] shed — nothing
      hangs, nothing dies;
    - the daemon's own books balance: [serve.requests =
      serve.answered + serve.shed + serve.client_gone], and the fault
      counters cover the faults the campaign landed;
    - the daemon still answers a ping after everything above. *)

type outcome =
  | Status of Serve_protocol.status * bool (* wedged *)
  | No_reply (* expected for torn frames and client aborts *)
  | Transport of string

type shot = {
  s_index : int;
  s_label : string;
  s_outcome : outcome;
}

type summary = {
  shots : int;
  answered : int; (* shots that got a structured response *)
  shed : int; (* overload/draining responses *)
  no_reply : int; (* fault shots that by design expect none *)
  transport_failures : int;
  by_status : (string * int) list;
  daemon_counters : (string * int) list; (* the final stats document's ledger *)
  violations : string list;
  log : string list; (* one line per shot, campaign order *)
}

let outcome_label = function
  | Status (st, wedged) ->
    Serve_protocol.status_name st ^ (if wedged then " wedged" else "")
  | No_reply -> "no-reply"
  | Transport msg -> "transport: " ^ msg

(* ------------------------------------------------------------------ *)
(* Shot construction *)

let healthy_compile rng i =
  let pick = Random.State.int rng 3 in
  let source =
    match pick with
    | 0 -> Workload.behavioral ~name:(Printf.sprintf "CH%d" i) ~states:3 ~exprs:4
    | 1 -> Workload.package ~name:(Printf.sprintf "CP%d" i) ~n:3
    | _ -> Workload.expression_heavy ~n:5
  in
  Serve_protocol.request Serve_protocol.Compile ~source

let healthy_simulate i =
  ignore i;
  Serve_protocol.request Serve_protocol.Simulate
    ~source:(Workload.divider_chain ~stages:2) ~top:"CHAIN" ~max_ns:200

(* the poisoned unit plus a healthy sibling: the sibling must survive *)
let poison_source = "entity BAD is end BAD;\nentity FINE is end FINE;\n"

let bust_source = lazy (Workload.expression_heavy ~n:300)

(* ------------------------------------------------------------------ *)
(* Firing *)

let fire_fault ~socket (fault : Difftest_fault.serve_fault) : outcome =
  let expect_reply raw =
    match Serve_client.send_raw ~timeout_s:10.0 ~await_reply:true ~socket raw with
    | Ok (Some r) -> Status (r.Serve_protocol.rs_status, r.Serve_protocol.rs_wedged)
    | Ok None -> No_reply
    | Error msg -> Transport msg
  in
  let rq_reply rq =
    match Serve_client.roundtrip ~timeout_s:30.0 ~socket rq with
    | Ok r -> Status (r.Serve_protocol.rs_status, r.Serve_protocol.rs_wedged)
    | Error msg -> Transport msg
  in
  match fault with
  | Difftest_fault.Torn_frame ->
    (* promise 64 payload bytes, deliver 10, hang up *)
    let full =
      Serve_protocol.frame (String.make 64 'x')
    in
    let torn = String.sub full 0 (Serve_protocol.header_bytes + 10) in
    (match Serve_client.send_raw ~socket torn with
    | Ok _ -> No_reply
    | Error msg -> Transport msg)
  | Difftest_fault.Bad_magic -> expect_reply "NOPE\x00\x00\x00\x04ping"
  | Difftest_fault.Oversized_frame ->
    (* declared length far beyond any sane frame limit *)
    expect_reply "AGVS\x7f\xff\xff\xff"
  | Difftest_fault.Poison_unit ->
    rq_reply
      (Serve_protocol.request Serve_protocol.Compile ~poison:"entity:BAD"
         ~source:poison_source)
  | Difftest_fault.Wedged_request ->
    (* spin far past deadline + grace: only the watchdog can end this *)
    rq_reply
      (Serve_protocol.request Serve_protocol.Compile ~deadline_s:0.1 ~spin_ms:5000
         ~source:"entity W is end W;\n")
  | Difftest_fault.Deadline_bust ->
    (* work the in-band budgets must stop: tiny deadline and tiny fuel
       against a cascade-heavy source — whichever trips first, the
       request ends as a structured timeout *)
    rq_reply
      (Serve_protocol.request Serve_protocol.Compile ~deadline_s:0.005 ~fuel:60
         ~source:(Lazy.force bust_source))
  | Difftest_fault.Client_abort ->
    (* complete request, then vanish before the response *)
    let rq = Serve_protocol.request Serve_protocol.Ping in
    (match
       Serve_client.send_raw ~socket
         (Serve_protocol.frame (Serve_protocol.encode_request rq))
     with
    | Ok _ -> No_reply
    | Error msg -> Transport msg)

(** A burst: [width] connections all send before any reads, so the queue
    must fill and shed.  Returns one outcome per connection. *)
let fire_burst ~socket ~width : outcome list =
  let conns =
    List.init width (fun i ->
        match Serve_client.connect socket with
        | Error msg -> Error msg
        | Ok fd -> (
          let rq =
            Serve_protocol.request Serve_protocol.Compile
              ~source:(Printf.sprintf "entity B%d is end B%d;\n" i i)
          in
          match
            Serve_client.send_all fd
              (Serve_protocol.frame (Serve_protocol.encode_request rq))
          with
          | Ok () -> Ok fd
          | Error msg ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Error msg))
  in
  List.map
    (function
      | Error msg -> Transport msg
      | Ok fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            match Serve_client.recv_response ~timeout_s:30.0 fd with
            | Ok r -> Status (r.Serve_protocol.rs_status, r.Serve_protocol.rs_wedged)
            | Error msg -> Transport msg))
    conns

(* ------------------------------------------------------------------ *)
(* Expectations *)

let check_shot (s : shot) : string option =
  let bad want =
    Some
      (Printf.sprintf "shot %d (%s): expected %s, got %s" s.s_index s.s_label want
         (outcome_label s.s_outcome))
  in
  match (s.s_label, s.s_outcome) with
  | _, Transport msg ->
    Some (Printf.sprintf "shot %d (%s): transport failure: %s" s.s_index s.s_label msg)
  | ("fault:torn-frame" | "fault:client-abort"), No_reply -> None
  | ("fault:torn-frame" | "fault:client-abort"), _ -> bad "no reply"
  | ("fault:bad-magic" | "fault:oversized-frame"), Status (Serve_protocol.Bad_request, _)
    ->
    None
  | ("fault:bad-magic" | "fault:oversized-frame"), _ -> bad "bad-request"
  | "fault:poison-unit", Status (Serve_protocol.Internal, _) -> None
  | "fault:poison-unit", _ -> bad "internal"
  | "fault:wedged-request", Status (Serve_protocol.Timeout, true) -> None
  | "fault:wedged-request", _ -> bad "timeout wedged"
  | "fault:deadline-bust", Status (Serve_protocol.Timeout, _) -> None
  | "fault:deadline-bust", _ -> bad "timeout"
  | _, Status ((Serve_protocol.Ok_ | Serve_protocol.Overload), _) ->
    None (* healthy and burst shots: answered or cleanly shed *)
  | _, _ -> bad "ok or overload"

(* ------------------------------------------------------------------ *)
(* The campaign *)

module Json = Vhdl_telemetry.Telemetry.Json

(* the ledger of the daemon's stats document *)
let ledger_of body =
  match Result.map (Json.path [ "ledger" ]) (Json.parse body) with
  | Ok (Some (Json.Obj kvs)) ->
    Ok (List.filter_map (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_int v)) kvs)
  | Ok _ -> Error "stats document without a ledger"
  | Error msg -> Error ("unreadable stats document: " ^ msg)

let counter counters name = Option.value (List.assoc_opt name counters) ~default:0

let run ?(seed = 0) ?(shots = 240) ~socket () : summary =
  let rng = Random.State.make [| seed; 0x5e2e |] in
  let faults = Array.of_list Difftest_fault.serve_faults in
  let results = ref [] in
  let log = ref [] in
  let n = ref 0 in
  let record label outcome =
    incr n;
    let s = { s_index = !n; s_label = label; s_outcome = outcome } in
    results := s :: !results;
    log := Printf.sprintf "shot %03d %-22s -> %s" !n label (outcome_label outcome) :: !log
  in
  let rq_outcome rq =
    match Serve_client.roundtrip ~timeout_s:30.0 ~socket rq with
    | Ok r -> Status (r.Serve_protocol.rs_status, r.Serve_protocol.rs_wedged)
    | Error msg -> Transport msg
  in
  while !n < shots do
    if !n > 0 && !n mod 40 = 0 then
      List.iteri
        (fun i o -> record (Printf.sprintf "burst[%d]" i) o)
        (fire_burst ~socket ~width:6)
    else begin
      let roll = Random.State.int rng 100 in
      if roll < 35 then record "healthy:compile" (rq_outcome (healthy_compile rng !n))
      else if roll < 50 then record "healthy:simulate" (rq_outcome (healthy_simulate !n))
      else if roll < 60 then
        record "healthy:ping" (rq_outcome (Serve_protocol.request Serve_protocol.Ping))
      else begin
        let f = faults.(Random.State.int rng (Array.length faults)) in
        record
          ("fault:" ^ Difftest_fault.serve_fault_name f)
          (fire_fault ~socket f)
      end
    end
  done;
  let all = List.rev !results in
  let violations = List.filter_map check_shot all in
  (* the daemon's own books, via the stats verb *)
  let ledger =
    match
      Serve_client.roundtrip ~timeout_s:10.0 ~socket
        (Serve_protocol.request ~json:true Serve_protocol.Stats)
    with
    | Ok { Serve_protocol.rs_status = Serve_protocol.Ok_; rs_body; _ } -> ledger_of rs_body
    | Ok r -> Error ("stats verb answered " ^ Serve_protocol.status_name r.Serve_protocol.rs_status)
    | Error msg -> Error ("stats verb unreachable: " ^ msg)
  in
  let daemon_counters, violations =
    match ledger with
    | Error msg -> ([], violations @ [ msg ])
    | Ok cs ->
      let c = counter cs in
      let sum = c "serve.answered" + c "serve.shed" + c "serve.client_gone" in
      let v = ref [] in
      if c "serve.requests" <> sum then
        v :=
          Printf.sprintf
            "ledger imbalance: serve.requests=%d but answered+shed+client_gone=%d"
            (c "serve.requests") sum
          :: !v;
      let landed label =
        List.length
          (List.filter
             (fun s ->
               s.s_label = label
               && match s.s_outcome with Status _ -> true | _ -> false)
             all)
      in
      if c "serve.faults_contained" < landed "fault:poison-unit" then
        v :=
          Printf.sprintf "serve.faults_contained=%d < poison shots answered=%d"
            (c "serve.faults_contained") (landed "fault:poison-unit")
          :: !v;
      if c "serve.wedges" < landed "fault:wedged-request" then
        v :=
          Printf.sprintf "serve.wedges=%d < wedge shots answered=%d" (c "serve.wedges")
            (landed "fault:wedged-request")
          :: !v;
      (cs, violations @ List.rev !v)
  in
  (* the zero-deaths invariant: the daemon must still answer *)
  let violations =
    match
      Serve_client.roundtrip ~timeout_s:10.0 ~socket
        (Serve_protocol.request Serve_protocol.Ping)
    with
    | Ok _ -> violations
    | Error msg -> violations @ [ "daemon dead after campaign: " ^ msg ]
  in
  let count p = List.length (List.filter p all) in
  let status_counts =
    List.filter_map
      (fun (st, name) ->
        let k =
          count (fun s ->
              match s.s_outcome with Status (st', _) -> st' = st | _ -> false)
        in
        if k = 0 then None else Some (name, k))
      Serve_protocol.status_names
  in
  {
    shots = !n;
    answered =
      count (fun s ->
          match s.s_outcome with Status (st, _) -> not (Serve_protocol.is_shed st) | _ -> false);
    shed =
      count (fun s ->
          match s.s_outcome with Status (st, _) -> Serve_protocol.is_shed st | _ -> false);
    no_reply = count (fun s -> s.s_outcome = No_reply);
    transport_failures =
      count (fun s -> match s.s_outcome with Transport _ -> true | _ -> false);
    by_status = status_counts;
    daemon_counters;
    violations;
    log = List.rev !log;
  }

let pp_summary fmt (s : summary) =
  Format.fprintf fmt "campaign: %d shots — %d answered, %d shed, %d no-reply, %d transport@\n"
    s.shots s.answered s.shed s.no_reply s.transport_failures;
  List.iter (fun (st, k) -> Format.fprintf fmt "  status %-12s %d@\n" st k) s.by_status;
  List.iter
    (fun (name, v) -> Format.fprintf fmt "  daemon %-28s %d@\n" name v)
    s.daemon_counters;
  if s.violations = [] then Format.fprintf fmt "  invariants: all hold@\n"
  else
    List.iter (fun v -> Format.fprintf fmt "  VIOLATION: %s@\n" v) s.violations
