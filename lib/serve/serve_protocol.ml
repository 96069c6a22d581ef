(** The wire protocol of the compile service: length-prefixed frames over a
    Unix-domain stream socket, one request and one response per connection.

    A frame is an 8-byte header — 4 magic bytes ["AGVS"] then a 4-byte
    big-endian payload length — followed by the payload.  Framing failures
    are first-class: a frame whose magic is wrong, whose declared length
    exceeds the daemon's limit, or whose payload never fully arrives (a
    "torn" frame) is detected and rejected without disturbing the daemon.

    The payload is line-oriented text: a version-tagged header line
    ([vhdl-serve/1 VERB key=value ...]) followed by free-form body text
    (VHDL source on requests, diagnostics and results on responses).  Text
    keeps torn-frame and fuzz corpora human-readable, and the single header
    line keeps decoding allocation-lean. *)

let magic = "AGVS"
let header_bytes = 8
let version_tag = "vhdl-serve/1"

let default_max_frame = 4 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Framing *)

type frame_error =
  | Bad_magic
  | Oversized of int (* declared payload length *)
  | Torn of string (* EOF / idle timeout mid-frame: what was missing *)

let frame_error_to_string = function
  | Bad_magic -> "bad frame magic"
  | Oversized n -> Printf.sprintf "declared payload of %d bytes exceeds the frame limit" n
  | Torn what -> Printf.sprintf "torn frame: %s" what

(** Wrap a payload in a frame. *)
let frame payload =
  let n = String.length payload in
  let b = Bytes.create (header_bytes + n) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 4 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 5 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 6 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 7 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b header_bytes n;
  Bytes.unsafe_to_string b

(** Incremental frame parse over whatever bytes have been buffered so far.
    Pure, so the daemon's per-connection reader and the unit battery share
    it.  [`Incomplete n] means at least [n] more bytes are needed. *)
let parse_frame ?(max_frame = default_max_frame) buf :
    [ `Frame of string * int | `Incomplete of int | `Error of frame_error ] =
  let have = String.length buf in
  if have < header_bytes then
    if have > 0 && not (String.sub buf 0 (min 4 have) = String.sub magic 0 (min 4 have))
    then `Error Bad_magic
    else `Incomplete (header_bytes - have)
  else if String.sub buf 0 4 <> magic then `Error Bad_magic
  else
    let len =
      (Char.code buf.[4] lsl 24)
      lor (Char.code buf.[5] lsl 16)
      lor (Char.code buf.[6] lsl 8)
      lor Char.code buf.[7]
    in
    if len > max_frame then `Error (Oversized len)
    else if have < header_bytes + len then `Incomplete (header_bytes + len - have)
    else `Frame (String.sub buf header_bytes len, header_bytes + len)

(* ------------------------------------------------------------------ *)
(* Requests *)

type verb =
  | Ping (* liveness probe; body ignored *)
  | Compile (* compile the body into the warm working library *)
  | Simulate (* compile the body (if any), elaborate rq_top, run *)
  | Stats (* serve.* telemetry counters and latency percentiles *)
  | Slo (* rolling SLO windows: p50/p95/p99, shed and internal rates *)
  | Shutdown (* answer, then drain and exit *)

(* each enum's wire names, listed once and read both ways *)
let name_of names x = List.assoc x names
let of_name names s = List.find_map (fun (x, n) -> if n = s then Some x else None) names

let verb_names =
  [
    (Ping, "ping"); (Compile, "compile"); (Simulate, "simulate"); (Stats, "stats");
    (Slo, "slo"); (Shutdown, "shutdown");
  ]

let verb_name = name_of verb_names
let verb_of_name = of_name verb_names

type request = {
  rq_verb : verb;
  rq_deadline_s : float option; (* per-request wall-clock budget *)
  rq_fuel : int option; (* per-request rule-application budget *)
  rq_top : string option; (* Simulate: entity to elaborate *)
  rq_max_ns : int; (* Simulate: horizon *)
  rq_poison : string option; (* fault injection (daemon must allow) *)
  rq_spin_ms : int; (* fault injection: busy-wait before work *)
  rq_hog_kb : int; (* fault injection: retain this many kB in the worker *)
  rq_json : bool; (* Stats/Slo: answer with a JSON body *)
  rq_source : string; (* VHDL source text *)
}

let request ?deadline_s ?fuel ?top ?(max_ns = 1000) ?poison ?(spin_ms = 0)
    ?(hog_kb = 0) ?(json = false) ?(source = "") verb =
  {
    rq_verb = verb;
    rq_deadline_s = deadline_s;
    rq_fuel = fuel;
    rq_top = top;
    rq_max_ns = max_ns;
    rq_poison = poison;
    rq_spin_ms = spin_ms;
    rq_hog_kb = hog_kb;
    rq_json = json;
    rq_source = source;
  }

(* ------------------------------------------------------------------ *)
(* Responses *)

type status =
  | Ok_ (* the work succeeded *)
  | Error_ (* user-level diagnostics *)
  | Internal (* a contained escape: the firewall answered for the request *)
  | Timeout (* a budget (deadline/fuel) or the watchdog ended the request *)
  | Overload (* shed at admission: the queue was full *)
  | Draining (* shed at admission: the daemon is shutting down *)
  | Bad_request (* unparseable frame payload or oversized frame *)

let status_names =
  [
    (Ok_, "ok"); (Error_, "error"); (Internal, "internal"); (Timeout, "timeout");
    (Overload, "overload"); (Draining, "draining"); (Bad_request, "bad-request");
  ]

let status_name = name_of status_names
let status_of_name = of_name status_names

(** The admission sheds: the request was never worked on. *)
let is_shed = function Overload | Draining -> true | _ -> false

(** Exit code [vhdlc request] maps each status to (transport failures are
    7) — stable, so scripts and the chaos campaign can branch on it. *)
let status_exit_code = function
  | Ok_ -> 0
  | Error_ -> 1
  | Internal -> 2
  | Timeout -> 3
  | Overload -> 4
  | Draining -> 5
  | Bad_request -> 6

type response = {
  rs_status : status;
  rs_retry_after_s : float option; (* Overload: when to try again *)
  rs_wedged : bool; (* Timeout: the watchdog broke the request *)
  rs_request_id : int option; (* the daemon's id for this request *)
  rs_body : string;
}

let response ?retry_after_s ?(wedged = false) ?(body = "") status =
  {
    rs_status = status;
    rs_retry_after_s = retry_after_s;
    rs_wedged = wedged;
    rs_request_id = None;
    rs_body = body;
  }

(* ------------------------------------------------------------------ *)
(* Encoding: one header line, then the body *)

let opt_field name to_string = function
  | None -> []
  | Some v -> [ Printf.sprintf "%s=%s" name (to_string v) ]

let split_header payload =
  match String.index_opt payload '\n' with
  | None -> (payload, "")
  | Some i ->
    (String.sub payload 0 i, String.sub payload (i + 1) (String.length payload - i - 1))

(* "k=v" fields after the verb/status word; values never contain spaces *)
let parse_fields words =
  List.filter_map
    (fun w ->
      match String.index_opt w '=' with
      | Some i -> Some (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
      | None -> None)
    words

let encode_request (r : request) =
  let fields =
    List.concat
      [
        opt_field "deadline" (Printf.sprintf "%g") r.rq_deadline_s;
        opt_field "fuel" string_of_int r.rq_fuel;
        opt_field "top" Fun.id r.rq_top;
        (if r.rq_max_ns <> 1000 then [ Printf.sprintf "ns=%d" r.rq_max_ns ] else []);
        opt_field "poison" Fun.id r.rq_poison;
        (if r.rq_spin_ms <> 0 then [ Printf.sprintf "spin_ms=%d" r.rq_spin_ms ] else []);
        (if r.rq_hog_kb <> 0 then [ Printf.sprintf "hog_kb=%d" r.rq_hog_kb ] else []);
        (if r.rq_json then [ "json=1" ] else []);
      ]
  in
  String.concat " " (version_tag :: verb_name r.rq_verb :: fields)
  ^ "\n" ^ r.rq_source

let decode_request payload : (request, string) result =
  let header, body = split_header payload in
  match String.split_on_char ' ' header with
  | tag :: verb :: fields when tag = version_tag -> (
    match verb_of_name verb with
    | None -> Error (Printf.sprintf "unknown verb %S" verb)
    | Some v -> (
      let fields = parse_fields fields in
      let f name = List.assoc_opt name fields in
      let int_field name ~default =
        match f name with
        | None -> Ok default
        | Some s -> (
          match int_of_string_opt s with
          | Some n -> Ok n
          | None -> Error (Printf.sprintf "bad integer for %s: %S" name s))
      in
      let float_opt name =
        match f name with
        | None -> Ok None
        | Some s -> (
          match float_of_string_opt s with
          | Some x -> Ok (Some x)
          | None -> Error (Printf.sprintf "bad number for %s: %S" name s))
      in
      match (float_opt "deadline", int_field "ns" ~default:1000,
             int_field "spin_ms" ~default:0, int_field "hog_kb" ~default:0) with
      | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _ | _, _, _, Error e ->
        Error e
      | Ok deadline, Ok max_ns, Ok spin_ms, Ok hog_kb ->
        let fuel =
          match f "fuel" with Some s -> int_of_string_opt s | None -> None
        in
        Ok
          {
            rq_verb = v;
            rq_deadline_s = deadline;
            rq_fuel = fuel;
            rq_top = f "top";
            rq_max_ns = max_ns;
            rq_poison = f "poison";
            rq_spin_ms = spin_ms;
            rq_hog_kb = hog_kb;
            rq_json = List.mem_assoc "json" fields;
            rq_source = body;
          }))
  | tag :: _ when tag <> version_tag ->
    Error (Printf.sprintf "unknown protocol version %S (want %s)" tag version_tag)
  | _ -> Error "empty request header"

let encode_response (r : response) =
  let fields =
    List.concat
      [
        opt_field "retry_after" (Printf.sprintf "%.3f") r.rs_retry_after_s;
        (if r.rs_wedged then [ "wedged=1" ] else []);
        opt_field "rid" string_of_int r.rs_request_id;
      ]
  in
  String.concat " " (version_tag :: status_name r.rs_status :: fields)
  ^ "\n" ^ r.rs_body

let decode_response payload : (response, string) result =
  let header, body = split_header payload in
  match String.split_on_char ' ' header with
  | tag :: status :: fields when tag = version_tag -> (
    match status_of_name status with
    | None -> Error (Printf.sprintf "unknown status %S" status)
    | Some s ->
      let fields = parse_fields fields in
      Ok
        {
          rs_status = s;
          rs_retry_after_s =
            Option.bind (List.assoc_opt "retry_after" fields) float_of_string_opt;
          rs_wedged = List.mem_assoc "wedged" fields;
          rs_request_id = Option.bind (List.assoc_opt "rid" fields) int_of_string_opt;
          rs_body = body;
        })
  | tag :: _ when tag <> version_tag ->
    Error (Printf.sprintf "unknown protocol version %S (want %s)" tag version_tag)
  | _ -> Error "empty response header"
