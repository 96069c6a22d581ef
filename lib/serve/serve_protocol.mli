(** The wire protocol of the compile service: length-prefixed frames over a
    Unix-domain stream socket, one request and one response per connection.

    Frame = 4 magic bytes ["AGVS"] + 4-byte big-endian payload length +
    payload.  Payload = one [vhdl-serve/1] header line + free-form body
    (VHDL source on requests; diagnostics/results on responses). *)

val header_bytes : int

val default_max_frame : int
(** Default payload-size limit (4 MiB). *)

(** {1 Framing} *)

type frame_error =
  | Bad_magic
  | Oversized of int (* declared payload length *)
  | Torn of string (* EOF / idle timeout mid-frame *)

val frame_error_to_string : frame_error -> string

val frame : string -> string
(** Wrap a payload in a frame. *)

val parse_frame :
  ?max_frame:int ->
  string ->
  [ `Frame of string * int | `Incomplete of int | `Error of frame_error ]
(** Incremental parse over buffered bytes.  [`Frame (payload, consumed)] on
    a complete frame; [`Incomplete n] needs at least [n] more bytes.  Pure —
    the daemon's per-connection reader and the unit battery share it. *)

(** {1 Requests} *)

type verb =
  | Ping
  | Compile
  | Simulate
  | Stats
  | Slo (* rolling SLO windows: p50/p95/p99, shed and internal rates *)
  | Shutdown

val verb_name : verb -> string

type request = {
  rq_verb : verb;
  rq_deadline_s : float option; (* per-request wall-clock budget *)
  rq_fuel : int option; (* per-request rule-application budget *)
  rq_top : string option; (* Simulate: entity to elaborate *)
  rq_max_ns : int; (* Simulate: horizon (default 1000) *)
  rq_poison : string option; (* fault injection (daemon must allow) *)
  rq_spin_ms : int; (* fault injection: busy-wait before work *)
  rq_hog_kb : int; (* fault injection: retain this many kB in the worker *)
  rq_json : bool; (* Stats/Slo: answer with a JSON body *)
  rq_source : string;
}

val request :
  ?deadline_s:float ->
  ?fuel:int ->
  ?top:string ->
  ?max_ns:int ->
  ?poison:string ->
  ?spin_ms:int ->
  ?hog_kb:int ->
  ?json:bool ->
  ?source:string ->
  verb ->
  request

val encode_request : request -> string
val decode_request : string -> (request, string) result

(** {1 Responses} *)

type status =
  | Ok_
  | Error_ (* user-level diagnostics *)
  | Internal (* a contained escape answered for the request *)
  | Timeout (* budget / watchdog *)
  | Overload (* shed: queue full *)
  | Draining (* shed: daemon shutting down *)
  | Bad_request (* unparseable payload or oversized frame *)

val status_names : (status * string) list
(** Every status with its wire name, in exit-code order. *)

val status_name : status -> string

val is_shed : status -> bool
(** [Overload] and [Draining]: shed at admission, never worked on. *)

val status_exit_code : status -> int
(** The stable exit code [vhdlc request] maps each status to. *)

type response = {
  rs_status : status;
  rs_retry_after_s : float option;
  rs_wedged : bool; (* the watchdog fired and broke the request *)
  rs_request_id : int option; (* the daemon's id: correlates the response
                                 with event-log lines and trace spans *)
  rs_body : string;
}

val response : ?retry_after_s:float -> ?wedged:bool -> ?body:string -> status -> response
(** A response without a request id; the daemon stamps its id when it
    sends the response. *)

val encode_response : response -> string
val decode_response : string -> (response, string) result
