(** Typed events of the compile-service event log.

    One event is one line of the append-only JSONL sink ([serve.events])
    and one slot of the in-memory flight recorder.  Every event that is
    about a particular request carries that request's id — the same id
    the daemon echoes in the [vhdl-serve/1] response header and threads
    into telemetry spans, so a request's log lines, trace, and
    client-visible response all correlate on one number.

    The vocabulary is deliberately small and the life of a request is a
    fixed grammar over it:

    {v
      accept (admit start finish | shed | reject)
    v}

    - a request that gets a substantive response (any status except the
      admission sheds) has exactly one [start] and one [finish];
    - an admission rejection (queue full, draining) is a [shed];
    - a frame that never became a request (client vanished mid-frame)
      is a [reject].

    [recycle], [drain], [breach], [dump] and [flush] are daemon-level
    events; they carry a request id only when one is implicated (the
    request whose escape tripped the firewall, for instance).

    Encoding is one flat JSON object per line —
    [{"ts":1.042,"ev":"finish","rid":7,"status":"ok",...}] — readable by
    humans, greppable by shell, and parsed back by {!of_line} for the
    validators (the chaos campaign and the test battery check the
    grammar above over a real log). *)

module Tm = Vhdl_telemetry.Telemetry

type kind =
  | Accept (* connection accepted; the request id is assigned here *)
  | Admit (* past admission control, into the queue *)
  | Shed (* admission rejection: overload or draining *)
  | Start (* response computation begins *)
  | Finish (* response delivered (or the client was gone) *)
  | Reject (* frame never became a request; no response was owed *)
  | Recycle (* the warm worker was replaced *)
  | Drain (* lifecycle: drain begins / daemon stopped *)
  | Breach (* a rolling SLO objective was violated *)
  | Heap_breach (* the heap-health watchdog detected sustained growth *)
  | Dump (* a flight-recorder dump was written *)
  | Flush (* periodic metrics flush *)

let kind_names =
  [
    (Accept, "accept"); (Admit, "admit"); (Shed, "shed"); (Start, "start");
    (Finish, "finish"); (Reject, "reject"); (Recycle, "recycle");
    (Drain, "drain"); (Breach, "breach"); (Heap_breach, "heap_breach");
    (Dump, "dump"); (Flush, "flush");
  ]

let kind_name k = List.assoc k kind_names
let kind_of_name s = List.find_map (fun (k, n) -> if n = s then Some k else None) kind_names

(* kind-specific payload: strings stay strings, measurements stay
   numbers, so the JSONL is directly loadable into anything columnar *)
type field_value =
  | S of string
  | I of int
  | F of float

type t = {
  e_ts : float; (* seconds since process start (the telemetry clock) *)
  e_kind : kind;
  e_rid : int option; (* request id, when the event is about one *)
  e_fields : (string * field_value) list;
}

let make ?rid ?(fields = []) kind =
  { e_ts = Tm.now_s (); e_kind = kind; e_rid = rid; e_fields = fields }

let field t name = List.assoc_opt name t.e_fields

let field_str t name =
  match field t name with
  | Some (S s) -> Some s
  | Some (I n) -> Some (string_of_int n)
  | Some (F x) -> Some (Printf.sprintf "%g" x)
  | None -> None

let field_num t name =
  match field t name with
  | Some (F x) -> Some x
  | Some (I n) -> Some (float_of_int n)
  | Some (S _) | None -> None

(* the per-phase attribution a finish event carries: one ["ph_<name>"]
   numeric field (microseconds of self time) per phase, "other" holding
   whatever service time no compiler phase claimed; the allocation twin
   is one ["al_<name>"] field (bytes of self-allocation) per phase.
   "al_" cannot collide with the "alloc_b" total: it continues "all…",
   not "al_". *)
let phase_prefix = "ph_"
let alloc_prefix = "al_"

let prefixed_fields prefix t : (string * float) list =
  List.filter_map
    (fun (k, v) ->
      let p = String.length prefix in
      if String.length k > p && String.sub k 0 p = prefix then
        match v with
        | F x -> Some (String.sub k p (String.length k - p), x)
        | I n -> Some (String.sub k p (String.length k - p), float_of_int n)
        | S _ -> None
      else None)
    t.e_fields

let phase_fields t = prefixed_fields phase_prefix t
let alloc_fields t = prefixed_fields alloc_prefix t

(* ------------------------------------------------------------------ *)
(* JSONL encoding *)

let json_of_value = function
  | S s -> Tm.Json.str s
  | I n -> Tm.Json.int n
  | F x -> Tm.Json.float x

let to_json t =
  Tm.Json.obj
    (List.concat
       [
         [ ("ts", Tm.Json.float t.e_ts); ("ev", Tm.Json.str (kind_name t.e_kind)) ];
         (match t.e_rid with Some r -> [ ("rid", Tm.Json.int r) ] | None -> []);
         List.map (fun (k, v) -> (k, json_of_value v)) t.e_fields;
       ])

let to_line t = to_json t ^ "\n"

(* ------------------------------------------------------------------ *)
(* Decoding, for the validators.  Built on Telemetry.Json's reader — the
   inverse of the builder used above. *)

module J = Tm.Json

let of_json (j : J.t) : (t, string) result =
  match j with
  | J.Obj fields -> (
    let ts =
      match List.assoc_opt "ts" fields with
      | Some (J.Num x) -> Some x
      | _ -> None
    in
    let ev =
      match List.assoc_opt "ev" fields with
      | Some (J.Str s) -> kind_of_name s
      | _ -> None
    in
    match (ts, ev) with
    | None, _ -> Error "event without a numeric ts"
    | _, None -> Error "event without a known ev kind"
    | Some ts, Some kind ->
      let rid =
        match List.assoc_opt "rid" fields with
        | Some (J.Num x) -> Some (int_of_float x)
        | _ -> None
      in
      let rest =
        List.filter_map
          (fun (k, v) ->
            if k = "ts" || k = "ev" || k = "rid" then None
            else
              match v with
              | J.Str s -> Some (k, S s)
              | J.Num x ->
                if Float.is_integer x && Float.abs x < 1e15 then
                  Some (k, I (int_of_float x))
                else Some (k, F x)
              | _ -> None)
          fields
      in
      Ok { e_ts = ts; e_kind = kind; e_rid = rid; e_fields = rest })
  | _ -> Error "event line is not a JSON object"

let of_line line =
  match J.parse line with
  | Error e -> Error e
  | Ok j -> of_json j

(** Parse a whole event log (one JSON object per line; blank lines
    ignored).  A malformed {e final} line is the signature of a crash
    mid-write (the sink flushes per event, so only the very last line
    can be torn): it is skipped with a counted warning rather than
    failing the read, so post-mortem analytics still run on a log whose
    writer died.  A malformed line {e followed by} well-formed ones is
    real corruption and still fails — a log that does not parse
    end-to-end is itself a finding. *)
let read_log path : (t list * string list, string) result =
  let text = Vhdl_util.Unix_compat.read_file path in
  let lines = String.split_on_char '\n' text in
  let rec go n acc warnings = function
    | [] -> Ok (List.rev acc, List.rev warnings)
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" then go (n + 1) acc warnings rest
      else (
        match of_line trimmed with
        | Ok e -> go (n + 1) (e :: acc) warnings rest
        | Error msg ->
          if List.exists (fun l -> String.trim l <> "") rest then
            Error (Printf.sprintf "%s:%d: %s" path n msg)
          else
            go (n + 1) acc
              (Printf.sprintf "%s:%d: skipped truncated trailing line (%s)"
                 path n msg
              :: warnings)
              rest)
  in
  go 1 [] [] lines

(* ------------------------------------------------------------------ *)
(* Log invariants — the request-lifecycle grammar, checked over a real
   log by the chaos campaign, the smoke script, and the test battery. *)

(** Violations of the event grammar over a parsed log:
    - request ids are assigned monotonically (strictly increasing across
      [accept] events);
    - every [start] has exactly one [finish] with the same rid, and vice
      versa;
    - every [admit], [shed], [start], [finish] and [reject] names a rid
      that some [accept] assigned.
    Returns human-readable violation strings; empty means the log is
    well-formed. *)
let check_log (events : t list) : string list =
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let accepts = Hashtbl.create 64 in
  let last_accept = ref min_int in
  let starts = Hashtbl.create 64 and finishes = Hashtbl.create 64 in
  let count tbl rid = Hashtbl.replace tbl rid (1 + Option.value (Hashtbl.find_opt tbl rid) ~default:0) in
  List.iter
    (fun e ->
      match (e.e_kind, e.e_rid) with
      | Accept, Some rid ->
        if rid <= !last_accept then
          bad "accept rid %d not monotone (previous accept was %d)" rid !last_accept;
        last_accept := rid;
        Hashtbl.replace accepts rid ()
      | Accept, None -> bad "accept event without a rid"
      | (Admit | Shed | Start | Finish | Reject), None ->
        bad "%s event without a rid" (kind_name e.e_kind)
      | (Admit | Shed | Start | Finish | Reject), Some rid ->
        if not (Hashtbl.mem accepts rid) then
          bad "%s names rid %d that no accept assigned" (kind_name e.e_kind) rid;
        if e.e_kind = Start then count starts rid;
        if e.e_kind = Finish then begin
          count finishes rid;
          (* phase attribution must account for the latency it explains:
             a finish that carries both service_us and ph_* fields has
             their sum within 10% of the latency (1us floor so a
             sub-microsecond daemon-verb answer never false-positives) *)
          (match field_num e "service_us" with
          | None -> ()
          | Some svc -> (
            match phase_fields e with
            | [] -> ()
            | phases ->
              let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 phases in
              let tolerance = Float.max (0.10 *. svc) 1.0 in
              if Float.abs (sum -. svc) > tolerance then
                bad
                  "rid %d finish: phase sum %.0fus disagrees with service_us \
                   %.0fus (tolerance %.0fus)"
                  rid sum svc tolerance));
          (* allocation attribution must likewise account for the total
             it explains: al_* bytes sum to alloc_b within 10%, with a
             page-ish floor so GC-counter granularity on a tiny request
             never false-positives *)
          match field_num e "alloc_b" with
          | None -> ()
          | Some total -> (
            match alloc_fields e with
            | [] -> ()
            | allocs ->
              let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 allocs in
              let tolerance = Float.max (0.10 *. total) 4096.0 in
              if Float.abs (sum -. total) > tolerance then
                bad
                  "rid %d finish: alloc sum %.0fB disagrees with alloc_b \
                   %.0fB (tolerance %.0fB)"
                  rid sum total tolerance)
        end
      | (Recycle | Drain | Breach | Heap_breach | Dump | Flush), _ -> ())
    events;
  Hashtbl.iter
    (fun rid n ->
      let m = Option.value (Hashtbl.find_opt finishes rid) ~default:0 in
      if n <> 1 then bad "rid %d has %d start events" rid n;
      if m <> n then bad "rid %d has %d start but %d finish events" rid n m)
    starts;
  Hashtbl.iter
    (fun rid m ->
      if not (Hashtbl.mem starts rid) then
        bad "rid %d has %d finish events but no start" rid m)
    finishes;
  List.rev !violations
