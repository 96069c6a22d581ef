(** The chaos campaign: randomized healthy and faulty requests fired at a
    live daemon, with per-shot expectations and end-of-campaign invariant
    checks (see the implementation header for the full contract). *)

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
  violations : string list; (* empty = every invariant held *)
  log : string list; (* one line per shot, campaign order *)
}

val run : ?seed:int -> ?shots:int -> socket:string -> unit -> summary
(** Fire [shots] (default 240) at the daemon on [socket]; every 40 shots a
    6-wide concurrent burst exercises admission shedding.  Deterministic
    for a given [seed].  The daemon must run with fault injection allowed
    and a queue smaller than the burst width (6) for the full mix to
    land. *)

val pp_summary : Format.formatter -> summary -> unit
