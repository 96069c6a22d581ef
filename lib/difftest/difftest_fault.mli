(** Fault injection for validating the differential oracle.

    [arm] flips one semantic rule of the expression AG — the integer-literal
    candidate rule ([primary_LINT]) — so that while the flip is active
    ({!with_active}) every integer literal evaluates to its value plus one.
    The oracle activates the flip around the staged-strategy compile only,
    so an armed fault makes the two evaluation strategies genuinely
    disagree the way a real semantic-rule regression would.  With the flag inactive the wrapped
    rule is behavior-identical to the original. *)

val arm : unit -> unit
(** Install the flipped rule (idempotent; mutates the shared grammar). *)

val active : unit -> bool

val with_active : bool -> (unit -> 'a) -> 'a
(** Run a thunk with the flip forced on/off, restoring the previous state
    even on exceptions. *)

val with_poison : string -> (unit -> 'a) -> 'a
(** Run a thunk with a poison installed on one unit key (e.g.
    ["entity:BAD"]): as that unit finishes analysis, a [Pval.Internal] is
    raised from inside its UNITS semantic rule, which the first call wraps
    in place as {!arm} wraps the literal rule.  Exercises the per-unit
    exception firewall — the poisoned unit must surface as an
    internal-error diagnostic while sibling units compile. *)

(** {1 Serve-layer fault sites}

    The catalog the chaos campaign ([vhdlfuzz --serve-chaos]) and the serve
    unit battery draw from.  The serve layer maps each site to concrete wire
    or request behavior. *)

type serve_fault =
  | Torn_frame (* header promises more payload than is ever sent *)
  | Bad_magic (* frame does not start with the protocol magic *)
  | Oversized_frame (* declared length beyond the daemon's max frame *)
  | Poison_unit (* Pval.Internal raised from a unit's UNITS rule *)
  | Wedged_request (* request that spins past the watchdog deadline *)
  | Deadline_bust (* work too large for the request's deadline budget *)
  | Client_abort (* client disconnects before reading the response *)

val serve_faults : serve_fault list
val serve_fault_name : serve_fault -> string
