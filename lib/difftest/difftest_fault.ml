(** Fault injection: flip the integer-literal semantic rule of the
    expression AG under a runtime flag (see the .mli).

    The grammars are built lazily and shared process-wide (as Linguist
    generates its evaluator once), so the flip cannot rebuild a second
    grammar; instead the installed wrapper consults [active_flag] at
    rule-application time and perturbs only [Pval.Cands] results carrying
    integer-literal candidates. *)

let armed_flag = ref false
let active_flag = ref false

let active () = !active_flag

(* Bump an integer-literal candidate: both the KIR code and the static
   value, the way a miscompiled semantic function would. *)
let perturb_cand = function
  | Pval.Cv { ty; code = Kir.Elit (Value.Vint n); static = Some (Value.Vint _) } ->
    Pval.Cv
      {
        ty;
        code = Kir.Elit (Value.Vint (n + 1));
        static = Some (Value.Vint (n + 1));
      }
  | c -> c

let rec perturb (v : Pval.t) =
  match v with
  | Pval.Cands cs -> Pval.Cands (List.map perturb_cand cs)
  | Pval.Pair (a, b) -> Pval.Pair (perturb a, perturb b)
  | v -> v

(* Wrap, in place, every rule of [g] that [select] picks, so [wrap]
   post-processes its result.  The wrapper stays installed and consults its
   own flag at rule-application time. *)
let wrap_rules g ~select wrap =
  for i = 0 to Grammar.n_productions g - 1 do
    let p = Grammar.production g i in
    Array.iteri
      (fun j (r : Pval.t Grammar.rule) ->
        if select p r then
          p.Grammar.rules.(j) <-
            { r with Grammar.compute = Grammar.map_result wrap r.Grammar.compute })
      p.Grammar.rules
  done

let arm () =
  if not !armed_flag then begin
    armed_flag := true;
    wrap_rules (Expr_eval.grammar ())
      ~select:(fun p _ -> p.Grammar.prod_name = "primary_LINT")
      (fun v -> if !active_flag then perturb v else v)
  end

(* Activating implies arming: callers (the oracle's [inject_fault]) need
   the wrapper installed, not just the flag raised. *)
let with_active b f =
  if b then arm ();
  let prev = !active_flag in
  active_flag := b;
  Fun.protect ~finally:(fun () -> active_flag := prev) f

(* ------------------------------------------------------------------ *)
(* Poison injection: a [Pval.Internal] raised from inside one unit's UNITS
   rule as the unit finishes analysis, through a wrapper installed on the
   principal AG's explicit UNITS rules the way [arm] wraps [primary_LINT].
   Exercises the per-unit exception firewall: the poisoned unit must yield
   an internal-error diagnostic while its siblings compile. *)

let poison_key = ref None
let poison_armed = ref false

let poison = function
  | Pval.Units us as v -> (
    match !poison_key with
    | Some key when List.exists (fun u -> u.Unit_info.u_key = key) us ->
      Pval.internal "injected poison in %s" key
    | _ -> v)
  | v -> v

let with_poison key f =
  if not !poison_armed then begin
    poison_armed := true;
    let g = Main_grammar.grammar () in
    wrap_rules g
      ~select:(fun _ r ->
        r.Grammar.provenance = Grammar.Explicit
        && r.Grammar.target.Grammar.pos = 0
        && Grammar.attr_name g r.Grammar.target.Grammar.attr = "UNITS")
      poison
  end;
  let prev_key = !poison_key in
  poison_key := Some key;
  Fun.protect ~finally:(fun () -> poison_key := prev_key) f

(* ------------------------------------------------------------------ *)
(* Serve-layer fault sites: the catalog the chaos campaign and the serve
   unit battery draw from.  The serve layer maps each site to concrete
   wire or request behavior (lib/serve/serve_chaos.ml); keeping the
   catalog here keeps every injectable fault in one module. *)

type serve_fault =
  | Torn_frame (* header promises more payload than is ever sent *)
  | Bad_magic (* frame does not start with the protocol magic *)
  | Oversized_frame (* declared length beyond the daemon's max frame *)
  | Poison_unit (* Pval.Internal raised from a unit's UNITS rule *)
  | Wedged_request (* request that spins past the watchdog deadline *)
  | Deadline_bust (* work too large for the request's deadline budget *)
  | Client_abort (* client disconnects before reading the response *)

let serve_faults =
  [
    Torn_frame;
    Bad_magic;
    Oversized_frame;
    Poison_unit;
    Wedged_request;
    Deadline_bust;
    Client_abort;
  ]

let serve_fault_name = function
  | Torn_frame -> "torn-frame"
  | Bad_magic -> "bad-magic"
  | Oversized_frame -> "oversized-frame"
  | Poison_unit -> "poison-unit"
  | Wedged_request -> "wedged-request"
  | Deadline_bust -> "deadline-bust"
  | Client_abort -> "client-abort"
