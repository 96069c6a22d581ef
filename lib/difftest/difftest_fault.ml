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

let arm () =
  if not !armed_flag then begin
    armed_flag := true;
    let g = Expr_eval.grammar () in
    let n = Grammar.n_productions g in
    for i = 0 to n - 1 do
      let p = Grammar.production g i in
      if p.Grammar.prod_name = "primary_LINT" then
        Array.iteri
          (fun j (r : Pval.t Grammar.rule) ->
            let orig = r.Grammar.compute in
            p.Grammar.rules.(j) <-
              {
                r with
                Grammar.compute =
                  (fun args ->
                    let v = orig args in
                    if !active_flag then perturb v else v);
              })
          p.Grammar.rules
    done
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
   rule, through the [Session.insert_hook] called as the unit finishes
   analysis.  Exercises the per-unit exception firewall: the poisoned unit
   must yield an internal-error diagnostic while its siblings compile. *)

let poison_key = ref None

let poison_hook (u : Unit_info.compiled_unit) =
  match !poison_key with
  | Some key when u.Unit_info.u_key = key ->
    Pval.internal "injected poison in %s" key
  | _ -> ()

let with_poison key f =
  let prev_key = !poison_key in
  let prev_hook = !Session.insert_hook in
  poison_key := Some key;
  Session.insert_hook := poison_hook;
  Fun.protect
    ~finally:(fun () ->
      poison_key := prev_key;
      Session.insert_hook := prev_hook)
    f

(* ------------------------------------------------------------------ *)
(* Serve-layer fault sites: the catalog the chaos campaign and the serve
   unit battery draw from.  The serve layer maps each site to concrete
   wire or request behavior (lib/serve/serve_chaos.ml); keeping the
   catalog here keeps every injectable fault in one module. *)

type serve_fault =
  | Torn_frame (* header promises more payload than is ever sent *)
  | Bad_magic (* frame does not start with the protocol magic *)
  | Oversized_frame (* declared length beyond the daemon's max frame *)
  | Poison_unit (* Pval.Internal raised mid-analysis via insert_hook *)
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
