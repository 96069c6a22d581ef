(** Phase attribution: the vocabulary connecting the compiler's
    {!Vhdl_util.Phase_timer} phase names, the ["ph_<name>"] fields a
    finish event carries, the per-phase window aggregation in
    {!Obs_slo}, and the "p99 driven by: elaborate 48%" line operators
    read.

    The compiler's phase names are prose ("attribute evaluation",
    "codegen+link (elaboration)"); events want short stable field names
    ("attrs", "elaborate").  The map lives here, in one place, so the
    worker stamping phases, the breach event naming a culprit, and
    [vhdlc analyze] tabulating a log all agree.

    Time attribution is in microseconds — the unit of [service_us] and
    the SLO window — and allocation attribution in bytes; one helper
    serves both.  The ["other"] pseudo-phase holds whatever service time
    (or allocation) no compiler phase claimed (queue-adjacent work,
    protocol framing, response delivery), which is what makes the
    per-event invariants "phase sum ≈ latency" and "al_* sum ≈ alloc_b"
    hold by construction: phases measure self cost {e inside} the
    worker, the totals are measured around the whole request. *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

(** Short, stable field name of a compiler phase. *)
let short_phase = function
  | "scanner" -> "scan"
  | "parser" -> "parse"
  | "attribute evaluation" -> "attrs"
  | "expression evaluation (cascade)" -> "cascade"
  | "VIF read" -> "vif_read"
  | "VIF write" -> "vif_write"
  | "codegen+link (elaboration)" -> "elaborate"
  | "simulation" -> "simulate"
  | other -> sanitize other

(** Short-named attribution of one request's [total] (service
    microseconds, or allocated bytes): the positive per-phase shares plus
    an ["other"] residual — whatever no compiler phase claimed (protocol
    framing, response delivery, span bookkeeping) — so the result sums to
    [total] as long as the phases fit inside it (they do: self time and
    self allocation nest inside the request's). *)
let with_other ~total (phases : (string * float) list) =
  let named =
    List.filter_map
      (fun (name, v) -> if v > 0.0 then Some (short_phase name, v) else None)
      phases
  in
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 named in
  named @ [ ("other", Float.max 0.0 (total -. sum)) ]

(** The event fields of an attribution: one numeric [prefix ^ name] per
    phase ({!Obs_event.phase_prefix} for microseconds,
    {!Obs_event.alloc_prefix} for bytes). *)
let fields ~prefix (phases : (string * float) list) =
  List.map (fun (name, v) -> (prefix ^ name, Obs_event.F v)) phases

(** ["elaborate 48%, cascade 31%"] — the largest [top] shares of a
    phase table, shares below 1% elided; [""] when there is nothing to
    attribute. *)
let attribution ?(top = 3) (phases_us : (string * float) list) =
  let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 phases_us in
  if total <= 0.0 then ""
  else begin
    let sorted = List.sort (fun (_, a) (_, b) -> compare b a) phases_us in
    let rec take n = function
      | x :: rest when n > 0 -> x :: take (n - 1) rest
      | _ -> []
    in
    take top sorted
    |> List.filter_map (fun (name, us) ->
           let pct = 100.0 *. us /. total in
           if pct < 1.0 then None
           else Some (Printf.sprintf "%s %.0f%%" name pct))
    |> String.concat ", "
  end

(** The adaptive slow-request threshold: above it, a finished request
    earns an exemplar dump.  With a p99 objective configured the
    operator has already said what "slow" means — the objective itself.
    Without one, slow is [k]× the window's p50, once the window holds
    at least [min_observed] measured requests (an empty or near-empty
    window has no defensible p50; no threshold, no exemplars, rather
    than dumping on the first warm-up request). *)
let exemplar_threshold_us ~(objectives : Obs_slo.objectives)
    ~(summary : Obs_slo.summary) ~k ~min_observed : float option =
  match objectives.Obs_slo.o_p99_ms with
  | Some p99_ms -> Some (p99_ms *. 1000.0)
  | None ->
    if summary.Obs_slo.s_observed >= min_observed && summary.Obs_slo.s_p50_us > 0.0
    then Some (k *. summary.Obs_slo.s_p50_us)
    else None
