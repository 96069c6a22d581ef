(** The performance observatory: statistical benchmark sessions, a
    canonical report schema with persisted baselines, a noise-aware
    regression gate, and profile export from telemetry spans.

    The paper's evaluation is quantitative — lines/minute, phase
    percentages, configuration cost — and this library is what turns
    each re-measurement of those numbers into a comparable data point:

    - {!run} measures a thunk with warmup, N repetitions on the
      monotonic wall clock, GC/allocation deltas, telemetry counter
      deltas and phase self-times ({!Sample});
    - {!Report} serializes a list of samples plus machine/commit
      metadata to the [BENCH_report.json] schema, and reads it back;
    - {!Diff} compares two reports with a noise-aware significance test
      (median ratio gated by bootstrap-CI separation) — the regression
      gate behind [vhdlc bench --against];
    - {!Flame} converts the telemetry span tree into collapsed-stack
      ("folded") output that flamegraph.pl and speedscope load directly.

    All timing uses {!Telemetry.now_s} — monotonic wall clock, never
    [Sys.time] (CPU time), which undercounts IO and descheduling. *)

module Telemetry = Vhdl_telemetry.Telemetry
module Json = Telemetry.Json

let now = Telemetry.now_s

(* ------------------------------------------------------------------ *)
(* Statistics *)

module Stat = struct
  (* Medians and the median absolute deviation: the robust location/scale
     pair.  Benchmark repetition times are contaminated by scheduler and
     GC outliers; mean/stddev would let one bad repetition move the whole
     estimate, the median ignores it. *)

  let sorted a =
    let b = Array.copy a in
    Array.sort compare b;
    b

  let median_sorted b =
    let n = Array.length b in
    if n = 0 then nan
    else if n land 1 = 1 then b.(n / 2)
    else (b.((n / 2) - 1) +. b.(n / 2)) /. 2.0

  let median a = median_sorted (sorted a)

  let mean a =
    let n = Array.length a in
    if n = 0 then nan else Array.fold_left ( +. ) 0.0 a /. float_of_int n

  (** Median absolute deviation from the median (unscaled). *)
  let mad a =
    if Array.length a = 0 then nan
    else begin
      let m = median a in
      median (Array.map (fun x -> Float.abs (x -. m)) a)
    end

  (* A small deterministic xorshift PRNG: the bootstrap must not perturb
     (or depend on) the global [Random] state, and a fixed seed keeps
     reports reproducible. *)
  let bootstrap_ci ?(seed = 0x9e3779b9) ?(iters = 1000) ?(confidence = 0.95) a =
    let n = Array.length a in
    if n = 0 then (nan, nan)
    else if n = 1 then (a.(0), a.(0))
    else begin
      let state = ref (if seed = 0 then 1 else seed) in
      let rand_int bound =
        let s = !state in
        let s = s lxor (s lsl 13) in
        let s = s lxor (s lsr 17) in
        let s = s lxor (s lsl 5) in
        state := s land 0x3FFFFFFF;
        !state mod bound
      in
      let resample = Array.make n 0.0 in
      let medians =
        Array.init iters (fun _ ->
            for i = 0 to n - 1 do
              resample.(i) <- a.(rand_int n)
            done;
            median resample)
      in
      let ms = sorted medians in
      let alpha = (1.0 -. confidence) /. 2.0 in
      let idx p =
        let i = int_of_float (p *. float_of_int (iters - 1)) in
        ms.(max 0 (min (iters - 1) i))
      in
      (idx alpha, idx (1.0 -. alpha))
    end
end

(* ------------------------------------------------------------------ *)
(* GC deltas *)

module Gc_delta = struct
  (** How much memory work a measured section did: collection counts are
      deltas over the section; [heap_words] and [top_heap_words] are the
      absolute heap size / process peak at its end (a peak has no
      meaningful delta).  Words allocated are not here: the sample's
      per-repetition [s_allocs] carries them exactly. *)
  type t = {
    minor_collections : int;
    major_collections : int;
    compactions : int;
    heap_words : int;
    top_heap_words : int;
  }

  let zero =
    {
      minor_collections = 0;
      major_collections = 0;
      compactions = 0;
      heap_words = 0;
      top_heap_words = 0;
    }

  let between (a : Gc.stat) (b : Gc.stat) =
    {
      minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
      major_collections = b.Gc.major_collections - a.Gc.major_collections;
      compactions = b.Gc.compactions - a.Gc.compactions;
      heap_words = b.Gc.heap_words;
      top_heap_words = b.Gc.top_heap_words;
    }
end

(* ------------------------------------------------------------------ *)
(* Samples *)

module Sample = struct
  (** One measured experiment: the repetition times plus everything the
      run racked up — GC work, telemetry counter deltas, phase
      self-times, and derived rate metrics (lines/minute, attrs/s, ...). *)
  type t = {
    s_name : string;
    s_warmup : int;
    s_times : float array; (* seconds per repetition, monotonic wall clock *)
    s_allocs : float array; (* words allocated per repetition *)
    s_gc : Gc_delta.t; (* over all measured repetitions *)
    s_counters : (string * int) list; (* telemetry counter deltas, name order *)
    s_phases : (string * float) list; (* phase self-time seconds *)
    s_metrics : (string * float) list; (* derived rates, caller-defined *)
  }

  let reps s = Array.length s.s_times
  let median s = Stat.median s.s_times
  let mad s = Stat.mad s.s_times
  let ci s = Stat.bootstrap_ci s.s_times

  (** Median words allocated per repetition (nan when the sample predates
      allocation capture — old baselines load with [s_allocs = [||]]). *)
  let alloc_median s =
    if Array.length s.s_allocs = 0 then nan else Stat.median s.s_allocs

  let alloc_ci s = Stat.bootstrap_ci s.s_allocs

  (** Median bytes allocated per repetition. *)
  let alloc_bytes_median s =
    alloc_median s *. float_of_int Telemetry.bytes_per_word

  (** Counter delta per second of median repetition — the tokens/s,
      attrs/s, delta-cycles/s figures of the scaling curves. *)
  let rate s counter =
    match List.assoc_opt counter s.s_counters with
    | None -> None
    | Some total ->
      let m = median s in
      let n = reps s in
      if n = 0 || not (m > 0.0) then None
      else Some (float_of_int total /. float_of_int n /. m)

  let with_metrics s metrics = { s with s_metrics = metrics }
end

(* ------------------------------------------------------------------ *)
(* The perturbation hook (a test seam)

   VHDLC_PERF_PERTURB="MS" busy-waits an extra MS milliseconds inside
   every measured repetition; "NAME:MS" only perturbs experiments whose
   name contains NAME.  This is how the regression gate is tested end to
   end — an injected artificial slowdown in one experiment must flip
   [vhdlc bench --against] to a non-zero exit — without patching the
   compiler. *)

let perturb_env = "VHDLC_PERF_PERTURB"

let contains ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

let perturb_s ~name =
  match Sys.getenv_opt perturb_env with
  | None -> 0.0
  | Some v ->
    let target, ms =
      match String.rindex_opt v ':' with
      | Some i -> (String.sub v 0 i, String.sub v (i + 1) (String.length v - i - 1))
      | None -> ("", v)
    in
    if target = "" || contains ~sub:target name then
      Option.value (float_of_string_opt ms) ~default:0.0 /. 1000.0
    else 0.0

(* busy-wait on the monotonic clock: [Unix.sleepf] would be invisible to
   a CPU clock, and the whole point of this hook is to be visible to the
   wall clock the harness measures with *)
let spin seconds =
  let t0 = now () in
  while now () -. t0 < seconds do
    ()
  done

(* The allocation twin of VHDLC_PERF_PERTURB: "BYTES" allocates an extra
   BYTES bytes in every measured repetition, "NAME:BYTES" only in
   experiments whose name contains NAME.  This is how the alloc half of
   the regression gate is tested end to end — a planted 2x bytes/compile
   blow-up must flip [vhdlc bench --against] to a non-zero exit. *)

let perturb_alloc_env = "VHDLC_PERF_PERTURB_ALLOC"

let perturb_alloc_b ~name =
  match Sys.getenv_opt perturb_alloc_env with
  | None -> 0
  | Some v ->
    let target, bytes =
      match String.rindex_opt v ':' with
      | Some i -> (String.sub v 0 i, String.sub v (i + 1) (String.length v - i - 1))
      | None -> ("", v)
    in
    if target = "" || contains ~sub:target name then
      max 0 (Option.value (int_of_string_opt bytes) ~default:0)
    else 0

(* visible to the GC allocation counters whether or not the block
   survives; opaque_identity keeps flambda-style optimizers from
   deleting the dead allocation *)
let alloc_ballast bytes =
  if bytes > 0 then ignore (Sys.opaque_identity (Bytes.create bytes))

(* ------------------------------------------------------------------ *)
(* The session runner *)

(** [run ~name f] measures [f]: [warmup] unrecorded calls, then up to
    [repeats] timed repetitions (stopping early once [quota_s] seconds of
    measurement are spent, never below one repetition).  Telemetry
    counters are snapshotted around the measured portion, so
    [s_counters] attributes work to this experiment only; [phases]
    (read after the last repetition) supplies the phase self-times. *)
let run ?(warmup = 1) ?(repeats = 5) ?quota_s ?phases ~name f =
  let extra = perturb_s ~name in
  let extra_b = perturb_alloc_b ~name in
  let call () =
    f ();
    alloc_ballast extra_b
  in
  for _ = 1 to warmup do
    call ()
  done;
  let snap = Telemetry.snapshot () in
  let gc0 = Gc.quick_stat () in
  let times = ref [] in
  let allocs = ref [] in
  let t_begin = now () in
  let n = ref 0 in
  let within_quota () =
    match quota_s with None -> true | Some q -> !n = 0 || now () -. t_begin < q
  in
  while !n < max 1 repeats && within_quota () do
    let t0 = now () in
    let a0 = Telemetry.allocated_words_now () in
    call ();
    (* the counter read itself allocates a tuple, charged to the *next*
       repetition's delta — a few words against millions, not worth a
       correction term *)
    let a1 = Telemetry.allocated_words_now () in
    (* the time seam spins outside the allocation window: its clock reads
       allocate, and it must slow the repetition, not fatten it *)
    if extra > 0.0 then spin extra;
    times := (now () -. t0) :: !times;
    allocs := Float.max 0.0 (a1 -. a0) :: !allocs;
    incr n
  done;
  let gc = Gc_delta.between gc0 (Gc.quick_stat ()) in
  {
    Sample.s_name = name;
    s_warmup = warmup;
    s_times = Array.of_list (List.rev !times);
    s_allocs = Array.of_list (List.rev !allocs);
    s_gc = gc;
    s_counters = Telemetry.delta snap;
    s_phases = (match phases with Some f -> f () | None -> []);
    s_metrics = [];
  }

(* ------------------------------------------------------------------ *)
(* Reports *)

module Report = struct
  (** The canonical benchmark report: machine/commit metadata plus one
      entry per experiment.  This is the only shape the harness writes
      ([BENCH_report.json]) and the only shape the gate reads. *)
  type t = {
    r_schema : string;
    r_meta : (string * string) list;
    r_samples : Sample.t list;
  }

  let schema = "vhdl-bench/1"

  (* --- machine metadata, all best-effort --- *)

  (* not Unix_compat.read_file: that sizes the read with
     in_channel_length, which is 0 for /proc files — stream to EOF
     instead *)
  let read_file_opt path =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let b = Buffer.create 4096 in
          let chunk = Bytes.create 4096 in
          let rec loop () =
            let n = input ic chunk 0 (Bytes.length chunk) in
            if n > 0 then begin
              Buffer.add_subbytes b chunk 0 n;
              loop ()
            end
          in
          loop ();
          Some (Buffer.contents b))
    with _ -> None

  (* resolve .git/HEAD by hand: the harness must not shell out *)
  let git_commit () =
    match read_file_opt ".git/HEAD" with
    | None -> "unknown"
    | Some head -> (
      let head = String.trim head in
      if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
        let r = String.sub head 5 (String.length head - 5) in
        match read_file_opt (Filename.concat ".git" r) with
        | Some hash -> String.trim hash
        | None -> (
          (* the ref may live in packed-refs *)
          match read_file_opt ".git/packed-refs" with
          | None -> "unknown"
          | Some packed -> (
            let matching =
              String.split_on_char '\n' packed
              |> List.find_opt (fun line ->
                     match String.index_opt line ' ' with
                     | Some i ->
                       String.sub line (i + 1) (String.length line - i - 1) = r
                     | None -> false)
            in
            match matching with
            | Some line -> String.sub line 0 (String.index line ' ')
            | None -> "unknown"))
      end
      else head)

  (* the stack limit is the ulimit that actually bites a recursive
     evaluator; /proc is Linux-only, hence best-effort *)
  let stack_limit () =
    match read_file_opt "/proc/self/limits" with
    | None -> "unknown"
    | Some limits -> (
      let line =
        String.split_on_char '\n' limits
        |> List.find_opt (fun l -> contains ~sub:"Max stack size" l)
      in
      match line with
      | None -> "unknown"
      | Some l -> (
        match
          String.split_on_char ' ' l |> List.filter (fun w -> w <> "")
        with
        | _ :: _ :: _ :: soft :: _ -> soft
        | _ -> "unknown"))

  let iso8601 t =
    let tm = Unix.gmtime t in
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
      tm.Unix.tm_sec

  let machine_meta () =
    [
      ("created", iso8601 (Unix.gettimeofday ()));
      ("hostname", (try Unix.gethostname () with _ -> "unknown"));
      ("os", Sys.os_type);
      ("ocaml", Sys.ocaml_version);
      ("word_size", string_of_int Sys.word_size);
      ("commit", git_commit ());
      ("stack_limit", stack_limit ());
    ]

  let make ?(meta = []) samples =
    { r_schema = schema; r_meta = machine_meta () @ meta; r_samples = samples }

  (* --- writer --- *)

  let sample_json (s : Sample.t) =
    let lo, hi = Sample.ci s in
    let gc = s.Sample.s_gc in
    Json.obj
      [
        ("name", Json.str s.Sample.s_name);
        ("warmup", Json.int s.Sample.s_warmup);
        ("reps", Json.int (Sample.reps s));
        ( "times_s",
          Json.arr (Array.to_list (Array.map Json.float s.Sample.s_times)) );
        ("median_s", Json.float (Sample.median s));
        ("mad_s", Json.float (Sample.mad s));
        ("ci_lo_s", Json.float lo);
        ("ci_hi_s", Json.float hi);
        ( "allocs_w",
          Json.arr (Array.to_list (Array.map Json.float s.Sample.s_allocs)) );
        ("alloc_b_per_rep", Json.float (Sample.alloc_bytes_median s));
        ( "gc",
          Json.obj
            [
              ("minor_collections", Json.int gc.Gc_delta.minor_collections);
              ("major_collections", Json.int gc.Gc_delta.major_collections);
              ("compactions", Json.int gc.Gc_delta.compactions);
              ("heap_words", Json.int gc.Gc_delta.heap_words);
              ("top_heap_words", Json.int gc.Gc_delta.top_heap_words);
            ] );
        ( "counters",
          Json.obj (List.map (fun (k, v) -> (k, Json.int v)) s.Sample.s_counters) );
        ( "phases",
          Json.obj (List.map (fun (k, v) -> (k, Json.float v)) s.Sample.s_phases) );
        ( "metrics",
          Json.obj (List.map (fun (k, v) -> (k, Json.float v)) s.Sample.s_metrics) );
      ]

  let to_json r =
    Json.obj
      [
        ("schema", Json.str r.r_schema);
        ("meta", Json.obj (List.map (fun (k, v) -> (k, Json.str v)) r.r_meta));
        ("experiments", Json.arr (List.map sample_json r.r_samples));
      ]

  (* --- reader --- *)

  let ( let* ) o f = match o with Some v -> f v | None -> None

  let fields_of = function
    | Json.Obj fields -> fields
    | _ -> []

  let sample_of_json j =
    let* name = Option.bind (Json.mem "name" j) Json.to_str in
    let* times = Json.mem "times_s" j in
    let* times =
      match times with
      | Json.Arr items ->
        let nums = List.filter_map Json.to_num items in
        if List.length nums = List.length items then Some (Array.of_list nums)
        else None
      | _ -> None
    in
    let warmup =
      Option.value (Option.bind (Json.mem "warmup" j) Json.to_int) ~default:0
    in
    (* absent in pre-alloc baselines: load as [||], the diff then skips
       the alloc row for that experiment rather than failing the parse *)
    let allocs =
      match Json.mem "allocs_w" j with
      | Some (Json.Arr items) ->
        Array.of_list (List.filter_map Json.to_num items)
      | _ -> [||]
    in
    let gc =
      match Json.mem "gc" j with
      | None -> Gc_delta.zero
      | Some g ->
        let i k d = Option.value (Option.bind (Json.mem k g) Json.to_int) ~default:d in
        {
          Gc_delta.minor_collections = i "minor_collections" 0;
          major_collections = i "major_collections" 0;
          compactions = i "compactions" 0;
          heap_words = i "heap_words" 0;
          top_heap_words = i "top_heap_words" 0;
        }
    in
    let num_fields key =
      match Json.mem key j with
      | Some o ->
        List.filter_map
          (fun (k, v) -> Option.map (fun n -> (k, n)) (Json.to_num v))
          (fields_of o)
      | None -> []
    in
    let int_fields key = List.map (fun (k, v) -> (k, int_of_float v)) (num_fields key) in
    Some
      {
        Sample.s_name = name;
        s_warmup = warmup;
        s_times = times;
        s_allocs = allocs;
        s_gc = gc;
        s_counters = int_fields "counters";
        s_phases = num_fields "phases";
        s_metrics = num_fields "metrics";
      }

  let of_json text =
    match Json.parse text with
    | Error msg -> Error ("bad JSON: " ^ msg)
    | Ok j -> (
      match Option.bind (Json.mem "schema" j) Json.to_str with
      | Some s when s = schema -> (
        let meta =
          match Json.mem "meta" j with
          | Some m ->
            List.filter_map
              (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
              (fields_of m)
          | None -> []
        in
        match Json.mem "experiments" j with
        | Some (Json.Arr items) -> (
          let samples = List.filter_map sample_of_json items in
          if List.length samples = List.length items then
            Ok { r_schema = schema; r_meta = meta; r_samples = samples }
          else Error "malformed experiment entry")
        | _ -> Error "missing experiments array")
      | Some other -> Error ("unsupported schema " ^ other)
      | None -> Error "missing schema field")

  let save path r = Vhdl_util.Unix_compat.write_file path (to_json r)

  let load path =
    match read_file_opt path with
    | None -> Error (path ^ ": cannot read")
    | Some text -> (
      match of_json text with
      | Ok r -> Ok r
      | Error msg -> Error (path ^ ": " ^ msg))
end

(* ------------------------------------------------------------------ *)
(* Baseline diffing: the regression gate *)

module Diff = struct
  type verdict = Regression | Improvement | Unchanged | Added | Removed

  type row = {
    d_name : string;
    d_base : float; (* baseline median seconds (nan when Added) *)
    d_cur : float; (* current median seconds (nan when Removed) *)
    d_ratio : float; (* cur / base (nan when either side missing) *)
    d_verdict : verdict;
  }

  (* Noise-aware significance: a change only counts when the median
     ratio clears [threshold] AND the bootstrap confidence intervals of
     the two medians do not overlap.  The ratio test supplies the
     practical floor ("we don't care below 25%"), the CI test the
     statistical one ("and it must exceed the run-to-run noise") — a
     2x slowdown with tight reps trips both, sub-noise jitter overlaps
     the intervals and is ignored no matter the ratio. *)
  let verdict_of_stats ~threshold ~base:(bm, (blo, bhi)) ~cur:(cm, (clo, chi)) =
    let disjoint_above = clo > bhi in
    let disjoint_below = chi < blo in
    if cm > bm *. (1.0 +. threshold) && disjoint_above then Regression
    else if cm < bm /. (1.0 +. threshold) && disjoint_below then Improvement
    else Unchanged

  let verdict ~threshold (base : Sample.t) (cur : Sample.t) =
    verdict_of_stats ~threshold
      ~base:(Sample.median base, Sample.ci base)
      ~cur:(Sample.median cur, Sample.ci cur)

  (* Allocation rows ride the same row type with a marker suffix; their
     d_base/d_cur are bytes per repetition, and [pp] formats them as
     such.  The default alloc threshold is tighter than the time one:
     repetition-to-repetition allocation is near-deterministic (no
     scheduler in the way), so 50% is already far above the noise while
     a planted 2x blow-up clears it with room to spare. *)
  let alloc_suffix = " [alloc]"

  let is_alloc_row r =
    let n = String.length r.d_name and l = String.length alloc_suffix in
    n >= l && String.sub r.d_name (n - l) l = alloc_suffix

  let alloc_row ~alloc_threshold ~name (base : Sample.t) (cur : Sample.t) =
    if Array.length base.Sample.s_allocs = 0 || Array.length cur.Sample.s_allocs = 0
    then None (* one side predates allocation capture: nothing to gate *)
    else begin
      let bpw = float_of_int Telemetry.bytes_per_word in
      let bm = Sample.alloc_median base and cm = Sample.alloc_median cur in
      Some
        {
          d_name = name ^ alloc_suffix;
          d_base = bm *. bpw;
          d_cur = cm *. bpw;
          d_ratio = (if bm > 0.0 then cm /. bm else nan);
          d_verdict =
            verdict_of_stats ~threshold:alloc_threshold
              ~base:(bm, Sample.alloc_ci base)
              ~cur:(cm, Sample.alloc_ci cur);
        }
    end

  let compare_reports ?(threshold = 0.25) ?(alloc_threshold = 0.5)
      ~(baseline : Report.t) ~(current : Report.t) () =
    let base_by_name =
      List.map (fun (s : Sample.t) -> (s.Sample.s_name, s)) baseline.Report.r_samples
    in
    let cur_names =
      List.map (fun (s : Sample.t) -> s.Sample.s_name) current.Report.r_samples
    in
    let rows =
      List.concat_map
        (fun (cur : Sample.t) ->
          let name = cur.Sample.s_name in
          match List.assoc_opt name base_by_name with
          | None ->
            [
              {
                d_name = name;
                d_base = nan;
                d_cur = Sample.median cur;
                d_ratio = nan;
                d_verdict = Added;
              };
            ]
          | Some base ->
            let bm = Sample.median base and cm = Sample.median cur in
            {
              d_name = name;
              d_base = bm;
              d_cur = cm;
              d_ratio = (if bm > 0.0 then cm /. bm else nan);
              d_verdict = verdict ~threshold base cur;
            }
            :: Option.to_list (alloc_row ~alloc_threshold ~name base cur))
        current.Report.r_samples
    in
    let removed =
      List.filter_map
        (fun (name, (base : Sample.t)) ->
          if List.mem name cur_names then None
          else
            Some
              {
                d_name = name;
                d_base = Sample.median base;
                d_cur = nan;
                d_ratio = nan;
                d_verdict = Removed;
              })
        base_by_name
    in
    rows @ removed

  (** Same gate over raw named series (seconds) instead of persisted
      reports — what `vhdlc analyze --against` feeds with per-request
      latency and per-phase samples extracted from two event logs.  The
      significance rule is identical to {!compare_reports}: median ratio
      over [threshold] {e and} disjoint bootstrap CIs.  A side with
      fewer than [min_samples] (default 3) observations has no
      defensible CI, so the row is [Unchanged] rather than a verdict
      built on one or two points. *)
  let compare_series ?(threshold = 0.25) ?(min_samples = 3)
      ~(base : (string * float array) list)
      ~(cur : (string * float array) list) () =
    let median vs = if Array.length vs = 0 then nan else Stat.median vs in
    let stats vs = (Stat.median vs, Stat.bootstrap_ci vs) in
    let cur_names = List.map fst cur in
    let rows =
      List.map
        (fun (name, cvs) ->
          match List.assoc_opt name base with
          | None ->
            {
              d_name = name;
              d_base = nan;
              d_cur = median cvs;
              d_ratio = nan;
              d_verdict = Added;
            }
          | Some bvs ->
            let bm = median bvs and cm = median cvs in
            let verdict =
              if Array.length bvs < min_samples || Array.length cvs < min_samples
              then Unchanged
              else verdict_of_stats ~threshold ~base:(stats bvs) ~cur:(stats cvs)
            in
            {
              d_name = name;
              d_base = bm;
              d_cur = cm;
              d_ratio = (if bm > 0.0 then cm /. bm else nan);
              d_verdict = verdict;
            })
        cur
    in
    let removed =
      List.filter_map
        (fun (name, bvs) ->
          if List.mem name cur_names then None
          else
            Some
              {
                d_name = name;
                d_base = median bvs;
                d_cur = nan;
                d_ratio = nan;
                d_verdict = Removed;
              })
        base
    in
    rows @ removed

  let regressions rows = List.filter (fun r -> r.d_verdict = Regression) rows

  let verdict_name = function
    | Regression -> "REGRESSION"
    | Improvement -> "improvement"
    | Unchanged -> "unchanged"
    | Added -> "added"
    | Removed -> "removed"

  let pp_seconds fmt s =
    if Float.is_nan s then Format.fprintf fmt "%10s" "-"
    else if s >= 1.0 then Format.fprintf fmt "%9.3fs" s
    else if s >= 1e-3 then Format.fprintf fmt "%8.2fms" (s *. 1e3)
    else Format.fprintf fmt "%8.1fus" (s *. 1e6)

  let pp_bytes fmt b =
    if Float.is_nan b then Format.fprintf fmt "%10s" "-"
    else if b >= 1048576.0 then Format.fprintf fmt "%8.2fMB" (b /. 1048576.0)
    else if b >= 1024.0 then Format.fprintf fmt "%8.2fkB" (b /. 1024.0)
    else Format.fprintf fmt "%9.0fB" b

  let pp fmt rows =
    Format.fprintf fmt "@[<v>%-36s %10s %10s %8s  %s@,"
      "experiment" "baseline" "current" "ratio" "verdict";
    List.iter
      (fun r ->
        let pp_value = if is_alloc_row r then pp_bytes else pp_seconds in
        Format.fprintf fmt "%-36s %a %a %7s  %s@," r.d_name pp_value r.d_base
          pp_value r.d_cur
          (if Float.is_nan r.d_ratio then "-"
           else Printf.sprintf "%.2fx" r.d_ratio)
          (verdict_name r.d_verdict))
      rows;
    Format.fprintf fmt "@]"
end

(* ------------------------------------------------------------------ *)
(* Collapsed-stack export *)

module Flame = struct
  (* The telemetry span list is flat (completion order); nesting is
     implied by interval containment, which the single-threaded span
     stack guarantees.  Rebuilding the stack is one scan over the spans
     in start order: a frame is popped as soon as a span falls outside
     it, a span's folded path is the names on the stack under it, and a
     frame's self time is its duration minus its direct children's. *)

  type frame = {
    fr_start : float;
    fr_end : float;
    fr_alloc : float; (* words allocated while open, children included *)
    fr_path : string list; (* innermost first *)
    mutable fr_child : float; (* seconds spent in direct children *)
    mutable fr_child_aw : float; (* words allocated by direct children *)
  }

  let eps = 1e-9

  (* (reversed path, self seconds, self allocated words) per span, in
     visit order.  Allocation self-attribution is the same subtraction
     as time: a span's total minus its direct children's totals. *)
  let annotate (spans : Telemetry.span list) =
    let spans =
      List.sort
        (fun (a : Telemetry.span) (b : Telemetry.span) ->
          match compare a.Telemetry.sp_start b.Telemetry.sp_start with
          | 0 -> compare b.Telemetry.sp_dur a.Telemetry.sp_dur (* parents first *)
          | c -> c)
        spans
    in
    let stack = ref [] in
    let finished = ref [] in
    let contains fr s e = fr.fr_start <= s +. eps && e <= fr.fr_end +. eps in
    List.iter
      (fun (sp : Telemetry.span) ->
        let s = sp.Telemetry.sp_start in
        let e = s +. sp.Telemetry.sp_dur in
        let rec pop () =
          match !stack with
          | top :: rest when not (contains top s e) ->
            stack := rest;
            pop ()
          | _ -> ()
        in
        pop ();
        let parent_path =
          match !stack with
          | parent :: _ ->
            parent.fr_child <- parent.fr_child +. sp.Telemetry.sp_dur;
            parent.fr_child_aw <- parent.fr_child_aw +. sp.Telemetry.sp_alloc_w;
            parent.fr_path
          | [] -> []
        in
        let fr =
          {
            fr_start = s;
            fr_end = e;
            fr_alloc = sp.Telemetry.sp_alloc_w;
            fr_path = sp.Telemetry.sp_name :: parent_path;
            fr_child = 0.0;
            fr_child_aw = 0.0;
          }
        in
        stack := fr :: !stack;
        finished := fr :: !finished)
      spans;
    List.rev_map
      (fun fr ->
        ( fr.fr_path,
          Float.max 0.0 (fr.fr_end -. fr.fr_start -. fr.fr_child),
          Float.max 0.0 (fr.fr_alloc -. fr.fr_child_aw) ))
      !finished

  let sum_by_name extract spans =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun ((path, _, _) as entry) ->
        match path with
        | name :: _ ->
          Hashtbl.replace tbl name
            (extract entry
            +. Option.value (Hashtbl.find_opt tbl name) ~default:0.0)
        | [] -> ())
      (annotate spans);
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort compare

  (** Aggregated self time per span name, in seconds — the totals the
      folded output must add up to. *)
  let self_times spans = sum_by_name (fun (_, self, _) -> self) spans

  (** Aggregated self-allocated words per span name — the totals
      {!folded_alloc} conserves exactly. *)
  let self_allocs spans = sum_by_name (fun (_, _, aw) -> aw) spans

  let folded_by extract ~scale spans =
    let tbl = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun ((path, _, _) as entry) ->
        let key = String.concat ";" (List.rev path) in
        if not (Hashtbl.mem tbl key) then order := key :: !order;
        Hashtbl.replace tbl key
          (extract entry +. Option.value (Hashtbl.find_opt tbl key) ~default:0.0))
      (annotate spans);
    let buf = Buffer.create 256 in
    List.iter
      (fun key ->
        let count = int_of_float (Float.round (Hashtbl.find tbl key *. scale)) in
        if count > 0 then
          Buffer.add_string buf (Printf.sprintf "%s %d\n" key count))
      (List.rev !order);
    Buffer.contents buf

  (** Collapsed-stack ("folded") output: one line per distinct stack,
      [root;child;leaf <self-microseconds>], the input format of
      flamegraph.pl and of speedscope's "from text" importer.  Stacks
      whose self time rounds to zero microseconds are dropped. *)
  let folded spans = folded_by (fun (_, self, _) -> self) ~scale:1e6 spans

  (** The allocation flamegraph: same folded format with self-allocated
      {e bytes} as the counts.  Word counts are integral, so the per-line
      byte conversion is exact and the folded totals equal
      {!self_allocs} (times the word size) with no rounding drift;
      zero-allocation stacks are dropped. *)
  let folded_alloc spans =
    folded_by
      (fun (_, _, aw) -> aw)
      ~scale:(float_of_int Telemetry.bytes_per_word)
      spans
end
