(** Unified telemetry: a process-wide registry of counters, gauges and
    histograms, plus span-based structured tracing with Chrome trace-event
    export.

    Every layer of the pipeline registers its instruments once, at module
    initialization, and bumps them unconditionally — an increment of a
    mutable record field, cheap enough to leave on everywhere.  Spans are
    different: they read the clock twice and allocate an event record, so
    they sit behind a process-wide flag ({!set_tracing}); with tracing off
    the span layer is a null sink, a single flag test per call.

    The registry is process-wide and single-threaded, matching the
    compiler: instruments are identified by dotted names
    ([layer.instrument], e.g. ["ag.memo_hits"]), {!reset} zeroes everything
    between runs, and three exports read it back out: a human-readable
    report ({!pp_metrics}), a machine-readable JSON dump ({!metrics_json}),
    and Chrome trace-event JSON of the span tree ({!to_chrome_trace}) that
    loads in [chrome://tracing] / Perfetto. *)

(* The process clock: monotonic wall time (CLOCK_MONOTONIC via the
   bechamel stub), in seconds since the first read.  [Sys.time] would be
   CPU time — fine for a single-threaded hot loop, wrong for anything that
   sleeps, waits on IO, or gets descheduled, and far too coarse for span
   timestamps.  Every timing consumer above this library
   (Vhdl_util.Unix_compat.now, Phase_timer, the bench harness) reads this
   clock so phase tables, span trees and benchmark sessions agree. *)
let clock_epoch = Monotonic_clock.now ()

let now_s () =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) clock_epoch) *. 1e-9

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Minimal JSON construction (no external dependency): values are built
   as strings with correct escaping.  Shared by the metric/trace exports
   and by callers (Stats.to_json, the bench result files). *)

module Json = struct
  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let str s = "\"" ^ escape s ^ "\""
  let int n = string_of_int n

  (* JSON has no NaN/Infinity literals.  Otherwise the shortest of 15, 16
     or 17 significant digits that reads back as the same float. *)
  let float x =
    if not (Float.is_finite x) then "null"
    else if Float.is_integer x && Float.abs x < 1e15 then
      Printf.sprintf "%.0f" x
    else
      let s = Printf.sprintf "%.15g" x in
      if float_of_string s = x then s
      else
        let s = Printf.sprintf "%.16g" x in
        if float_of_string s = x then s else Printf.sprintf "%.17g" x

  let arr items = "[" ^ String.concat "," items ^ "]"

  let obj fields =
    "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

  (* The reader: the inverse of the writer above, tolerant enough for
     every document this system emits. *)

  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Bad of string

  let parse (s : string) : (t, string) result =
    let pos = ref 0 in
    let len = String.length s in
    let peek () = if !pos < len then Some s.[!pos] else None in
    let next () =
      if !pos >= len then raise (Bad "unexpected end of JSON");
      let c = s.[!pos] in
      incr pos;
      c
    in
    let skip_ws () =
      while
        !pos < len
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let lit word v =
      String.iter (fun c -> if next () <> c then raise (Bad "bad literal")) word;
      v
    in
    let string_body () =
      if next () <> '"' then raise (Bad "expected string");
      let buf = Buffer.create 16 in
      let rec go () =
        match next () with
        | '"' -> Buffer.contents buf
        | '\\' ->
          (match next () with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !pos + 4 > len then raise (Bad "bad \\u escape");
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 0x80 -> Buffer.add_char buf (Char.chr code)
            | _ -> Buffer.add_char buf '?')
          | c -> Buffer.add_char buf c);
          go ()
        | c ->
          Buffer.add_char buf c;
          go ()
      in
      go ()
    in
    let number () =
      let start = !pos in
      while
        !pos < len
        && (match s.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr pos
      done;
      if !pos = start then raise (Bad "bad JSON value");
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> raise (Bad "bad number")
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> Str (string_body ())
      | Some 't' -> lit "true" (Bool true)
      | Some 'f' -> lit "false" (Bool false)
      | Some 'n' -> lit "null" Null
      | _ -> number ()
    and arr () =
      ignore (next ());
      skip_ws ();
      if peek () = Some ']' then begin
        ignore (next ());
        Arr []
      end
      else
        let rec items acc =
          let v = value () in
          skip_ws ();
          match next () with
          | ',' -> items (v :: acc)
          | ']' -> Arr (List.rev (v :: acc))
          | _ -> raise (Bad "bad array")
        in
        items []
    and obj () =
      ignore (next ());
      skip_ws ();
      if peek () = Some '}' then begin
        ignore (next ());
        Obj []
      end
      else
        let rec fields acc =
          skip_ws ();
          let k = string_body () in
          skip_ws ();
          if next () <> ':' then raise (Bad "expected colon");
          let v = value () in
          skip_ws ();
          match next () with
          | ',' -> fields ((k, v) :: acc)
          | '}' -> Obj (List.rev ((k, v) :: acc))
          | _ -> raise (Bad "bad object")
        in
        fields []
    in
    match
      let v = value () in
      skip_ws ();
      if !pos <> len then raise (Bad "trailing garbage");
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  let mem k = function Obj fields -> List.assoc_opt k fields | _ -> None
  let path keys j = List.fold_left (fun acc k -> Option.bind acc (mem k)) (Some j) keys
  let to_str = function Str s -> Some s | _ -> None
  let to_num = function Num f -> Some f | _ -> None
  let to_int = function Num f -> Some (int_of_float f) | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Instruments *)

type counter = {
  c_name : string;
  mutable c_value : int;
}

type gauge = {
  g_name : string;
  mutable g_value : float;
}

(* Histograms keep power-of-two buckets alongside count/sum/min/max:
   bucket 0 holds values < 1, bucket i holds [2^(i-1), 2^i).  Constant
   memory, O(1) observe, and enough resolution for the p50/p90/p99
   summaries the reports print.  The bucket layout is private to this
   module ([bucket_of], [percentile]); the SLO windows merge histograms
   rather than bucket arrays. *)
let histogram_buckets = 64

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_bucket : int array;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

(* registration order preserved for the reports *)
let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64
let order : string list ref = ref [] (* reverse registration order *)

let register name make =
  match Hashtbl.find_opt registry name with
  | Some i -> i
  | None ->
    let i = make () in
    Hashtbl.add registry name i;
    order := name :: !order;
    i

(** [counter name] returns the process-wide counter [name], creating it on
    first use.  Registration is idempotent: every call site naming the same
    counter shares one cell. *)
let counter name =
  match register name (fun () -> Counter { c_name = name; c_value = 0 }) with
  | Counter c -> c
  | _ -> invalid_arg (name ^ " is registered as a non-counter instrument")

let gauge name =
  match register name (fun () -> Gauge { g_name = name; g_value = 0.0 }) with
  | Gauge g -> g
  | _ -> invalid_arg (name ^ " is registered as a non-gauge instrument")

let unregistered_histogram name =
  {
    h_name = name;
    h_count = 0;
    h_sum = 0.0;
    h_min = infinity;
    h_max = neg_infinity;
    h_bucket = Array.make histogram_buckets 0;
  }

let histogram name =
  match register name (fun () -> Histogram (unregistered_histogram name)) with
  | Histogram h -> h
  | _ -> invalid_arg (name ^ " is registered as a non-histogram instrument")

(** Fold [h]'s observations into [into], as if [into] had observed them
    too: counts, sums and buckets add, min/max widen. *)
let merge_histogram ~into h =
  into.h_count <- into.h_count + h.h_count;
  into.h_sum <- into.h_sum +. h.h_sum;
  if h.h_min < into.h_min then into.h_min <- h.h_min;
  if h.h_max > into.h_max then into.h_max <- h.h_max;
  Array.iteri (fun i k -> into.h_bucket.(i) <- into.h_bucket.(i) + k) h.h_bucket

let incr c = c.c_value <- c.c_value + 1
let add c n = c.c_value <- c.c_value + n
let value c = c.c_value
let set g v = g.g_value <- v
let gauge_value g = g.g_value

let bucket_of x =
  if not (x >= 1.0) then 0 (* also catches NaN *)
  else min (histogram_buckets - 1) (1 + int_of_float (Float.log2 x))

let observe h x =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. x;
  if x < h.h_min then h.h_min <- x;
  if x > h.h_max then h.h_max <- x;
  let b = bucket_of x in
  h.h_bucket.(b) <- h.h_bucket.(b) + 1

(** Approximate quantile [p] (in [0,1]) from the power-of-two buckets:
    the upper bound of the bucket holding the p-th observation, clamped to
    the observed [min,max].  Exact to within a factor of two, which is what
    a latency/size summary needs. *)
let percentile h p =
  if h.h_count = 0 then 0.0
  else begin
    let target = max 1 (int_of_float (Float.ceil (p *. float_of_int h.h_count))) in
    let target = min target h.h_count in
    let rec walk i cum =
      if i >= histogram_buckets then h.h_max
      else
        let cum = cum + h.h_bucket.(i) in
        if cum >= target then if i = 0 then 1.0 else Float.pow 2.0 (float_of_int i)
        else walk (i + 1) cum
    in
    Float.min h.h_max (Float.max h.h_min (walk 0 0))
  end

(** Current value of a counter by name, 0 if never registered — the
    convenient form for reports and tests. *)
let counter_value name =
  match Hashtbl.find_opt registry name with
  | Some (Counter c) -> c.c_value
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* Allocation accounting primitives.

   OCaml 5.1 has no [Gc.Memprof], so allocation attribution rides on the
   GC's own word counters, exactly as time attribution rides on the
   monotonic clock.  Two tiers:

   - [minor_words_now] is the allocation-free snapshot ([Gc.minor_words]
     is an unboxed external): the per-span and per-rule mechanism, where
     the snapshot itself must not perturb what it measures.  It counts
     minor-heap allocation only — the overwhelming share in this
     allocation profile — so a span that allocates nothing reports
     exactly 0.
   - [allocated_words_now] is the full count (minor + direct-major,
     promotions excluded); it allocates a tuple, so it is reserved for
     coarse boundaries — phase frames, whole requests, bench
     repetitions — where a dozen words of bookkeeping vanish against
     megabytes of work.  The minor component comes from the exact
     external, NOT from [Gc.counters]: on OCaml 5.1 the latter's word
     counts are flushed only at collection boundaries, so a window
     without a minor collection would otherwise read as (nearly) zero
     and the deferred words would land in the next window's delta.

   These two functions are the process's only readers of the GC's word
   counters: the phase timer, the serve worker, the bench runner and the
   [gc.allocated_words] gauge all measure through them, so every
   "words allocated" figure the system reports is the same quantity. *)

let bytes_per_word = Sys.word_size / 8

let minor_words_now () = Gc.minor_words ()

let allocated_words_now () =
  let _, pr, ma = Gc.counters () in
  Gc.minor_words () +. ma -. pr

(* ------------------------------------------------------------------ *)
(* GC gauges *)

(** Refresh the [gc.*] gauges from [Gc.quick_stat].  Called at export,
    not per phase: every reader of the gauges ({!pp_metrics},
    {!metrics_json} — so the serve daemon's metrics flush — and the
    fuzzer's summary) samples first, so [--metrics] / {!metrics_json}
    carry the memory picture as of the export: collection counts,
    live/total heap words, the peak heap, and total words allocated.
    [quick_stat] does not force a heap walk. *)
let sample_gc () =
  let s = Gc.quick_stat () in
  let g name v = set (gauge name) v in
  g "gc.minor_collections" (float_of_int s.Gc.minor_collections);
  g "gc.major_collections" (float_of_int s.Gc.major_collections);
  g "gc.compactions" (float_of_int s.Gc.compactions);
  g "gc.heap_words" (float_of_int s.Gc.heap_words);
  g "gc.top_heap_words" (float_of_int s.Gc.top_heap_words);
  g "gc.allocated_words" (allocated_words_now ())

(* ------------------------------------------------------------------ *)
(* Spans *)

(** One completed span.  Timestamps are seconds since process start
    ([now_s]); depth is the nesting level at open time (root = 0). *)
type span = {
  sp_name : string;
  sp_cat : string;
  sp_start : float;
  sp_dur : float;
  sp_depth : int;
  sp_alloc_w : float;
      (* words allocated while the span was open (children included);
         self-allocation is derived by the flame exporter exactly as
         self-time is — total minus direct children *)
  sp_args : (string * string) list;
}

let tracing_on = ref false
let spans_acc : span list ref = ref [] (* completion order, newest first *)
let spans_count = ref 0 (* length of spans_acc *)
let open_depth = ref 0

(* Bounded-capture mode for {!with_request_spans}: [Some (base, cap)]
   means at most [cap] spans may accumulate past the [base] count; the
   excess is counted, not stored, so a pathological request cannot grow
   the heap while it is being traced. *)
let span_limit : (int * int) option ref = ref None
let span_dropped = ref 0

let set_tracing b =
  tracing_on := b;
  if not b then open_depth := 0

let tracing () = !tracing_on

let add_span ~cat ~args ~depth ~alloc_w ~name ~start_s ~dur_s =
  if !tracing_on then (
    match !span_limit with
    | Some (base, cap) when !spans_count - base >= cap ->
      span_dropped := !span_dropped + 1
    | _ ->
      spans_acc :=
        {
          sp_name = name;
          sp_cat = cat;
          sp_start = start_s;
          sp_dur = dur_s;
          sp_depth = depth;
          sp_alloc_w = alloc_w;
          sp_args = args;
        }
        :: !spans_acc;
      spans_count := !spans_count + 1)

(** Record a completed span measured by the caller (used by
    {!Vhdl_util.Phase_timer} so the phase accounting and the span tree come
    from the same two clock reads and cannot disagree).  No-op when tracing
    is off.  [depth] defaults to the current open-span depth. *)
let record_span ?(cat = "phase") ?depth ?(alloc_w = 0.0) ~name ~start_s ~dur_s () =
  let depth = match depth with Some d -> d | None -> !open_depth in
  add_span ~cat ~args:[] ~depth ~alloc_w ~name ~start_s ~dur_s

(** [with_span ~cat name f] runs [f] inside a span.  With tracing off this
    is a single flag test around [f].  Spans close even when [f] escapes
    with an exception, so the tree stays well-formed.

    Allocation accounting: the allocation snapshot ([Gc.minor_words], an
    allocation-free external) is read {e last} before [f] and {e first}
    after it, so the span's own bookkeeping — the closing clock read,
    the span record — never charges to the span itself.  A span whose
    body allocates nothing reports [sp_alloc_w = 0.0] exactly; the few
    words of per-child bookkeeping charge to the parent. *)
(* Per-depth allocation snapshots.  A [float array] holds its floats
   unboxed, so writing and reading a snapshot allocates nothing —
   whereas a [let]-bound float from the unboxed [Gc.minor_words]
   external gets boxed (2 words) the moment it is stored or passed,
   and that boxing would land inside the span's own window.  This
   array is the invariant behind [sp_alloc_w = 0.0] for
   allocation-free spans. *)
let alloc_snap = ref (Array.make 64 0.0)

let with_span ?(cat = "span") ?(args = []) name f =
  if not !tracing_on then f ()
  else begin
    let depth = !open_depth in
    open_depth := depth + 1;
    if depth >= Array.length !alloc_snap then begin
      let bigger = Array.make (2 * Array.length !alloc_snap) 0.0 in
      Array.blit !alloc_snap 0 bigger 0 (Array.length !alloc_snap);
      alloc_snap := bigger
    end;
    (* [aw1] is read at the call site, before any boxing for the call
       itself — the order that keeps the span's closing bookkeeping out
       of its own allocation window *)
    let close start aw1 =
      let alloc_w = aw1 -. !alloc_snap.(depth) in
      let dur = now_s () -. start in
      open_depth := depth;
      add_span ~cat ~args ~depth ~alloc_w ~name ~start_s:start ~dur_s:dur
    in
    let start = now_s () in
    !alloc_snap.(depth) <- Gc.minor_words ();
    match f () with
    | v ->
      let aw1 = Gc.minor_words () in
      close start aw1;
      v
    | exception exn ->
      let aw1 = Gc.minor_words () in
      close start aw1;
      raise exn
  end

(** Completed spans, oldest first. *)
let spans () = List.rev !spans_acc

let clear_spans () =
  spans_acc := [];
  spans_count := 0

(** [with_request_spans ~cap f] runs [f] with tracing forced on and the
    spans it completes captured into a bounded buffer: returns
    [(result, spans, dropped)] where [spans] is oldest-first and
    [dropped] counts completions past [cap] (earliest spans win — the
    request's opening structure is the diagnostic payload).  When
    tracing was off on entry the global accumulator is restored on
    exit, so a long-lived daemon can trace every request without the
    process-wide span list growing; when tracing was already on the
    captured spans also stay in the global list, as a plain
    {!with_span} nest would.  Exceptions restore state and re-raise. *)
let with_request_spans ?(cap = 512) f =
  let was_on = !tracing_on in
  let saved_acc = !spans_acc and base_count = !spans_count in
  let saved_depth = !open_depth in
  tracing_on := true;
  span_limit := Some (base_count, cap);
  let saved_dropped = !span_dropped in
  span_dropped := 0;
  let restore () =
    span_limit := None;
    let fresh = !spans_count - base_count in
    let rec take n l =
      if n <= 0 then []
      else match l with [] -> [] | x :: tl -> x :: take (n - 1) tl
    in
    let captured = List.rev (take fresh !spans_acc) in
    let dropped = !span_dropped in
    span_dropped := saved_dropped;
    if not was_on then begin
      tracing_on := false;
      spans_acc := saved_acc;
      spans_count := base_count;
      open_depth := saved_depth
    end;
    (captured, dropped)
  in
  match f () with
  | v ->
    let captured, dropped = restore () in
    (v, captured, dropped)
  | exception exn ->
    ignore (restore ());
    raise exn

(* ------------------------------------------------------------------ *)
(* Reset *)

(** Zero every registered instrument and drop recorded spans.  The tracing
    flag is left alone: a run resets at its start, not its end. *)
let reset () =
  Hashtbl.iter
    (fun _ i ->
      match i with
      | Counter c -> c.c_value <- 0
      | Gauge g -> g.g_value <- 0.0
      | Histogram h ->
        h.h_count <- 0;
        h.h_sum <- 0.0;
        h.h_min <- infinity;
        h.h_max <- neg_infinity;
        Array.fill h.h_bucket 0 histogram_buckets 0)
    registry;
  clear_spans ()

(* ------------------------------------------------------------------ *)
(* Counter snapshots *)

(** Current value of every registered counter, for {!delta} — the
    supervisor snapshots at each design-unit boundary so per-unit reports
    attribute work to the unit that did it, not to the whole run. *)
let snapshot () =
  Hashtbl.fold
    (fun name i acc ->
      match i with
      | Counter c -> (name, c.c_value) :: acc
      | Gauge _ | Histogram _ -> acc)
    registry []

(** Counters that moved since [snapshot], as (name, increment) pairs in
    name order; counters registered after the snapshot count from zero. *)
let delta snap =
  Hashtbl.fold
    (fun name i acc ->
      match i with
      | Counter c ->
        let base = Option.value (List.assoc_opt name snap) ~default:0 in
        if c.c_value <> base then (name, c.c_value - base) :: acc else acc
      | Gauge _ | Histogram _ -> acc)
    registry []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Reports *)

let instruments () =
  List.rev_map (fun name -> (name, Hashtbl.find registry name)) !order
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** Human-readable metrics report: all registered instruments in name
    order, hiding those that never fired — the interesting view after a
    run. *)
let pp_metrics fmt () =
  sample_gc ();
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (name, i) ->
      match i with
      | Counter c ->
        if c.c_value <> 0 then
          Format.fprintf fmt "%-34s %12d@," name c.c_value
      | Gauge g ->
        if g.g_value <> 0.0 then
          Format.fprintf fmt "%-34s %12.4f@," name g.g_value
      | Histogram h ->
        if h.h_count <> 0 then
          Format.fprintf fmt
            "%-34s %12d  sum %.0f  min %.0f  max %.0f  mean %.1f  p50 %.0f  p90 \
             %.0f  p99 %.0f@,"
            name h.h_count h.h_sum
            (if h.h_count = 0 then 0.0 else h.h_min)
            (if h.h_count = 0 then 0.0 else h.h_max)
            (if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count)
            (percentile h 0.50) (percentile h 0.90) (percentile h 0.99))
    (instruments ());
  Format.fprintf fmt "@]"

(** Machine-readable dump of every registered instrument:
    [{"counters":{...},"gauges":{...},"histograms":{...}}]. *)
let metrics_json () =
  sample_gc ();
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (name, i) ->
      match i with
      | Counter c -> counters := (name, Json.int c.c_value) :: !counters
      | Gauge g -> gauges := (name, Json.float g.g_value) :: !gauges
      | Histogram h ->
        histograms :=
          ( name,
            Json.obj
              [
                ("count", Json.int h.h_count);
                ("sum", Json.float h.h_sum);
                ("min", Json.float (if h.h_count = 0 then 0.0 else h.h_min));
                ("max", Json.float (if h.h_count = 0 then 0.0 else h.h_max));
                ("p50", Json.float (percentile h 0.50));
                ("p90", Json.float (percentile h 0.90));
                ("p99", Json.float (percentile h 0.99));
              ] )
          :: !histograms)
    (instruments ());
  Json.obj
    [
      ("counters", Json.obj (List.rev !counters));
      ("gauges", Json.obj (List.rev !gauges));
      ("histograms", Json.obj (List.rev !histograms));
    ]

(** Chrome trace-event JSON of the recorded spans: an array of complete
    ("ph":"X") events with microsecond [ts]/[dur], one process, one thread
    — the format [chrome://tracing] and Perfetto load directly.  Nesting is
    carried by timestamp containment, which the single-threaded span stack
    guarantees.  [spans] (oldest first, e.g. a {!with_request_spans}
    capture) overrides the process-global recording. *)
let to_chrome_trace ?(process_name = "vhdlc") ?spans:span_override () =
  let us x = Printf.sprintf "%.3f" (x *. 1e6) in
  let events =
    List.map
      (fun sp ->
        let base =
          [
            ("name", Json.str sp.sp_name);
            ("cat", Json.str sp.sp_cat);
            ("ph", Json.str "X");
            ("ts", us sp.sp_start);
            ("dur", us sp.sp_dur);
            ("pid", Json.int 1);
            ("tid", Json.int 1);
          ]
        in
        let args =
          ("depth", Json.int sp.sp_depth)
          :: ("alloc_w", Json.float sp.sp_alloc_w)
          :: List.rev_map (fun (k, v) -> (k, Json.str v)) sp.sp_args
        in
        Json.obj (base @ [ ("args", Json.obj args) ]))
      (List.sort
         (fun a b -> compare a.sp_start b.sp_start)
         (match span_override with Some l -> l | None -> spans ()))
  in
  let meta =
    Json.obj
      [
        ("name", Json.str "process_name");
        ("ph", Json.str "M");
        ("pid", Json.int 1);
        ("tid", Json.int 1);
        ("args", Json.obj [ ("name", Json.str process_name) ]);
      ]
  in
  Json.arr (meta :: events)
