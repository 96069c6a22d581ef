(** Unified telemetry: a process-wide registry of counters, gauges and
    histograms, plus span-based structured tracing with Chrome trace-event
    export.

    This interface is the locked public surface.  The span frame stack,
    the bounded-capture state behind {!with_request_spans}, and the
    allocation-snapshot bookkeeping are implementation details — code
    outside this module observes them only through the functions below. *)

val now_s : unit -> float
(** Monotonic wall time in seconds since the first read — the one clock
    every timing consumer (spans, phase tables, the bench harness)
    shares. *)

val now_ns : unit -> int
(** The same clock in nanoseconds from an arbitrary origin, for timing
    a hot loop without a float per read. *)

(** Minimal JSON writer and reader (no external dependency). *)
module Json : sig
  val escape : string -> string
  val str : string -> string
  val int : int -> string

  val float : float -> string
  (** NaN and infinities print as [null]; integral values print without a
      fraction; any other value prints with the fewest of 15, 16 or 17
      significant digits that {!parse} reads back as the same float. *)

  val arr : string list -> string
  val obj : (string * string) list -> string

  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> (t, string) result
  val mem : string -> t -> t option

  val path : string list -> t -> t option
  (** [path keys j] follows [keys] through nested objects. *)

  val to_str : t -> string option
  val to_num : t -> float option
  val to_int : t -> int option
end

(** {1 Instruments} *)

type counter = {
  c_name : string;
  mutable c_value : int;
}

type gauge = {
  g_name : string;
  mutable g_value : float;
}

(** Power-of-two buckets (64): bucket 0 holds values < 1, bucket i holds
    [2^(i-1), 2^i). *)
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

val counter : string -> counter
(** The process-wide counter of that dotted name, created on first use;
    registration is idempotent, so every call site shares one cell. *)

val gauge : string -> gauge
val histogram : string -> histogram

val unregistered_histogram : string -> histogram
(** A fresh, empty histogram outside the registry: no report or {!reset}
    sees it (the SLO windows keep one per time slot). *)

val merge_histogram : into:histogram -> histogram -> unit
(** Add the second histogram's observations to [into], as if [into] had
    observed them: the merge of two histograms reports the same count,
    min, max and percentiles as one histogram fed both streams. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit

val percentile : histogram -> float -> float
(** Approximate quantile from the power-of-two buckets, clamped to the
    observed [min,max] — exact to within a factor of two. *)

val counter_value : string -> int
(** Current value of a counter by name, 0 if never registered. *)

val sample_gc : unit -> unit
(** Refresh the [gc.*] gauges — collection counts and live/peak heap
    words from [Gc.quick_stat], total allocated words from
    {!allocated_words_now}.  Nothing samples per phase or per frame: a
    reader of the gauges calls this first ({!pp_metrics} and
    {!metrics_json} do). *)

(** {1 Allocation accounting} *)

val bytes_per_word : int

val minor_words_now : unit -> float
(** Allocation-free snapshot of minor-heap words allocated so far (an
    unboxed runtime external) — the per-span / per-rule mechanism. *)

val allocated_words_now : unit -> float
(** Total words allocated so far (minor + direct-major, promotions
    excluded); itself allocates a few words, so it is for coarse
    boundaries (phases, requests, bench repetitions).  The one reading
    behind every allocation total the system reports. *)

(** {1 Spans} *)

(** One completed span.  Timestamps are seconds since process start;
    depth is the nesting level at open time (root = 0); [sp_alloc_w] is
    the words allocated while the span was open, children included. *)
type span = {
  sp_name : string;
  sp_cat : string;
  sp_start : float;
  sp_dur : float;
  sp_depth : int;
  sp_alloc_w : float;
  sp_args : (string * string) list;
}

val set_tracing : bool -> unit
val tracing : unit -> bool

val record_span :
  ?cat:string ->
  ?depth:int ->
  ?alloc_w:float ->
  name:string ->
  start_s:float ->
  dur_s:float ->
  unit ->
  unit
(** Record a completed span measured by the caller (how {!Vhdl_util.Phase_timer}
    keeps phase accounting and the span tree on the same clock reads).
    No-op when tracing is off. *)

val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run [f] inside a span — a single flag test when tracing is off.  The
    span closes even when [f] escapes.  Allocation is snapshotted
    allocation-free around [f], so a span whose body allocates nothing
    reports [sp_alloc_w = 0.0] exactly. *)

val spans : unit -> span list
(** Completed spans, oldest first. *)

val clear_spans : unit -> unit

val with_request_spans : ?cap:int -> (unit -> 'a) -> 'a * span list * int
(** Run [f] with tracing forced on and its spans captured into a bounded
    buffer: [(result, spans, dropped)], oldest-first, [dropped] counting
    completions past [cap].  When tracing was off on entry the global
    accumulator is restored on exit. *)

(** {1 Registry-wide operations} *)

val reset : unit -> unit
(** Zero every registered instrument and drop recorded spans; the
    tracing flag is left alone. *)

val snapshot : unit -> (string * int) list
(** Current value of every registered counter, for {!delta}. *)

val delta : (string * int) list -> (string * int) list
(** Counters that moved since [snapshot], in name order. *)

val instruments : unit -> (string * instrument) list
(** Every registered instrument, in name order. *)

val pp_metrics : Format.formatter -> unit -> unit
val metrics_json : unit -> string

val to_chrome_trace : ?process_name:string -> ?spans:span list -> unit -> string
(** Chrome trace-event JSON of the recorded spans ([spans] overrides the
    process-global recording). *)
