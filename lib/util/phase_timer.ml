(** Per-phase wall-clock {e and} allocation accounting, built on the
    telemetry span layer.

    Used by the compilation pipeline to reproduce the paper's §2.2 phase
    breakdown (VIF read/write 40-60%, code generation 20-30%, attribute
    evaluation "a very small percent").

    Phases nest: the cascade runs inside attribute evaluation, VIF reads
    happen inside both.  Each [time] call pushes a frame on its timer's own
    stack and charges only its {e self time} — total minus the time spent
    in nested frames of the same timer — to its phase, so the breakdown
    sums to wall clock without the negative-adjustment bookkeeping this
    module's callers used to do by hand.  Allocated words ride the same
    frame stack with the same child-subtraction, so the per-phase
    allocation breakdown sums to the run's GC allocation delta.  Every
    frame is also recorded as a telemetry span (category ["phase"]) from
    the same two clock reads, so the phase table and the span tree cannot
    disagree.

    A timer knows nothing of any other: the compiler hands its own timer
    to the layers it times (its libraries, its session), and a frame of
    another timer opened inside one of [t]'s is not subtracted from it. *)

module Telemetry = Vhdl_telemetry.Telemetry

(* One cell per phase: its self time, its self-allocated words, and the
   process-wide [phase.alloc_b.<name>] telemetry counter (bytes) that
   lets `--metrics` carry the memory breakdown without a handle on the
   timer. *)
type cell = {
  mutable secs : float;
  mutable words : float;
  alloc_b : Telemetry.counter;
}

(* Frames of one timer (the compiler is single-threaded): what nested
   frames spent, to subtract from the enclosing frame's own charge. *)
type frame = {
  mutable f_child : float; (* seconds spent in nested frames *)
  mutable f_child_aw : float; (* words allocated by nested frames *)
}

type t = {
  mutable phases : (string * cell) list; (* reverse order of first use *)
  mutable stack : frame list; (* open frames, innermost first *)
}

let create () = { phases = []; stack = [] }

let metric_name name =
  "phase.alloc_b."
  ^ String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' -> c
        | _ -> '_')
      name

(* registered when a phase's first frame opens, so [report] lists phases
   in order of first use, not first completion *)
let cell t name =
  match List.assoc_opt name t.phases with
  | Some c -> c
  | None ->
    let c = { secs = 0.0; words = 0.0; alloc_b = Telemetry.counter (metric_name name) } in
    t.phases <- (name, c) :: t.phases;
    c

(** [time t name f] runs [f ()] charging its self time and self-allocated
    words to phase [name] of [t]. *)
let time t name f =
  let cell = cell t name in
  let frame = { f_child = 0.0; f_child_aw = 0.0 } in
  t.stack <- frame :: t.stack;
  let start = Telemetry.now_s () in
  let aw0 = Telemetry.allocated_words_now () in
  Fun.protect
    ~finally:(fun () ->
      let total_aw = Telemetry.allocated_words_now () -. aw0 in
      let total = Telemetry.now_s () -. start in
      (match t.stack with
      | top :: rest when top == frame -> t.stack <- rest
      | _ -> () (* an escape unwound through us; leave the stack alone *));
      (match t.stack with
      | parent :: _ ->
        parent.f_child <- parent.f_child +. total;
        parent.f_child_aw <- parent.f_child_aw +. total_aw
      | [] -> ());
      let self_aw = Float.max 0.0 (total_aw -. frame.f_child_aw) in
      cell.secs <- cell.secs +. (total -. frame.f_child);
      cell.words <- cell.words +. self_aw;
      Telemetry.add cell.alloc_b
        (int_of_float (self_aw *. float_of_int Telemetry.bytes_per_word));
      Telemetry.record_span ~cat:"phase" ~alloc_w:total_aw ~name ~start_s:start
        ~dur_s:total ())
    f

let total t = List.fold_left (fun acc (_, c) -> acc +. c.secs) 0.0 t.phases
let total_alloc t = List.fold_left (fun acc (_, c) -> acc +. c.words) 0.0 t.phases

(** Phases in order of first use, with accumulated self-time seconds. *)
let report t = List.rev_map (fun (name, c) -> (name, c.secs)) t.phases

(** Phases in order of first use, with accumulated self-allocated words. *)
let report_alloc t = List.rev_map (fun (name, c) -> (name, c.words)) t.phases

let pp_bytes fmt b =
  if b >= 1048576.0 then Format.fprintf fmt "%8.1fMB" (b /. 1048576.0)
  else if b >= 1024.0 then Format.fprintf fmt "%8.1fkB" (b /. 1024.0)
  else Format.fprintf fmt "%8.0fB " b

let pp fmt t =
  let tot = total t in
  let tot = if tot <= 0.0 then 1.0 else tot in
  let bytes w = w *. float_of_int Telemetry.bytes_per_word in
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (name, c) ->
      Format.fprintf fmt "%-28s %8.4fs  (%5.1f%%)  alloc %a@," name c.secs
        (100.0 *. c.secs /. tot) pp_bytes (bytes c.words))
    (List.rev t.phases);
  Format.fprintf fmt "%-28s %8.4fs            alloc %a@]" "total" (total t)
    pp_bytes (bytes (total_alloc t))
