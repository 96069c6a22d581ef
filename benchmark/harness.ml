(** Measurement plumbing shared by the workloads: the op clock, exact
    sample statistics, per-op layer accounting, and child processes. *)

module Tm = Vhdl_telemetry.Telemetry
module Timer = Vhdl_util.Phase_timer

let clock = Tm.now_s

(* ------------------------------------------------------------------ *)
(* Exact statistics over raw samples (no histogram buckets) *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(** Nearest-rank quantile of a sorted, non-empty array. *)
let quantile a q =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median l = if l = [] then Float.nan else quantile (sorted l) 0.5
let sum l = List.fold_left ( +. ) 0.0 l
let mean l = if l = [] then Float.nan else sum l /. float_of_int (List.length l)

(* ------------------------------------------------------------------ *)
(* The op clock *)

(** Words allocated by this process so far.  The minor part comes from
    [Gc.minor_words], exact at any instant on OCaml 5. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let op_seconds = ref 0.0
let alloc_words = ref 0.0

(** Run one call into the system under test: its wall time is charged to
    the current op and, for in-process workloads, its allocation to the
    run.  Generation and oracle checks stay outside. *)
let timed f =
  let a0 = allocated_words () in
  let t0 = clock () in
  Fun.protect
    ~finally:(fun () ->
      op_seconds := !op_seconds +. (clock () -. t0);
      alloc_words := !alloc_words +. (allocated_words () -. a0))
    f

(* ------------------------------------------------------------------ *)
(* Per-layer accounting for the traced run *)

(** Per-phase self-time (s) and self-allocation (words) gathered from the
    compilers' own phase timers during the traced ops. *)
let phase_seconds : (string, float) Hashtbl.t = Hashtbl.create 16
let phase_words : (string, float) Hashtbl.t = Hashtbl.create 16
let add tbl k v = Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.0)

let watched : (Timer.t * (string * float) list * (string * float) list) list ref = ref []

(** Charge what [c]'s phase timer accrues from now to the end of the
    current op.  Only the traced run pays for this. *)
let watch c =
  if Tm.tracing () then begin
    let t = Vhdl_compiler.timer c in
    watched := (t, Timer.report t, Timer.report_alloc t) :: !watched
  end

let settle_watched () =
  let diff tbl before after =
    List.iter
      (fun (name, v) -> add tbl name (v -. Option.value (List.assoc_opt name before) ~default:0.0))
      after
  in
  List.iter
    (fun (t, r0, a0) ->
      diff phase_seconds r0 (Timer.report t);
      diff phase_words a0 (Timer.report_alloc t))
    !watched;
  watched := []

(** Wall time inside the compiler's public calls during the traced ops:
    what no phase claims of it is [Vhdl_compiler]'s own work. *)
let call_seconds = ref 0.0

(** Kernel work of the traced ops, from {!Kernel.stats}. *)
let sim_delta_cycles = ref 0
let sim_events = ref 0
let sim_process_runs = ref 0

let note_kernel k =
  if Tm.tracing () then begin
    let st = Kernel.stats k in
    sim_delta_cycles := !sim_delta_cycles + st.Kernel.delta_cycles;
    sim_events := !sim_events + st.Kernel.events;
    sim_process_runs := !sim_process_runs + st.Kernel.process_runs
  end

(** What a traced batch measured.  Phases are keyed by the event log's
    short names ({!Obs_attr.short_phase}); counts are totals over [ops]. *)
type traced = {
  ops : int;
  seconds : float;  (** summed op latency *)
  phases : (string * float) list;  (** self seconds per phase *)
  words : (string * float) list;  (** self-allocated words per phase *)
  counters : (string * int) list;  (** telemetry counter deltas *)
  kernel : int * int * int;  (** delta cycles, events, process runs *)
  gc : int * int;  (** minor, major collections *)
  extra : (string * float) list;  (** workload-specific per-layer values *)
}

(* ------------------------------------------------------------------ *)
(* Files and child processes, all inside the working directory *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(** Where runs keep their libraries, sockets and logs: relative, so
    socket paths stay short whatever the checkout's location. *)
let scratch_root = "_bench"

let fresh_dir tag =
  let d = Filename.concat scratch_root (Printf.sprintf "%s-%d" tag (Unix.getpid ())) in
  rm_rf d;
  mkdir_p d;
  d

let children : int list ref = ref []

let spawn ?(stdin = Unix.stdin) ?(stdout = Unix.stdout) prog args =
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) stdin stdout Unix.stderr in
  children := pid :: !children;
  pid

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

(** Wait for [pid]; past [grace] seconds, kill it. *)
let reap ?(grace = 10.0) pid =
  let deadline = clock () +. grace in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when clock () < deadline ->
      Unix.sleepf 0.005;
      poll ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (waitpid_retry pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
  in
  poll ();
  children := List.filter (( <> ) pid) !children

(* No child outlives the benchmark, whichever way it exits. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (waitpid_retry pid) with Unix.Unix_error _ -> ())
        !children)
