(** Runtime objects of the simulation kernel.

    Signals follow IEEE 1076 semantics: each process driving a signal owns a
    *driver* holding a projected output waveform; the effective value is the
    resolution of the connected drivers' values.  Times are femtoseconds
    (the primary unit of STD.STANDARD.TIME). *)

type time = int

let fs = 1
let ns = 1_000_000

type signal = {
  sig_id : int;
  sig_name : string; (* hierarchical path, e.g. ":top:u1:q" *)
  sig_ty : Types.t;
  sig_kind : [ `Plain | `Bus | `Register ];
  sig_resolution : (Value.t list -> Value.t) option;
  mutable current : Value.t;
  mutable last_value : Value.t; (* value before the last event *)
  mutable last_event : time;
  mutable active : bool; (* a transaction occurred this cycle *)
  mutable event : bool; (* the value changed this cycle *)
  mutable drivers : driver list;
  mutable sig_disconnect : time;
      (* disconnection specification (LRM 5.3): delay before a guarded
         disconnect takes effect; 0 = immediate *)
  mutable watchers : proc list;
      (* fanout: the waiting processes whose wait lists this signal *)
  mutable observers : (time -> signal -> unit) list; (* tracing hooks *)
  mutable sig_enqueue : driver -> unit;
      (* called when a driver's earliest pending transaction changes: the
         kernel queues the driver under that time *)
}

and driver = {
  drv_signal : signal;
  drv_owner : int; (* process id *)
  mutable drv_value : Value.t; (* current driving value *)
  mutable drv_connected : bool; (* false after a guarded disconnect *)
  (* projected output waveform: strictly ascending times, all > "now" or
     = now for the next delta cycle *)
  mutable drv_wave : (time * Value.t option) list; (* None = null: disconnect *)
  (* LRM drivers are per scalar subelement: a driver created by element
     association owns only these indices of a composite signal, and
     disjoint element drivers merge without a resolution function *)
  mutable drv_indices : int list option;
}

and proc_state =
  | Ready (* run (again) this delta *)
  | Waiting
  | Terminated (* ran off a wait-free body or was killed *)

and proc = {
  proc_id : int;
  proc_name : string;
  mutable proc_state : proc_state;
  mutable resume : unit -> unit; (* continues the fiber *)
  (* wake conditions while Waiting; the process sits in the [watchers] of
     each of its [wake_signals] *)
  mutable wake_signals : signal list;
  mutable wake_until : (unit -> bool) option;
  mutable wake_at : time option;
}

let make_signal ~id ~name ~ty ~kind ~resolution ~init =
  {
    sig_id = id;
    sig_name = name;
    sig_ty = ty;
    sig_kind = kind;
    sig_resolution = resolution;
    current = init;
    last_value = init;
    last_event = 0;
    active = false;
    event = false;
    drivers = [];
    sig_disconnect = 0;
    watchers = [];
    observers = [];
    sig_enqueue = ignore;
  }

let rec find_driver s proc_id = function
  | d :: _ when d.drv_owner = proc_id -> d
  | _ :: rest -> find_driver s proc_id rest
  | [] ->
    let d =
      {
        drv_signal = s;
        drv_owner = proc_id;
        drv_value = s.current;
        drv_connected = true;
        drv_wave = [];
        drv_indices = None;
      }
    in
    s.drivers <- s.drivers @ [ d ];
    d

(** The driver of [proc_id] on [s], created on first use (LRM: one driver
    per process per driven signal). *)
let driver_of s ~proc_id = find_driver s proc_id s.drivers

(** Time of the earliest pending transaction of [d]; [max_int] if none. *)
let head_time d =
  match d.drv_wave with
  | (t, _) :: _ -> t
  | [] -> max_int

(** Schedule [transactions] on [d] at absolute times (already >= now).

    Transport delay: delete all pending transactions at or after the first
    new one.  Inertial delay: additionally delete every earlier pending
    transaction (pulse rejection for the common single-element case,
    per LRM 8.3.1 simplified — see DESIGN.md).  A change of the earliest
    pending time is reported to the signal's [sig_enqueue]. *)
let schedule d ~mode ~(transactions : (time * Value.t option) list) =
  match transactions with
  | [] -> ()
  | (t0, _) :: _ ->
    let before = head_time d in
    let kept =
      match mode with
      | Kir.Transport -> List.filter (fun (t, _) -> t < t0) d.drv_wave
      | Kir.Inertial -> []
    in
    (* a null transaction disconnects only when it matures; a waveform that
       starts with a value reconnects the driver immediately *)
    (match transactions with
    | (_, Some _) :: _ -> d.drv_connected <- true
    | _ -> ());
    (* the LRM requires waveform elements in ascending time order; sort
       defensively so an out-of-order waveform cannot corrupt the queue *)
    d.drv_wave <-
      (match (kept, transactions) with
      | [], [ _ ] -> transactions
      | _ -> List.stable_sort (fun (a, _) (b, _) -> compare a b) (kept @ transactions));
    if head_time d <> before then d.drv_signal.sig_enqueue d

let disconnect d = d.drv_connected <- false

(* what a wait statement waits for; the kernel handles the effect *)
type wait_req = {
  wr_on : signal list;
  wr_until : (unit -> bool) option;
  wr_for : time option; (* absolute wake time *)
}

type _ Effect.t += Wait : wait_req -> unit Effect.t

exception Simulation_error of { time : time; msg : string }

let sim_error ~time fmt =
  Format.kasprintf (fun msg -> raise (Simulation_error { time; msg })) fmt

(* the resolved value of the connected drivers (general case) *)
let resolve ~now s =
  let connected = List.filter (fun d -> d.drv_connected) s.drivers in
  let driving_values = List.map (fun d -> d.drv_value) connected in
  match (driving_values, s.sig_resolution) with
  | [], _ -> (
    (* all drivers disconnected: bus keeps its value only through the
       resolution function on an empty list; register keeps last value *)
    match (s.sig_kind, s.sig_resolution) with
    | `Bus, Some f -> ( try f [] with _ -> s.current)
    | _ -> s.current)
  | [ v ], None -> v
  | [ v ], Some f -> f [ v ]
  | _ :: _ :: _, Some f -> f driving_values
  | _ :: _ :: _, None ->
    (* element drivers owning disjoint indices merge element-wise *)
    let all_indices = List.map (fun d -> d.drv_indices) connected in
    if List.for_all (fun i -> i <> None) all_indices then begin
      let flat = List.concat_map (fun i -> Option.value i ~default:[]) all_indices in
      let distinct = List.sort_uniq compare flat in
      if List.length distinct <> List.length flat then
        sim_error ~time:now "signal %s: overlapping element drivers" s.sig_name
      else begin
        (* write every owned element into one copy of the current value *)
        let writes f =
          List.iter
            (fun d ->
              List.iter
                (fun ix -> Option.iter (f ix) (Value.array_get d.drv_value ix))
                (Option.value d.drv_indices ~default:[]))
            connected
        in
        match s.current with
        | Value.Varray { bounds; elems } ->
          let merged = Array.copy elems in
          writes (fun ix e ->
              match Value.array_offset bounds ix with
              | Some off -> merged.(off) <- e
              | None -> sim_error ~time:now "array index %d out of bounds in assignment" ix);
          Value.Varray { bounds; elems = merged }
        | v ->
          writes (fun _ _ -> sim_error ~time:now "indexed assignment to a non-array value");
          v
      end
    end
    else
      sim_error ~time:now "signal %s has multiple drivers but no resolution function"
        s.sig_name

(** Update a signal whose drivers have new values: resolve, detect events.
    Returns [true] if an event occurred. *)
let update_signal ~now s =
  let new_value =
    match (s.drivers, s.sig_resolution) with
    | [ d ], None when d.drv_connected -> d.drv_value
    | _ -> resolve ~now s
  in
  s.active <- true;
  if not (Value.equal new_value s.current) then begin
    s.last_value <- s.current;
    s.current <- new_value;
    s.last_event <- now;
    s.event <- true;
    (match s.observers with
    | [] -> ()
    | observers -> List.iter (fun f -> f now s) observers);
    true
  end
  else false

let format_time t =
  if t mod 1_000_000 = 0 then Printf.sprintf "%d ns" (t / 1_000_000)
  else if t mod 1_000 = 0 then Printf.sprintf "%d ps" (t / 1_000)
  else Printf.sprintf "%d fs" t
