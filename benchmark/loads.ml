(** The four workloads: set-up, one op, and the op's oracle check.

    Each op's calls into the compiler run under {!Harness.timed}; input
    generation and checking stay outside the clock.  Oracles come from
    {!Gen} and never from the compiler under test. *)

open Harness

type instance = {
  run_op : int -> bool;  (** run op [i]; [false] when its output is wrong *)
  sut_alloc_words : unit -> float;  (** words allocated by the compiler so far *)
  sut_peak_heap_mb : unit -> float;
  find_cold_us : unit -> float;  (** a cold {!Library.find}, 0 without a disk library *)
  teardown : unit -> unit;
}

(** Why each workload exists is recorded in BENCHMARK.json and README.md. *)
type workload = {
  name : string;
  deck : int;  (** ops per block; every block has the same mix *)
  round_ops : int;  (** ops per round of a full run *)
  trace_ops : int;  (** ops in the traced batch *)
  setup : seed:int -> dir:string -> instance;
}

(** Op index of the warm-up op each set-up runs: far past any run. *)
let warmup = 1_000_000_000

(** A public call: in the traced run, its own span and its wall time. *)
let call name f =
  if Tm.tracing () then begin
    let t0 = clock () in
    Fun.protect
      ~finally:(fun () -> call_seconds := !call_seconds +. (clock () -. t0))
      (fun () -> Tm.with_span ~cat:"bench" name f)
  end
  else f ()

let compile c text = call "Vhdl_compiler.compile" (fun () -> Vhdl_compiler.compile c text)

let simulate ?configuration c ~top ~ns =
  let sim =
    call "Vhdl_compiler.elaborate" (fun () ->
        Vhdl_compiler.elaborate ~trace:false ?configuration c ~top ())
  in
  ignore (call "Vhdl_compiler.run" (fun () -> Vhdl_compiler.run c sim ~max_ns:ns));
  sim

let in_process_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * Tm.bytes_per_word) /. 1e6

let in_process ?(find_cold_us = fun () -> 0.0) run_op =
  {
    run_op;
    sut_alloc_words = (fun () -> !alloc_words);
    sut_peak_heap_mb = in_process_peak_mb;
    find_cold_us;
    teardown = ignore;
  }

let keys units = List.map (fun u -> u.Unit_info.u_key) units

let exported lib ~pkg ~name =
  match Library.find lib ~library:"WORK" ~key:("package:" ^ pkg) with
  | Some { Unit_info.u_info = Unit_info.Upackage p; _ } -> (
    match List.assoc_opt name p.Unit_info.pk_exports with
    | Some (Denot.Dobject { slot = Denot.Sl_static (Value.Vint n); _ }) -> Some n
    | _ -> None)
  | _ -> None

(** The compile produced exactly the expected units, and every package
    constant folded to the generator's value. *)
let check_source (s : Gen.source) c units =
  let lib = Vhdl_compiler.work_library c in
  keys units = s.Gen.units
  && Vhdl_compiler.diagnostics c = []
  && List.for_all (fun (pkg, name, v) -> exported lib ~pkg ~name = Some v) s.Gen.constants

let signal_level sim path =
  match Vhdl_compiler.value sim path with
  | Some (Value.Venum v) -> Some v
  | _ -> None

(* ------------------------------------------------------------------ *)

let cascade_compile =
  {
    name = "cascade-compile";
    deck = Array.length Gen.cascade_deck;
    round_ops = 576;
    trace_ops = 96;
    setup =
      (fun ~seed ~dir:_ ->
        let op i =
          let s = Gen.cascade_op ~seed i in
          let c = Vhdl_compiler.create () in
          watch c;
          let units = timed (fun () -> compile c s.Gen.text) in
          check_source s c units
        in
        ignore (op warmup);
        in_process op);
  }

(* ------------------------------------------------------------------ *)

let kernel_sim =
  {
    name = "kernel-sim";
    deck = 6;
    round_ops = 510;
    trace_ops = 60;
    setup =
      (fun ~seed ~dir:_ ->
        let designs = Gen.kernel_designs ~seed in
        let compilers =
          Array.map
            (fun (d : Gen.design) ->
              let c = Vhdl_compiler.create () in
              ignore (compile c d.Gen.design_text);
              c)
            designs
        in
        let op i =
          let k = Gen.kernel_op ~seed i in
          let d = designs.(k) and c = compilers.(k) in
          watch c;
          let sim =
            timed (fun () -> simulate c ~top:d.Gen.top ~ns:Gen.kernel_horizon_ns)
          in
          note_kernel (Vhdl_compiler.kernel sim);
          let top = String.lowercase_ascii d.Gen.top in
          let ok = ref true in
          Array.iteri
            (fun ci ch ->
              Array.iteri
                (fun j level ->
                  let path = Printf.sprintf ":%s:%s" top (String.uppercase_ascii (Gen.tap_name ci j)) in
                  if signal_level sim path <> Some level then ok := false)
                (Gen.taps_at ch ~horizon_ns:Gen.kernel_horizon_ns))
            d.Gen.chains;
          !ok
        in
        ignore (op warmup);
        in_process op);
  }

(* ------------------------------------------------------------------ *)

let vif_library =
  {
    name = "vif-library";
    deck = Array.length Gen.vif_deck;
    round_ops = 640;
    trace_ops = 100;
    setup =
      (fun ~seed ~dir ->
        let work = Filename.concat dir "work" in
        let versions = Array.make Gen.vif_packages 1 in
        let n0 = Gen.board_n0 ~seed in
        let c = Vhdl_compiler.create ~work_dir:work () in
        for k = 0 to Gen.vif_packages - 1 do
          ignore (compile c (Gen.lib_package ~seed ~k ~version:1).Gen.text)
        done;
        ignore (compile c Gen.cell_source);
        ignore (compile c (Gen.board_source ~n0));
        let op i =
          let c = Vhdl_compiler.create ~work_dir:work () in
          watch c;
          match Gen.vif_op ~seed i with
          | Gen.User { name; pkgs; consts } ->
            let const k = List.assoc k consts in
            let units =
              timed (fun () -> compile c (Gen.user_source ~name ~pkgs ~pick_const:const))
            in
            let seen (sd : Kir.signal_decl) =
              let k = int_of_string (String.sub sd.Kir.sd_name 1 (String.length sd.Kir.sd_name - 1)) in
              sd.Kir.sd_init
              = Some
                  (Kir.Elit
                     (Value.Vint
                        (Gen.user_signal_value ~seed ~k ~version:versions.(k) ~c:(const k))))
            in
            keys units = [ "entity:" ^ name; Printf.sprintf "arch:%s(RTL)" name ]
            && List.for_all
                 (fun u ->
                   match u.Unit_info.u_info with
                   | Unit_info.Uarch a ->
                     let vs = List.filter (fun (sd : Kir.signal_decl) -> sd.Kir.sd_name.[0] = 'V') a.Unit_info.ar_signals in
                     List.length vs = List.length pkgs && List.for_all seen vs
                   | _ -> true)
                 units
          | Gen.Bump k ->
            versions.(k) <- versions.(k) + 1;
            let s = Gen.lib_package ~seed ~k ~version:versions.(k) in
            check_source s c (timed (fun () -> compile c s.Gen.text))
          | Gen.Configure archs ->
            let sim =
              timed (fun () ->
                  ignore (compile c (Gen.config_source archs));
                  simulate c ~configuration:"CFG" ~top:"BOARD" ~ns:Gen.board_horizon_ns)
            in
            note_kernel (Vhdl_compiler.kernel sim);
            signal_level sim (Printf.sprintf ":board:N%d" Gen.board_cells)
            = Some (Gen.board_parity ~n0 archs)
        in
        ignore (op warmup);
        let find_cold_us () =
          let lib = Vhdl_compiler.work_library (Vhdl_compiler.create ~work_dir:work ()) in
          median
            (List.init Gen.vif_packages (fun k ->
                 Library.clear_cache lib;
                 let t0 = clock () in
                 ignore
                   (call "Library.find" (fun () ->
                        Library.find lib ~library:"WORK" ~key:("package:" ^ Gen.lib_package_name k)));
                 (clock () -. t0) *. 1e6))
        in
        in_process ~find_cold_us op);
  }

(* ------------------------------------------------------------------ *)
(* serve-warm: the real daemon, one connection at a time *)

(* dune builds bin/vhdlc.exe beside this executable (link_deps) *)
let vhdlc = Filename.concat (Filename.dirname Sys.executable_name) "../bin/vhdlc.exe"

type daemon = {
  pid : int;
  socket : string;
}

let start_daemon ~dir ~name ~flags =
  let socket = Filename.concat dir (name ^ ".sock") in
  let pid =
    spawn vhdlc ([ "serve"; "--socket"; socket; "--quiet"; "--flight-dir"; dir ] @ flags)
  in
  match Serve_client.wait_ready ~attempts:4000 ~interval_s:0.002 ~socket () with
  | Ok () -> { pid; socket }
  | Error msg ->
    reap ~grace:0.0 pid;
    failwith msg

let roundtrip d rq =
  match call "Serve_client.roundtrip" (fun () -> Serve_client.roundtrip ~socket:d.socket rq) with
  | Ok resp -> resp
  | Error msg -> failwith ("serve: " ^ msg)

let stop_daemon d =
  (try ignore (Serve_client.roundtrip ~timeout_s:5.0 ~socket:d.socket
                 (Serve_protocol.request Serve_protocol.Shutdown))
   with _ -> ());
  reap d.pid

let daemon_stats d =
  let resp = roundtrip d (Serve_protocol.request ~json:true Serve_protocol.Stats) in
  Bench_json.parse resp.Serve_protocol.rs_body

let compiled_keys body =
  String.split_on_char '\n' body
  |> List.filter_map (fun line ->
         if String.starts_with ~prefix:"compiled " line then
           Some (String.sub line 9 (String.length line - 9))
         else None)

(** Send op [i]: its verdict and the daemon's request id. *)
let serve_request ~seed d i =
  let s = Gen.serve_op ~seed i in
  let resp =
    timed (fun () ->
        roundtrip d (Serve_protocol.request ~source:s.Gen.text Serve_protocol.Compile))
  in
  ( resp.Serve_protocol.rs_status = Serve_protocol.Ok_
    && compiled_keys resp.Serve_protocol.rs_body = s.Gen.units,
    resp.Serve_protocol.rs_request_id )

let serve_warm =
  {
    name = "serve-warm";
    deck = Array.length Gen.serve_deck;
    round_ops = 1000;
    trace_ops = 200;
    setup =
      (fun ~seed ~dir ->
        let d = start_daemon ~dir ~name:"serve" ~flags:[] in
        ignore (serve_request ~seed d warmup);
        {
          run_op = (fun i -> fst (serve_request ~seed d i));
          sut_alloc_words = (fun () -> Bench_json.num [ "heap"; "allocated_words" ] (daemon_stats d));
          sut_peak_heap_mb =
            (fun () ->
              Bench_json.num [ "heap"; "top_words" ] (daemon_stats d)
              *. float_of_int Tm.bytes_per_word /. 1e6);
          find_cold_us = (fun () -> 0.0);
          teardown = (fun () -> stop_daemon d);
        });
  }

(** The traced serve run: a second daemon with an event log and a
    metrics file answers [closed] back-to-back requests, then [open_ops]
    requests due at [rate] per second (timed from when each was due; one
    connection at a time, so a late request delays the ones behind it).
    Service and phase times come from the daemon's finish events, counts
    from its metrics; [wait] is the round trip minus the service time.
    Returns the traced record, the closed-loop round trips, and the number
    of failed requests. *)
let serve_traced ~seed ~dir ~closed ~open_ops ~rate =
  let events = Filename.concat dir "events.jsonl" in
  let metrics = Filename.concat dir "metrics.json" in
  let d =
    start_daemon ~dir ~name:"traced" ~flags:[ "--events"; events; "--metrics-out"; metrics ]
  in
  let live () = Bench_json.num [ "heap"; "live_words" ] (daemon_stats d) in
  let round_trips = Hashtbl.create 1024 in
  let failed = ref 0 in
  let send i =
    op_seconds := 0.0;
    (match Tm.with_span ~cat:"op" "serve-warm" (fun () -> serve_request ~seed d i) with
    | ok, rid ->
      if not ok then incr failed;
      Option.iter (fun r -> Hashtbl.replace round_trips r !op_seconds) rid
    | exception e ->
      prerr_endline ("serve-warm: " ^ Printexc.to_string e);
      incr failed);
    !op_seconds
  in
  Tm.clear_spans ();
  Tm.set_tracing true;
  ignore (send warmup);
  let closed_rt = List.init closed send in
  let live0 = live () in
  let start = clock () +. 0.01 in
  let open_lat = ref [] and lag = ref [] in
  for k = 0 to open_ops - 1 do
    let due = start +. (float_of_int k /. rate) in
    let ahead = due -. clock () in
    if ahead > 0.0 then Unix.sleepf ahead;
    lag := (clock () -. due) :: !lag;
    ignore (send (closed + k));
    open_lat := (clock () -. due) :: !open_lat
  done;
  let live1 = live () in
  Tm.set_tracing false;
  stop_daemon d;
  let service = ref [] and wait = ref [] in
  let phases = Hashtbl.create 16 and words = Hashtbl.create 16 in
  In_channel.with_open_bin events In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         if line <> "" then
           let ev = Bench_json.parse line in
           match Bench_json.get [ "ev" ] ev, Bench_json.get [ "rid" ] ev with
           | Some (Bench_json.Str "finish"), Some (Bench_json.Num rid)
             when Hashtbl.mem round_trips (int_of_float rid) ->
             let svc = Bench_json.num [ "service_us" ] ev /. 1e6 in
             service := svc :: !service;
             let w = Hashtbl.find round_trips (int_of_float rid) -. svc in
             wait := w :: !wait;
             add phases "wait" w;
             List.iter
               (fun (k, v) ->
                 match v with
                 | Bench_json.Num us when String.starts_with ~prefix:"ph_" k ->
                   add phases (String.sub k 3 (String.length k - 3)) (us /. 1e6)
                 | Bench_json.Num b when String.starts_with ~prefix:"al_" k ->
                   add words (String.sub k 3 (String.length k - 3))
                     (b /. float_of_int Tm.bytes_per_word)
                 | _ -> ())
               (Bench_json.fields ev)
           | _ -> ());
  let m = Bench_json.parse_file metrics in
  let counters =
    List.filter_map
      (fun (k, v) -> match v with Bench_json.Num f -> Some (k, int_of_float f) | _ -> None)
      (Bench_json.fields (Option.value (Bench_json.get [ "counters" ] m) ~default:Bench_json.Null))
  in
  let gauge k = int_of_float (Bench_json.num [ "gauges"; k ] m) in
  let ms l q = if l = [] then 0.0 else 1000.0 *. quantile (sorted l) q in
  let traced =
    {
      ops = Hashtbl.length round_trips;
      seconds = Hashtbl.fold (fun _ rt acc -> acc +. rt) round_trips 0.0;
      phases = Hashtbl.fold (fun k v acc -> (k, v) :: acc) phases [];
      words = Hashtbl.fold (fun k v acc -> (k, v) :: acc) words [];
      counters;
      kernel = (0, 0, 0);
      gc = (gauge "gc.minor_collections", gauge "gc.major_collections");
      extra =
        [
          ("serve.service_ms.p50", ms !service 0.5);
          ("serve.wait_ms.p50", ms !wait 0.5);
          ("serve.worker_recycles", float_of_int (Option.value (List.assoc_opt "serve.worker_recycles" counters) ~default:0));
          ("serve.shed", float_of_int (Option.value (List.assoc_opt "serve.shed" counters) ~default:0));
          ("serve.live_heap_growth_pct", 100.0 *. (live1 -. live0) /. live0);
          ("serve.open_latency_ms.p50", ms !open_lat 0.5);
          ("serve.open_latency_ms.p99", ms !open_lat 0.99);
          ("serve.gen_lag_ms.p99", ms !lag 0.99);
        ];
    }
  in
  (traced, closed_rt, !failed)

let all = [ cascade_compile; kernel_sim; vif_library; serve_warm ]
let find name = List.find_opt (fun w -> w.name = name) all
