(** Design libraries: where compiled units (VIF) live.

    The compiler takes "a working library where the successfully compiled
    units are placed and a reference library which can be referenced ... but
    which can not be updated" (paper §2).  A library may be disk-backed (one
    VIF file per unit) or memory-only; foreign references are resolved by
    reading the VIF back and recursively loading its dependencies — the
    activity the paper measures at 40-60% of total compilation time. *)

module U = Vhdl_util.Unix_compat
module Tm = Vhdl_telemetry.Telemetry

let m_reads = Tm.counter "vif.reads"
let m_writes = Tm.counter "vif.writes"
let m_read_bytes = Tm.counter "vif.read_bytes"
let m_write_bytes = Tm.counter "vif.write_bytes"
let m_unit_bytes = Tm.histogram "vif.unit_bytes"

type t = {
  lib_name : string;
  lib_dir : string option; (* disk directory; None = memory-only *)
  units : (string, Unit_info.compiled_unit) Hashtbl.t; (* by key *)
  loaded_files : (string, unit) Hashtbl.t; (* VIF files already parsed *)
  mutable references : (string * t) list; (* read-only reference libraries *)
  writable : bool;
  (* instrumentation for the PERF-PHASE experiment *)
  mutable read_seconds : float;
  mutable write_seconds : float;
  mutable reads : int;
  mutable writes : int;
  mutable sequence : int; (* compilation order stamp *)
}

exception Library_error of string

let err fmt = Format.kasprintf (fun s -> raise (Library_error s)) fmt

(* key "arch:ADDER(RTL)" -> file "arch@ADDER@RTL@.vif" *)
let file_of_key key =
  String.map (fun c -> match c with ':' | '(' | ')' -> '@' | c -> c) key ^ ".vif"

let create ?dir ~name () =
  let t =
    {
      lib_name = name;
      lib_dir = dir;
      units = Hashtbl.create 64;
      loaded_files = Hashtbl.create 64;
      references = [];
      writable = true;
      read_seconds = 0.0;
      write_seconds = 0.0;
      reads = 0;
      writes = 0;
      sequence = 0;
    }
  in
  (match dir with
  | Some d -> U.mkdir_p d
  | None -> ());
  t

(** Attach a read-only reference library under logical name [as_name]. *)
let add_reference t ~as_name ref_lib = t.references <- t.references @ [ (as_name, ref_lib) ]

(* VIF I/O time is charged to its own phase of the ambient compile timer
   ([phase] is "VIF read" or "VIF write"), which both carves it out of the
   enclosing phase and records each file transfer as a telemetry span;
   [add] accumulates the seconds into the library's own counter. *)
let timed phase add f =
  Vhdl_util.Phase_timer.time_ambient phase (fun () ->
      let start = U.now () in
      Fun.protect ~finally:(fun () -> add (U.now () -. start)) f)

(** Write [u] into the library (memory and, if disk-backed, its VIF file).
    The sequence stamp records compilation order — the input to the
    latest-compiled-architecture default rule. *)
let insert t (u : Unit_info.compiled_unit) =
  if not t.writable then err "library %s is read-only" t.lib_name;
  t.sequence <- max (t.sequence + 1) (u.Unit_info.u_sequence + 1);
  let u = { u with Unit_info.u_library = t.lib_name; u_sequence = t.sequence } in
  Hashtbl.replace t.units u.Unit_info.u_key u;
  match t.lib_dir with
  | None -> ()
  | Some dir ->
    timed "VIF write" (fun s -> t.write_seconds <- t.write_seconds +. s) (fun () ->
        t.writes <- t.writes + 1;
        Tm.incr m_writes;
        let file = file_of_key u.Unit_info.u_key in
        Hashtbl.replace t.loaded_files file ();
        let text = Vif_units.to_string u in
        Tm.add m_write_bytes (String.length text);
        Tm.observe m_unit_bytes (float_of_int (String.length text));
        U.write_file (Filename.concat dir file) text)

let rec resolve_library t name =
  if String.equal name t.lib_name || String.equal name "WORK" then Some t
  else
    match List.assoc_opt name t.references with
    | Some lib -> Some lib
    | None ->
      (* a reference library may itself re-export references *)
      List.find_map
        (fun (_, lib) -> if lib.lib_name = name then Some lib else resolve_library lib name)
        t.references

(* Read and decode the VIF file [file] of [lib]'s directory [dir],
   caching the unit unless one with its key is already known. *)
let load lib dir file =
  let path = Filename.concat dir file in
  let u =
    timed "VIF read" (fun s -> lib.read_seconds <- lib.read_seconds +. s) (fun () ->
        lib.reads <- lib.reads + 1;
        Tm.incr m_reads;
        let text = U.read_file path in
        Tm.add m_read_bytes (String.length text);
        try Vif_units.of_string text
        with Vif_codec.Error { pos; msg } ->
          err "corrupt VIF file %s at byte %d: %s" path pos msg)
  in
  Hashtbl.replace lib.loaded_files file ();
  if not (Hashtbl.mem lib.units u.Unit_info.u_key) then
    Hashtbl.replace lib.units u.Unit_info.u_key u;
  u

(** Find a unit: memory first, then the VIF file, recursively loading the
    unit's own foreign references (the paper's "reads the VIF from disk,
    resolving any nested foreign references"). *)
let rec find t ~library ~key : Unit_info.compiled_unit option =
  match resolve_library t library with
  | None -> None
  | Some lib -> (
    match Hashtbl.find_opt lib.units key with
    | Some u -> Some u
    | None -> (
      match lib.lib_dir with
      | None -> None
      | Some dir ->
        let file = file_of_key key in
        if not (Sys.file_exists (Filename.concat dir file)) then None
        else begin
          let u = load lib dir file in
          (* fix up nested foreign references *)
          List.iter
            (fun (dep_lib, dep_key) -> ignore (find t ~library:dep_lib ~key:dep_key))
            u.Unit_info.u_deps;
          Some u
        end))

(** All units currently known (loading every VIF file of disk-backed
    libraries first). *)
let all t : Unit_info.compiled_unit list =
  let load_dir lib =
    match lib.lib_dir with
    | Some dir when Sys.file_exists dir ->
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".vif" && not (Hashtbl.mem lib.loaded_files f) then
            ignore (load lib dir f))
        (Sys.readdir dir)
    | _ -> ()
  in
  load_dir t;
  List.iter (fun (_, lib) -> load_dir lib) t.references;
  let acc = ref [] in
  Hashtbl.iter (fun _ u -> acc := u :: !acc) t.units;
  List.iter
    (fun (_, lib) -> Hashtbl.iter (fun _ u -> acc := u :: !acc) lib.units)
    t.references;
  List.sort
    (fun (a : Unit_info.compiled_unit) b -> compare a.Unit_info.u_sequence b.Unit_info.u_sequence)
    !acc

(** Human-readable dump of one unit (paper: "produces a human-readable form
    of the VIF, used for both debugging and documentation"). *)
let dump t ~library ~key =
  match find t ~library ~key with
  | Some u -> Some (Vif_units.to_string_indented u)
  | None -> None

type io_stats = {
  io_reads : int;
  io_writes : int;
  io_read_seconds : float;
  io_write_seconds : float;
}

let io_stats t =
  {
    io_reads = t.reads;
    io_writes = t.writes;
    io_read_seconds = t.read_seconds;
    io_write_seconds = t.write_seconds;
  }

(** Drop the in-memory unit cache (disk files stay), forcing subsequent
    [find]s to re-read VIF — each compiler invocation in the original system
    re-read its foreign references from the library. *)
let clear_cache t =
  Hashtbl.reset t.units;
  Hashtbl.reset t.loaded_files;
  List.iter
    (fun (_, lib) ->
      Hashtbl.reset lib.units;
      Hashtbl.reset lib.loaded_files)
    t.references

let reset_io_stats t =
  t.reads <- 0;
  t.writes <- 0;
  t.read_seconds <- 0.0;
  t.write_seconds <- 0.0
