(** Design libraries: where compiled units (VIF) live.

    The compiler takes "a working library where the successfully compiled
    units are placed and a reference library which can be referenced ... but
    which can not be updated" (paper §2).  A library may be disk-backed (one
    VIF file per unit) or memory-only; foreign references are resolved by
    reading the VIF back and recursively loading its dependencies — the
    activity the paper measures at 40-60% of total compilation time. *)

module U = Vhdl_util.Unix_compat
module Timer = Vhdl_util.Phase_timer
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
  timer : Timer.t; (* charged "VIF read" / "VIF write" (PERF-PHASE) *)
  mutable sequence : int; (* compilation order stamp *)
}

exception Library_error of string

let err fmt = Format.kasprintf (fun s -> raise (Library_error s)) fmt

(* key "arch:ADDER(RTL)" -> file "arch@ADDER@RTL@.vif" *)
let file_of_key key =
  String.map (fun c -> match c with ':' | '(' | ')' -> '@' | c -> c) key ^ ".vif"

let create ?dir ~name ~timer () =
  let t =
    {
      lib_name = name;
      lib_dir = dir;
      units = Hashtbl.create 64;
      loaded_files = Hashtbl.create 64;
      references = [];
      timer;
      sequence = 1; (* first stamp 2, as in VIF written by earlier versions *)
    }
  in
  (match dir with
  | Some d -> U.mkdir_p d
  | None -> ());
  t

(** Attach a read-only reference library under logical name [as_name]. *)
let add_reference t ~as_name ref_lib = t.references <- t.references @ [ (as_name, ref_lib) ]

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
  (* a phase of its own, carved out of the enclosing one and recorded as a
     telemetry span per file *)
  let u =
    Timer.time lib.timer "VIF read" (fun () ->
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

(* The highest stamp among the other architectures of [entity] in [dir],
   read if not yet loaded.  Stamps on disk outlive the process that wrote
   them, so a new architecture goes above them. *)
let sibling_stamp t dir ~own entity =
  let prefix = "arch@" ^ entity ^ "@" in
  let plen = String.length prefix in
  Array.fold_left
    (fun acc f ->
      if f = own || not (String.starts_with ~prefix f && Filename.check_suffix f "@.vif")
      then acc
      else
        let arch = String.sub f plen (String.length f - plen - 5) in
        let sib =
          match Hashtbl.find_opt t.units (Printf.sprintf "arch:%s(%s)" entity arch) with
          | Some u -> u
          | None -> load t dir f
        in
        max acc sib.Unit_info.u_sequence)
    0 (Sys.readdir dir)

(** Write [u] into the library (memory and, if disk-backed, its VIF file).
    The library stamps compilation order — the input to the
    latest-compiled-architecture default rule; an architecture written to
    disk is stamped above its siblings already there. *)
let insert t (u : Unit_info.compiled_unit) =
  let file = file_of_key u.Unit_info.u_key in
  (match (t.lib_dir, u.Unit_info.u_info) with
  | Some dir, Unit_info.Uarch ar ->
    t.sequence <- max t.sequence (sibling_stamp t dir ~own:file ar.Unit_info.ar_entity)
  | _ -> ());
  t.sequence <- t.sequence + 1;
  let u = { u with Unit_info.u_library = t.lib_name; u_sequence = t.sequence } in
  Hashtbl.replace t.units u.Unit_info.u_key u;
  match t.lib_dir with
  | None -> ()
  | Some dir ->
    Timer.time t.timer "VIF write" (fun () ->
        Tm.incr m_writes;
        Hashtbl.replace t.loaded_files file ();
        let text = Vif_units.to_string u in
        Tm.add m_write_bytes (String.length text);
        Tm.observe m_unit_bytes (float_of_int (String.length text));
        U.write_file (Filename.concat dir file) text)

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
