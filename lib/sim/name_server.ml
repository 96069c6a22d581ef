(** The Name Server: "provides the means of identifying by name each object
    in the simulated system" (paper §2.1, module 4 of the virtual machine).

    Hierarchical instance paths use colon separators: [:top:u1:q]. *)

type entry =
  | Signal of Rt.signal
  | Process of Rt.proc
  | Instance of { instance_path : string; entity : string; architecture : string }

type t = {
  table : (string, entry) Hashtbl.t;
  mutable paths : string list; (* registration order, newest first *)
}

let create () = { table = Hashtbl.create 64; paths = [] }

let register t path entry =
  if not (Hashtbl.mem t.table path) then t.paths <- path :: t.paths;
  Hashtbl.replace t.table path entry

let find t path = Hashtbl.find_opt t.table path

let find_signal t path =
  match find t path with
  | Some (Signal s) -> Some s
  | _ -> None

let instances t =
  List.rev t.paths
  |> List.filter_map (fun p ->
         match Hashtbl.find_opt t.table p with
         | Some (Instance { entity; architecture; _ }) -> Some (p, entity, architecture)
         | _ -> None)

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun path ->
      match Hashtbl.find_opt t.table path with
      | Some (Signal s) ->
        Format.fprintf fmt "signal   %-40s : %s@," path (Types.short_name s.Rt.sig_ty)
      | Some (Process _) -> Format.fprintf fmt "process  %s@," path
      | Some (Instance { entity; architecture; _ }) ->
        Format.fprintf fmt "instance %-40s : %s(%s)@," path entity architecture
      | None -> ())
    (List.rev t.paths);
  Format.fprintf fmt "@]"
