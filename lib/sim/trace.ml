(** Waveform tracing: change-dump observers attached to signals.

    Provides both an in-memory change log (used by tests and examples) and a
    VCD-style textual dump — the VHDL-I/O role of the paper's virtual
    machine, alongside assert/report output. *)

type change = {
  c_time : Rt.time;
  c_path : string;
  c_value : Value.t;
}

type t = {
  mutable changes : change list; (* newest first *)
  mutable watched : (string * Rt.signal) list;
}

let create () = { changes = []; watched = [] }

(** Observe [s]; records every event (and the initial value at time 0). *)
let watch t path (s : Rt.signal) =
  t.watched <- t.watched @ [ (path, s) ];
  t.changes <- { c_time = 0; c_path = path; c_value = s.Rt.current } :: t.changes;
  s.Rt.observers <-
    (fun time s -> t.changes <- { c_time = time; c_path = path; c_value = s.Rt.current } :: t.changes)
    :: s.Rt.observers

let changes t = List.rev t.changes

(** History of one signal: (time, value) pairs in time order. *)
let history t ~path =
  changes t |> List.filter_map (fun c -> if c.c_path = path then Some (c.c_time, c.c_value) else None)

(* ------------------------------------------------------------------ *)
(* VCD rendering (IEEE 1364 §18.2) — loadable by GTKWave *)

let vcd_id i =
  (* printable short identifier code: '!' .. '~' minus '"' (harmless but
     confuses some readers), base-extended for many signals *)
  let chars = "!#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ" in
  let n = String.length chars in
  if i < n then String.make 1 chars.[i]
  else Printf.sprintf "%c%c" chars.[i mod n] chars.[(i / n) mod n]

let timescale_label fs =
  let rec scale n = function
    | _ :: rest when n mod 1000 = 0 && n >= 1000 -> scale (n / 1000) rest
    | unit :: _ -> (n, unit)
    | [] -> (n, "fs")
  in
  let n, unit = scale (max 1 fs) [ "fs"; "ps"; "ns"; "us"; "ms"; "s" ] in
  if n = 1 || n = 10 || n = 100 then Printf.sprintf "%d %s" n unit
  else Printf.sprintf "%d fs" (max 1 fs)

(* fixed-width two's-complement binary, most significant bit first; an
   OCaml int has 63 bits, so bits above 62 repeat its sign *)
let bin_of_int ~width n =
  String.init width (fun i -> if (n asr (min 62 (width - 1 - i))) land 1 = 1 then '1' else '0')

let bits_for n =
  (* bits needed for positions 0 .. n-1 *)
  let rec go b cap = if cap >= n then b else go (b + 1) (cap * 2) in
  go 1 2

let bit_digit = function
  | Value.Venum 0 -> '0'
  | Value.Venum 1 -> '1'
  | _ -> 'x'

(* One VCD variable per watched signal: declaration type/width plus the
   value-change rendering (the full change token, identifier included). *)
type vcd_var = {
  v_id : string;
  v_scope : string list; (* enclosing module path, outermost first *)
  v_name : string;
  v_type : string;
  v_width : int;
  v_render : Value.t -> string;
}

let vcd_var i (path, (s : Rt.signal)) =
  let id = vcd_id i in
  let comps =
    match List.filter (fun c -> c <> "") (String.split_on_char ':' path) with
    | [] -> [ path ]
    | cs -> cs
  in
  let rec split = function
    | [ last ] -> ([], last)
    | c :: rest ->
      let scope, last = split rest in
      (c :: scope, last)
    | [] -> ([], path)
  in
  let scope, name = split comps in
  let vector width render =
    (id, "wire", width, fun v -> Printf.sprintf "b%s %s" (render v) id)
  in
  let v_id, v_type, v_width, v_render =
    match s.Rt.sig_ty.Types.kind with
    | Types.Kint | Types.Kphys _ ->
      ( id,
        "integer",
        64,
        fun v ->
          match v with
          | Value.Vphys n | Value.Vint n ->
            Printf.sprintf "b%s %s" (bin_of_int ~width:64 n) id
          | _ -> Printf.sprintf "bx %s" id )
    | Types.Kfloat ->
      ( id,
        "real",
        64,
        fun v ->
          match v with
          | Value.Vfloat x -> Printf.sprintf "r%.16g %s" x id
          | _ -> Printf.sprintf "r0 %s" id )
    | Types.Kenum lits when Array.length lits <= 2 ->
      (* two-valued enumeration (BIT, BOOLEAN): a scalar — change tokens
         are the bare digit glued to the identifier *)
      ( id,
        "wire",
        1,
        fun v -> Printf.sprintf "%c%s" (bit_digit v) id )
    | Types.Kenum lits ->
      let width = bits_for (Array.length lits) in
      vector width (fun v ->
          match v with
          | Value.Venum n -> bin_of_int ~width n
          | _ -> "x")
    | Types.Karray _ ->
      let width =
        match s.Rt.current with
        | Value.Varray { elems; _ } -> max 1 (Array.length elems)
        | _ -> 1
      in
      vector width (fun v ->
          match v with
          | Value.Varray { elems; _ } ->
            String.init (Array.length elems) (fun i -> bit_digit elems.(i))
          | _ -> "x")
    | Types.Krecord _ | Types.Kaccess _ -> vector 1 (fun _ -> "x")
  in
  { v_id; v_scope = scope; v_name = name; v_type; v_width; v_render }

(* Nested $scope tree: group variables by their hierarchical path. *)
type scope_tree = {
  mutable sub : (string * scope_tree) list; (* insertion order *)
  mutable vars : vcd_var list; (* reversed *)
}

let rec insert_var tree scope v =
  match scope with
  | [] -> tree.vars <- v :: tree.vars
  | c :: rest ->
    let child =
      match List.assoc_opt c tree.sub with
      | Some t -> t
      | None ->
        let t = { sub = []; vars = [] } in
        tree.sub <- tree.sub @ [ (c, t) ];
        t
    in
    insert_var child rest v

let rec emit_scope buf name tree =
  Buffer.add_string buf (Printf.sprintf "$scope module %s $end\n" name);
  List.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "$var %s %d %s %s $end\n" v.v_type v.v_width v.v_id v.v_name))
    (List.rev tree.vars);
  List.iter (fun (n, t) -> emit_scope buf n t) tree.sub;
  Buffer.add_string buf "$upscope $end\n"

(** Render the full change log as an IEEE-1364 VCD document.  Scopes nest
    following the [:]-separated hierarchical paths; two-valued enumerations
    (BIT, BOOLEAN) are scalars, larger enumerations dump as binary
    vectors, integers and physical values as 64-bit two's-complement
    vectors, reals as [r] changes.  The initial values appear in a
    [$dumpvars] block at time 0; later times emit only actual changes. *)
let to_vcd t ~timescale_fs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "$version vhdlc simulation $end\n";
  Buffer.add_string buf
    (Printf.sprintf "$timescale %s $end\n" (timescale_label timescale_fs));
  let vars = List.mapi vcd_var t.watched in
  let root = { sub = []; vars = [] } in
  List.iter (fun v -> insert_var root v.v_scope v) vars;
  (* scope-less signals live in a synthetic "top" module; if everything is
     under one hierarchy the tree already provides it *)
  (match (root.vars, root.sub) with
  | [], [ (name, only) ] -> emit_scope buf name only
  | _ -> emit_scope buf "top" { sub = root.sub; vars = root.vars });
  Buffer.add_string buf "$enddefinitions $end\n";
  let var_of_path =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun i (path, _) -> Hashtbl.replace tbl path (List.nth vars i)) t.watched;
    tbl
  in
  (* group by time, collapsing to the last change per signal per instant
     (delta cycles within one time step show only the settled value) *)
  let by_time = Hashtbl.create 64 in
  List.iter
    (fun c ->
      match Hashtbl.find_opt var_of_path c.c_path with
      | None -> ()
      | Some v ->
        let cell =
          match Hashtbl.find_opt by_time c.c_time with
          | Some cell -> cell
          | None ->
            let cell = Hashtbl.create 8 in
            Hashtbl.replace by_time c.c_time cell;
            cell
        in
        (* the log is newest first: keep the first (= last) token seen *)
        if not (Hashtbl.mem cell v.v_id) then Hashtbl.replace cell v.v_id (v.v_render c.c_value))
    t.changes;
  let times = List.sort compare (Hashtbl.fold (fun t _ acc -> t :: acc) by_time []) in
  let last_token = Hashtbl.create 16 in
  let emit_time time tokens =
    let changed =
      List.filter
        (fun (id, tok) ->
          match Hashtbl.find_opt last_token id with
          | Some prev when String.equal prev tok -> false
          | _ ->
            Hashtbl.replace last_token id tok;
            true)
        tokens
    in
    if changed <> [] then begin
      Buffer.add_string buf (Printf.sprintf "#%d\n" time);
      List.iter (fun (_, tok) -> Buffer.add_string buf (tok ^ "\n")) changed
    end
  in
  (* time 0 is the $dumpvars block: every variable's initial value *)
  let time0 =
    match Hashtbl.find_opt by_time 0 with
    | Some cell -> cell
    | None -> Hashtbl.create 1
  in
  Buffer.add_string buf "#0\n$dumpvars\n";
  List.iteri
    (fun i (_, (s : Rt.signal)) ->
      let v = List.nth vars i in
      let tok =
        match Hashtbl.find_opt time0 v.v_id with
        | Some tok -> tok
        | None -> v.v_render s.Rt.current
      in
      Hashtbl.replace last_token v.v_id tok;
      Buffer.add_string buf (tok ^ "\n"))
    t.watched;
  Buffer.add_string buf "$end\n";
  List.iter
    (fun time ->
      if time > 0 then
        emit_time time
          (Hashtbl.fold (fun id tok acc -> (id, tok) :: acc) (Hashtbl.find by_time time) []
          |> List.sort compare))
    times;
  Buffer.contents buf
