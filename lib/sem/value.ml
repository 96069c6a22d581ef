(** Values: shared between static (compile-time) evaluation and the
    simulation kernel's runtime.

    Physical values (TIME) are kept in primary units — femtoseconds for
    STANDARD.TIME — so simulation arithmetic is exact integer arithmetic. *)

type dir = Types.dir =
  | To
  | Downto

type t =
  | Vint of int
  | Vfloat of float
  | Venum of int (* position number in the base enumeration *)
  | Vphys of int (* multiples of the primary unit *)
  | Varray of { bounds : int * dir * int; elems : t array }
  | Vrecord of (string * t) list
  | Vnull (* the null access value *)
  | Vaccess of t ref
      (* an allocated object (LRM 3.3).  The cell itself is the identity:
         access equality is physical equality of the ref.  Access values
         exist only in variables, never in signals or the VIF. *)

(* STANDARD.BOOLEAN: (FALSE, TRUE); shared, so a comparison allocates nothing *)
let v_false = Venum 0
let v_true = Venum 1
let vbool b = if b then v_true else v_false

let truth = function
  | Venum 1 -> true
  | Venum 0 -> false
  | _ -> invalid_arg "Value.truth: not a boolean"

let as_int = function
  | Vint n -> n
  | Venum n -> n
  | Vphys n -> n
  | _ -> invalid_arg "Value.as_int"

let as_float = function
  | Vfloat x -> x
  | _ -> invalid_arg "Value.as_float"

(** Length of an index range. *)
let range_length (l, d, r) =
  match d with
  | To -> if r >= l then r - l + 1 else 0
  | Downto -> if l >= r then l - r + 1 else 0

(** Left-to-right index list of a range, in declaration order. *)
let range_indices (l, d, r) =
  match d with
  | To -> if r >= l then List.init (r - l + 1) (fun i -> l + i) else []
  | Downto -> if l >= r then List.init (l - r + 1) (fun i -> l - i) else []

(** Flat position of index [i] in an array with [bounds]. *)
let array_offset (l, d, r) i =
  let ok = match d with To -> i >= l && i <= r | Downto -> i <= l && i >= r in
  if not ok then None else Some (match d with To -> i - l | Downto -> l - i)

let array_get v i =
  match v with
  | Varray { bounds; elems } -> (
    match array_offset bounds i with
    | Some off -> Some elems.(off)
    | None -> None)
  | _ -> None

let rec equal a b =
  match (a, b) with
  | Vint x, Vint y -> x = y
  | Vfloat x, Vfloat y -> x = y
  | Venum x, Venum y -> x = y
  | Vphys x, Vphys y -> x = y
  | Varray { elems = xs; _ }, Varray { elems = ys; _ } ->
    (* array equality in VHDL ignores bounds, comparing element sequences *)
    Array.length xs = Array.length ys
    && begin
         let rec go i = i >= Array.length xs || (equal xs.(i) ys.(i) && go (i + 1)) in
         go 0
       end
  | Vrecord xs, Vrecord ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (nx, vx) (ny, vy) -> nx = ny && equal vx vy) xs ys
  | Vnull, Vnull -> true
  | Vaccess x, Vaccess y -> x == y (* access equality is cell identity *)
  | (Vint _ | Vfloat _ | Venum _ | Vphys _ | Varray _ | Vrecord _ | Vnull | Vaccess _), _ ->
    false

(** Lexicographic comparison (arrays of scalars, per VHDL relational ops). *)
let rec compare_v a b =
  match (a, b) with
  | Vint x, Vint y -> compare x y
  | Vfloat x, Vfloat y -> compare x y
  | Venum x, Venum y -> compare x y
  | Vphys x, Vphys y -> compare x y
  | Varray { elems = xs; _ }, Varray { elems = ys; _ } ->
    let nx = Array.length xs and ny = Array.length ys in
    let rec go i =
      if i >= nx && i >= ny then 0
      else if i >= nx then -1
      else if i >= ny then 1
      else
        match compare_v xs.(i) ys.(i) with
        | 0 -> go (i + 1)
        | c -> c
    in
    go 0
  | Vrecord _, Vrecord _ -> invalid_arg "Value.compare_v: records are not ordered"
  | _ -> invalid_arg "Value.compare_v: type mismatch"

(** Default initial value of a type: leftmost value for scalars (per the
    LRM), element-wise defaults for composites. *)
let rec default_of (ty : Types.t) =
  match ty.Types.kind with
  | Types.Kint -> (
    match Types.range ty with
    | Some (l, _, _) -> Vint l
    | None -> Vint 0)
  | Types.Kfloat -> (
    match ty.Types.constr with
    | Some (Types.Cfloat_range (l, _, _)) -> Vfloat l
    | _ -> Vfloat 0.0)
  | Types.Kenum _ -> (
    match Types.range ty with
    | Some (l, _, _) -> Venum l
    | None -> Venum 0)
  | Types.Kphys _ -> (
    match Types.range ty with
    | Some (l, _, _) -> Vphys l
    | None -> Vphys 0)
  | Types.Karray { elem; _ } -> (
    match Types.range ty with
    | Some (l, d, r) ->
      Varray
        {
          bounds = (l, d, r);
          elems = Array.init (range_length (l, d, r)) (fun _ -> default_of elem);
        }
    | None -> Varray { bounds = (1, To, 0); elems = [||] })
  | Types.Krecord fields ->
    Vrecord (List.map (fun (name, fty) -> (name, default_of fty)) fields)
  | Types.Kaccess _ -> Vnull

(** Printable image, used by report/assert output and the tracer. *)
let rec image ?ty v =
  let enum_image pos =
    match ty with
    | Some t -> (
      match Types.enum_literals t with
      | Some lits when pos >= 0 && pos < Array.length lits -> lits.(pos)
      | _ -> string_of_int pos)
    | None -> string_of_int pos
  in
  match v with
  | Vint n -> string_of_int n
  | Vfloat x -> Printf.sprintf "%g" x
  | Venum pos -> enum_image pos
  | Vphys n -> (
    match ty with
    | Some { Types.kind = Types.Kphys ((u, _) :: _); _ } -> Printf.sprintf "%d %s" n u
    | _ -> string_of_int n)
  | Varray { elems; _ } ->
    let elem_ty = Option.bind ty Types.element_type in
    (* strings of characters print as string literals *)
    let all_chars =
      match elem_ty with
      | Some t -> (
        match Types.enum_literals t with
        | Some lits ->
          Array.for_all
            (function
              | Venum p -> p < Array.length lits && String.length lits.(p) = 3
              | _ -> false)
            elems
        | None -> false)
      | None -> false
    in
    if all_chars then
      "\""
      ^ String.concat ""
          (Array.to_list
             (Array.map
                (fun e ->
                  match (e, elem_ty) with
                  | Venum p, Some t -> (
                    match Types.enum_literals t with
                    | Some lits -> String.sub lits.(p) 1 1
                    | None -> "?")
                  | _ -> "?")
                elems))
      ^ "\""
    else
      "("
      ^ String.concat ", " (Array.to_list (Array.map (fun e -> image ?ty:elem_ty e) elems))
      ^ ")"
  | Vrecord fields ->
    "("
    ^ String.concat ", "
        (List.map
           (fun (name, v) ->
             let fty = Option.bind ty (fun t -> Types.field_type t name) in
             Printf.sprintf "%s => %s" name (image ?ty:fty v))
           fields)
    ^ ")"
  | Vnull -> "null"
  | Vaccess r -> Printf.sprintf "access(%s)" (image !r)

let pp fmt v = Format.pp_print_string fmt (image v)
