(** VHDL type descriptors.

    VHDL (like Ada) has name equivalence: two types are compatible iff they
    have the same *base type*.  Base types are identified by their fully
    qualified name (e.g. ["STD.STANDARD.INTEGER"], ["WORK.PKG.WORD"]), which
    also keeps identity stable across separate compilation through the VIF.
    A subtype shares its base name and adds a constraint.

    Supported type classes: integer, floating, enumeration, physical
    (TIME), arrays (constrained, unconstrained, and multi-dimensional via
    nested lowering), records, and access types.  File types are outside
    the subset (see DESIGN.md). *)

type dir =
  | To
  | Downto

type t = {
  base : string; (* qualified base-type name: the identity *)
  kind : kind;
  constr : constr option; (* subtype constraint, if any *)
}

and kind =
  | Kint
  | Kfloat
  | Kenum of string array (* literal images, position = pos number *)
  | Kphys of (string * int) list (* units as multiples of the primary unit *)
  | Karray of { index : t; elem : t }
  | Krecord of (string * t) list
  | Kaccess of t (* designated type *)

and constr =
  | Crange of int * dir * int (* scalar range / array index constraint *)
  | Cfloat_range of float * dir * float

let same_base a b = String.equal a.base b.base

(** Compatibility for assignment/association: same base type.  (Subtype
    constraints are checked dynamically, as in a real VHDL simulator.) *)
let compatible a b = same_base a b

let is_scalar t =
  match t.kind with
  | Kint | Kfloat | Kenum _ | Kphys _ -> true
  | Karray _ | Krecord _ | Kaccess _ -> false

let is_discrete t =
  match t.kind with
  | Kint | Kenum _ -> true
  | Kfloat | Kphys _ | Karray _ | Krecord _ | Kaccess _ -> false

let is_array t =
  match t.kind with
  | Karray _ -> true
  | _ -> false

let element_type t =
  match t.kind with
  | Karray { elem; _ } -> Some elem
  | _ -> None

let index_type t =
  match t.kind with
  | Karray { index; _ } -> Some index
  | _ -> None

let is_constrained_array t =
  match (t.kind, t.constr) with
  | Karray _, Some _ -> true
  | _ -> false

(** Derive a subtype of [t] with constraint [constr]. *)
let subtype ?(name = "") t ~constr =
  ignore name;
  { t with constr = Some constr }

(** Bounds of a discrete (sub)type, if statically known. *)
let bounds t =
  match t.constr with
  | Some (Crange (lo, To, hi)) -> Some (lo, hi)
  | Some (Crange (hi, Downto, lo)) -> Some (lo, hi)
  | _ -> None

(** Range with direction, as declared. *)
let range t =
  match t.constr with
  | Some (Crange (l, d, r)) -> Some (l, d, r)
  | _ -> None

let enum_literals t =
  match t.kind with
  | Kenum lits -> Some lits
  | _ -> None

(** Position of enumeration literal [image] in the base type. *)
let enum_pos t image =
  match t.kind with
  | Kenum lits ->
    let n = Array.length lits in
    let rec scan i = if i >= n then None else if lits.(i) = image then Some i else scan (i + 1) in
    scan 0
  | _ -> None

let field_type t name =
  match t.kind with
  | Krecord fields -> List.assoc_opt name fields
  | _ -> None

(* short display name: last component of the qualified base name *)
let short_name t =
  match String.rindex_opt t.base '.' with
  | Some i -> String.sub t.base (i + 1) (String.length t.base - i - 1)
  | None -> t.base
