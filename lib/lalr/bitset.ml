(** Dense bit sets over [0, n).  Terminal sets in the LALR construction. *)

type t = { bits : Bytes.t; width : int }

let create width = { bits = Bytes.make ((width + 7) / 8) '\000'; width }

let copy t = { t with bits = Bytes.copy t.bits }

let mem t i =
  Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t i =
  let byte = i lsr 3 in
  Bytes.set t.bits byte (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl (i land 7))))

(** [union_into ~into from] adds all elements of [from] to [into]; returns
    [true] if [into] changed. *)
let union_into ~into from =
  let changed = ref false in
  for b = 0 to Bytes.length into.bits - 1 do
    let old = Char.code (Bytes.get into.bits b) in
    let nw = old lor Char.code (Bytes.get from.bits b) in
    if nw <> old then begin
      Bytes.set into.bits b (Char.chr nw);
      changed := true
    end
  done;
  !changed

let elements t =
  let acc = ref [] in
  for i = t.width - 1 downto 0 do
    if mem t i then acc := i :: !acc
  done;
  !acc
