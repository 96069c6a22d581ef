(** String interning: maps strings to dense integer ids and back.

    Grammar symbols and attribute names are interned so that the AG engine
    and LALR generator can use arrays indexed by symbol id. *)

type t = {
  table : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable next : int;
}

let create () = { table = Hashtbl.create 64; names = Array.make 64 ""; next = 0 }

let intern t name =
  match Hashtbl.find_opt t.table name with
  | Some id -> id
  | None ->
    let id = t.next in
    if id >= Array.length t.names then begin
      let bigger = Array.make (2 * Array.length t.names) "" in
      Array.blit t.names 0 bigger 0 (Array.length t.names);
      t.names <- bigger
    end;
    t.names.(id) <- name;
    t.next <- id + 1;
    Hashtbl.add t.table name id;
    id

let find_opt t name = Hashtbl.find_opt t.table name

let name t id =
  if id < 0 || id >= t.next then invalid_arg "Interner.name: id out of range";
  t.names.(id)

let count t = t.next
