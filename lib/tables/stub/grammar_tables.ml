(* Linked only into the generator, which never loads tables: loading these
   raises Generated.Stale. *)

let principal = ""
let expression = ""
