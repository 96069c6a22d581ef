(** Compilation session: the one per-compile context.

    The paper's compiler takes "a working library where the successfully
    compiled units are placed and a reference library which can be
    referenced... but not updated"; semantic rules resolve foreign
    references through this interface.  The VIF library manager implements
    it; tests may supply an in-memory map.  The session also carries the
    compile's phase timer, so the cascade charges the compiler that runs
    it.

    A session is read-only: semantic rules look units up through it but
    never write.  The driver places a design unit in the library once its
    analysis is error-free, so every attribute instance's value depends only
    on its inputs.  The active session is installed by the pipeline around
    attribute evaluation (the compiler is single-threaded, as was the
    original). *)

(* LRM 11.2: every design unit is analyzed into the library WORK names *)
let work = "WORK"

type t = {
  find_unit : library:string -> key:string -> Unit_info.compiled_unit option;
  known_library : string -> bool;
  provenance : Provenance.t option; (* the recorder the cascade records into *)
  reference : bool; (* the oracle's reference side: no copy elision in the expression AG *)
  timer : Vhdl_util.Phase_timer.t; (* the compile's timer, charged by the cascade *)
}

let in_memory units =
  let tbl = Hashtbl.create 32 in
  List.iter (fun (u : Unit_info.compiled_unit) -> Hashtbl.replace tbl (u.Unit_info.u_library, u.Unit_info.u_key) u) units;
  {
    find_unit = (fun ~library ~key -> Hashtbl.find_opt tbl (library, key));
    known_library = (fun lib -> lib = work || lib = "STD");
    provenance = None;
    reference = false;
    timer = Vhdl_util.Phase_timer.create ();
  }

let current : t option ref = ref None

let with_session session f =
  let saved = !current in
  current := Some session;
  Fun.protect ~finally:(fun () -> current := saved) f

let get () =
  match !current with
  | Some s -> s
  | None -> Pval.internal "no active compilation session"

let find_unit ~library ~key = (get ()).find_unit ~library ~key
let known_library lib = lib = "STD" || (get ()).known_library lib

(* the cascade also runs outside any session (tests, benches) *)
let provenance () = Option.bind !current (fun s -> s.provenance)
let reference () = match !current with Some s -> s.reference | None -> false
let timer () = Option.map (fun s -> s.timer) !current
