(** Design libraries: where compiled units (VIF) live.

    A library may be disk-backed (one VIF file per unit) or memory-only;
    foreign references are resolved by reading VIF back and recursively
    loading dependencies — the activity the paper measures at 40-60% of
    compilation time. *)

type t

exception Library_error of string

val file_of_key : string -> string
(** Deterministic VIF file name for a unit key. *)

val create : ?dir:string -> name:string -> timer:Vhdl_util.Phase_timer.t -> unit -> t
(** A library named [name]; [dir] makes it disk-backed (created if
    missing).  Every VIF file read or written is a ["VIF read"] or
    ["VIF write"] frame of [timer] — a compiler passes its own; a cache
    hit opens no frame. *)

val add_reference : t -> as_name:string -> t -> unit
(** Attach a read-only reference library under a logical name. *)

val insert : t -> Unit_info.compiled_unit -> unit
(** Write a unit (memory + VIF file).  Stamps compilation order — the input
    to the latest-compiled-architecture default rule (§3.3).  Stamps count
    per library from 2; an architecture going to disk is stamped above the
    other architectures of its entity already there, so the rule holds
    across processes. *)

val resolve_library : t -> string -> t option

val find : t -> library:string -> key:string -> Unit_info.compiled_unit option
(** Memory first, then the VIF file, recursively loading the unit's foreign
    references.
    @raise Library_error naming the file and the byte offset where a
    corrupt VIF file stops decoding. *)

val all : t -> Unit_info.compiled_unit list
(** Every known unit, in compilation order (loads all VIF files of
    disk-backed libraries).
    @raise Library_error as {!find} does. *)

val dump : t -> library:string -> key:string -> string option
(** The paper's human-readable VIF form, for debugging and documentation. *)

val clear_cache : t -> unit
(** Drop the in-memory unit cache (disk files stay): subsequent [find]s
    re-read VIF, as each compiler invocation did in the original system. *)
