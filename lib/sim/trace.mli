(** Waveform tracing: change-dump observers attached to signals, with an
    in-memory change log and a VCD rendering (the VHDL-I/O role of the
    paper's virtual machine alongside assert/report output). *)

type change = {
  c_time : Rt.time;
  c_path : string;
  c_value : Value.t;
}

type t

val create : unit -> t

val watch : t -> string -> Rt.signal -> unit
(** Observe a signal: records the initial value and every event. *)

val changes : t -> change list
(** All recorded changes, oldest first. *)

val history : t -> path:string -> (Rt.time * Value.t) list
(** One signal's (time, value) pairs in time order. *)

val to_vcd : t -> timescale_fs:int -> string
(** Render the change log as an IEEE-1364 VCD document (loadable by
    GTKWave).  Scopes nest following the [:]-separated hierarchical signal
    paths; two-valued enumerations (BIT, BOOLEAN) dump as scalars, larger
    enumerations as binary vectors, integers and physical values as
    64-bit two's-complement vectors, reals as [r] changes.
    Initial values appear in a [$dumpvars] block at time 0; later times
    emit only actual changes. *)
