(** Seeded random VHDL design generation for the differential fuzzer.

    Every design is generated from a PRNG seed alone, so a seed list is a
    complete, replayable test campaign.  Designs are valid by construction
    (typed expression generation, acyclic signal topologies, literal-only
    divisors, mod-bounded arithmetic) so that the dual-evaluator oracle
    spends its budget on agreement checking rather than on parse errors. *)

type design = {
  d_seed : int;
  d_source : string; (* one source text, possibly several design units *)
  d_top : string option; (* entity to elaborate and simulate, if any *)
  d_max_ns : int; (* simulation horizon *)
}

val generate : seed:int -> size:int -> design
(** Generate one design.  [size] scales declaration, process, and
    expression counts (1 = tiny, 5 = hundreds of lines). *)

val shape_name : seed:int -> string
(** The design-shape family the seed maps to (for campaign logs). *)

(** {1 Random expression strings} *)

val int_expr : Random.State.t -> env:string list -> depth:int -> string
(** A type-correct VHDL integer expression over literals and the integer
    names in [env]; divisors are nonzero literals, exponents tiny. *)

val bool_expr : Random.State.t -> env:string list -> depth:int -> string
(** A BOOLEAN expression (comparisons over [int_expr] plus logic). *)

(** {1 Random runtime values} (shared with the Value_ops property tests) *)

val value : ?depth:int -> Random.State.t -> Value.t
(** A random scalar or composite {!Value.t}. *)

val int_array : Random.State.t -> Value.t
(** A [Varray] of 0 to 12 [Vint]s with a random ascending bound. *)

val bit_vector : Random.State.t -> Value.t
(** A [Varray] of 1 to 16 bit [Venum]s. *)
