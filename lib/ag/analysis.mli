(** Static dependency analysis: the classical machinery the paper relies on
    Linguist for.

    - per-production local dependency graphs;
    - the IO/OI induced-dependency fixpoint giving the polynomial
      {e strong noncircularity} test;
    - per-symbol visit partitions, yielding the "max visits" statistic of
      the paper's §4.1 table and the static {!plan} that drives
      {!Evaluator.evaluate_plan}. *)

type 'v t

exception
  Circular of {
    prod_name : string;
    cycle : (int * string) list; (* (position, attribute) along the cycle *)
  }

exception Not_orderable of { symbol : string }

val compute : 'v Grammar.t -> 'v t
(** Run the IO/OI fixpoints.  @raise Circular if the grammar fails the
    strong-noncircularity test (the paper's §5.2: a far-removed rule change
    "can combine ... to produce a circularity"). *)

val visit_partitions : 'v t -> (int * int) list array
(** For each symbol id, the [(attribute id, visit number)] assignment of
    the eager partition.  @raise Not_orderable when a symbol's combined
    IO/OI relation is cyclic (demand evaluation may still succeed). *)

type plan = {
  pl_passes : int;  (** number of passes (the partition's max visit) *)
  pl_force : int array array array;
      (** production id -> pass-1 -> synthesized attribute ids to force *)
  pl_copy_targets : int;
      (** copy-rule targets detected (and excluded from forcing) at plan
          time, summed over productions *)
}
(** A static evaluation plan: per production and pass, the synthesized
    attributes a plan-driven evaluator forces ({!Evaluator.evaluate_plan}).
    Copy chains are detected at plan-construction time and left out — their
    values move by reference when a real rule reads them — and inherited
    attributes are pulled on demand through the parent chain. *)

val plan : 'v t -> plan
(** Compute the plan (once per grammar; sharing it mirrors Linguist
    generating the evaluator once).
    @raise Not_orderable as {!visit_partitions}. *)

val visits_of : 'v t -> string -> int
(** Visits needed for one symbol, by name. *)
