(** Attribute provenance: the dynamic attribute dependency graph.

    When a recorder is armed, the evaluator records every attribute-instance
    computation as a {!record} — which production's rule fired, on which
    tree node, what it produced, what it cost — with edges to the attribute
    instances it read.  The result is the dynamic dependency graph of the
    evaluation as an immutable value next to the attribute values
    themselves: the debugging artifact of Ikezoe et al.'s "Systematic
    Debugging of Attribute Grammars", and the data source for the why-chain
    printer ([vhdlc explain]), the DOT exporter, and the hot-rule profiler.

    One recorder can span several evaluators: the cascade's expression AG
    ([exprEval]) records into the compile session's recorder, so its
    records nest under the principal-AG instance whose rule invoked the
    cascade and the explain chain crosses the AG boundary. *)

(** How an attribute instance got its value. *)
type kind =
  | Rule of Grammar.provenance  (** a semantic rule fired (explicit or
                                    implicit attribute-class completion) *)
  | Copy of Grammar.provenance
      (** a copy rule the evaluator elided: the value moved by reference
          from its source instance (the collapsed dependency edge), no
          semantic function was applied *)
  | Token  (** a terminal's VAL or LINE attribute, supplied by the scanner *)
  | Root_inherited  (** an inherited attribute supplied at the tree root *)
  | Unknown  (** the computation escaped before it was classified *)

val kind_label : kind -> string

(** One attribute-instance computation. *)
type record = {
  r_id : int;  (** dense, unique within the recorder, in begin order *)
  r_ag : string;  (** which AG: ["vhdl"] or ["expr"] *)
  r_prod : string;  (** production (or terminal) of the instance's node *)
  r_node : int;  (** tree-node id, unique across all trees recording here *)
  r_attr : string;
  r_line : int;  (** source line of the node's first token (0 if none) *)
  mutable r_kind : kind;
  mutable r_rule : string option;
      (** defining production of the rule that fired — for inherited
          attributes this is the parent's production, not [r_prod] *)
  mutable r_value : string;  (** compact summary of the computed value *)
  mutable r_self_s : float;  (** cost minus the cost of its dependencies *)
  mutable r_total_s : float;
  mutable r_self_aw : float;
      (** minor-heap words allocated by this computation, its dependencies
          excluded — the allocation mirror of [r_self_s], snapshotted
          allocation-free ([Telemetry.minor_words_now]) so recording does
          not perturb what it measures *)
  mutable r_total_aw : float;
  mutable r_memo_hits : int;  (** later reads served from the memo cache *)
  mutable r_applications : int;  (** semantic-rule applications charged here *)
  mutable r_deps : int list;  (** record ids read, in read order *)
  mutable r_aborted : bool;  (** the computation escaped with an exception *)
}

type t
(** A recorder: an append-only store of records plus the open-computation
    stack that wires dependency edges and self-time accounting. *)

val create : unit -> t

val fresh_node : t -> int
(** The next tree-node id (from 1): every evaluator recording here numbers
    its nodes from this one counter, so node ids stay unique across the
    principal tree and every cascade tree. *)

val records : t -> record list
(** All records, oldest first. *)

val size : t -> int

val get : t -> int -> record option
(** Record by id. *)

val find : t -> node:int -> attr:string -> record option
(** Latest completed record for attribute [attr] of tree node [node]. *)

val instances_at : t -> node:int -> record list
(** All completed records sitting on tree node [node], oldest first. *)

(** {1 Evaluator-side API}

    Called by {!Evaluator} when a recorder is armed.  [begin_instance] /
    [finish] / [abort] bracket one attribute-instance computation;
    dependency edges and self-time flow through the recorder's stack, so
    nested evaluators (the cascade) link up automatically. *)

val begin_instance :
  t -> ag:string -> prod:string -> node:int -> attr:string -> line:int -> record

val finish : t -> record -> value:string -> unit

val abort : t -> record -> unit
(** Close a record whose computation escaped; it stays in the graph, marked
    aborted, so a crash's partial provenance is still explorable. *)

val memo_hit : t -> node:int -> attr:string -> unit
(** A read was served from the memo cache: add a dependency edge from the
    open computation to the instance's existing record. *)

val note_rule : t -> defining_prod:string -> implicit:bool -> unit
(** The open computation is about to apply a semantic rule living in
    [defining_prod]. *)

val note_copy : t -> defining_prod:string -> implicit:bool -> unit
(** The open computation is a copy rule the evaluator elided: its value
    moves by reference from the source instance, so no rule application is
    charged — only the collapsed dependency edge (recorded when the source
    is read) remains, keeping [vhdlc explain] chains truthful. *)

val note_token : t -> unit
val note_root_inherited : t -> unit

(** {1 Consumers} *)

val pp_why_chain : ?depth:int -> t -> Format.formatter -> int -> unit
(** Print the transitive provenance slice (the why-chain) rooted at a
    record id: the instance, its value, its cost, and — indented — the
    instances it read, to [depth] levels (default 6).  Repeated records are
    referenced back instead of re-expanded; at most 16 dependencies are
    printed per record. *)

val to_dot : ?depth:int -> t -> root:int -> string
(** The same slice as a GraphViz digraph (records as boxes, reads as
    edges), for [dot -Tsvg].  Expression-AG records are shaded so the
    cascade boundary is visible. *)

(** {1 Hot-rule profiler} *)

(** Aggregation of the records by (AG, defining production, attribute). *)
type profile_row = {
  p_ag : string;
  p_prod : string;  (** defining production, or ["<token>"]/["<root>"] *)
  p_attr : string;
  p_count : int;  (** instances computed *)
  p_applications : int;  (** semantic-rule applications *)
  p_memo_hits : int;
  p_self_s : float;  (** summed self-cost *)
  p_self_aw : float;  (** summed self-allocated minor words *)
}

val profile : t -> profile_row list
(** Rows sorted hottest first (self-cost, then applications).  The sum of
    [p_applications] over all rows equals the evaluators' rule-application
    count for the recorded period — the telemetry cross-check. *)
