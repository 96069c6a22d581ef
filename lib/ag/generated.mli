(** A grammar's generated form: its LALR(1) tables and static evaluation
    plan, produced once at build time — as Linguist generated its parser
    and evaluator offline — and embedded in the compiler as a
    closure-free string (see [lib/tables]).  A fingerprint of the
    grammar's numbering binds the string to the grammar it came from. *)

exception
  Stale of {
    grammar_name : string;
    expected : string;  (** fingerprint of the grammar being loaded *)
    found : string;  (** fingerprint the tables were generated for *)
  }
(** The generated tables belong to a different grammar than the one built
    at run time (or none are linked).  Always a build error, never
    reachable from user input: there is no fallback to generating them at
    run time. *)

val fingerprint : 'v Grammar.t -> string
(** A hash of the grammar's numbering: symbols, attributes, productions
    and their right-hand sides, and every rule's target, dependency and
    copy-source occurrences. *)

val generate : name:string -> 'v Grammar.t -> eof:string -> string
(** Build the tables ({!Parsing.create}) and the plan ({!Analysis.compute},
    {!Analysis.plan}) and encode them with the grammar's fingerprint.
    @raise Parsing.Conflicts, Analysis.Circular, Analysis.Not_orderable —
    which makes a conflicting or circular grammar fail the build. *)

val load : name:string -> 'v Grammar.t -> eof:string -> string -> 'v Parsing.t * Analysis.plan
(** The parser and plan of a {!generate}d string, for the grammar it was
    generated from.  @raise Stale when the fingerprints differ. *)
