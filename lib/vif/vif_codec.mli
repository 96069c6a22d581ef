(** The concrete syntax of the VIF, written and read without an
    intermediate tree.

    The text is an s-expression: atoms, and parenthesized lists whose items
    are separated by one space.  An atom holding a space, a parenthesis, a
    double quote or a semicolon, or an empty one, is written in double
    quotes with backslash escapes.  A record is a list of a tag and
    [(field value)] lists, in a fixed order. *)

exception Error of { pos : int; msg : string }
(** Malformed text, at the byte offset where it stops matching. *)

(** Writing: every function appends one item to the buffer. *)
module W : sig
  val atom : Buffer.t -> string -> unit
  val int : Buffer.t -> int -> unit
  val float : Buffer.t -> float -> unit
  val bool : Buffer.t -> bool -> unit

  val tag : Buffer.t -> string -> unit
  (** [tag b t] opens a list whose first item is the keyword [t] (no item
      when [t = ""]); {!close} ends it. *)

  val close : Buffer.t -> unit
  val list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit
  val pair : (Buffer.t -> 'a -> unit) -> (Buffer.t -> 'b -> unit) -> Buffer.t -> 'a * 'b -> unit

  val field : string -> (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a -> unit
  (** [field k f b x] writes the record field [(k x)]. *)

  val to_string : (Buffer.t -> 'a -> unit) -> 'a -> string
end

(** Reading: a pull cursor over the text.  Each function consumes one item
    (skipping whitespace and [;] line comments) or raises {!Error}. *)
module R : sig
  type reader

  val error : reader -> ('a, unit, string, 'b) format4 -> 'a
  (** Raise {!Error} at the cursor. *)

  val at_close : reader -> bool
  (** Whether the next item is the close of the current list. *)

  val enter : reader -> unit
  val leave : reader -> unit

  val kw : reader -> string -> bool
  (** [kw r k] consumes the next item if it is the bare atom [k]; it
      compares in place and allocates nothing. *)

  val expect : reader -> string -> unit
  val atom : reader -> string
  val int : reader -> int
  val float : reader -> float
  val bool : reader -> bool

  val list : (reader -> 'a) -> reader -> 'a
  (** [list f r] reads one list, its contents with [f]. *)

  val rest : (reader -> 'a) -> reader -> 'a list
  (** [rest f r] reads items with [f] up to the close of the current list. *)

  val items : (reader -> 'a) -> reader -> 'a list
  val pair : (reader -> 'a) -> (reader -> 'b) -> reader -> 'a * 'b

  val field : string -> (reader -> 'a) -> reader -> 'a
  (** [field k f r] reads the record field [(k item)]. *)

  val of_string : (reader -> 'a) -> string -> 'a
  (** Read the whole text as one item. *)
end

val indented : string -> string
(** Re-indent compact text, as the writer emits it, into the
    human-readable dump: a list that holds another list opens a vertical
    box with each item on its own line; any other item prints as written.
    The [Format] calls are fixed, so the dump's bytes are too. *)
