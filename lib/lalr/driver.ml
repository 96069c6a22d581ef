(** Table-driven LALR(1) parser.

    The driver is agnostic to what it builds: [shift] turns a token into a
    semantic node, [reduce] combines children.  The AG layer instantiates
    these with {!Vhdl_ag_engine.Tree} constructors, so the same driver parses
    both VHDL source (fed by the file scanner) and LEF token lists (fed by
    the trivial list scanner of the cascaded expression evaluator — the
    paper's [scanner(){ X = car(L); L = cdr(L); return X; }]).

    Two entry points share one automaton loop and differ in what they do
    on an error: {!parse} raises at the first (the cascade's LEF re-parse
    wants that — a malformed expression is a single diagnostic), while
    {!parse_recovering} performs phrase-level panic-mode recovery so one
    source file yields all of its syntax errors in a single run and the
    well-formed design units survive. *)

type 'v token = {
  t_sym : int;
  t_value : 'v;
  t_line : int;
}

module Tm = Vhdl_telemetry.Telemetry

let m_shifts = Tm.counter "lalr.shifts"
let m_reduces = Tm.counter "lalr.reduces"
let m_errors = Tm.counter "lalr.errors"
let m_resyncs = Tm.counter "lalr.resyncs"
let m_skipped = Tm.counter "lalr.tokens_skipped"
let m_conflict_hits = Tm.counter "lalr.conflict_hits"

(* Runtime conflict accounting: when the table was built with yacc-style
   resolution, count each consultation of a cell that had a conflict.  The
   common conflict-free table pays one list test per parse, nothing per
   token. *)
let conflict_probe (tbl : Table.t) =
  if tbl.Table.conflicts = [] then None
  else begin
    let cells = Hashtbl.create 16 in
    List.iter
      (fun c -> Hashtbl.replace cells (c.Table.c_state, c.Table.c_terminal) ())
      tbl.Table.conflicts;
    Some (fun state sym -> if Hashtbl.mem cells (state, sym) then Tm.incr m_conflict_hits)
  end

exception
  Syntax_error of {
    line : int;
    found : string;
    expected : string list;
  }

(* A runaway right-nesting (thousands of unclosed parentheses) would push
   the parse stack — and therefore the derivation tree and every recursive
   pass over it — arbitrarily deep.  Bounding the stack here turns the
   eventual Stack_overflow into an ordinary syntax diagnostic at the point
   where the nesting became unreasonable. *)
let default_max_depth = 5_000

(* The automaton's state: the parse stack ([states.(0)] is the start
   state, [values.(i)] sits under [states.(i + 1)], and [sp] values make a
   depth of [sp + 1]), the lookahead, the shifts since the last recovery,
   and a copy of the stack as the last checkpoint reduce left it. *)
type ('v, 'n) machine = {
  mutable states : int array;
  mutable values : 'n array; (* as long as [states] after the first push *)
  mutable sp : int;
  mutable lookahead : 'v token;
  mutable shifts : int;
  mutable saved : int array * 'n array;
}

(* Push [st] and the value [v] under it.  The arrays double together; the
   first value array is filled with [v], so no dummy value is needed. *)
let push m st v =
  let sp = m.sp in
  if sp + 1 >= Array.length m.states then begin
    let cap = max 16 (2 * Array.length m.states) in
    let states = Array.make cap 0 and values = Array.make cap v in
    Array.blit m.states 0 states 0 (sp + 1);
    Array.blit m.values 0 values 0 sp;
    m.states <- states;
    m.values <- values
  end;
  m.states.(sp + 1) <- st;
  m.values.(sp) <- v;
  m.sp <- sp + 1

(* The automaton loop of both entry points.  On an error action, and on a
   shift past [max_depth], it calls [fail m ~line ~found ~expected]: that
   raises (parse), or repairs [m] and returns whether to go on
   (parse_recovering).  The root is returned when the input is accepted
   with one value on the stack. *)
let run ~max_depth (tbl : Table.t) ~(lexer : unit -> 'v token)
    ~(shift : int -> 'v -> int -> 'n) ~(reduce : int -> 'n array -> int -> 'n)
    ~(checkpoint : int -> bool) ~fail : 'n option =
  let cfg = tbl.Table.cfg in
  let probe = conflict_probe tbl in
  let m =
    {
      states = [| 0 |];
      values = [||];
      sp = 0;
      lookahead = lexer ();
      shifts = max_int; (* the start counts as progress *)
      saved = ([| 0 |], [||]);
    }
  in
  let result = ref None in
  let running = ref true in
  while !running do
    let state = m.states.(m.sp) in
    let tok = m.lookahead in
    (match probe with Some p -> p state tok.t_sym | None -> ());
    match tbl.Table.action.(state).(tok.t_sym) with
    | Table.Shift st' ->
      if m.sp + 1 >= max_depth then begin
        Tm.incr m_errors;
        running :=
          fail m ~line:tok.t_line
            ~found:(Printf.sprintf "nesting deeper than %d levels" max_depth)
            ~expected:[]
      end
      else begin
        Tm.incr m_shifts;
        push m st' (shift tok.t_sym tok.t_value tok.t_line);
        if m.shifts < max_int then m.shifts <- m.shifts + 1;
        m.lookahead <- lexer ()
      end
    | Table.Reduce prod_id ->
      Tm.incr m_reduces;
      let p = Cfg.production cfg prod_id in
      (* pop [arity] entries; the children are [values.(base ..)] *)
      let base = m.sp - Array.length p.Cfg.rhs in
      let node = reduce prod_id m.values base in
      let goto = tbl.Table.goto.(m.states.(base)).(p.Cfg.lhs) in
      if goto < 0 then assert false;
      m.sp <- base;
      push m goto node;
      if checkpoint prod_id then
        m.saved <- (Array.sub m.states 0 (m.sp + 1), Array.sub m.values 0 m.sp)
    | Table.Accept ->
      if m.sp = 1 then result := Some m.values.(0);
      running := false
    | Table.Error ->
      Tm.incr m_errors;
      running :=
        fail m ~line:tok.t_line ~found:(cfg.Cfg.symbol_name tok.t_sym)
          ~expected:(Table.expected_terminals tbl state)
  done;
  !result

let parse ?(max_depth = default_max_depth) tbl ~lexer ~shift ~reduce =
  match
    run ~max_depth tbl ~lexer ~shift ~reduce
      ~checkpoint:(fun _ -> false)
      ~fail:(fun _ ~line ~found ~expected -> raise (Syntax_error { line; found; expected }))
  with
  | Some v -> v
  | None -> assert false

(* ------------------------------------------------------------------ *)
(* Panic-mode error recovery *)

type sync_class =
  | Sync_start (* may begin a fresh recovery segment (design-unit starter) *)
  | Sync_end (* "end": arms the end-of-construct resync *)
  | Sync_semi (* ";": closes an armed "end ... ;" resync *)
  | Sync_other

type error = {
  e_line : int;
  e_found : string;
  e_expected : string list;
  e_skipped : int; (* tokens discarded while resynchronizing *)
}

type 'n recovery = {
  r_root : 'n option; (* the salvaged derivation, if any prefix accepted *)
  r_errors : error list; (* oldest first *)
}

let default_max_errors = 25

(** Parse with phrase-level panic-mode recovery.

    On a syntax error the driver records a located diagnostic, restores the
    parse stack to the most recent {e checkpoint} (a reduce of a production
    the caller marks with [checkpoint] — for a design file, the reduce that
    closes the design-unit list, so everything parsed so far is preserved),
    and discards input up to a synchronizing token: either a [Sync_start]
    terminal (a design-unit starter keyword) or the token following an
    ["end" ... ";"] sequence.  Parsing then resumes; at end of input the
    driver makes one final attempt to accept the salvaged prefix.

    Diagnostics for cascade errors (a resynchronization that immediately
    fails again without consuming input) are suppressed, the classic
    "no message until real progress" rule.  The derivation tree contains
    only the well-formed regions; each skipped region is represented by its
    error record ([e_skipped] tokens wide) rather than by an error node,
    because the attribute evaluator requires derivations of the actual
    grammar. *)
let parse_recovering ?(max_errors = default_max_errors)
    ?(max_depth = default_max_depth) (tbl : Table.t)
    ~(lexer : unit -> 'v token) ~eof ~(shift : int -> 'v -> int -> 'n)
    ~(reduce : int -> 'n array -> int -> 'n) ~(checkpoint : int -> bool)
    ~(classify : int -> sync_class) : 'n recovery =
  let errors = ref [] in (* newest first *)
  let eof_salvage_tried = ref false in
  let add_skipped n =
    match !errors with
    | e :: rest when n > 0 -> errors := { e with e_skipped = e.e_skipped + n } :: rest
    | _ -> ()
  in
  (* discard the offending token, then scan to a synchronizing point *)
  let skip_to_sync m =
    let skipped = ref 0 in
    let seen_end = ref false in
    let stop = ref false in
    while not !stop do
      let tok = m.lookahead in
      if tok.t_sym = eof then stop := true
      else if !skipped > 0 && classify tok.t_sym = Sync_start then stop := true
      else begin
        incr skipped;
        (match classify tok.t_sym with
        | Sync_end -> seen_end := true
        | Sync_semi -> if !seen_end then stop := true
        | Sync_start | Sync_other -> ());
        m.lookahead <- lexer ()
      end
    done;
    Tm.add m_skipped !skipped;
    add_skipped !skipped
  in
  (* record the error unless it cascades from the last recovery, restore
     the checkpoint, and resynchronize; false stops the parse *)
  let recover m ~line ~found ~expected =
    let progressed = m.shifts > 0 in
    Tm.incr m_resyncs;
    if progressed then
      errors := { e_line = line; e_found = found; e_expected = expected; e_skipped = 0 } :: !errors;
    if List.length !errors >= max_errors then false
    else begin
      let states, values = m.saved in
      Array.blit states 0 m.states 0 (Array.length states);
      Array.blit values 0 m.values 0 (Array.length values);
      m.sp <- Array.length values;
      m.shifts <- 0;
      let tok = m.lookahead in
      if tok.t_sym = eof then begin
        (* final salvage: try to accept what we have, exactly once *)
        let again = not !eof_salvage_tried in
        eof_salvage_tried := true;
        again
      end
      else begin
        (* already standing on a fresh unit starter: retry it as-is *)
        if not (progressed && classify tok.t_sym = Sync_start) then skip_to_sync m;
        true
      end
    end
  in
  let root = run ~max_depth tbl ~lexer ~shift ~reduce ~checkpoint ~fail:recover in
  { r_root = root; r_errors = List.rev !errors }
