(** A grammar's generated form: the LALR(1) tables and the static
    evaluation plan, produced once at build time — as Linguist generated
    its parser and evaluator offline — and embedded in the compiler as a
    closure-free string.  A fingerprint of the grammar's numbering binds
    the string to the grammar it was generated from.

    The string is the fingerprint followed by the marshalled action and
    goto arrays and plan; the generator and the compiler are built from
    the same sources, so the marshalled types always agree. *)

module Table = Vhdl_lalr.Table

exception
  Stale of {
    grammar_name : string;
    expected : string;
    found : string;
  }

let () =
  Printexc.register_printer (function
    | Stale { grammar_name; expected; found } ->
      Some
        (Printf.sprintf
           "%s: generated tables were built for grammar %s, but this grammar \
            is %s; rebuild the compiler (dune build)"
           grammar_name found expected)
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Fingerprint *)

(* FNV-1a over everything the tables and the plan are indexed by: symbol,
   attribute and production numbering, right-hand sides, and each rule's
   target, dependency and copy-source occurrences.  The semantic functions
   are closures and never enter the tables or the plan. *)
let mix h x = (h lxor x) * 0x100000001b3
let mix_string h s = String.fold_left (fun h c -> mix h (Char.code c)) (mix h (String.length s)) s
let mix_list f h l = List.fold_left f (mix h (List.length l)) l
let mix_array f h a = Array.fold_left f (mix h (Array.length a)) a
let mix_occ h (o : Grammar.occurrence) = mix (mix h o.Grammar.pos) o.Grammar.attr

let fingerprint (g : 'v Grammar.t) =
  let h = ref (mix 0x2bf29ce484222325 (Grammar.n_symbols g)) in
  for sym = 0 to Grammar.n_symbols g - 1 do
    h := mix_string !h (Grammar.symbol_name g sym);
    h := mix !h (Bool.to_int (Grammar.is_terminal g sym));
    h := mix_list mix !h (Grammar.attrs_of g sym)
  done;
  h :=
    mix_array
      (fun h (a : 'v Grammar.attr_decl) ->
        let h = mix_string h a.Grammar.attr_name in
        let h = mix h (match a.Grammar.dir with Grammar.Inherited -> 1 | Grammar.Synthesized -> 2) in
        mix h (Bool.to_int (a.Grammar.default <> None)))
      !h g.Grammar.attrs;
  h := mix (mix (mix !h g.Grammar.start) g.Grammar.token_value_attr) g.Grammar.token_line_attr;
  h :=
    mix_array
      (fun h (p : 'v Grammar.production) ->
        let h = mix (mix_string h p.Grammar.prod_name) p.Grammar.lhs in
        let h = mix_array mix h p.Grammar.rhs in
        mix_array
          (fun h (r : 'v Grammar.rule) ->
            let h = mix_list mix_occ (mix_occ h r.Grammar.target) r.Grammar.deps in
            match r.Grammar.copy_of with
            | None -> mix h (-1)
            | Some o -> mix_occ h o)
          h p.Grammar.rules)
      !h g.Grammar.productions;
  Printf.sprintf "%016x" (!h land max_int)

(* ------------------------------------------------------------------ *)
(* The generated string: the fingerprint, then the marshalled tables and
   plan *)

type tables = Table.action array array * int array array * Analysis.plan

let fingerprint_length = 16

let stored_fingerprint blob =
  if String.length blob >= fingerprint_length then String.sub blob 0 fingerprint_length
  else "(none: no generated tables linked)"

let generate ~name g ~eof =
  let parser_ = Parsing.create ~name g ~eof in
  let plan = Analysis.plan (Analysis.compute g) in
  let table = parser_.Parsing.table in
  fingerprint g ^ Marshal.to_string ((table.Table.action, table.Table.goto, plan) : tables) []

let load ~name g ~eof blob =
  let expected = fingerprint g and found = stored_fingerprint blob in
  if expected <> found then raise (Stale { grammar_name = name; expected; found });
  let (action, goto, plan : tables) = Marshal.from_string blob fingerprint_length in
  (Parsing.of_tables g ~eof ~action ~goto, plan)
