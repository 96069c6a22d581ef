(** Nullability and FIRST sets of a context-free grammar. *)

type t = {
  nullable : bool array; (* by symbol id *)
  first : Bitset.t array; (* by symbol id; terminal-id members *)
}

let compute (g : Cfg.t) =
  let nullable = Array.make g.Cfg.n_symbols false in
  let first = Array.init g.Cfg.n_symbols (fun _ -> Bitset.create g.Cfg.n_symbols) in
  for s = 0 to g.Cfg.n_symbols - 1 do
    if g.Cfg.is_terminal.(s) then Bitset.add first.(s) s
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (p : Cfg.production) ->
        (* nullability *)
        if (not nullable.(p.Cfg.lhs))
           && Array.for_all (fun s -> nullable.(s)) p.Cfg.rhs
        then begin
          nullable.(p.Cfg.lhs) <- true;
          changed := true
        end;
        (* FIRST *)
        let rec absorb i =
          if i < Array.length p.Cfg.rhs then begin
            let s = p.Cfg.rhs.(i) in
            if Bitset.union_into ~into:first.(p.Cfg.lhs) first.(s) then changed := true;
            if nullable.(s) then absorb (i + 1)
          end
        in
        absorb 0)
      g.Cfg.productions
  done;
  { nullable; first }

let nullable t s = t.nullable.(s)

(** [nullable_seq t rhs i] — is the suffix [rhs.(i)..] entirely nullable? *)
let nullable_seq t rhs i =
  let rec go i = i >= Array.length rhs || (t.nullable.(rhs.(i)) && go (i + 1)) in
  go i
