(** LR(0) automaton construction.

    Items are packed into single integers: [prod_id * stride + dot], with a
    virtual augmented production [n_productions] standing for [S' ::= start].
    States are canonical sorted arrays of kernel items; the closure is
    recomputed on demand (cheap, and keeps states small and hashable). *)

type item = int

type t = {
  cfg : Cfg.t;
  stride : int;
  aug_prod : int; (* id of the virtual production S' ::= start *)
  states : item array array; (* kernel item sets *)
  transitions : (int * int) list array; (* state -> (symbol, next state) *)
  n_states : int;
}

let item ~stride prod dot = (prod * stride) + dot
let item_prod ~stride it = it / stride
let item_dot ~stride it = it mod stride

let prod_rhs t p =
  if p = t.aug_prod then [| t.cfg.Cfg.start |] else (Cfg.production t.cfg p).Cfg.rhs

(* Closure of an item set: the nonterminals after the dot, expanded.  We
   return the set of productions whose initial items join the closure; full
   items are reconstructed as (prod, 0). *)
let closure_nonkernel (cfg : Cfg.t) ~stride ~aug_prod kernel =
  let added = Hashtbl.create 16 in
  let queue = Queue.create () in
  let consider_symbol s =
    if (not cfg.Cfg.is_terminal.(s)) && not (Hashtbl.mem added s) then begin
      Hashtbl.add added s ();
      Queue.add s queue
    end
  in
  Array.iter
    (fun it ->
      let p = item_prod ~stride it in
      let dot = item_dot ~stride it in
      let rhs = if p = aug_prod then [| cfg.Cfg.start |] else (Cfg.production cfg p).Cfg.rhs in
      if dot < Array.length rhs then consider_symbol rhs.(dot))
    kernel;
  let prods = ref [] in
  while not (Queue.is_empty queue) do
    let nt = Queue.pop queue in
    List.iter
      (fun pid ->
        prods := pid :: !prods;
        let rhs = (Cfg.production cfg pid).Cfg.rhs in
        if Array.length rhs > 0 then consider_symbol rhs.(0))
      cfg.Cfg.prods_of.(nt)
  done;
  !prods

let build (cfg : Cfg.t) =
  let aug_prod = Cfg.n_productions cfg in
  let stride =
    1
    + Array.fold_left
        (fun acc (p : Cfg.production) -> max acc (Array.length p.Cfg.rhs))
        1 cfg.Cfg.productions
  in
  let state_ids : (item array, int) Hashtbl.t = Hashtbl.create 256 in
  let states = ref [] in
  let n_states = ref 0 in
  let get_state kernel =
    match Hashtbl.find_opt state_ids kernel with
    | Some id -> (id, false)
    | None ->
      let id = !n_states in
      incr n_states;
      Hashtbl.add state_ids kernel id;
      states := kernel :: !states;
      (id, true)
  in
  let initial = [| item ~stride aug_prod 0 |] in
  let _, _ = get_state initial in
  let work = Queue.create () in
  Queue.add (0, initial) work;
  let trans_acc = Hashtbl.create 256 in
  while not (Queue.is_empty work) do
    let state_id, kernel = Queue.pop work in
    (* successor kernels by symbol *)
    let succ : (int, item list ref) Hashtbl.t = Hashtbl.create 16 in
    let shift_item it =
      let p = item_prod ~stride it in
      let dot = item_dot ~stride it in
      let rhs =
        if p = aug_prod then [| cfg.Cfg.start |] else (Cfg.production cfg p).Cfg.rhs
      in
      if dot < Array.length rhs then begin
        let s = rhs.(dot) in
        let cell =
          match Hashtbl.find_opt succ s with
          | Some c -> c
          | None ->
            let c = ref [] in
            Hashtbl.add succ s c;
            c
        in
        cell := item ~stride p (dot + 1) :: !cell
      end
    in
    Array.iter shift_item kernel;
    List.iter
      (fun pid -> shift_item (item ~stride pid 0))
      (closure_nonkernel cfg ~stride ~aug_prod kernel);
    let edges = ref [] in
    Hashtbl.iter
      (fun sym items ->
        let kernel' = Array.of_list (List.sort_uniq compare !items) in
        let id', fresh = get_state kernel' in
        if fresh then Queue.add (id', kernel') work;
        edges := (sym, id') :: !edges)
      succ;
    Hashtbl.replace trans_acc state_id !edges
  done;
  let states_arr = Array.of_list (List.rev !states) in
  let transitions_arr = Array.make !n_states [] in
  Hashtbl.iter (fun id edges -> transitions_arr.(id) <- edges) trans_acc;
  { cfg; stride; aug_prod; states = states_arr; transitions = transitions_arr; n_states = !n_states }

let goto t state sym = List.assoc_opt sym t.transitions.(state)

(** All items (kernel + nonkernel) of a state. *)
let items t state =
  let kernel = Array.to_list t.states.(state) in
  let nonkernel =
    closure_nonkernel t.cfg ~stride:t.stride ~aug_prod:t.aug_prod t.states.(state)
    |> List.map (fun pid -> item ~stride:t.stride pid 0)
  in
  List.sort_uniq compare (kernel @ nonkernel)

(** Complete items (dot at end) of a state, as production ids. *)
let reductions t state =
  items t state
  |> List.filter_map (fun it ->
         let p = item_prod ~stride:t.stride it in
         let dot = item_dot ~stride:t.stride it in
         let rhs = prod_rhs t p in
         if dot = Array.length rhs then Some p else None)
