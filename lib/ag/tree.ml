(** Attributed derivation trees, the one node type of the AG engine: built
    by {!Parsing}'s shift/reduce callbacks, then numbered and decorated in
    place by {!Evaluator}, as a Linguist-generated evaluator decorates its
    parser's tree.  Leaves carry the token value — the mechanism the paper
    uses to attach symbol-table entries to LEF tokens. *)

type 'v cell =
  | Empty
  | In_progress
  | Done of 'v

type 'v t = {
  prod : int; (* -1 for leaves *)
  term : int; (* -1 for interior nodes *)
  value : 'v option; (* token value, for leaves *)
  line : int; (* leaves: token line; interior: first non-zero child line *)
  children : 'v t array;
  mutable parent : 'v t option;
  mutable index : int; (* our position among the parent's children *)
  mutable id : int; (* 0 until an evaluator numbers the tree *)
  mutable cells : 'v cell array; (* by the symbol's slots; [||] until first write *)
}

let leaf ~term ~value ~line =
  {
    prod = -1;
    term;
    value = Some value;
    line;
    children = [||];
    parent = None;
    index = 0;
    id = 0;
    cells = [||];
  }

let node prod children =
  let children = Array.of_list children in
  let line = ref 0 in
  Array.iter (fun c -> if !line = 0 then line := c.line) children;
  let n =
    {
      prod;
      term = -1;
      value = None;
      line = !line;
      children;
      parent = None;
      index = 0;
      id = 0;
      cells = [||];
    }
  in
  Array.iteri
    (fun i c ->
      c.parent <- Some n;
      c.index <- i)
    children;
  n

let rec size t = Array.fold_left (fun acc c -> acc + size c) 1 t.children
