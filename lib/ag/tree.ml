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
  mutable parent : 'v t; (* the node itself at the root *)
  mutable index : int; (* our position among the parent's children *)
  mutable id : int; (* 0 until an evaluator numbers the tree *)
  mutable cells : 'v cell array; (* by the symbol's slots; [||] until first write *)
}

(* A record cannot point at itself from its first allocation: [let rec]
   builds it twice.  So a new node is a copy of [stub] with its own fields,
   and [node] then points its children at itself and itself at itself. *)
let stub () =
  let rec n =
    {
      prod = -1;
      term = -1;
      value = None;
      line = 0;
      children = [||];
      parent = n;
      index = 0;
      id = 0;
      cells = [||];
    }
  in
  n

let leaf ~stub ~term ~value ~line = { stub with term; value = Some value; line }

let node ~stub prod children =
  let line = ref 0 in
  for i = Array.length children - 1 downto 0 do
    if children.(i).line <> 0 then line := children.(i).line
  done;
  let n = { stub with prod; line = !line; children } in
  n.parent <- n;
  for i = 0 to Array.length children - 1 do
    children.(i).parent <- n;
    children.(i).index <- i
  done;
  n

let rec size t = Array.fold_left (fun acc c -> acc + size c) 1 t.children
