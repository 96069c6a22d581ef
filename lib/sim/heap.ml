(** A binary min-heap under integer keys (see the interface). *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array; (* empty until the first push supplies a filler *)
  mutable size : int;
}

let create () = { keys = [||]; vals = [||]; size = 0 }

let swap q i j =
  let t = q.keys.(i) and v = q.vals.(i) in
  q.keys.(i) <- q.keys.(j);
  q.vals.(i) <- q.vals.(j);
  q.keys.(j) <- t;
  q.vals.(j) <- v

let rec sift_up q i =
  let parent = (i - 1) / 2 in
  if i > 0 && q.keys.(i) < q.keys.(parent) then begin
    swap q i parent;
    sift_up q parent
  end

let rec sift_down q i =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let smallest = if l < q.size && q.keys.(l) < q.keys.(i) then l else i in
  let smallest = if r < q.size && q.keys.(r) < q.keys.(smallest) then r else smallest in
  if smallest <> i then begin
    swap q i smallest;
    sift_down q smallest
  end

let push q key v =
  if q.size = Array.length q.keys then begin
    let cap = max 16 (2 * q.size) in
    let keys = Array.make cap 0 and vals = Array.make cap v in
    Array.blit q.keys 0 keys 0 q.size;
    Array.blit q.vals 0 vals 0 q.size;
    q.keys <- keys;
    q.vals <- vals
  end;
  q.keys.(q.size) <- key;
  q.vals.(q.size) <- v;
  q.size <- q.size + 1;
  sift_up q (q.size - 1)

let min_key q = if q.size = 0 then max_int else q.keys.(0)
let top q = q.vals.(0)

let pop q =
  if q.size > 0 then begin
    q.size <- q.size - 1;
    q.keys.(0) <- q.keys.(q.size);
    q.vals.(0) <- q.vals.(q.size);
    sift_down q 0
  end
