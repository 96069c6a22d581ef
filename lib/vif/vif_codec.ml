(* The concrete syntax of the VIF, written and read without an
   intermediate tree (see the interface). *)

exception Error of { pos : int; msg : string }

module W = struct
  let rec special_from s i =
    i < String.length s
    &&
    match String.unsafe_get s i with
    | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> true
    | _ -> special_from s (i + 1)

  let needs_quoting s = s = "" || special_from s 0

  let quote b s =
    Buffer.add_char b '"';
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  (* an item follows the one before it after one space; an atom never ends
     in an unquoted '(', so a last '(' means the item opens its list *)
  let sep b =
    let n = Buffer.length b in
    if n > 0 && Buffer.nth b (n - 1) <> '(' then Buffer.add_char b ' '

  let atom b s =
    sep b;
    if needs_quoting s then quote b s else Buffer.add_string b s

  let int b n =
    sep b;
    Buffer.add_string b (string_of_int n)

  let float b x = atom b (string_of_float x)
  let bool b x = atom b (if x then "true" else "false")

  let tag b t =
    sep b;
    Buffer.add_char b '(';
    Buffer.add_string b t

  let close b = Buffer.add_char b ')'

  let list f b xs =
    tag b "";
    List.iter (f b) xs;
    close b

  let pair f g b (x, y) =
    tag b "";
    f b x;
    g b y;
    close b

  let field k f b x =
    tag b k;
    f b x;
    close b

  let to_string f x =
    let b = Buffer.create 1024 in
    f b x;
    Buffer.contents b
end

(* Between calls the cursor sits at the next item (or a list's ')', or
   the end): whitespace and comments are skipped after each item is
   consumed, so [at_close] and a failing [kw] look at one character. *)
module R = struct
  type reader = { src : string; mutable pos : int }

  let error r fmt = Printf.ksprintf (fun msg -> raise (Error { pos = r.pos; msg })) fmt

  (* move to [i], then past whitespace and comments *)
  let advance r i =
    let s = r.src and i = ref i in
    while
      !i < String.length s
      &&
      match String.unsafe_get s !i with
      | ' ' | '\t' | '\n' | '\r' -> incr i; true
      | ';' ->
        while !i < String.length s && String.unsafe_get s !i <> '\n' do incr i done;
        true
      | _ -> false
    do () done;
    r.pos <- !i

  let reader src =
    let r = { src; pos = 0 } in
    advance r 0;
    r

  let delimited s i =
    i >= String.length s
    ||
    match String.unsafe_get s i with
    | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '"' | ';' -> true
    | _ -> false

  let next_is r c = r.pos < String.length r.src && String.unsafe_get r.src r.pos = c
  let at_close r = next_is r ')'
  let at_open r = next_is r '('

  let step r c what =
    if next_is r c then advance r (r.pos + 1)
    else if r.pos >= String.length r.src then error r "unexpected end of input"
    else error r "expected %s" what

  let enter r = step r '(' "'('"
  let leave r = step r ')' "')'"

  let kw r k =
    let s = r.src and i = r.pos and j = ref 0 in
    let e = i + String.length k in
    e <= String.length s
    && begin
         while !j < String.length k && String.unsafe_get s (i + !j) = String.unsafe_get k !j do
           incr j
         done;
         !j = String.length k
       end
    && delimited s e
    && (advance r e; true)

  let expect r k = if not (kw r k) then error r "expected %s" k

  (* the end of the atom at [r.pos] *)
  let atom_end r =
    let s = r.src and i = ref r.pos in
    if !i >= String.length s then error r "unexpected end of input";
    match s.[!i] with
    | '(' | ')' -> error r "expected an atom"
    | '"' ->
      incr i;
      while !i < String.length s && s.[!i] <> '"' do
        i := !i + if s.[!i] = '\\' then 2 else 1
      done;
      if !i >= String.length s then begin
        r.pos <- !i;
        error r "unterminated string"
      end;
      !i + 1
    | _ ->
      while not (delimited s !i) do incr i done;
      !i

  (* the quoted atom [s.[start] .. s.[e - 1]] with its escapes undone *)
  let unquote s start e =
    let b = Bytes.create (e - start - 2) and n = ref 0 and i = ref (start + 1) in
    while !i < e - 1 do
      let c = s.[!i] in
      let c =
        if c <> '\\' then c
        else begin
          incr i;
          match s.[!i] with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c
        end
      in
      Bytes.set b !n c;
      incr n;
      incr i
    done;
    if !n = Bytes.length b then Bytes.unsafe_to_string b else Bytes.sub_string b 0 !n

  let atom r =
    let s = r.src and start = r.pos in
    let e = atom_end r in
    let x = if s.[start] = '"' then unquote s start e else String.sub s start (e - start) in
    advance r e;
    x

  (* digits are accumulated negatively so that min_int reads back *)
  let int r =
    let s = r.src and i = ref r.pos in
    let neg = !i < String.length s && s.[!i] = '-' in
    if neg then incr i;
    let digits = !i and n = ref 0 in
    while !i < String.length s && s.[!i] >= '0' && s.[!i] <= '9' do
      let d = Char.code s.[!i] - 48 in
      if !n < (min_int + d) / 10 then error r "integer out of range";
      n := (!n * 10) - d;
      incr i
    done;
    if !i = digits || (not (delimited s !i)) || ((not neg) && !n = min_int) then
      error r "expected an integer";
    advance r !i;
    if neg then !n else - !n

  let float r =
    let start = r.pos in
    match float_of_string_opt (atom r) with
    | Some x -> x
    | None ->
      r.pos <- start;
      error r "expected a float"

  let bool r = if kw r "true" then true else if kw r "false" then false else error r "expected a bool"

  let list f r =
    enter r;
    let x = f r in
    leave r;
    x

  let rec rest f r =
    if at_close r then []
    else
      let x = f r in
      x :: rest f r

  let items f r =
    enter r;
    let xs = rest f r in
    leave r;
    xs

  let pair f g r =
    enter r;
    let x = f r in
    let y = g r in
    leave r;
    (x, y)

  let field k f r =
    enter r;
    expect r k;
    let x = f r in
    leave r;
    x

  let of_string f src =
    let r = reader src in
    let x = f r in
    if r.pos < String.length src then error r "trailing input";
    x
end

(* ------------------------------------------------------------------ *)
(* The human-readable form *)

open R

(* the end of the list at [r.pos] if none of its items is a list, else -1 *)
let flat_end r =
  let start = r.pos in
  advance r (r.pos + 1);
  while not (at_close r || at_open r) do
    advance r (atom_end r)
  done;
  let e = if at_close r then r.pos + 1 else -1 in
  r.pos <- start;
  e

let rec pp_item r fmt =
  let start = r.pos in
  let e = if at_open r then flat_end r else atom_end r in
  if e >= 0 then begin
    Format.pp_print_string fmt (String.sub r.src start (e - start));
    advance r e
  end
  else begin
    Format.fprintf fmt "@[<v 1>(";
    advance r (r.pos + 1);
    pp_item r fmt;
    while not (at_close r) do
      Format.pp_print_cut fmt ();
      pp_item r fmt
    done;
    advance r (r.pos + 1);
    Format.fprintf fmt ")@]"
  end

let indented src = Format.asprintf "%a" (fun fmt r -> pp_item r fmt) (reader src)
