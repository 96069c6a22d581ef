(** The benchmark's JSON: a reader for the daemon's stats and event log,
    child results and BENCHMARK.json, and a writer for results.  Kept
    here rather than borrowed from the compiler so the benchmark does not
    pin code that later changes must be free to move. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Error (Printf.sprintf "%s at byte %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\n' | '\r' | '\t' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    ws ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "short \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while !pos < n && (match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false) do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          ws ();
          let k = string () in
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; fields ((k, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' -> incr pos; items (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing bytes";
  v

let parse_file path =
  let ic = open_in_bin path in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  parse s

let member k = function
  | Obj l -> List.assoc_opt k l
  | _ -> None

(** [get ["a"; "b"] v] is [v.a.b]. *)
let get keys v = List.fold_left (fun acc k -> Option.bind acc (member k)) (Some v) keys

let num keys v =
  match get keys v with
  | Some (Num f) -> f
  | _ -> raise (Error ("missing number " ^ String.concat "." keys))

let str keys v =
  match get keys v with
  | Some (Str s) -> s
  | _ -> raise (Error ("missing string " ^ String.concat "." keys))

let fields = function
  | Obj l -> l
  | _ -> []

let items = function
  | Arr l -> l
  | _ -> []

(** The shortest decimal that reads back as the same float. *)
let number_text f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let short = Printf.sprintf "%.15g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f when not (Float.is_finite f) -> "null"
  | Num f -> number_text f
  | Str s -> quote s
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l -> "{" ^ String.concat ", " (List.map (fun (k, v) -> quote k ^ ": " ^ to_string v) l) ^ "}"
