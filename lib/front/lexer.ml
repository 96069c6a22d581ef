(** VHDL scanner (IEEE 1076-1987 lexical rules).

    Identifiers are case-insensitive and normalized to upper case; reserved
    words to lower case.  Abstract literals support underscores, based
    notation (16#FF#) and exponents.  The tick character is disambiguated
    between character literals and attribute/qualified-expression marks by
    the previous token, as in conventional VHDL scanners. *)

exception Lex_error of { line : int; msg : string }

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable prev : Token.t; (* previous significant token, for tick rule *)
}

let make src = { src; pos = 0; line = 1; prev = Token.Teof }

let error st fmt =
  Format.kasprintf (fun msg -> raise (Lex_error { line = st.line; msg })) fmt

(* The character [k] places ahead, read by index against the source
   length: NUL past the end, so reading allocates nothing.  A NUL is no
   character the scanner accepts; where the end needs its own outcome, the
   caller asks [at_end] first. *)
let char_at st k =
  let i = st.pos + k in
  if i < String.length st.src then st.src.[i] else '\000'

let at_end st = st.pos >= String.length st.src
let peek st = char_at st 0
let peek2 st = char_at st 1
let peek3 st = char_at st 2

let advance st =
  if peek st = '\n' then st.line <- st.line + 1;
  st.pos <- st.pos + 1

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_letter c || is_digit c || c = '_'

let rec skip_trivia st =
  match peek st with
  | ' ' | '\t' | '\r' | '\n' ->
    advance st;
    skip_trivia st
  | '-' when peek2 st = '-' ->
    while not (at_end st || peek st = '\n') do
      advance st
    done;
    skip_trivia st
  | _ -> ()

let scan_identifier st =
  let start = st.pos in
  while is_ident_char (peek st) do
    advance st
  done;
  let raw = String.sub st.src start (st.pos - start) in
  let lower = String.lowercase_ascii raw in
  if Token.is_reserved lower then Token.Tkw lower else Token.Tid (String.uppercase_ascii raw)

(* digits with optional underscores; returns the digit string *)
let scan_digits st =
  let buf = Buffer.create 8 in
  let rec go () =
    match peek st with
    | c when is_digit c ->
      Buffer.add_char buf c;
      advance st;
      go ()
    | '_' ->
      advance st;
      go ()
    | _ -> ()
  in
  go ();
  Buffer.contents buf

let out_of_range st = error st "integer literal exceeds INTEGER'HIGH (%d)" max_int

(* [n] in base [base] followed by the digit [d], within INTEGER's range *)
let push_digit st ~base n d =
  if n > (max_int - d) / base then out_of_range st else (n * base) + d

let int_of_digits st digits =
  let n = ref 0 in
  for i = 0 to String.length digits - 1 do
    n := push_digit st ~base:10 !n (Char.code digits.[i] - Char.code '0')
  done;
  !n

(* the digits of an exponent, after its sign; [max_int] stands for any
   exponent too large for an int *)
let scan_exponent st =
  match scan_digits st with
  | "" -> error st "malformed exponent in abstract literal"
  | digits -> Option.value (int_of_string_opt digits) ~default:max_int

let scan_based st base_digits =
  (* we are just past the '#'; base_digits is the base *)
  let base =
    match int_of_string_opt base_digits with
    | Some b when b >= 2 && b <= 16 -> b
    | _ -> error st "invalid base %s" base_digits
  in
  let digit_value c =
    if is_digit c then Char.code c - Char.code '0'
    else if c >= 'a' && c <= 'f' then 10 + Char.code c - Char.code 'a'
    else if c >= 'A' && c <= 'F' then 10 + Char.code c - Char.code 'A'
    else -1
  in
  let value = ref 0 in
  let any = ref false in
  let rec go () =
    if at_end st then error st "unterminated based literal";
    match peek st with
    | '_' ->
      advance st;
      go ()
    | c when digit_value c >= 0 && digit_value c < base ->
      value := push_digit st ~base !value (digit_value c);
      any := true;
      advance st;
      go ()
    | '#' -> advance st
    | c -> error st "invalid character %c in based literal" c
  in
  go ();
  if not !any then error st "empty based literal";
  Token.Tint !value

let scan_number st =
  let int_part = scan_digits st in
  match peek st with
  | '#' ->
    advance st;
    scan_based st int_part
  | '.' when is_digit (peek2 st) ->
    advance st;
    let frac = scan_digits st in
    let exp =
      match peek st with
      | 'e' | 'E' ->
        advance st;
        let sign =
          match peek st with
          | '-' ->
            advance st;
            "-"
          | '+' ->
            advance st;
            ""
          | _ -> ""
        in
        "e" ^ sign ^ string_of_int (scan_exponent st)
      | _ -> ""
    in
    (match float_of_string_opt (int_part ^ "." ^ frac ^ exp) with
    | Some r when Float.is_finite r -> Token.Treal r
    | Some _ -> error st "real literal exceeds REAL'HIGH (%g)" max_float
    | None -> error st "malformed real literal")
  | 'e' | 'E' ->
    (* integer with exponent: 1E6 *)
    advance st;
    (match peek st with
    | '+' -> advance st
    | '-' -> error st "negative exponent in integer literal"
    | _ -> ());
    let e = scan_exponent st in
    let rec scale n e =
      if n = 0 || e = 0 then n else scale (push_digit st ~base:10 n 0) (e - 1)
    in
    Token.Tint (scale (int_of_digits st int_part) e)
  | _ -> Token.Tint (int_of_digits st int_part)

let scan_string st =
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end st then error st "unterminated string literal";
    match peek st with
    | '"' when peek2 st = '"' ->
      Buffer.add_char buf '"';
      advance st;
      advance st;
      go ()
    | '"' -> advance st
    | '\n' -> error st "string literal crosses a line boundary"
    | c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Token.Tstring (Buffer.contents buf)

let scan_bit_string st base_char =
  advance st (* base char *);
  advance st (* opening quote *);
  let bits_per, digit_bits =
    match Char.lowercase_ascii base_char with
    | 'b' -> (1, fun c -> if c = '0' then Some "0" else if c = '1' then Some "1" else None)
    | 'o' ->
      ( 3,
        fun c ->
          if c >= '0' && c <= '7' then begin
            let v = Char.code c - Char.code '0' in
            Some (Printf.sprintf "%d%d%d" ((v lsr 2) land 1) ((v lsr 1) land 1) (v land 1))
          end
          else None )
    | 'x' ->
      ( 4,
        fun c ->
          let v =
            if is_digit c then Some (Char.code c - Char.code '0')
            else if c >= 'a' && c <= 'f' then Some (10 + Char.code c - Char.code 'a')
            else if c >= 'A' && c <= 'F' then Some (10 + Char.code c - Char.code 'A')
            else None
          in
          Option.map
            (fun v ->
              String.concat ""
                (List.init 4 (fun i -> string_of_int ((v lsr (3 - i)) land 1))))
            v )
    | _ -> error st "invalid bit-string base %c" base_char
  in
  ignore bits_per;
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end st then error st "unterminated bit-string literal";
    match peek st with
    | '"' -> advance st
    | '_' ->
      advance st;
      go ()
    | c -> (
      match digit_bits c with
      | Some bits ->
        Buffer.add_string buf bits;
        advance st;
        go ()
      | None -> error st "invalid character %c in bit-string literal" c)
  in
  go ();
  Token.Tbitstr (Buffer.contents buf)

(* A tick starts a character literal iff it is followed by <char>' and the
   previous token cannot end a name or an expression (in which case the tick
   is an attribute mark or qualified-expression mark). *)
let tick_is_char_literal st =
  peek3 st = '\''
  &&
  match st.prev with
  | Token.Tid _ | Token.Tpunct ")" | Token.Tpunct "]" -> false
  | Token.Tkw "all" -> false
  | _ -> true

let scan_punct st =
  let two c1 c2 = peek st = c1 && peek2 st = c2 in
  let take2 p =
    advance st;
    advance st;
    Token.Tpunct p
  in
  let take1 p =
    advance st;
    Token.Tpunct p
  in
  if two '*' '*' then take2 "**"
  else if two ':' '=' then take2 ":="
  else if two '<' '=' then take2 "<="
  else if two '>' '=' then take2 ">="
  else if two '=' '>' then take2 "=>"
  else if two '/' '=' then take2 "/="
  else if two '<' '>' then take2 "<>"
  else
    match peek st with
    | ( '(' | ')' | ',' | ';' | ':' | '.' | '&' | '\'' | '|' | '+' | '-' | '*' | '/' | '='
      | '<' | '>' ) as c ->
      take1 (String.make 1 c)
    | c -> error st "unexpected character %c" c

(** Next token with its source line. *)
let next st =
  skip_trivia st;
  let line = st.line in
  let tok =
    if at_end st then Token.Teof
    else
      match peek st with
      | c when is_letter c ->
        (* bit-string literal B"0101" looks like an identifier first *)
        if (c = 'b' || c = 'B' || c = 'o' || c = 'O' || c = 'x' || c = 'X')
           && peek2 st = '"'
        then scan_bit_string st c
        else scan_identifier st
      | c when is_digit c -> scan_number st
      | '"' -> scan_string st
      | '\'' ->
        if tick_is_char_literal st then begin
          (* [tick_is_char_literal] saw the closing tick two places ahead *)
          advance st;
          let c = peek st in
          advance st;
          advance st;
          Token.Tchar (Printf.sprintf "'%c'" c)
        end
        else scan_punct st
      | _ -> scan_punct st
  in
  st.prev <- tok;
  (tok, line)

module Tm = Vhdl_telemetry.Telemetry

let m_tokens = Tm.counter "lexer.tokens"
let m_lines = Tm.counter "lexer.lines"

(** Scan a whole source text. *)
let tokenize src =
  let st = make src in
  let rec go acc =
    match next st with
    | Token.Teof, line ->
      Tm.add m_lines st.line;
      List.rev ((Token.Teof, line) :: acc)
    | tok ->
      Tm.incr m_tokens;
      go (tok :: acc)
  in
  go []

(** Stripped source-line count, VHDL comment convention (Figure 2's "text
    that has been stripped of blank lines and comments"). *)
let source_lines src = Vhdl_util.Unix_compat.stripped_line_count ~comment_prefixes:[ "--" ] src
