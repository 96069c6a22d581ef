(** Seeded input generators and their oracles.

    This module links nothing of the compiler: every expected value below
    (constant folds, divider-tap parities, inverter-chain parities, unit
    keys) is worked out here in plain OCaml, so a compiler bug cannot
    agree with itself.

    Every op of every workload is addressable by [(seed, index)]: op [i]
    is generated from its own random stream, so a run can start, stop or
    skip anywhere and still see the same inputs.  Op shapes follow a
    per-seed shuffle of a fixed deck (see {!deck_slot}), so a run of a few
    hundred ops carries the same mix of sizes whatever the seed — seeds
    change the text, not the amount of work. *)

(* ------------------------------------------------------------------ *)
(* splitmix64: stable across OCaml releases, unlike [Random] *)

type rng = { mutable state : int64 }

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let next r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  mix r.state

let rng ~seed ~stream ~index =
  let open Int64 in
  { state = mix (add (mix (add (mix (of_int seed)) (of_int stream))) (of_int index)) }

(** Uniform in [0, n). *)
let int r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))

let range r lo hi = lo + int r (hi - lo + 1)
let pick r a = a.(int r (Array.length a))

let shuffle r a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Random-stream identifiers, one per consumer. *)
let s_deck = 1
let s_cascade = 2
let s_kernel = 3
let s_vif = 4
let s_serve = 5

(** The deck entry op [index] draws: ops come in blocks of [Array.length
    deck], each block a fresh seeded permutation of the deck. *)
let deck_slot ~seed ~stream deck index =
  let n = Array.length deck in
  let perm =
    shuffle (rng ~seed ~stream:(s_deck * 1000 + stream) ~index:(index / n)) (Array.init n Fun.id)
  in
  deck.(perm.(index mod n))

(** A short tag that keeps unit names distinct across seeds. *)
let tag seed = abs seed mod 100_000

(* ------------------------------------------------------------------ *)
(* VHDL integer arithmetic, the oracle's own *)

(** [/] truncates toward zero. *)
let vhdl_div a b = a / b

(** [mod] takes the sign of the divisor. *)
let vhdl_mod a b =
  let r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then r + b else r

(** [rem] takes the sign of the dividend. *)
let vhdl_rem a b = a mod b

(** Integer [**] with a non-negative exponent. *)
let rec vhdl_pow b e = if e = 0 then 1 else b * vhdl_pow b (e - 1)

type binop = Add | Sub | Mul | Div | Mod | Rem

type expr =
  | Lit of int
  | Ref of string
  | Neg of expr
  | Abs of expr
  | Pow of int * int
  | Bin of binop * expr * expr

let binop_text = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "mod" | Rem -> "rem"

(** Every compound form prints parenthesized, so each printed expression
    is a VHDL primary and the parse cannot regroup it. *)
let rec to_vhdl = function
  | Lit n when n < 0 -> Printf.sprintf "(-%d)" (-n)
  | Lit n -> string_of_int n
  | Ref name -> name
  | Neg e -> Printf.sprintf "(-%s)" (to_vhdl e)
  | Abs e -> Printf.sprintf "(abs %s)" (to_vhdl e)
  | Pow (b, e) -> Printf.sprintf "(%s ** %d)" (to_vhdl (Lit b)) e
  | Bin (op, a, b) -> Printf.sprintf "(%s %s %s)" (to_vhdl a) (binop_text op) (to_vhdl b)

exception Undefined

(** Static value under VHDL integer semantics; [Undefined] on a zero
    divisor. *)
let rec eval env = function
  | Lit n -> n
  | Ref name -> env name
  | Neg e -> -eval env e
  | Abs e -> abs (eval env e)
  | Pow (b, e) -> vhdl_pow b e
  | Bin (op, a, b) -> (
    let x = eval env a and y = eval env b in
    match op with
    | Add -> x + y
    | Sub -> x - y
    | Mul -> x * y
    | Div -> if y = 0 then raise Undefined else vhdl_div x y
    | Mod -> if y = 0 then raise Undefined else vhdl_mod x y
    | Rem -> if y = 0 then raise Undefined else vhdl_rem x y)

(* Every subexpression stays well inside VHDL's 32-bit INTEGER. *)
let limit = 1_000_000

(** A random constant expression over [refs] (names with known values).
    A node whose value would leave [±limit] or divide by zero is replaced
    by a leaf, so every generated expression folds. *)
let rec gen_expr r ~depth ~(refs : (string * int) array) ~env =
  let leaf () =
    if Array.length refs > 0 && int r 3 = 0 then Ref (fst (pick r refs))
    else Lit (range r (-40) 199)
  in
  if depth = 0 || int r 4 = 0 then leaf ()
  else
    let sub () = gen_expr r ~depth:(depth - 1) ~refs ~env in
    let e =
      match int r 10 with
      | 0 -> Neg (sub ())
      | 1 -> Abs (sub ())
      | 2 -> Pow (range r (-5) 9, range r 0 4)
      | k ->
        let op = [| Add; Add; Sub; Mul; Div; Mod; Rem |].(k - 3) in
        let a = sub () in
        Bin (op, a, sub ())
    in
    match eval env e with
    | v when abs v <= limit -> e
    | _ | (exception Undefined) -> leaf ()

(* ------------------------------------------------------------------ *)
(* Sources and their expectations *)

type source = {
  text : string;
  units : string list;  (** unit keys the compile must produce, in order *)
  constants : (string * string * int) list;
      (** (package, constant, value) the package must export *)
}

(** [n] integer constant declarations named [prefix]0.. with their
    values.  About 30% repeat an earlier declaration's expression text on
    another line — the shape repeats a position-independent cascade memo
    can hit. *)
let constant_decls r ~n ~prefix =
  let b = Buffer.create (n * 48) in
  let values = Hashtbl.create n in
  let refs = ref [||] and exprs = ref [||] in
  for k = 0 to n - 1 do
    let cname = Printf.sprintf "%s%d" prefix k in
    let e =
      if k > 0 && int r 10 < 3 then pick r !exprs
      else gen_expr r ~depth:3 ~refs:!refs ~env:(Hashtbl.find values)
    in
    let v = eval (Hashtbl.find values) e in
    Hashtbl.replace values cname v;
    Printf.bprintf b "  constant %s : integer := %s;\n" cname (to_vhdl e);
    refs := Array.append !refs [| (cname, v) |];
    exprs := Array.append !exprs [| e |]
  done;
  (Buffer.contents b, Array.to_list !refs)

(** A package of [n] integer constants, after the [preamble] lines. *)
let const_package ?(preamble = "") r ~name ~n ~prefix =
  let decls, values = constant_decls r ~n ~prefix in
  {
    text = Printf.sprintf "package %s is\n%s%send %s;\n" name preamble decls name;
    units = [ "package:" ^ name ];
    constants = List.map (fun (c, v) -> (name, c, v)) values;
  }

(** A clocked behavioral FSM of [states] states: an enumeration, a case
    statement with data-dependent transitions, and accumulator arithmetic
    in every branch. *)
let fsm r ~name ~states =
  let b = Buffer.create (states * 200) in
  Printf.bprintf b
    "entity %s is\n  port (clk, rst : in bit; din : in integer; dout : out integer);\nend %s;\n\n"
    name name;
  Printf.bprintf b "architecture behav of %s is\n  type state_t is (" name;
  for s = 0 to states - 1 do
    Printf.bprintf b "%sS%d" (if s > 0 then ", " else "") s
  done;
  Buffer.add_string b
    ");\n  signal state : state_t := S0;\n  signal acc : integer := 0;\nbegin\n\
    \  step : process (clk)\n  begin\n    if clk'event and clk = '1' then\n\
    \      if rst = '1' then\n        state <= S0;\n        acc <= 0;\n\
    \      else\n        case state is\n";
  let templates =
    [|
      (fun () -> Printf.sprintf "(acc + din * %d) mod %d" (range r 2 9) (range r 97 9973));
      (fun () -> Printf.sprintf "acc - (din / %d) + %d" (range r 2 17) (range r 0 99));
      (fun () -> Printf.sprintf "(acc * %d + %d) rem %d" (range r 2 5) (range r 1 50) (range r 101 4099));
      (fun () -> Printf.sprintf "abs (din - %d) + acc / %d" (range r 0 200) (range r 2 9));
    |]
  in
  for s = 0 to states - 1 do
    let yes = range r 0 (states - 1) and no = (s + 1) mod states in
    Printf.bprintf b
      "          when S%d =>\n            if din > %d then\n              state <= S%d;\n\
      \            else\n              state <= S%d;\n            end if;\n\
      \            acc <= %s;\n"
      s (range r 0 255) yes no ((pick r templates) ())
  done;
  Printf.bprintf b
    "        end case;\n      end if;\n    end if;\n  end process;\n  dout <= acc;\nend behav;\n";
  {
    text = Buffer.contents b;
    units = [ "entity:" ^ name; Printf.sprintf "arch:%s(BEHAV)" name ];
    constants = [];
  }

(* ------------------------------------------------------------------ *)
(* cascade-compile *)

(** Eight package sizes spread over 40..120 constants and eight FSM sizes
    over 8..24 states: every block of 16 ops holds each once. *)
let cascade_deck =
  Array.append
    (Array.init 8 (fun k -> `Package (40 + (k * 80 / 7))))
    (Array.init 8 (fun k -> `Fsm (8 + (k * 16 / 7))))

let cascade_op ~seed index =
  let r = rng ~seed ~stream:s_cascade ~index in
  let base = Printf.sprintf "%d_%d" (tag seed) index in
  match deck_slot ~seed ~stream:s_cascade cascade_deck index with
  | `Package n -> const_package r ~name:("PK" ^ base) ~n ~prefix:"K"
  | `Fsm states -> fsm r ~name:("FSM" ^ base) ~states

(* ------------------------------------------------------------------ *)
(* kernel-sim: toggle-flip-flop divider chains *)

type chain = {
  half_ns : int;  (** clock half-period *)
  clk_init : int;  (** initial clock level *)
  inits : int array;  (** initial state of each stage *)
}

type design = {
  top : string;
  chains : chain array;
  design_text : string;
}

(** Net name of stage [j] of chain [c]. *)
let tap_name c j = Printf.sprintf "q%d_%d" c j

(** Falling edges in [toggles] transitions of a signal that starts at
    [init]: the first transition falls iff the signal starts high. *)
let falling ~init ~toggles = if init = 1 then (toggles + 1) / 2 else toggles / 2

(** Every tap of [ch] at [horizon_ns] (events at the horizon included):
    the clock toggles every [half_ns]; stage [j] toggles on each falling
    edge of stage [j-1] (stage 0: of the clock) and shows its initial
    state xor its toggle parity. *)
let taps_at ch ~horizon_ns =
  let stages = Array.length ch.inits in
  let out = Array.make stages 0 in
  let toggles = ref (falling ~init:ch.clk_init ~toggles:(horizon_ns / ch.half_ns)) in
  for j = 0 to stages - 1 do
    out.(j) <- ch.inits.(j) lxor (!toggles land 1);
    if j + 1 < stages then toggles := falling ~init:ch.inits.(j) ~toggles:!toggles
  done;
  out

let bit_lit v = if v = 1 then "'1'" else "'0'"

let design_source ~top chains =
  let b = Buffer.create 4096 in
  List.iter
    (fun init ->
      Printf.bprintf b
        "entity TFF%d is\n  port (clk : in bit; q : out bit);\nend TFF%d;\n\
         architecture behav of TFF%d is\n  signal state : bit := %s;\nbegin\n\
        \  flip : process (clk)\n  begin\n    if clk'event and clk = '0' then\n\
        \      state <= not state;\n    end if;\n  end process;\n  q <= state;\nend behav;\n\n"
        init init init (bit_lit init))
    [ 0; 1 ];
  Printf.bprintf b "entity %s is\nend %s;\n\narchitecture t of %s is\n" top top top;
  List.iter
    (fun init ->
      Printf.bprintf b "  component TFF%d\n    port (clk : in bit; q : out bit);\n  end component;\n"
        init)
    [ 0; 1 ];
  Array.iteri
    (fun c ch ->
      Printf.bprintf b "  signal clk%d : bit := %s;\n" c (bit_lit ch.clk_init);
      Array.iteri (fun j _ -> Printf.bprintf b "  signal %s : bit;\n" (tap_name c j)) ch.inits)
    chains;
  Buffer.add_string b "begin\n";
  Array.iteri
    (fun c ch ->
      Printf.bprintf b
        "  clock%d : process\n  begin\n    clk%d <= not clk%d after %d ns;\n\
        \    wait for %d ns;\n  end process;\n"
        c c c ch.half_ns ch.half_ns;
      Array.iteri
        (fun j init ->
          Printf.bprintf b "  s%d_%d : TFF%d port map (clk => %s, q => %s);\n" c j init
            (if j = 0 then Printf.sprintf "clk%d" c else tap_name c (j - 1))
            (tap_name c j))
        ch.inits)
    chains;
  Printf.bprintf b "end t;\n";
  Buffer.contents b

let kernel_horizon_ns = 10_000

(** Six designs: single 5 ns chains of 6..10 stages, and a sparse variant
    of four short chains with co-prime clocks — on any delta cycle at
    most one chain is active while every other process sleeps. *)
let kernel_designs ~seed =
  let r = rng ~seed ~stream:s_kernel ~index:0 in
  let chain ~half_ns ~stages =
    { half_ns; clk_init = int r 2; inits = Array.init stages (fun _ -> int r 2) }
  in
  let singles =
    Array.map
      (fun stages -> [| chain ~half_ns:5 ~stages |])
      (shuffle r [| 6; 7; 8; 9; 10 |])
  in
  let sparse =
    Array.map2
      (fun half_ns stages -> chain ~half_ns ~stages)
      (shuffle r [| 5; 7; 11; 13 |]) [| 3; 4; 5; 6 |]
  in
  Array.mapi
    (fun k chains ->
      let top = Printf.sprintf "DIV%d" k in
      { top; chains; design_text = design_source ~top chains })
    (Array.append singles [| sparse |])

(** The design op [index] elaborates and runs. *)
let kernel_op ~seed index = deck_slot ~seed ~stream:s_kernel (Array.init 6 Fun.id) index

(* ------------------------------------------------------------------ *)
(* vif-library: a disk library of packages, cells and a board *)

let vif_packages = 12
let board_cells = 200
let board_horizon_ns = 300

let lib_package_name k = Printf.sprintf "LP%d" k

(** Library package [k] at [version]: its VERSION constant, an
    enumeration, and 24 folded constants (fixed per seed, so a version
    bump rewrites exactly one value). *)
let lib_package ~seed ~k ~version =
  let name = lib_package_name k in
  let preamble =
    Printf.sprintf
      "  constant %s_VERSION : integer := %d;\n  type %s_MODE is (%s_IDLE, %s_RUN, %s_HALT);\n"
      name version name name name name
  in
  let p =
    const_package ~preamble (rng ~seed ~stream:s_vif ~index:(-1 - k)) ~name ~n:24
      ~prefix:(name ^ "_C")
  in
  { p with constants = (name, name ^ "_VERSION", version) :: p.constants }

(** [CELL] with two inverting architectures and one buffer. *)
let cell_source =
  "entity CELL is\n  port (a : in bit; y : out bit);\nend CELL;\n\n\
   architecture A0 of CELL is\nbegin\n  y <= not a after 1 ns;\nend A0;\n\n\
   architecture A1 of CELL is\nbegin\n  y <= not a after 1 ns;\nend A1;\n\n\
   architecture A2 of CELL is\nbegin\n  y <= a after 1 ns;\nend A2;\n"

let cell_inverts arch = arch <> 2

(** [BOARD]: a chain of [board_cells] CELL instances from [n0] (initial
    level [n0]) to [n<board_cells>]. *)
let board_source ~n0 =
  let b = Buffer.create 16384 in
  Buffer.add_string b "entity BOARD is\nend BOARD;\n\narchitecture net of BOARD is\n";
  Buffer.add_string b "  component CELL\n    port (a : in bit; y : out bit);\n  end component;\n";
  Printf.bprintf b "  signal n0 : bit := %s;\n" (bit_lit n0);
  for i = 1 to board_cells do
    Printf.bprintf b "  signal n%d : bit;\n" i
  done;
  Buffer.add_string b "begin\n";
  for i = 1 to board_cells do
    Printf.bprintf b "  c%d : CELL port map (a => n%d, y => n%d);\n" i (i - 1) i
  done;
  Buffer.add_string b "end net;\n";
  Buffer.contents b

let board_n0 ~seed = int (rng ~seed ~stream:s_vif ~index:(-100)) 2

(** A configuration of BOARD binding each cell to one of CELL's
    architectures. *)
let config_source archs =
  let b = Buffer.create 16384 in
  Buffer.add_string b "configuration CFG of BOARD is\n  for net\n";
  Array.iteri
    (fun i arch ->
      Printf.bprintf b "    for c%d : CELL use entity WORK.CELL(A%d);\n    end for;\n" (i + 1)
        arch)
    archs;
  Buffer.add_string b "  end for;\nend CFG;\n";
  Buffer.contents b

(** The settled level of the board's last net: [n0] flipped once per
    inverting cell (every cell has settled well before the horizon). *)
let board_parity ~n0 archs =
  Array.fold_left (fun v arch -> if cell_inverts arch then 1 - v else v) n0 archs

(** A user design: an entity whose context clause [use]s [pkgs] and an
    architecture with one signal per package, initialized from that
    package's VERSION and one of its constants. *)
let user_source ~name ~pkgs ~pick_const =
  let b = Buffer.create 2048 in
  List.iter (fun k -> Printf.bprintf b "use WORK.%s.all;\n" (lib_package_name k)) pkgs;
  Printf.bprintf b "entity %s is\n  port (x : in integer; y : out integer);\nend %s;\n\n" name name;
  Printf.bprintf b "architecture rtl of %s is\n" name;
  List.iter
    (fun k ->
      let p = lib_package_name k in
      Printf.bprintf b "  signal v%d : integer := %s_VERSION * 1000 + %s_C%d;\n" k p p
        (pick_const k))
    pkgs;
  Buffer.add_string b "begin\n  y <= x";
  List.iter (fun k -> Printf.bprintf b " + v%d" k) pkgs;
  Printf.bprintf b ";\nend rtl;\n";
  Buffer.contents b

type vif_op =
  | User of { name : string; pkgs : int list; consts : (int * int) list }
      (** compile user design [name] over [pkgs]; [consts] maps package to
          the constant index its signal reads *)
  | Bump of int  (** recompile one package with its VERSION bumped *)
  | Configure of int array  (** compile CFG with these bindings, elaborate, run *)

(** Six user compiles over 2..12 packages, two bumps and two
    configurations in every block of ten ops. *)
let vif_deck =
  [| `User 2; `User 4; `User 6; `User 8; `User 10; `User 12; `Bump; `Bump; `Config; `Config |]

let vif_op ~seed index =
  let r = rng ~seed ~stream:s_vif ~index in
  match deck_slot ~seed ~stream:s_vif vif_deck index with
  | `User m ->
    let pkgs =
      List.sort compare
        (Array.to_list (Array.sub (shuffle r (Array.init vif_packages Fun.id)) 0 m))
    in
    User
      {
        (* a fixed pool of design names, recompiled in turn, keeps the
           library directory (which elaboration scans) one size all run *)
        name = Printf.sprintf "USR%d" (index mod 16);
        pkgs;
        consts = List.map (fun k -> (k, int r 24)) pkgs;
      }
  | `Bump -> Bump (int r vif_packages)
  | `Config -> Configure (Array.init board_cells (fun _ -> int r 3))

(** The initial value of a user design's signal for package [k] at
    [version], reading constant [c]. *)
let user_signal_value ~seed ~k ~version ~c =
  let p = lib_package ~seed ~k ~version in
  let cname = Printf.sprintf "%s_C%d" (lib_package_name k) c in
  let _, _, v = List.find (fun (_, n, _) -> n = cname) p.constants in
  (version * 1000) + v

(* ------------------------------------------------------------------ *)
(* serve-warm *)

(** Small sources of 10..80 lines: three in every block of ten are exact
    re-sends of one of the previous 50 sources, as when an editor saves a
    file again unchanged. *)
let serve_deck =
  [| `Resend; `Resend; `Resend; `Package 8; `Package 24; `Package 48; `Package 70; `Fsm 3; `Fsm 5;
     `Fsm 7 |]

let rec serve_op ~seed index =
  let r = rng ~seed ~stream:s_serve ~index in
  let base = Printf.sprintf "%d_%d" (tag seed) index in
  match deck_slot ~seed ~stream:s_serve serve_deck index with
  | `Resend when index > 0 -> serve_op ~seed (index - 1 - int r (min index 50))
  | `Resend -> const_package r ~name:("SP" ^ base) ~n:12 ~prefix:"K"
  | `Package n -> const_package r ~name:("SP" ^ base) ~n ~prefix:"K"
  | `Fsm states -> fsm r ~name:("SF" ^ base) ~states
