(* Second-wave language features: generate statements, user-defined
   physical types, 'LAST_EVENT, aliases, user-defined attributes. *)

let simulate ?(ns = 1000) ?(top = "TB") sources =
  let c = Vhdl_compiler.create () in
  List.iter (fun s -> ignore (Vhdl_compiler.compile c s)) sources;
  let sim = Vhdl_compiler.elaborate c ~top () in
  let _ = Vhdl_compiler.run c sim ~max_ns:ns in
  (c, sim)

let check_int sim path expected =
  match Vhdl_compiler.value sim path with
  | Some v -> Alcotest.(check int) path expected (Value.as_int v)
  | None -> Alcotest.failf "no signal %s" path

let test_for_generate_instances () =
  let _, sim =
    simulate
      [
        {|
entity buf is
  port (a : in bit; y : out bit);
end buf;
architecture r of buf is
begin
  y <= a after 1 ns;
end r;

entity tb is end tb;
architecture t of tb is
  component buf
    port (a : in bit; y : out bit);
  end component;
  signal src : bit := '0';
begin
  g : for i in 1 to 5 generate
    u : buf port map (a => src, y => open);
  end generate;
  src <= '1' after 10 ns;
end t;
|};
      ]
  in
  let ns = Vhdl_compiler.name_server sim in
  (* tb + 5 generated instances *)
  Alcotest.(check int) "instances" 6 (List.length (Name_server.instances ns));
  Alcotest.(check bool) "indexed path exists" true
    (Name_server.find_signal ns ":tb:G(3):U:Y" <> None)

let test_generate_parameter_in_expressions () =
  (* the generate parameter participates in expressions inside the body
     (it rides as a unit constant substituted per iteration) *)
  let _, sim =
    simulate
      [
        {|
entity stage is
  generic (weight : integer);
  port (tick : in bit; acc : out integer);
end stage;
architecture r of stage is
begin
  acc <= weight * 10;
end r;

entity tb is end tb;
architecture t of tb is
  component stage
    generic (weight : integer);
    port (tick : in bit; acc : out integer);
  end component;
  signal clk : bit := '0';
begin
  g : for i in 1 to 3 generate
    s : stage generic map (weight => i * i) port map (tick => clk, acc => open);
  end generate;
end t;
|};
      ]
  in
  let ns = Vhdl_compiler.name_server sim in
  let acc i =
    match Name_server.find_signal ns (Printf.sprintf ":tb:G(%d):S:ACC" i) with
    | Some s -> Value.as_int s.Rt.current
    | None -> Alcotest.failf "missing stage %d" i
  in
  Alcotest.(check int) "stage 1: 1*1*10" 10 (acc 1);
  Alcotest.(check int) "stage 2: 2*2*10" 40 (acc 2);
  Alcotest.(check int) "stage 3: 3*3*10" 90 (acc 3)

let test_physical_types () =
  let _, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
  type distance is range 0 to 1000000000 units
    um;
    mm = 1000 um;
    m  = 1000 mm;
  end units;
  constant track : distance := 2 m;
  signal laps_um : integer := 0;
  signal total : integer := 0;
begin
  p : process
    variable d : distance := 500 mm;
  begin
    laps_um <= track / (1 um);
    d := d + 250000 um;          -- 750 mm
    total <= d / (1 mm);
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:LAPS_UM" 2_000_000;
  check_int sim ":tb:TOTAL" 750

let test_last_event () =
  let _, sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal s : bit := '0';
  signal age_ok : integer := 0;
begin
  s <= '1' after 10 ns;
  watcher : process
  begin
    wait for 25 ns;
    if s'last_event = 15 ns then
      age_ok <= 1;
    end if;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:AGE_OK" 1

let test_alias_declaration () =
  let _, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal counter_value : integer := 7;
  alias cv : integer is counter_value;
  signal r : integer := 0;
begin
  p : process
  begin
    r <= cv * 2;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:R" 14

let test_user_attributes () =
  (* §3.2's point: a user-defined attribute wins over the predefined one of
     the same name *)
  let _, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
  attribute max_delay : integer;
  signal data : integer := 0;
  attribute max_delay of data : signal is 42;
  signal picked : integer := 0;
begin
  p : process
  begin
    picked <= data'max_delay;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:PICKED" 42

let test_nested_generate () =
  let _, sim =
    simulate
      [
        {|
entity cell is
  port (t : in bit);
end cell;
architecture r of cell is
begin
end r;

entity tb is end tb;
architecture t of tb is
  component cell
    port (t : in bit);
  end component;
  signal s : bit := '0';
begin
  rows : for i in 0 to 1 generate
    cols : for j in 0 to 2 generate
      c : cell port map (t => s);
    end generate;
  end generate;
end t;
|};
      ]
  in
  let ns = Vhdl_compiler.name_server sim in
  (* tb + 2*3 cells *)
  Alcotest.(check int) "2x3 grid" 7 (List.length (Name_server.instances ns));
  Alcotest.(check bool) "nested path" true
    (List.exists
       (fun (p, _, _) -> p = ":tb:ROWS(1):COLS(2):C")
       (Name_server.instances ns))

let test_element_association () =
  (* indexed signal actuals in port maps: implicit connector processes and
     per-element drivers on the composite *)
  let _, sim =
    simulate
      [
        {|
entity inv is
  port (a : in bit; y : out bit);
end inv;
architecture r of inv is
begin
  y <= not a after 1 ns;
end r;

entity tb is end tb;
architecture t of tb is
  component inv
    port (a : in bit; y : out bit);
  end component;
  type nibble is array (0 to 3) of bit;
  signal input : nibble := "0101";
  signal output : nibble := "0000";
begin
  g : for i in 0 to 3 generate
    u : inv port map (a => input(i), y => output(i));
  end generate;
end t;
|};
      ]
  in
  match Vhdl_compiler.value sim ":tb:OUTPUT" with
  | Some (Value.Varray { elems; _ }) ->
    Alcotest.(check (list int)) "output = not input, element-wise" [ 1; 0; 1; 0 ]
      (Array.to_list (Array.map Value.as_int elems))
  | _ -> Alcotest.fail "no output array"

let test_concurrent_procedure_call () =
  let _, sim =
    simulate ~ns:50
      [
        {|
package plib is
  procedure mirror (x : in bit; signal y : out bit);
  procedure mirror (x : in integer; y : out integer);
end plib;
package body plib is
  procedure mirror (x : in bit; signal y : out bit) is
  begin
    y <= not x;
  end mirror;
  procedure mirror (x : in integer; y : out integer) is
  begin
    y := x * 2;
  end mirror;
end plib;
|};
        {|
use work.plib.all;
entity tb is end tb;
architecture t of tb is
  signal src : integer := 0;
  signal doubled : integer := 0;
  signal selected : integer := 0;
begin
  -- variable-class path of the same machinery (signal-class parameters
  -- are exercised in the signal-class tests below); the callee is the
  -- integer overload of [mirror], by simple and by selected name, and
  -- not the bit one, whose signal-class [y] would reject [tmp]
  p : process (src)
    variable tmp : integer := 0;
  begin
    mirror(src, tmp);
    doubled <= tmp;
  end process;
  q : process (src)
    variable tmp : integer := 0;
  begin
    work.plib.mirror(src, tmp);
    selected <= tmp;
  end process;
  src <= 21 after 10 ns;
end t;
|};
      ]
  in
  check_int sim ":tb:DOUBLED" 42;
  check_int sim ":tb:SELECTED" 42

let test_if_generate () =
  let _, sim =
    simulate
      [
        {|
entity probe is
  port (t : in bit);
end probe;
architecture r of probe is
begin
end r;

entity tb is end tb;
architecture t of tb is
  component probe
    port (t : in bit);
  end component;
  constant debug_level : integer := 2;
  signal s : bit := '0';
begin
  dbg : if debug_level > 1 generate
    mon : probe port map (t => s);
  end generate;
  extra : if debug_level > 5 generate
    never : probe port map (t => s);
  end generate;
end t;
|};
      ]
  in
  let ns = Vhdl_compiler.name_server sim in
  Alcotest.(check bool) "condition-true instance exists" true
    (List.exists (fun (p, _, _) -> p = ":tb:DBG:MON") (Name_server.instances ns));
  Alcotest.(check bool) "condition-false instance absent" false
    (List.exists (fun (p, _, _) -> p = ":tb:EXTRA:NEVER") (Name_server.instances ns))

(* §3.4: the VHDL use clause can import individual names, "avoiding the
   homographic conflicts" a .all import would create *)
let test_selective_import () =
  let _, sim =
    simulate ~ns:10
      [
        {|
package p1 is
  constant width : integer := 8;
  constant depth : integer := 16;
end p1;
|};
        {|
package p2 is
  constant width : integer := 99;
end p2;
|};
        {|
use work.p1.width;
use work.p1.depth;
entity tb is end tb;
architecture t of tb is
  signal r : integer := 0;
begin
  p : process
  begin
    -- p2.width is NOT imported; the selective import wins unambiguously
    r <= width + depth;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:R" 24

let test_package_name_import () =
  (* use work.pkg (no .all): the package NAME becomes visible, items reached
     by selection *)
  let _, sim =
    simulate ~ns:10
      [
        {|
package p3 is
  constant k : integer := 5;
end p3;
|};
        {|
use work.p3;
entity tb is end tb;
architecture t of tb is
  signal r : integer := 0;
begin
  p : process
  begin
    r <= p3.k * 3;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:R" 15

let test_entity_declarative_part () =
  (* types and constants declared in the entity are visible in every
     architecture of that entity *)
  let c = Vhdl_compiler.create () in
  ignore
    (Vhdl_compiler.compile c
       {|
entity machine is
  port (clk : in bit; code : out integer);
  type mode_t is (idle, busy, fault);
  constant reset_mode : mode_t := idle;
end machine;
|});
  ignore
    (Vhdl_compiler.compile c
       {|
architecture a of machine is
  signal m : mode_t := reset_mode;
begin
  code <= mode_t'pos(m);
  step : process (clk)
  begin
    if clk'event and clk = '1' then
      m <= busy;
    end if;
  end process;
end a;
|});
  let sim = Vhdl_compiler.elaborate c ~top:"machine" () in
  let _ = Vhdl_compiler.run c sim ~max_ns:10 in
  match Vhdl_compiler.value sim ":machine:M" with
  | Some v -> Alcotest.(check bool) "initialized from entity constant" true
                (Value.equal v (Value.Venum 0))
  | None -> Alcotest.fail "no m"

let test_attribute_ranges_in_loops () =
  let _, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
  type word is array (3 downto 0) of bit;
  constant w : word := "1011";
  signal n : integer := 0;
begin
  p : process
    variable acc : integer := 0;
  begin
    for i in w'range loop
      if w(i) = '1' then
        acc := acc + 1;
      end if;
    end loop;
    n <= acc + (w'left - w'right);   -- 3 ones + (3 - 0)
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:N" 6

(* Qualified expressions (LRM 7.3.4): [type'(expr)] forces the candidate
   set, disambiguating overloaded enumeration literals. *)
let test_qualified_expressions () =
  let _, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
  type duo is (aa, bb);
  type uno is (bb, cc);
  signal s : bit := '0';
  signal pick : integer := 0;
begin
  p : process
  begin
    s <= bit'('1');
    pick <= duo'pos(duo'(bb)) * 10 + uno'pos(uno'(bb));
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:PICK" 10;
  match Vhdl_compiler.value sim ":tb:S" with
  | Some (Value.Venum 1) -> ()
  | Some v -> Alcotest.failf "s = %s, expected '1'" (Value.image v)
  | None -> Alcotest.fail "signal S not found"

(* Operator-symbol subprogram designators (LRM 2.1): [function "+"] adds a
   user overload alongside the predefined operator; the classified LEF op
   token carries the candidates into the expression AG. *)
let test_operator_functions () =
  let _, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
  type trit is (lo, mid, hi);
  function "+" (a, b : trit) return trit is
  begin
    return trit'val((trit'pos(a) + trit'pos(b)) mod 3);
  end;
  function "not" (a : trit) return trit is
  begin
    return trit'val(2 - trit'pos(a));
  end;
  signal x : trit := lo;
  signal y : trit := lo;
  signal n : integer := 0;
begin
  p : process
  begin
    x <= mid + hi;        -- (1+2) mod 3 = lo
    y <= not (lo + mid);  -- not mid = mid
    n <= 2 + 3;           -- predefined "+" still visible
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:N" 5;
  let pos path =
    match Vhdl_compiler.value sim path with
    | Some (Value.Venum p) -> p
    | _ -> Alcotest.failf "%s missing" path
  in
  Alcotest.(check int) "mid + hi = lo" 0 (pos ":tb:X");
  Alcotest.(check int) "not (lo + mid) = mid" 1 (pos ":tb:Y")

let test_operator_functions_in_package () =
  let _, sim =
    simulate ~ns:10
      [
        {|
package vec_ops is
  type nibble is array (0 to 3) of bit;
  function "and" (a, b : nibble) return nibble;
end vec_ops;
package body vec_ops is
  function "and" (a, b : nibble) return nibble is
    variable r : nibble;
  begin
    for i in 0 to 3 loop
      if a(i) = '1' and b(i) = '1' then r(i) := '1'; else r(i) := '0'; end if;
    end loop;
    return r;
  end;
end vec_ops;
|};
        {|
use work.vec_ops;
entity tb is end tb;
architecture t of tb is
  use work.vec_ops;
  signal z : work.vec_ops.nibble;
begin
  p : process
    variable a : work.vec_ops.nibble := "1100";
    variable b : work.vec_ops.nibble := "1010";
  begin
    z <= a and b;
    wait;
  end process;
end t;
|};
      ]
  in
  match Vhdl_compiler.value sim ":tb:Z" with
  | Some (Value.Varray { elems; _ }) ->
    Alcotest.(check (list int))
      "1100 and 1010 = 1000" [ 1; 0; 0; 0 ]
      (Array.to_list elems
      |> List.map (function Value.Venum p -> p | _ -> -1))
  | _ -> Alcotest.fail "z missing"

let test_operator_selective_import () =
  let _, sim =
    simulate ~ns:10
      [
        {|
package vec_ops is
  type nibble is array (0 to 3) of bit;
  function "xor" (a, b : nibble) return nibble;
end vec_ops;
package body vec_ops is
  function "xor" (a, b : nibble) return nibble is
    variable r : nibble;
  begin
    for i in 0 to 3 loop
      if a(i) /= b(i) then r(i) := '1'; else r(i) := '0'; end if;
    end loop;
    return r;
  end;
end vec_ops;
|};
        {|
use work.vec_ops.nibble, work.vec_ops."xor";
entity tb is end tb;
architecture t of tb is
  signal z : nibble;
begin
  p : process
    variable a : nibble := "1100";
    variable b : nibble := "1010";
  begin
    z <= a xor b;
    wait;
  end process;
end t;
|};
      ]
  in
  match Vhdl_compiler.value sim ":tb:Z" with
  | Some (Value.Varray { elems; _ }) ->
    Alcotest.(check (list int))
      "1100 xor 1010 = 0110" [ 0; 1; 1; 0 ]
      (Array.to_list elems |> List.map (function Value.Venum p -> p | _ -> -1))
  | _ -> Alcotest.fail "z missing"

(* Deferred constants (LRM 4.3.1.1): declared without a value in the
   package, completed in the body; references late-bind at elaboration
   through the unit-constant slot. *)
let test_deferred_constants () =
  let _, sim =
    simulate ~ns:10
      [
        {|
package cfg is
  constant depth : integer;
  constant width : integer;
  function scaled (x : integer) return integer;
end cfg;
package body cfg is
  constant depth : integer := 8;
  constant width : integer := depth * 4;
  function scaled (x : integer) return integer is
  begin
    return x * width;
  end;
end cfg;
|};
        {|
use work.cfg.all;
entity tb is end tb;
architecture t of tb is
  signal a : integer := 0;
  signal b : integer := 0;
begin
  p : process
  begin
    a <= depth + width;
    b <= scaled(3);
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:A" 40;
  check_int sim ":tb:B" 96

let test_deferred_constant_vif_roundtrip () =
  let dir = Filename.temp_file "defer" "" in
  Sys.remove dir;
  let c1 = Vhdl_compiler.create ~work_dir:dir () in
  ignore
    (Vhdl_compiler.compile c1
       {|
package cfg is
  constant magic : integer;
end cfg;
package body cfg is
  constant magic : integer := 1789;
end cfg;

use work.cfg.all;
entity tb is end tb;
architecture t of tb is
  signal m : integer := 0;
begin
  p : process begin m <= magic; wait; end process;
end t;
|});
  (* a fresh session must recover the deferred value from disk alone *)
  let c2 = Vhdl_compiler.create ~work_dir:dir () in
  let sim = Vhdl_compiler.elaborate c2 ~top:"tb" () in
  let _ = Vhdl_compiler.run c2 sim ~max_ns:10 in
  check_int sim ":tb:M" 1789

(* Linking: a subprogram reads the generics and constants of the instance
   it is linked with.  An architecture function reads an earlier
   architecture constant and a generic, and initializes a later constant;
   each instance, also under a for-generate, sees its own values; a
   package function reads a deferred constant. *)
let test_linked_constants () =
  let _, sim =
    simulate ~ns:10
      [
        {|
package lk is
  constant scale : integer;
  function scaled (x : integer) return integer;
end lk;
package body lk is
  constant scale : integer := 3;
  function scaled (x : integer) return integer is
  begin
    return x * scale;
  end;
end lk;

use work.lk.all;
entity cell is
  generic (n : integer);
  port (early, late, gen, pkg : out integer);
end cell;
architecture a of cell is
  constant base : integer := n * 10;
  function plus_base (x : integer) return integer is
  begin
    return x + base;
  end;
  function twice_n return integer is
  begin
    return 2 * n;
  end;
  constant later : integer := plus_base(1);
begin
  p : process
  begin
    early <= plus_base(0);
    late <= later;
    gen <= twice_n;
    pkg <= scaled(n);
    wait;
  end process;
end a;

entity tb is end tb;
architecture t of tb is
  component cell
    generic (n : integer);
    port (early, late, gen, pkg : out integer);
  end component;
begin
  u : cell generic map (n => 7)
    port map (early => open, late => open, gen => open, pkg => open);
  g : for i in 1 to 3 generate
    c : cell generic map (n => i)
      port map (early => open, late => open, gen => open, pkg => open);
  end generate;
end t;
|};
      ]
  in
  let check path n =
    check_int sim (path ^ ":EARLY") (n * 10);
    check_int sim (path ^ ":LATE") ((n * 10) + 1);
    check_int sim (path ^ ":GEN") (2 * n);
    check_int sim (path ^ ":PKG") (3 * n)
  in
  check ":tb:U" 7;
  List.iter (fun i -> check (Printf.sprintf ":tb:G(%d):C" i) i) [ 1; 2; 3 ]

(* LRM 7.3.5: conversions between abstract numeric types, and implicit
   conversion of universal (locally static) literals — but NOT of dynamic
   expressions of another integer type. *)
let test_numeric_conversions () =
  let _, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
  type volt is range 0 to 5000;
  type amp is range 0 to 100;
  signal v : volt := 230;          -- universal literal into a distinct type
  signal w : integer := 0;
begin
  p : process
    variable a : amp := 2;
  begin
    v <= volt(integer(a) * 100);   -- int->int conversions both ways
    w <= integer(v) + 1;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:V" 200;
  check_int sim ":tb:W" 231

let test_no_implicit_dynamic_conversion () =
  let c = Vhdl_compiler.create () in
  match
    Vhdl_compiler.compile c
      {|
entity tb is end tb;
architecture t of tb is
  type volt is range 0 to 5000;
  signal i : integer := 3;
  signal v : volt := 0;
begin
  p : process
  begin
    v <= i;   -- dynamic INTEGER expression: needs an explicit conversion
    wait;
  end process;
end t;
|}
  with
  | exception Vhdl_compiler.Compile_error msgs ->
    let text = Format.asprintf "%a" Diag.pp_list msgs in
    Alcotest.(check bool) "type error reported" true
      (Astring_contains.contains text "does not match expected type VOLT")
  | _ -> Alcotest.fail "expected a type error"

(* Null waveforms (LRM 8.3): [s <= null after T] disconnects the driver
   when the transaction matures; legal only for guarded signals. *)
let test_null_waveform () =
  let _, sim =
    simulate ~ns:30
      [
        {|
entity tb is end tb;
architecture t of tb is
  function wired_or (bits : bit_vector) return bit is
  begin
    for i in bits'range loop
      if bits(i) = '1' then
        return '1';
      end if;
    end loop;
    return '0';
  end wired_or;
  signal line_s : wired_or bit bus := '0';
  signal seen_high : integer := 0;
  signal seen_drop : integer := 0;
begin
  low : process
  begin
    line_s <= '0';
    wait;
  end process;
  pulse : process
  begin
    line_s <= '1' after 2 ns;
    line_s <= transport null after 10 ns;
    wait;
  end process;
  watch : process
  begin
    wait for 5 ns;
    if line_s = '1' then seen_high <= 1; end if;
    wait for 10 ns;
    if line_s = '0' then seen_drop <= 1; end if;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:SEEN_HIGH" 1;
  check_int sim ":tb:SEEN_DROP" 1

let test_null_waveform_on_plain_signal_fails () =
  let c = Vhdl_compiler.create () in
  ignore
    (Vhdl_compiler.compile c
       {|
entity tb is end tb;
architecture t of tb is
  signal s : bit := '0';
begin
  p : process
  begin
    s <= null after 1 ns;
    wait;
  end process;
end t;
|});
  let sim = Vhdl_compiler.elaborate c ~top:"tb" () in
  match Vhdl_compiler.run c sim ~max_ns:10 with
  | exception Rt.Simulation_error _ -> ()
  | _ -> Alcotest.fail "null on an unguarded signal must be a simulation error"

(* Disconnection specifications (LRM 5.3): [disconnect s : t after T]
   delays the implicit disconnect when a guard falls. *)
let test_disconnect_specification () =
  let _, sim =
    simulate ~ns:30
      [
        {|
entity tb is end tb;
architecture t of tb is
  function wired_or (bits : bit_vector) return bit is
  begin
    for i in bits'range loop
      if bits(i) = '1' then return '1'; end if;
    end loop;
    return '0';
  end wired_or;
  signal line_s : wired_or bit bus := '0';
  disconnect line_s : bit after 4 ns;
  signal ctl : bit := '1';
  signal at_6 : integer := 9;
  signal at_12 : integer := 9;
begin
  low : process begin line_s <= '0'; wait; end process;
  b : block (ctl = '1')
  begin
    line_s <= guarded '1';
  end block;
  ctl_drv : process
  begin
    ctl <= '1';
    wait for 5 ns;
    ctl <= '0';
    wait;
  end process;
  watch : process
  begin
    wait for 6 ns;
    if line_s = '1' then at_6 <= 1; else at_6 <= 0; end if;
    wait for 6 ns;
    if line_s = '0' then at_12 <= 1; else at_12 <= 0; end if;
    wait;
  end process;
end t;
|};
      ]
  in
  (* guard falls at 5 ns but the spec holds the driver until 9 ns *)
  check_int sim ":tb:AT_6" 1;
  check_int sim ":tb:AT_12" 1

(* Signal-class subprogram parameters (LRM 2.1.1.2): the procedure drives
   the caller's signals through the calling process's drivers. *)
let test_signal_class_parameters () =
  let _, sim =
    simulate ~ns:30
      [
        {|
package drv is
  procedure pulse (signal clk : out bit; signal count : inout integer);
end drv;
package body drv is
  procedure pulse (signal clk : out bit; signal count : inout integer) is
  begin
    clk <= '1' after 1 ns, '0' after 2 ns;
    count <= count + 1;
  end pulse;
end drv;
|};
        {|
use work.drv.all;
entity tb is end tb;
architecture t of tb is
  signal clk : bit := '0';
  signal n : integer := 0;
  signal rises : integer := 0;
begin
  stim : process
  begin
    pulse(clk, n);
    wait for 10 ns;
    pulse(clk, n);
    wait;
  end process;
  watch : process (clk)
    variable r : integer := 0;
  begin
    if clk = '1' then
      r := r + 1;
      rises <= r;
    end if;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:RISES" 2;
  check_int sim ":tb:N" 2

let test_concurrent_call_with_signal_params () =
  let _, sim =
    simulate ~ns:30
      [
        {|
package mon is
  procedure mirror (signal src : in integer; signal dst : out integer);
end mon;
package body mon is
  procedure mirror (signal src : in integer; signal dst : out integer) is
  begin
    dst <= src * 2;
  end mirror;
end mon;
|};
        {|
use work.mon.all;
entity tb is end tb;
architecture t of tb is
  signal a : integer := 0;
  signal b : integer := 0;
begin
  mirror(a, b);
  stim : process
  begin
    a <= 21 after 5 ns;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:B" 42

let test_signal_param_requires_signal_actual () =
  let c = Vhdl_compiler.create () in
  match
    Vhdl_compiler.compile c
      {|
entity tb is end tb;
architecture t of tb is
  procedure drive (signal s : out bit) is
  begin
    s <= '1';
  end drive;
begin
  p : process
    variable v : bit := '0';
  begin
    drive(v);
    wait;
  end process;
end t;
|}
  with
  | exception Vhdl_compiler.Compile_error msgs ->
    let text = Format.asprintf "%a" Diag.pp_list msgs in
    Alcotest.(check bool) "diagnosed" true
      (Astring_contains.contains text "signal-class parameter requires a signal actual")
  | _ -> Alcotest.fail "expected a diagnostic"

(* Operator keys are quoted strings ("\"+\"" as an environment key): they
   must survive the s-expression escaping of the VIF round trip. *)
let test_operator_function_vif_roundtrip () =
  let dir = Filename.temp_file "opvif" "" in
  Sys.remove dir;
  let c1 = Vhdl_compiler.create ~work_dir:dir () in
  ignore
    (Vhdl_compiler.compile c1
       {|
package vec_ops is
  type duo is (lo, hi);
  function "+" (a, b : duo) return duo;
end vec_ops;
package body vec_ops is
  function "+" (a, b : duo) return duo is
  begin
    if a = hi or b = hi then return hi; else return lo; end if;
  end;
end vec_ops;
|});
  let c2 = Vhdl_compiler.create ~work_dir:dir () in
  ignore
    (Vhdl_compiler.compile c2
       {|
use work.vec_ops.all;
entity tb is end tb;
architecture t of tb is
  signal z : duo := lo;
begin
  p : process begin z <= lo + hi; wait; end process;
end t;
|});
  let sim = Vhdl_compiler.elaborate c2 ~top:"tb" () in
  let _ = Vhdl_compiler.run c2 sim ~max_ns:10 in
  match Vhdl_compiler.value sim ":tb:Z" with
  | Some (Value.Venum 1) -> ()
  | Some v -> Alcotest.failf "z = %s" (Value.image v)
  | None -> Alcotest.fail "z missing"

(* Multi-dimensional arrays lower to nested arrays: m(i, j) = m(i)(j),
   nested aggregates initialize them, and element assignment targets
   work through the same lowering. *)
let test_multidimensional_arrays () =
  let _, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
  type matrix is array (0 to 2, 0 to 2) of integer;
  signal trace : integer := 0;
  signal corner : integer := 0;
  signal via_sig : integer := 0;
  signal grid : matrix := ((0, 0, 0), (0, 0, 0), (0, 0, 0));
begin
  p : process
    variable m : matrix := ((1, 2, 3), (4, 5, 6), (7, 8, 9));
    variable acc : integer := 0;
  begin
    for i in 0 to 2 loop
      acc := acc + m(i, i);
    end loop;
    trace <= acc;
    m(2, 0) := 70;
    corner <= m(2, 0) + m(0, 2);
    grid(1, 2) <= 55;
    wait for 1 ns;
    via_sig <= grid(1, 2);
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:TRACE" 15;
  check_int sim ":tb:CORNER" 73;
  check_int sim ":tb:VIA_SIG" 55

let test_operator_function_diagnostics () =
  let c = Vhdl_compiler.create () in
  match
    Vhdl_compiler.compile c
      {|
package bad is
  function "foo" (a : integer) return integer;
  function "not" (a, b : bit) return bit;
end bad;
|}
  with
  | exception Vhdl_compiler.Compile_error msgs ->
    let text = Format.asprintf "%a" Diag.pp_list msgs in
    Alcotest.(check bool) "rejects non-operator symbol" true
      (Astring_contains.contains text "not an operator symbol");
    Alcotest.(check bool) "rejects wrong arity" true
      (Astring_contains.contains text "cannot be declared with 2 parameters")
  | _ -> Alcotest.fail "expected diagnostics"

let suite =
  [
    Alcotest.test_case "for-generate expands instances" `Quick test_for_generate_instances;
    Alcotest.test_case "generate parameter in expressions" `Quick
      test_generate_parameter_in_expressions;
    Alcotest.test_case "user-defined physical types" `Quick test_physical_types;
    Alcotest.test_case "'LAST_EVENT" `Quick test_last_event;
    Alcotest.test_case "alias declarations" `Quick test_alias_declaration;
    Alcotest.test_case "user-defined attributes shadow predefined" `Quick
      test_user_attributes;
    Alcotest.test_case "nested generate" `Quick test_nested_generate;
    Alcotest.test_case "element association in port maps" `Quick test_element_association;
    Alcotest.test_case "procedure call through packages" `Quick
      test_concurrent_procedure_call;
    Alcotest.test_case "if-generate" `Quick test_if_generate;
    Alcotest.test_case "selective import (use work.pkg.item)" `Quick test_selective_import;
    Alcotest.test_case "package-name import (use work.pkg)" `Quick test_package_name_import;
    Alcotest.test_case "entity declarative part" `Quick test_entity_declarative_part;
    Alcotest.test_case "attribute ranges in for loops" `Quick test_attribute_ranges_in_loops;
    Alcotest.test_case "qualified expressions disambiguate overloads" `Quick
      test_qualified_expressions;
    Alcotest.test_case "operator-symbol functions" `Quick test_operator_functions;
    Alcotest.test_case "operator functions exported by packages" `Quick
      test_operator_functions_in_package;
    Alcotest.test_case "operator designator diagnostics" `Quick
      test_operator_function_diagnostics;
    Alcotest.test_case "selective import of operator functions" `Quick
      test_operator_selective_import;
    Alcotest.test_case "deferred constants" `Quick test_deferred_constants;
    Alcotest.test_case "deferred constants across sessions (VIF)" `Quick
      test_deferred_constant_vif_roundtrip;
    Alcotest.test_case "numeric type conversions" `Quick test_numeric_conversions;
    Alcotest.test_case "no implicit conversion of dynamic expressions" `Quick
      test_no_implicit_dynamic_conversion;
    Alcotest.test_case "null waveforms disconnect at maturity" `Quick test_null_waveform;
    Alcotest.test_case "null waveform on a plain signal fails" `Quick
      test_null_waveform_on_plain_signal_fails;
    Alcotest.test_case "disconnection specifications delay release" `Quick
      test_disconnect_specification;
    Alcotest.test_case "signal-class parameters drive caller signals" `Quick
      test_signal_class_parameters;
    Alcotest.test_case "concurrent call with signal parameters" `Quick
      test_concurrent_call_with_signal_params;
    Alcotest.test_case "signal parameter needs a signal actual" `Quick
      test_signal_param_requires_signal_actual;
    Alcotest.test_case "operator functions survive the VIF round trip" `Quick
      test_operator_function_vif_roundtrip;
    Alcotest.test_case "multi-dimensional arrays" `Quick test_multidimensional_arrays;
    Alcotest.test_case "subprograms read the constants they are linked with" `Quick
      test_linked_constants;
  ]
