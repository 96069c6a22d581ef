(* LRM fine print: behaviours with a specific required outcome that the
   broader feature tests do not pin down individually. *)

let simulate ?(ns = 100) ?(top = "TB") sources =
  let c = Vhdl_compiler.create () in
  List.iter (fun s -> ignore (Vhdl_compiler.compile c s)) sources;
  let sim = Vhdl_compiler.elaborate c ~top () in
  let _ = Vhdl_compiler.run c sim ~max_ns:ns in
  sim

let check_int sim path expected =
  match Vhdl_compiler.value sim path with
  | Some v -> Alcotest.(check int) path expected (Value.as_int v)
  | None -> Alcotest.failf "no signal %s" path

let expect_compile_error src =
  let c = Vhdl_compiler.create () in
  match Vhdl_compiler.compile c src with
  | _ -> Alcotest.fail "expected a compile error"
  | exception Vhdl_compiler.Compile_error _ -> ()

(* LRM 7.2.4: / truncates toward zero, also for negative operands *)
let test_division_truncates_toward_zero () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal a : integer := 0;
  signal b : integer := 0;
begin
  p : process
  begin
    a <= (-7) / 2;
    b <= 7 / (-2);
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:A" (-3);
  check_int sim ":tb:B" (-3)

(* relational operators do not associate: a = b = c is a syntax error *)
let test_relations_do_not_associate () =
  expect_compile_error
    "entity tb is end tb;\narchitecture t of tb is\n  signal x : boolean;\nbegin\n  p : process\n  begin\n    x <= 1 = 2 = false;\n    wait;\n  end process;\nend t;"

(* 'SUCC off the end of an enumeration is a runtime error *)
let test_succ_at_bound_raises () =
  let c = Vhdl_compiler.create () in
  ignore
    (Vhdl_compiler.compile c
       {|
entity tb is end tb;
architecture t of tb is
  type st is (s0, s1);
  signal s : st := s1;
  signal n : st := s0;
begin
  p : process
  begin
    n <= st'succ(s);
    wait;
  end process;
end t;
|});
  let sim = Vhdl_compiler.elaborate c ~top:"tb" () in
  match Vhdl_compiler.run c sim ~max_ns:10 with
  | exception Rt.Simulation_error _ -> ()
  | _ -> Alcotest.fail "'SUCC at the upper bound must raise"

(* a static 'VAL, 'SUCC or 'PRED outside the enumeration is rejected at
   analysis, in an architecture as in a package, and the message names the
   conversion *)
let test_static_val_out_of_range_rejected () =
  let architecture init =
    Printf.sprintf
      "entity tb is end tb;\narchitecture t of tb is\n\
      \  type color is (red, green, blue);\n  constant S : color := %s;\n\
      \  signal x : color := red;\nbegin\n  x <= S;\nend t;\n"
      init
  in
  let package init =
    Printf.sprintf
      "package p is\n  type color is (red, green, blue);\n  constant S : color := %s;\nend p;\n"
      init
  in
  List.iter
    (fun (init, conversion) ->
      List.iter
        (fun src ->
          match Vhdl_compiler.compile (Vhdl_compiler.create ()) src with
          | exception Vhdl_compiler.Compile_error diags ->
            let msgs = List.map (Format.asprintf "%a" Diag.pp) diags in
            Alcotest.(check bool)
              (init ^ " names the conversion: " ^ String.concat "; " msgs)
              true
              (List.exists (fun m -> Astring_contains.contains m conversion) msgs)
          | _ -> Alcotest.failf "%s must be rejected" init)
        [ architecture init; package init ])
    [
      ("color'succ(blue)", "T'VAL(3) out of range for COLOR");
      ("color'val(7)", "T'VAL(7) out of range for COLOR");
      ("color'pred(red)", "T'VAL(-1) out of range for COLOR");
    ]

(* a for-generate over a null range produces no instances *)
let test_null_range_generate () =
  let sim =
    simulate
      [
        {|
entity leaf is port (t : in bit); end leaf;
architecture r of leaf is begin end r;

entity tb is end tb;
architecture t of tb is
  component leaf port (t : in bit); end component;
  signal s : bit := '0';
begin
  g : for i in 0 to -1 generate
    u : leaf port map (t => s);
  end generate;
end t;
|};
      ]
  in
  let ns = Vhdl_compiler.name_server sim in
  Alcotest.(check int) "only the testbench instance" 1
    (List.length (Name_server.instances ns))

(* a null-range for loop body never runs *)
let test_null_range_loop () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal n : integer := 0;
begin
  p : process
    variable acc : integer := 7;
  begin
    for i in 5 to 4 loop
      acc := 0;
    end loop;
    for i in 3 downto 4 loop
      acc := 0;
    end loop;
    n <= acc;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:N" 7

(* record aggregates with named field association, any order *)
let test_record_named_aggregate () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  type pt is record
    x : integer;
    y : integer;
  end record;
  signal mag : integer := 0;
begin
  p : process
    variable p1 : pt := (y => 4, x => 3);
  begin
    mag <= p1.x * p1.x + p1.y * p1.y;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:MAG" 25

(* array attributes on unconstrained formals come from the actual *)
let test_attributes_of_unconstrained_formal () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  function count_len (v : bit_vector) return integer is
  begin
    return v'length * 100 + v'left * 10 + v'right;
  end count_len;
  signal a : integer := 0;
  signal b : integer := 0;
begin
  p : process
    variable v1 : bit_vector (0 to 4) := "10101";
    variable v2 : bit_vector (3 to 6) := "1111";
  begin
    a <= count_len(v1);   -- 5,0,4 -> 504
    b <= count_len(v2);   -- 4,3,6 -> 436
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:A" 504;
  check_int sim ":tb:B" 436

(* wait until with a timeout: whichever comes first *)
let test_wait_until_with_timeout () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal go : bit := '0';
  signal woke_by_signal : integer := 0;
  signal woke_by_timeout : integer := 0;
begin
  go <= '1' after 5 ns;
  fast : process
  begin
    wait until go = '1' for 100 ns;    -- signal wins at 5 ns
    if go = '1' then woke_by_signal <= 1; end if;
    wait;
  end process;
  slow : process
  begin
    wait until go = '0' for 8 ns;      -- never true again: timeout at 8 ns
    woke_by_timeout <= 1;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:WOKE_BY_SIGNAL" 1;
  check_int sim ":tb:WOKE_BY_TIMEOUT" 1

(* an out parameter of a function is illegal *)
let test_function_out_param_rejected () =
  expect_compile_error
    "entity tb is end tb;\narchitecture t of tb is\n  function f (x : out integer) return integer is\n  begin\n    x := 1;\n    return 1;\n  end f;\nbegin\nend t;"

(* overload resolution picks by result type where operands are ambiguous *)
let test_result_type_resolution () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  type duo is (aa, bb);
  type uno is (bb, cc);
  signal d : duo := aa;
  signal u : uno := cc;
begin
  p : process
  begin
    d <= bb;   -- the literal alone is ambiguous; the target type decides
    u <= bb;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:D" 1;
  check_int sim ":tb:U" 0

(* slices inherit the direction they name, independent of the base *)
let test_slice_direction () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal l : integer := 0;
  signal r : integer := 0;
begin
  p : process
    variable v : bit_vector (7 downto 0) := "10000001";
    variable s : bit_vector (5 downto 2);
  begin
    s := v(5 downto 2);
    l <= s'left;
    r <= s'right;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:L" 5;
  check_int sim ":tb:R" 2

(* LRM 2.3: functions may be overloaded on the result type alone *)
let test_result_type_overloading () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  function zero return integer is
  begin
    return 7;
  end zero;
  function zero return bit is
  begin
    return '1';
  end zero;
  signal n : integer := 0;
  signal b : bit := '0';
begin
  p : process
  begin
    n <= zero;
    b <= zero;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:N" 7;
  check_int sim ":tb:B" 1

(* the result of a function call indexes like any array value *)
let test_indexing_function_results () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  type quad is array (0 to 3) of integer;
  function ramp (base : integer) return quad is
    variable r : quad;
  begin
    for i in 0 to 3 loop
      r(i) := base + i;
    end loop;
    return r;
  end ramp;
  signal s : integer := 0;
begin
  p : process begin s <= ramp(10)(2); wait; end process;
end t;
|};
      ]
  in
  check_int sim ":tb:S" 12

let test_nested_records_and_arrays_of_records () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  type inner is record a : integer; end record;
  type outer is record i : inner; b : integer; end record;
  type pt is record x : integer; y : integer; end record;
  type pts is array (0 to 2) of pt;
  signal s1 : integer := 0;
  signal s2 : integer := 0;
begin
  p : process
    variable o : outer := (i => (a => 5), b => 6);
    variable a : pts := ((1, 2), (3, 4), (5, 6));
  begin
    o.i.a := o.i.a + 100;
    s1 <= o.i.a + o.b;
    a(1).y := 40;
    s2 <= a(0).x + a(1).y + a(2).x;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:S1" 111;
  check_int sim ":tb:S2" 46

(* TIME is a physical type: time/time is a pure integer, time*int scales *)
let test_physical_arithmetic_laws () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal ratio : integer := 0;
  signal scaled_ok : integer := 0;
begin
  p : process
    constant a : time := 100 ns;
    constant b : time := 40 ns;
  begin
    ratio <= a / b;
    if a * 2 = 200 ns and 2 * b = 80 ns then scaled_ok <= 1; end if;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:RATIO" 2;
  check_int sim ":tb:SCALED_OK" 1

let test_enum_case_ranges_and_others_aggregate () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  type st is (a, b, c, d, e);
  type vec is array (0 to 4) of integer;
  signal s : integer := 0;
  signal agg : integer := 0;
begin
  p : process
    variable v : st := d;
    variable r : integer := 0;
    variable w : vec := (2 => 9, others => 1);
  begin
    case v is
      when a to c => r := 1;
      when d => r := 2;
      when others => r := 3;
    end case;
    s <= r;
    agg <= w(0) + w(2) + w(4);
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:S" 2;
  check_int sim ":tb:AGG" 11

(* default generics apply when no actual is given; in ports may be left
   open when the formal has a default (LRM 1.1.1.2) *)
let test_defaults_and_open_ports () =
  let sim =
    simulate
      [
        {|
entity amp is
  generic (gain : integer := 3);
  port (x : in integer; y : out integer);
end amp;
architecture r of amp is
begin
  y <= x * gain;
end r;

entity src is
  port (enable : in bit := '1'; q : out integer);
end src;
architecture r of src is
begin
  q <= 9 when enable = '1' else 0;
end r;

entity tb is end tb;
architecture t of tb is
  component amp
    generic (gain : integer := 3);
    port (x : in integer; y : out integer);
  end component;
  component src
    port (enable : in bit := '1'; q : out integer);
  end component;
  signal stim : integer := 5;
  signal dflt : integer := 0;
  signal expl : integer := 0;
  signal v : integer := 0;
begin
  u1 : amp port map (x => stim, y => dflt);
  u2 : amp generic map (gain => 10) port map (x => stim, y => expl);
  u3 : src port map (enable => open, q => v);
end t;
|};
      ]
  in
  check_int sim ":tb:DFLT" 15;
  check_int sim ":tb:EXPL" 50;
  check_int sim ":tb:V" 9

let test_2d_signal_element_assignment () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  type m2 is array (0 to 1, 0 to 1) of integer;
  signal g : m2 := ((1, 2), (3, 4));
  signal s : integer := 0;
begin
  p : process
  begin
    g(0, 1) <= 20;
    wait for 1 ns;
    s <= g(0, 1) + g(1, 0);
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:S" 23

(* §3.2's hard case: a conversion function in an association list is
   diagnosed, not silently frozen at elaboration *)
let test_conversion_actual_diagnosed () =
  let c = Vhdl_compiler.create () in
  match
    Vhdl_compiler.compile c
      {|
entity sink is port (x : in integer); end sink;
architecture r of sink is begin end r;
entity tb is end tb;
architecture t of tb is
  component sink port (x : in integer); end component;
  function conv (b : bit) return integer is
  begin
    if b = '1' then return 1; else return 0; end if;
  end conv;
  signal s : bit := '0';
begin
  u : sink port map (x => conv(s));
end t;
|}
  with
  | exception Vhdl_compiler.Compile_error msgs ->
    let text = Format.asprintf "%a" Diag.pp_list msgs in
    Alcotest.(check bool) "conversion diagnosed" true
      (Astring_contains.contains text "conversion functions in association lists")
  | _ -> Alcotest.fail "expected the section-3.2 diagnostic"

(* port modes beyond in/out: buffer reads back, inout drives both ways;
   'EVENT crosses the port association *)
let test_port_modes_and_events () =
  let sim =
    simulate
      [
        {|
entity cnt is
  port (clk : in bit; q : buffer integer);
end cnt;
architecture r of cnt is
begin
  p : process (clk)
  begin
    if clk = '1' then
      q <= q + 1;
    end if;
  end process;
end r;

entity bump is
  port (v : inout integer);
end bump;
architecture r of bump is
begin
  p : process
  begin
    wait for 2 ns;
    v <= v + 5;
    wait;
  end process;
end r;

entity det is
  port (d : in bit; n : out integer);
end det;
architecture r of det is
begin
  p : process (d)
    variable c : integer := 0;
  begin
    if d'event and d = '1' then
      c := c + 1;
    end if;
    n <= c;
  end process;
end r;

entity tb is end tb;
architecture t of tb is
  component cnt port (clk : in bit; q : buffer integer); end component;
  component bump port (v : inout integer); end component;
  component det port (d : in bit; n : out integer); end component;
  signal clk : bit := '0';
  signal n : integer := 0;
  signal x : integer := 37;
  signal d : bit := '0';
  signal edges : integer := 0;
begin
  clock : process begin clk <= not clk after 5 ns; wait for 5 ns; end process;
  u1 : cnt port map (clk => clk, q => n);
  u2 : bump port map (v => x);
  d <= '1' after 10 ns, '0' after 20 ns, '1' after 30 ns;
  u3 : det port map (d => d, n => edges);
end t;
|};
      ]
  in
  check_int sim ":tb:N" 10;
  check_int sim ":tb:X" 42;
  check_int sim ":tb:EDGES" 2

(* wait statements are legal inside procedures called from processes *)
let test_wait_inside_procedure () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  procedure tick (signal clk : out bit) is
  begin
    clk <= '1';
    wait for 5 ns;
    clk <= '0';
    wait for 5 ns;
  end tick;
  signal clk : bit := '0';
  signal cycles : integer := 0;
begin
  gen : process
    variable n : integer := 0;
  begin
    while n < 3 loop
      tick(clk);
      n := n + 1;
    end loop;
    cycles <= n;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:CYCLES" 3

(* variable assignments respect the target's subtype constraint *)
let test_variable_constraint_checked () =
  let c = Vhdl_compiler.create () in
  ignore
    (Vhdl_compiler.compile c
       {|
entity tb is end tb;
architecture t of tb is
  type color is (red, orange, yellow, green, blue);
  subtype warm is color range red to yellow;
begin
  p : process
    variable w : warm := red;
  begin
    w := green;
    wait;
  end process;
end t;
|});
  let sim = Vhdl_compiler.elaborate c ~top:"tb" () in
  match Vhdl_compiler.run c sim ~max_ns:10 with
  | exception Rt.Simulation_error _ -> ()
  | _ -> Alcotest.fail "assignment outside the subtype must raise"

(* package-declared signals are globally shared *)
let test_package_signals () =
  let sim =
    simulate
      [
        {|
package bus_pkg is
  signal shared_count : integer := 100;
end bus_pkg;
|};
        {|
use work.bus_pkg.all;
entity tb is end tb;
architecture t of tb is
  signal local_copy : integer := 0;
begin
  p : process
  begin
    shared_count <= shared_count + 1;
    wait for 1 ns;
    local_copy <= shared_count;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:LOCAL_COPY" 101

(* slice aliases would silently alias the whole object: rejected *)
let test_partial_alias_rejected () =
  expect_compile_error
    "entity tb is end tb;
architecture t of tb is
  signal word : bit_vector (7 downto 0);
  alias hi : bit_vector (7 downto 4) is word (7 downto 4);
begin
end t;"

(* loop parameters are constants (LRM 8.8) *)
let test_loop_parameter_not_assignable () =
  expect_compile_error
    "entity tb is end tb;\narchitecture t of tb is\nbegin\n  p : process\n  begin\n    for i in 0 to 3 loop\n      i := 5;\n    end loop;\n    wait;\n  end process;\nend t;"

(* LRM 4.3.1.2: a signal initialiser may call user functions; the value is
   computed at elaboration *)
let test_signal_initialiser_calls_functions () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  function pick return integer is
  begin
    return 33;
  end pick;
  signal s : integer := pick;
  signal ok : integer := 0;
begin
  p : process begin if s = 33 then ok <= 1; end if; wait; end process;
end t;
|};
      ]
  in
  check_int sim ":tb:OK" 1

let test_arch_constant_calls_functions () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  function pick return integer is
  begin
    return 55;
  end pick;
  constant c : integer := pick;
  signal ok : integer := 0;
begin
  p : process begin if c = 55 then ok <= 1; end if; wait; end process;
end t;
|};
      ]
  in
  check_int sim ":tb:OK" 1

(* scalar type attributes have the attributed type; labeled concurrent
   assertions parse and fire on their signal's events *)
let test_scalar_type_attributes () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  type small is range 3 to 19;
  subtype mid is small range 5 to 9;
  signal a : integer := 0;
  signal b : integer := 0;
begin
  check : assert a >= 0 report "negative" severity note;
  p : process
  begin
    a <= integer(small'high) - integer(small'low);
    b <= integer(mid'high) + integer(mid'low);
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:A" 16;
  check_int sim ":tb:B" 14

(* all concurrent statement forms take labels; the classic delta-cycle
   swap reads both old values *)
let test_labels_and_delta_swap () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal a : integer := 0;
  signal b : integer := 0;
  signal c : integer := 0;
  signal x : integer := 1;
  signal y : integer := 2;
  signal done_x : integer := 0;
  signal done_y : integer := 0;
begin
  drv_a : a <= 5;
  drv_b : b <= a + 1 when a > 0 else 0;
  drv_c : with a select
    c <= 10 when 5, 20 when others;
  p1 : process
  begin
    x <= y;
    y <= x;
    wait for 1 ns;
    done_x <= x;
    done_y <= y;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:A" 5;
  check_int sim ":tb:B" 6;
  check_int sim ":tb:C" 10;
  check_int sim ":tb:DONE_X" 2;
  check_int sim ":tb:DONE_Y" 1

(* literal syntax corners: based bit strings with underscores, character
   choices, the full logical operator set *)
let test_literal_corners () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal n : integer := 0;
  signal m : integer := 0;
begin
  p : process
    variable ch : character := 'b';
    variable v : bit_vector (0 to 7) := B"1010_0001";
    variable x : bit_vector (0 to 7) := X"A1";
    variable o : bit_vector (0 to 8) := O"241";
    variable cnt : integer := 0;
    variable r : integer := 0;
  begin
    if v = x then cnt := cnt + 1; end if;
    if o(1 to 8) = x then cnt := cnt + 1; end if;
    n <= cnt;
    case ch is
      when 'a' => r := 1;
      when 'b' => r := 2;
      when others => r := 3;
    end case;
    m <= r;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:N" 2;
  check_int sim ":tb:M" 2

(* slice actuals in port maps: in slices follow the parent, out slices
   drive disjoint parts of the parent through per-element drivers *)
let test_slice_port_actuals () =
  let sim =
    simulate
      [
        {|
entity chew is port (pair : in bit_vector (0 to 1); q : out integer); end chew;
architecture r of chew is
begin
  q <= 1 when pair = "11" else 0;
end r;

entity nib_src is
  port (q : out bit_vector (0 to 1));
end nib_src;
architecture r of nib_src is
begin
  q <= "10" after 2 ns;
end r;

entity tb is end tb;
architecture t of tb is
  component chew port (pair : in bit_vector (0 to 1); q : out integer); end component;
  component nib_src port (q : out bit_vector (0 to 1)); end component;
  signal word : bit_vector (0 to 3) := "0110";
  signal got : integer := 0;
  signal assembled : bit_vector (0 to 3) := "0000";
  signal ok : integer := 0;
begin
  u : chew port map (pair => word(1 to 2), q => got);
  hi : nib_src port map (q => assembled(0 to 1));
  lo : nib_src port map (q => assembled(2 to 3));
  watch : process
  begin
    wait for 5 ns;
    if assembled = "1010" then ok <= 1; end if;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:GOT" 1;
  check_int sim ":tb:OK" 1

(* conditional assignments with multi-element waveforms; guards reading
   signals; lexicographic ordering on integer arrays *)
let test_waveforms_guards_ordering () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  type vec is array (1 to 3) of integer;
  signal sel : integer := 0;
  signal q : integer := 0;
  signal seen : integer := 0;
  signal en : integer := 0;
  signal gq : bit bus := '0';
  signal gseen : integer := 0;
  signal n : integer := 0;
begin
  q <= 1, 2 after 3 ns when sel = 0 else
       8, 9 after 3 ns;
  b : block (en > 2)
  begin
    gq <= guarded '1';
  end block;
  stim : process
  begin
    en <= 5 after 3 ns;
    wait for 6 ns;
    if gq = '1' then gseen <= 1; end if;
    seen <= q;
    wait;
  end process;
  p : process
    variable a : vec := (1, 2, 3);
    variable b2 : vec := (1, 2, 4);
    variable cnt : integer := 0;
  begin
    if a < b2 then cnt := cnt + 1; end if;
    if a /= b2 then cnt := cnt + 1; end if;
    if a <= a then cnt := cnt + 1; end if;
    n <= cnt;
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:SEEN" 2;
  check_int sim ":tb:GSEEN" 1;
  check_int sim ":tb:N" 3

(* access types (LRM 3.3): allocators, .all, aliasing, null, deallocate *)
let test_access_types () =
  let sim =
    simulate
      [
        {|
entity tb is end tb;
architecture t of tb is
  type int_ptr is access integer;
  type buf is array (0 to 3) of integer;
  type buf_ptr is access buf;
  signal a : integer := 0;
  signal b : integer := 0;
  signal flags : integer := 0;
  signal arr_sum : integer := 0;
begin
  p : process
    variable p1 : int_ptr;
    variable p2 : int_ptr;
    variable pb : buf_ptr;
    variable ok : integer := 0;
  begin
    p1 := new integer'(41);
    p1.all := p1.all + 1;
    a <= p1.all;
    p2 := p1;
    p2.all := 7;
    b <= p1.all;
    if p1 = p2 and p1 /= null then ok := ok + 1; end if;
    deallocate(p1);
    if p1 = null then ok := ok + 10; end if;
    flags <= ok;
    pb := new buf'(1, 2, 3, 4);
    pb.all(2) := 30;
    arr_sum <= pb.all(0) + pb.all(1) + pb.all(2) + pb.all(3);
    wait;
  end process;
end t;
|};
      ]
  in
  check_int sim ":tb:A" 42;
  check_int sim ":tb:B" 7;
  check_int sim ":tb:FLAGS" 11;
  check_int sim ":tb:ARR_SUM" 37

let test_null_dereference_raises () =
  let c = Vhdl_compiler.create () in
  ignore
    (Vhdl_compiler.compile c
       {|
entity tb is end tb;
architecture t of tb is
  type int_ptr is access integer;
begin
  p : process
    variable p1 : int_ptr;
    variable v : integer;
  begin
    v := p1.all;
    wait;
  end process;
end t;
|});
  let sim = Vhdl_compiler.elaborate c ~top:"tb" () in
  match Vhdl_compiler.run c sim ~max_ns:10 with
  | exception Rt.Simulation_error _ -> ()
  | _ -> Alcotest.fail "null dereference must raise"

let suite =
  [
    Alcotest.test_case "access types: allocators, .all, deallocate" `Quick
      test_access_types;
    Alcotest.test_case "null dereference raises" `Quick test_null_dereference_raises;
    Alcotest.test_case "waveform conditionals, guards, array ordering" `Quick
      test_waveforms_guards_ordering;
    Alcotest.test_case "slice actuals in port maps" `Quick test_slice_port_actuals;
    Alcotest.test_case "based bit strings and character choices" `Quick
      test_literal_corners;
    Alcotest.test_case "concurrent labels and the delta swap" `Quick
      test_labels_and_delta_swap;
    Alcotest.test_case "scalar type attributes, labeled asserts" `Quick
      test_scalar_type_attributes;
    Alcotest.test_case "loop parameters are not assignable" `Quick
      test_loop_parameter_not_assignable;
    Alcotest.test_case "signal initialisers may call functions" `Quick
      test_signal_initialiser_calls_functions;
    Alcotest.test_case "architecture constants may call functions" `Quick
      test_arch_constant_calls_functions;
    Alcotest.test_case "variable subtype constraints checked" `Quick
      test_variable_constraint_checked;
    Alcotest.test_case "package signals are shared" `Quick test_package_signals;
    Alcotest.test_case "partial aliases rejected" `Quick test_partial_alias_rejected;
    Alcotest.test_case "buffer/inout ports and port'event" `Quick
      test_port_modes_and_events;
    Alcotest.test_case "wait inside procedures" `Quick test_wait_inside_procedure;
    Alcotest.test_case "conversion functions in port maps diagnosed" `Quick
      test_conversion_actual_diagnosed;
    Alcotest.test_case "default generics and open ports" `Quick
      test_defaults_and_open_ports;
    Alcotest.test_case "2-D signal element assignment" `Quick
      test_2d_signal_element_assignment;
    Alcotest.test_case "function results index like arrays" `Quick
      test_indexing_function_results;
    Alcotest.test_case "nested records and arrays of records" `Quick
      test_nested_records_and_arrays_of_records;
    Alcotest.test_case "physical arithmetic laws" `Quick test_physical_arithmetic_laws;
    Alcotest.test_case "enum case ranges, others aggregates" `Quick
      test_enum_case_ranges_and_others_aggregate;
    Alcotest.test_case "overloading on the result type alone" `Quick
      test_result_type_overloading;
    Alcotest.test_case "integer / truncates toward zero" `Quick
      test_division_truncates_toward_zero;
    Alcotest.test_case "relational operators do not associate" `Quick
      test_relations_do_not_associate;
    Alcotest.test_case "'SUCC at the bound raises" `Quick test_succ_at_bound_raises;
    Alcotest.test_case "static 'VAL out of range is rejected" `Quick
      test_static_val_out_of_range_rejected;
    Alcotest.test_case "null-range generate produces nothing" `Quick
      test_null_range_generate;
    Alcotest.test_case "null-range loops never run" `Quick test_null_range_loop;
    Alcotest.test_case "record aggregates with named fields" `Quick
      test_record_named_aggregate;
    Alcotest.test_case "attributes of unconstrained formals" `Quick
      test_attributes_of_unconstrained_formal;
    Alcotest.test_case "wait until with timeout" `Quick test_wait_until_with_timeout;
    Alcotest.test_case "function out parameters rejected" `Quick
      test_function_out_param_rejected;
    Alcotest.test_case "target type disambiguates literals" `Quick
      test_result_type_resolution;
    Alcotest.test_case "slice bounds and direction" `Quick test_slice_direction;
  ]
