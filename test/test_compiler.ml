(* End-to-end tests: compile VHDL through the cascaded AGs, elaborate, and
   simulate; check waveforms, variables, and assert/report output. *)

let compile_all sources =
  let c = Vhdl_compiler.create () in
  List.iter (fun src -> ignore (Vhdl_compiler.compile c src)) sources;
  c

let simulate ?arch ?configuration ?(top = "TB") ?(ns = 1000) sources =
  let c = compile_all sources in
  let sim = Vhdl_compiler.elaborate ?arch ?configuration c ~top () in
  let _ = Vhdl_compiler.run c sim ~max_ns:ns in
  (c, sim)

let check_value sim path expected =
  match Name_server.find_signal (Vhdl_compiler.name_server sim) path with
  | Some s ->
    Alcotest.(check string) (path ^ " value") expected
      (Value.image ~ty:s.Rt.sig_ty s.Rt.current)
  | None -> Alcotest.failf "no signal %s" path

let expect_errors sources =
  let c = Vhdl_compiler.create () in
  match List.iter (fun src -> ignore (Vhdl_compiler.compile c src)) sources with
  | () -> Alcotest.fail "expected compile errors"
  | exception Vhdl_compiler.Compile_error _ -> ()

(* ------------------------------------------------------------------ *)

let test_signal_assignment_and_delay () =
  let _, sim =
    simulate ~ns:100
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal a : bit := '0';
  signal b : bit := '0';
begin
  p : process
  begin
    a <= '1' after 10 ns;
    wait for 30 ns;
    a <= '0';
    wait;
  end process;
  b <= a after 2 ns;
end t;
|};
      ]
  in
  let history = Vhdl_compiler.history sim ":tb:A" in
  Alcotest.(check int) "a changes twice (plus initial)" 3 (List.length history);
  (match history with
  | [ (0, _); (t1, v1); (t2, v2) ] ->
    Alcotest.(check int) "rise at 10 ns" (10 * Rt.ns) t1;
    Alcotest.(check string) "to 1" "'1'" (Value.image ~ty:Std.bit v1);
    Alcotest.(check int) "fall at 30 ns" (30 * Rt.ns) t2;
    Alcotest.(check string) "to 0" "'0'" (Value.image ~ty:Std.bit v2)
  | _ -> Alcotest.fail "unexpected history shape");
  let b_history = Vhdl_compiler.history sim ":tb:B" in
  Alcotest.(check int) "b follows with 2 ns delay" 3 (List.length b_history)

let test_variables_and_arithmetic () =
  let _, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal result : integer := 0;
begin
  p : process
    variable x : integer := 7;
    variable y : integer := 3;
  begin
    x := x * y + 2;      -- 23
    y := x mod 5;        -- 3
    x := x ** 2 - y;     -- 526
    result <= x + y;     -- 529
    wait;
  end process;
end t;
|};
      ]
  in
  check_value sim ":tb:RESULT" "529"

let test_if_case_loops () =
  let _, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal fib10 : integer := 0;
  signal classified : integer := 0;
begin
  p : process
    variable a : integer := 0;
    variable b : integer := 1;
    variable t : integer;
  begin
    for i in 1 to 10 loop
      t := a + b;
      a := b;
      b := t;
    end loop;
    fib10 <= a;                 -- fib(10) = 55
    case a is
      when 0 to 10   => classified <= 1;
      when 11 | 12   => classified <= 2;
      when 55        => classified <= 3;
      when others    => classified <= 4;
    end case;
    wait;
  end process;
end t;
|};
      ]
  in
  check_value sim ":tb:FIB10" "55";
  check_value sim ":tb:CLASSIFIED" "3"

let test_while_exit_next () =
  let _, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal odd_sum : integer := 0;
begin
  p : process
    variable i : integer := 0;
    variable acc : integer := 0;
  begin
    while true loop
      i := i + 1;
      exit when i > 10;
      next when i mod 2 = 0;
      acc := acc + i;          -- 1+3+5+7+9 = 25
    end loop;
    odd_sum <= acc;
    wait;
  end process;
end t;
|};
      ]
  in
  check_value sim ":tb:ODD_SUM" "25"

let test_functions_and_procedures () =
  let _, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal fact5 : integer := 0;
  signal swapped : integer := 0;
begin
  p : process
    -- recursive function
    function fact (n : integer) return integer is
    begin
      if n <= 1 then
        return 1;
      else
        return n * fact(n - 1);
      end if;
    end fact;
    -- procedure with out parameters
    procedure swap (a : inout integer; b : inout integer) is
      variable t : integer;
    begin
      t := a;
      a := b;
      b := t;
    end swap;
    variable x : integer := 3;
    variable y : integer := 40;
  begin
    fact5 <= fact(5);
    swap(x, y);
    swapped <= x;              -- 40 after the swap
    wait;
  end process;
end t;
|};
      ]
  in
  check_value sim ":tb:FACT5" "120";
  check_value sim ":tb:SWAPPED" "40"

let test_types_arrays_records () =
  let _, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
  type word is array (0 to 7) of bit;
  type pair is record
    x : integer;
    y : integer;
  end record;
  signal w : word := "00000000";
  signal total : integer := 0;
begin
  p : process
    variable v : word := "10110001";
    variable p : pair := (x => 10, y => 32);
    variable n : integer := 0;
  begin
    v(0) := '0';
    v(7) := '1';
    for i in 0 to 7 loop
      if v(i) = '1' then
        n := n + 1;
      end if;
    end loop;
    w <= v;
    total <= n + p.x + p.y;    -- 3 ones + 42
    wait;
  end process;
end t;
|};
      ]
  in
  check_value sim ":tb:TOTAL" "45"

let test_enumeration_and_attributes () =
  let _, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
  type color is (red, green, blue, yellow);
  signal n_colors : integer := 0;
  signal succ_of_red : integer := 0;
begin
  p : process
    variable c : color := red;
  begin
    n_colors <= color'pos(color'high) + 1;
    c := color'succ(c);
    succ_of_red <= color'pos(c);
    wait;
  end process;
end t;
|};
      ]
  in
  check_value sim ":tb:N_COLORS" "4";
  check_value sim ":tb:SUCC_OF_RED" "1"

let test_packages_and_use () =
  let _, sim =
    simulate ~ns:10
      [
        {|
package utils is
  constant width : integer := 8;
  function double (x : integer) return integer;
end utils;

package body utils is
  function double (x : integer) return integer is
  begin
    return x * 2;
  end double;
end utils;
|};
        {|
use work.utils.all;
entity tb is end tb;
architecture t of tb is
  signal r : integer := 0;
begin
  p : process
  begin
    r <= double(width) + 1;   -- 17
    wait;
  end process;
end t;
|};
      ]
  in
  check_value sim ":tb:R" "17"

let test_component_hierarchy_and_generics () =
  let _, sim =
    simulate ~ns:100
      [
        {|
entity delay_inv is
  generic (d : integer := 1);
  port (a : in bit; y : out bit);
end delay_inv;

architecture rtl of delay_inv is
begin
  y <= not a after d * 1 ns;
end rtl;

entity tb is end tb;

architecture t of tb is
  component delay_inv
    generic (d : integer := 1);
    port (a : in bit; y : out bit);
  end component;
  signal src : bit := '0';
  signal fast : bit;
  signal slow : bit;
begin
  u_fast : delay_inv generic map (d => 1) port map (a => src, y => fast);
  u_slow : delay_inv generic map (d => 7) port map (a => src, y => slow);
  src <= '1' after 10 ns;
end t;
|};
      ]
  in
  let fast = Vhdl_compiler.history sim ":tb:FAST" in
  let slow = Vhdl_compiler.history sim ":tb:SLOW" in
  (* both invert '0'->'1' at t=0 (delta+delay), then '1'->'0' after src rises *)
  let final lst = List.nth lst (List.length lst - 1) in
  let tf, _ = final fast and ts, _ = final slow in
  Alcotest.(check int) "fast final edge at 11 ns" (11 * Rt.ns) tf;
  Alcotest.(check int) "slow final edge at 17 ns" (17 * Rt.ns) ts

let test_conditional_and_selected_assignment () =
  let _, sim =
    simulate ~ns:50
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal sel : integer := 0;
  signal cond_out : integer := 0;
  signal sel_out : integer := 0;
begin
  sel <= 2 after 10 ns;
  cond_out <= 100 when sel = 0 else
              200 when sel = 1 else
              300;
  with sel select
    sel_out <= 11 when 0,
               22 when 1,
               33 when 2,
               44 when others;
end t;
|};
      ]
  in
  check_value sim ":tb:COND_OUT" "300";
  check_value sim ":tb:SEL_OUT" "33"

let test_wait_until_and_event () =
  let _, sim =
    simulate ~ns:100
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal clk : bit := '0';
  signal edges : integer := 0;
  signal done_at : integer := 0;
begin
  clock : process
  begin
    clk <= not clk after 5 ns;
    wait for 5 ns;
  end process;
  counter : process (clk)
    variable n : integer := 0;
  begin
    if clk'event and clk = '1' then
      n := n + 1;
      edges <= n;
    end if;
  end process;
  watcher : process
  begin
    wait until edges = 5;
    done_at <= 1;
    wait;
  end process;
end t;
|};
      ]
  in
  check_value sim ":tb:DONE_AT" "1";
  (* rising edges at 5,15,25,...: edge 5 at 45 ns *)
  match
    List.find_opt (fun (_, v) -> Value.equal v (Value.Vint 5)) (Vhdl_compiler.history sim ":tb:EDGES")
  with
  | Some (t, _) -> Alcotest.(check int) "5th edge at 45 ns" (45 * Rt.ns) t
  | None -> Alcotest.fail "edges never reached 5"

let test_assert_report () =
  let c, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
begin
  p : process
  begin
    assert 1 + 1 = 2 report "math is broken" severity failure;
    assert false report "expected note" severity note;
    assert false report "expected warning" severity warning;
    wait;
  end process;
end t;
|};
      ]
  in
  ignore c;
  let msgs = Vhdl_compiler.messages sim in
  Alcotest.(check int) "two messages" 2 (List.length msgs);
  (match msgs with
  | [ (_, sev1, m1); (_, sev2, m2) ] ->
    Alcotest.(check int) "note severity" 0 sev1;
    Alcotest.(check string) "note text" "expected note" m1;
    Alcotest.(check int) "warning severity" 1 sev2;
    Alcotest.(check string) "warning text" "expected warning" m2
  | _ -> Alcotest.fail "unexpected messages")

let test_severity_failure_stops () =
  let _, sim =
    simulate ~ns:100
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal after_stop : integer := 0;
begin
  p : process
  begin
    wait for 5 ns;
    assert false report "fatal" severity failure;
    wait for 5 ns;
    after_stop <= 1;
    wait;
  end process;
end t;
|};
      ]
  in
  check_value sim ":tb:AFTER_STOP" "0";
  let failures = (Kernel.stats (Vhdl_compiler.kernel sim)).Kernel.severities.Kernel.failures in
  Alcotest.(check int) "one failure" 1 failures

let test_transport_vs_inertial () =
  let _, sim =
    simulate ~ns:100
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal pulse : bit := '0';
  signal inert : bit := '0';
  signal trans : bit := '0';
begin
  stimulus : process
  begin
    pulse <= '1' after 10 ns;   -- schedule rise
    pulse <= '0' after 5 ns;    -- inertial overwrite cancels the rise
    wait for 20 ns;
    inert <= '1' after 4 ns;
    inert <= '0' after 2 ns;    -- cancels the 4 ns one (inertial)
    trans <= transport '1' after 4 ns;
    trans <= transport '0' after 2 ns;  -- transport keeps... both? earlier only
    wait;
  end process;
end t;
|};
      ]
  in
  (* inertial: the second assignment cancels the first; pulse never rises *)
  let pulse = Vhdl_compiler.history sim ":tb:PULSE" in
  Alcotest.(check int) "pulse stays 0" 1 (List.length pulse)

let test_latest_architecture_default () =
  (* the paper's §3.3 default rule: the LATEST compiled architecture wins *)
  let c = compile_all [ Workload.multi_arch_library ~archs:3 ] in
  ignore
    (Vhdl_compiler.compile c
       {|
entity tb is end tb;
architecture t of tb is
  component CELL
    port (a : in bit; y : out bit);
  end component;
  signal s : bit := '0';
  signal q : bit;
begin
  u : CELL port map (a => s, y => q);
end t;
|});
  let sim = Vhdl_compiler.elaborate c ~top:"TB" () in
  let _ = Vhdl_compiler.run c sim ~max_ns:50 in
  (* A2 (delay 3 ns) was compiled last: q = not '0' = '1' at 3 ns *)
  match Vhdl_compiler.history sim ":tb:Q" with
  | _ :: (t, v) :: _ ->
    Alcotest.(check int) "latest arch (A2, 3 ns) bound" (3 * Rt.ns) t;
    Alcotest.(check bool) "q is 1" true (Value.equal v (Value.Venum 1))
  | _ -> Alcotest.fail "no q event"

let test_configuration_unit_binding () =
  let netlist, config = Workload.config_workload ~instances:3 () in
  let c = compile_all [ Workload.multi_arch_library ~archs:3; netlist; config ] in
  let sim = Vhdl_compiler.elaborate c ~top:"BOARD" ~configuration:"CFG" () in
  let _ = Vhdl_compiler.run c sim ~max_ns:50 in
  (* instance c1 is bound to A1 (delay 2 ns) by the configuration, not A2 *)
  match Vhdl_compiler.history sim ":board:N1" with
  | _ :: (t, _) :: _ -> Alcotest.(check int) "c1 bound to A1 (2 ns)" (2 * Rt.ns) t
  | _ -> Alcotest.fail "no event on n1"

let test_guarded_block () =
  let _, sim =
    simulate ~ns:100
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal enable : bit := '0';
  signal d : integer := 1;
  signal q : integer := 0;
begin
  b : block (enable = '1')
  begin
    q <= guarded d;
  end block;
  stim : process
  begin
    wait for 10 ns;
    d <= 42;
    wait for 10 ns;
    enable <= '1';      -- now the guarded assignment drives q
    wait for 10 ns;
    d <= 7;
    wait;
  end process;
end t;
|};
      ]
  in
  check_value sim ":tb:Q" "7";
  (* q must not have changed before enable *)
  match Vhdl_compiler.history sim ":tb:Q" with
  | (0, _) :: (t, _) :: _ ->
    Alcotest.(check bool) "first q change after enable (>= 20 ns)" true (t >= 20 * Rt.ns)
  | _ -> Alcotest.fail "expected q changes"

let test_resolution_function () =
  let _, sim =
    simulate ~ns:50
      [
        {|
package rlib is
  function wired_or (v : bit_vector) return bit;
end rlib;

package body rlib is
  function wired_or (v : bit_vector) return bit is
  begin
    for i in 0 to v'length - 1 loop
      if v(i) = '1' then
        return '1';
      end if;
    end loop;
    return '0';
  end wired_or;
end rlib;
|};
        {|
use work.rlib.all;
entity tb is end tb;
architecture t of tb is
  signal bus_line : wired_or bit := '0';
begin
  d1 : process
  begin
    bus_line <= '0';
    wait for 10 ns;
    bus_line <= '1';
    wait;
  end process;
  d2 : process
  begin
    bus_line <= '0';
    wait;
  end process;
end t;
|};
      ]
  in
  (* two drivers; wired-or resolves to '1' once d1 drives '1' *)
  check_value sim ":tb:BUS_LINE" "'1'"

let test_vif_roundtrip_separate_compilation () =
  Tmp_dir.with_dir "vhdlvif" @@ fun dir ->
  (* first compiler instance writes the library *)
  let c1 = Vhdl_compiler.create ~work_dir:dir () in
  ignore
    (Vhdl_compiler.compile c1
       {|
package p is
  constant k : integer := 21;
  function twice (x : integer) return integer;
end p;
package body p is
  function twice (x : integer) return integer is
  begin
    return 2 * x;
  end twice;
end p;
|});
  ignore (Vhdl_compiler.compile c1 (Workload.gate_entity ~name:"G1"));
  (* a second compiler instance reads the VIF back (foreign references) *)
  let c2 = Vhdl_compiler.create ~work_dir:dir () in
  ignore
    (Vhdl_compiler.compile c2
       {|
use work.p.all;
entity tb is end tb;
architecture t of tb is
  signal r : integer := 0;
begin
  pr : process
  begin
    r <= twice(k);
    wait;
  end process;
end t;
|});
  let sim = Vhdl_compiler.elaborate c2 ~top:"TB" () in
  let _ = Vhdl_compiler.run c2 sim ~max_ns:10 in
  check_value sim ":tb:R" "42";
  (* the human-readable dump exists and mentions the function *)
  (match Library.dump (Vhdl_compiler.work_library c2) ~library:"WORK" ~key:"body:P" with
  | Some text ->
    Alcotest.(check bool) "dump mentions TWICE" true
      (Astring_contains.contains text "TWICE")
  | None -> Alcotest.fail "no VIF dump for package body P");
  ()

(* A compile depends only on its inputs: compiling A, then B, then A again
   in one process, each with a fresh compiler on a fresh disk library,
   reproduces A's VIF (sequence stamps and anonymous labels included), its
   diagnostics and its unit report's node ids byte for byte. *)
let test_compile_is_history_independent () =
  let design_a =
    {|
entity inv is
  port (a : in bit; y : out bit);
end inv;
architecture rtl of inv is
  signal t : bit;
begin
  t <= not a;
  y <= t after 1 ns;
  assert a = '0' or t = '0';
end rtl;
architecture bad of inv is
begin
  y <= undeclared;
end bad;
|}
  in
  let run src =
    Tmp_dir.with_dir "vhdlhist" @@ fun dir ->
    let c = Vhdl_compiler.create ~work_dir:dir () in
    let units = Vhdl_compiler.compile ~fail_on_error:false c src in
    let dump (u : Unit_info.compiled_unit) =
      Option.get
        (Library.dump (Vhdl_compiler.work_library c) ~library:"WORK" ~key:u.Unit_info.u_key)
    in
    ( String.concat "\n" (List.map dump units),
      List.map (Format.asprintf "%a" Diag.pp) (Vhdl_compiler.diagnostics c),
      List.map
        (fun r -> Printf.sprintf "%s n%d" r.Supervisor.ur_name r.Supervisor.ur_node)
        (Vhdl_compiler.last_report c) )
  in
  let vif, diags, report = run design_a in
  ignore (run (Workload.behavioral ~name:"B" ~states:4 ~exprs:6));
  let vif', diags', report' = run design_a in
  Alcotest.(check bool) "A produced VIF" true (vif <> "");
  Alcotest.(check bool) "A produced diagnostics" true (diags <> []);
  Alcotest.(check string) "VIF dump" vif vif';
  Alcotest.(check (list string)) "diagnostics" diags diags';
  Alcotest.(check (list string)) "unit report node ids" report report'

let test_diagnostics () =
  expect_errors [ "entity tb is end tb;\narchitecture t of tb is\nbegin\n  p : process begin\n    undeclared_sig <= 1;\n    wait;\n  end process;\nend t;" ];
  expect_errors [ "entity tb is end tb;\narchitecture t of tb is\n  signal s : bit;\nbegin\n  s <= 42;\nend t;" ];
  expect_errors
    [ "entity tb is end tb;\narchitecture t of tb is\n  signal s : nosuchtype;\nbegin\nend t;" ]

let test_physical_time_arithmetic () =
  let _, sim =
    simulate ~ns:100
      [
        {|
entity tb is end tb;
architecture t of tb is
  constant half_period : time := 5 ns;
  signal s : bit := '0';
begin
  p : process
  begin
    s <= '1' after 2 * half_period + 500 ps;
    wait;
  end process;
end t;
|};
      ]
  in
  match Vhdl_compiler.history sim ":tb:S" with
  | [ _; (t, _) ] -> Alcotest.(check int) "10.5 ns" (10 * Rt.ns + 500_000) t
  | _ -> Alcotest.fail "expected one event on s"

let test_downto_and_slices () =
  let _, sim =
    simulate ~ns:50
      [
        {|
entity tb is end tb;
architecture t of tb is
  type word is array (7 downto 0) of bit;
  signal w : word := "00000000";
  signal ones : integer := 0;
begin
  p : process
    variable v : word := "11000011";
    variable n : integer := 0;
  begin
    -- slice assignment on a downto array
    v(5 downto 2) := "1111";
    w <= v;
    for i in 0 to 7 loop
      if v(i) = '1' then
        n := n + 1;
      end if;
    end loop;
    ones <= n;
    wait;
  end process;
end t;
|};
      ]
  in
  check_value sim ":tb:ONES" "8"

let test_signal_slice_assignment () =
  let _, sim =
    simulate ~ns:50
      [
        {|
entity tb is end tb;
architecture t of tb is
  type nib is array (0 to 3) of bit;
  signal w : nib := "0000";
begin
  p : process
  begin
    w(1 to 2) <= "11" after 5 ns;
    w(0) <= '1' after 10 ns;
    wait;
  end process;
end t;
|};
      ]
  in
  check_value sim ":tb:W" "\"1110\""

let test_multi_element_waveform () =
  let _, sim =
    simulate ~ns:100
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal s : integer := 0;
begin
  p : process
  begin
    s <= 1 after 10 ns, 2 after 20 ns, 3 after 30 ns;
    wait;
  end process;
end t;
|};
      ]
  in
  let h = Vhdl_compiler.history sim ":tb:S" in
  Alcotest.(check int) "three scheduled changes (plus initial)" 4 (List.length h);
  (match List.rev h with
  | (t3, v3) :: (t2, _) :: _ ->
    Alcotest.(check int) "last at 30 ns" (30 * Rt.ns) t3;
    Alcotest.(check bool) "value 3" true (Value.equal v3 (Value.Vint 3));
    Alcotest.(check int) "second at 20 ns" (20 * Rt.ns) t2
  | _ -> Alcotest.fail "bad history")

let test_wait_on_multiple_signals () =
  let _, sim =
    simulate ~ns:100
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal a : bit := '0';
  signal b : bit := '0';
  signal wakeups : integer := 0;
begin
  a <= '1' after 10 ns;
  b <= '1' after 20 ns;
  watcher : process
    variable n : integer := 0;
  begin
    wait on a, b;
    n := n + 1;
    wakeups <= n;
    wait on a, b;
    n := n + 1;
    wakeups <= n;
    wait;
  end process;
end t;
|};
      ]
  in
  check_value sim ":tb:WAKEUPS" "2"

let test_function_default_parameters () =
  let _, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal r1 : integer := 0;
  signal r2 : integer := 0;
begin
  p : process
    function scaled (x : integer; factor : integer := 10) return integer is
    begin
      return x * factor;
    end scaled;
  begin
    r1 <= scaled(5);
    r2 <= scaled(5, 3);
    wait;
  end process;
end t;
|};
      ]
  in
  check_value sim ":tb:R1" "50";
  check_value sim ":tb:R2" "15"

let test_record_signals () =
  let _, sim =
    simulate ~ns:50
      [
        {|
entity tb is end tb;
architecture t of tb is
  type point is record
    x : integer;
    y : integer;
  end record;
  signal p : point := (x => 1, y => 2);
  signal sum : integer := 0;
begin
  driver : process
  begin
    wait for 10 ns;
    p <= (x => 10, y => 20);
    wait;
  end process;
  reader : process (p)
  begin
    sum <= p.x + p.y;
  end process;
end t;
|};
      ]
  in
  check_value sim ":tb:SUM" "30"

let test_selected_with_range_choices () =
  let _, sim =
    simulate ~ns:50
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal grade : integer := 0;
  signal band : integer := 0;
begin
  grade <= 85 after 10 ns;
  with grade select
    band <= 1 when 0 to 49,
            2 when 50 to 79,
            3 when 80 to 100,
            0 when others;
end t;
|};
      ]
  in
  check_value sim ":tb:BAND" "3"

(* the paper singles this out: "references to up-level variables from
   within nested subprograms is supported in VHDL but not in C, and so the
   code generated by the VHDL compiler must implement this construct" *)
let test_uplevel_references () =
  let _, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal r : integer := 0;
begin
  p : process
    variable counter : integer := 0;
    -- nested subprogram reading AND writing the enclosing frame
    procedure bump (amount : in integer) is
      -- doubly nested: reads bump's parameter and p's variable
      function preview return integer is
      begin
        return counter + amount;
      end preview;
    begin
      counter := preview;
    end bump;
  begin
    bump(5);
    bump(7);
    bump(30);
    r <= counter;
    wait;
  end process;
end t;
|};
      ]
  in
  check_value sim ":tb:R" "42"

let test_fully_selected_names () =
  let _, sim =
    simulate ~ns:10
      [
        {|
package maths is
  constant base : integer := 20;
  function plus2 (x : integer) return integer;
end maths;
package body maths is
  function plus2 (x : integer) return integer is
  begin
    return x + 2;
  end plus2;
end maths;
|};
        {|
entity tb is end tb;
architecture t of tb is
  signal r : integer := 0;
begin
  p : process
  begin
    -- no use clause: fully selected through library and package
    r <= work.maths.plus2(work.maths.base);
    wait;
  end process;
end t;
|};
      ]
  in
  check_value sim ":tb:R" "22"

let test_labeled_loops () =
  let _, sim =
    simulate ~ns:10
      [
        {|
entity tb is end tb;
architecture t of tb is
  signal found_i : integer := 0;
  signal found_j : integer := 0;
begin
  p : process
    variable fi : integer := 0;
    variable fj : integer := 0;
  begin
    -- search a "matrix" for the first pair with i*j = 12, leaving BOTH
    -- loops via a labeled exit
    outer : for i in 1 to 6 loop
      for j in 1 to 6 loop
        next outer when i = 2;       -- skip row 2 entirely
        if i * j = 12 then
          fi := i;
          fj := j;
          exit outer;
        end if;
      end loop;
    end loop outer;
    found_i <= fi;
    found_j <= fj;
    wait;
  end process;
end t;
|};
      ]
  in
  (* row 2 is skipped, so the first hit is i=3, j=4 *)
  check_value sim ":tb:FOUND_I" "3";
  check_value sim ":tb:FOUND_J" "4"

let suite =
  [
    Alcotest.test_case "signal assignment with delay" `Quick test_signal_assignment_and_delay;
    Alcotest.test_case "variables and arithmetic" `Quick test_variables_and_arithmetic;
    Alcotest.test_case "if / case / for" `Quick test_if_case_loops;
    Alcotest.test_case "while / exit / next" `Quick test_while_exit_next;
    Alcotest.test_case "functions and procedures" `Quick test_functions_and_procedures;
    Alcotest.test_case "array and record types" `Quick test_types_arrays_records;
    Alcotest.test_case "enumerations and attributes" `Quick test_enumeration_and_attributes;
    Alcotest.test_case "packages and use clauses" `Quick test_packages_and_use;
    Alcotest.test_case "component hierarchy and generics" `Quick
      test_component_hierarchy_and_generics;
    Alcotest.test_case "conditional and selected assignment" `Quick
      test_conditional_and_selected_assignment;
    Alcotest.test_case "wait until and 'event" `Quick test_wait_until_and_event;
    Alcotest.test_case "assert and report" `Quick test_assert_report;
    Alcotest.test_case "severity failure stops simulation" `Quick test_severity_failure_stops;
    Alcotest.test_case "inertial pulse rejection" `Quick test_transport_vs_inertial;
    Alcotest.test_case "latest-architecture default binding (§3.3)" `Quick
      test_latest_architecture_default;
    Alcotest.test_case "configuration unit binding" `Quick test_configuration_unit_binding;
    Alcotest.test_case "guarded block and disconnect" `Quick test_guarded_block;
    Alcotest.test_case "bus resolution function" `Quick test_resolution_function;
    Alcotest.test_case "VIF round-trip separate compilation" `Quick
      test_vif_roundtrip_separate_compilation;
    Alcotest.test_case "compile output is independent of process history" `Quick
      test_compile_is_history_independent;
    Alcotest.test_case "diagnostics on bad programs" `Quick test_diagnostics;
    Alcotest.test_case "physical (time) arithmetic" `Quick test_physical_time_arithmetic;
    Alcotest.test_case "downto arrays and slice assignment" `Quick test_downto_and_slices;
    Alcotest.test_case "signal slice assignment" `Quick test_signal_slice_assignment;
    Alcotest.test_case "multi-element waveforms" `Quick test_multi_element_waveform;
    Alcotest.test_case "wait on multiple signals" `Quick test_wait_on_multiple_signals;
    Alcotest.test_case "default parameters" `Quick test_function_default_parameters;
    Alcotest.test_case "record signals" `Quick test_record_signals;
    Alcotest.test_case "selected assignment with range choices" `Quick
      test_selected_with_range_choices;
    Alcotest.test_case "up-level references in nested subprograms" `Quick
      test_uplevel_references;
    Alcotest.test_case "fully selected names (work.pkg.item)" `Quick
      test_fully_selected_names;
    Alcotest.test_case "labeled loops with exit/next" `Quick test_labeled_loops;
  ]
