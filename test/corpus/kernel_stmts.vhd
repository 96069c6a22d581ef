-- kernel statements: every KIR statement and expression a process body runs
-- top: KSTMTS
-- max-ns: 60
package kst_pkg is
  type rec_t is record
    a : integer;
    b : bit;
  end record;
  type int_ptr is access integer;
  type color is (red, green, blue, white);
  signal gsig : integer := 3;
  procedure bump (signal s : inout integer; amount : in integer);
  procedure split (x : in integer; q : out integer; r : inout integer);
  function wired (v : bit_vector) return bit;
  function span (v : bit_vector) return integer;
end kst_pkg;

package body kst_pkg is
  procedure bump (signal s : inout integer; amount : in integer) is
  begin
    if amount < 0 then
      return;
    end if;
    s <= s + amount;
  end bump;

  procedure split (x : in integer; q : out integer; r : inout integer) is
  begin
    q := x / 4;
    r := r + x mod 4;
  end split;

  function wired (v : bit_vector) return bit is
  begin
    for i in v'range loop
      if v(i) = '1' then
        return '1';
      end if;
    end loop;
    return '0';
  end wired;

  -- every array attribute of an unconstrained formal
  function span (v : bit_vector) return integer is
  begin
    return v'left * 1000 + v'right * 100 + v'high * 10 + v'low + v'length;
  end span;
end kst_pkg;

entity KLEAF is
  generic (w : integer := 1);
  port (d : in integer; q : out integer);
end KLEAF;

architecture a of KLEAF is
  constant scale : integer := w * 2 + 1;
begin
  q <= d * scale;
end a;

use work.kst_pkg.all;
entity KSTMTS is
end KSTMTS;

architecture t of KSTMTS is
  component KLEAF
    generic (w : integer := 1);
    port (d : in integer; q : out integer);
  end component;
  type vec_t is array (0 to 7) of bit;
  signal clk : bit := '0';
  signal vec : vec_t := "00000000";
  signal rec : rec_t := (a => 0, b => '0');
  signal vec2 : vec_t;
  signal rec2 : rec_t;
  signal count : integer := 0;
  signal leaf_in, leaf_out : integer := 0;
  signal enable : bit := '1';
  signal line_s : wired bit bus := '0';
  signal pulse : bit := '0';
  signal loops : integer := 0;
  signal picks : integer := 0;
  signal calls : integer := 0;
  signal nests : integer := 0;
  signal ptrs : integer := 0;
  signal attrs : integer := 0;
  signal exprs : integer := 0;
  signal waits : integer := 0;
  signal shade : color := red;
  signal scaled : real := 0.0;
  constant off : boolean := false;

  -- nested subprograms: the inner function reads and writes the outer
  -- one's variables (up-level references)
  function tally (n : integer) return integer is
    variable acc : integer := 0;
    function step (k : integer) return integer is
    begin
      acc := acc + k;
      return acc * 2;
    end step;
    variable last : integer := 0;
  begin
    for i in 1 to n loop
      last := step(i);
    end loop;
    return acc + last;
  end tally;
begin
  leaf : KLEAF generic map (w => 3) port map (d => leaf_in, q => leaf_out);

  clock : process
  begin
    clk <= not clk after 5 ns;
    wait for 5 ns;
  end process;

  -- exit and next, labelled and not, in for, while and plain loops
  looper : process
    variable n, m, k : integer := 0;
  begin
    outer : for i in 0 to 5 loop
      next when i = 1;
      inner : for j in 3 downto 0 loop
        next outer when j = 1 and i = 4;
        exit when j = 2 and i = 2;
        exit outer when i = 5;
        n := n + i * 10 + j;
      end loop inner;
    end loop outer;
    m := 0;
    w : while m < 20 loop
      m := m + 3;
      if m = 9 then
        next w;
      end if;
      if m > 14 then
        exit w;
      end if;
      n := n + m;
    end loop w;
    k := 0;
    loop
      k := k + 1;
      next when k mod 2 = 0;
      exit when k > 7;
      n := n + 100;
      null;
    end loop;
    loops <= n;
    wait;
  end process;

  -- case with single values, ranges and others; enumerations and 'val/'pos
  chooser : process (clk)
    variable sum : integer := 0;
  begin
    if clk'event and clk = '1' then
      case count is
        when 0 => sum := sum + 1;
        when 1 to 3 => sum := sum + 10;
        when 4 | 6 => sum := sum + 100;
        when others => sum := sum + 1000;
      end case;
      case shade is
        when red | green => shade <= color'succ(shade);
        when blue => shade <= color'val(color'pos(shade) + 1);
        when others => shade <= red;
      end case;
      count <= count + 1;
      picks <= sum;
    end if;
  end process;

  -- procedures: out/inout variables, signal parameters, early return
  caller : process
    variable q, r : integer := 0;
  begin
    split(23, q, r);
    split(10, q, r);
    calls <= q * 100 + r;
    bump(gsig, 4);
    wait for 1 ns;
    bump(gsig, -1);
    bump(gsig, gsig);
    wait for 1 ns;
    calls <= calls + gsig;
    wait;
  end process;

  -- index, slice and field signal targets; transport waveforms
  targets : process
  begin
    vec(2) <= '1';
    vec(4 to 5) <= "11" after 2 ns;
    rec.a <= 7;
    rec.b <= '1' after 1 ns;
    wait for 3 ns;
    vec <= transport "10000000" after 1 ns, "01000000" after 3 ns, "00100000" after 6 ns;
    rec <= (a => rec.a + 1, b => not rec.b);
    wait for 10 ns;
    vec(0 to 3) <= transport "1111" after 1 ns, "0000" after 2 ns;
    wait;
  end process;

  -- a guarded driver: disconnected by its guard, and by a null transaction
  g : block (enable = '1')
  begin
    line_s <= guarded '1' after 2 ns;
  end block;
  lines : process
  begin
    line_s <= '0';
    pulse <= '1' after 4 ns;
    line_s <= transport '1' after 5 ns, null after 9 ns;
    wait for 12 ns;
    enable <= '0';
    wait;
  end process;

  -- nested functions with up-level variables, and the generic leaf
  nester : process (clk)
  begin
    if clk = '1' then
      nests <= tally(count) + leaf_out;
      leaf_in <= count;
    end if;
  end process;

  -- allocators, .all reads and writes, null
  pointers : process
    variable p1, p2 : int_ptr;
    variable ok : integer := 0;
  begin
    p1 := new integer'(40);
    p1.all := p1.all + 2;
    p2 := p1;
    p2.all := p2.all * 2;
    if p1 = p2 and p1 /= null then
      ok := p1.all;
    end if;
    p2 := new integer;
    p1 := null;
    if p1 = null then
      ok := ok + p2.all + 1;
    end if;
    ptrs <= ok;
    wait;
  end process;

  -- variable targets and aggregates built at run time
  aggs : process (clk)
    variable arr : vec_t := (others => '0');
    variable r : rec_t := (0, '0');
    variable bit0 : bit := '1';
    variable n : integer := 0;
  begin
    arr := (1 => bit0, 3 => clk, others => '0');
    arr(0) := clk;
    arr(5 to 6) := arr(0 to 1);
    r.a := n;
    r := (r.a + 1, clk);
    r := (b => bit0, a => r.a * 2);
    arr := (clk, bit0, '0', clk, '1', '0', bit0, clk);
    lp : loop
      n := n + 1;
      if n mod 3 = 0 then
        exit lp;
      elsif n mod 3 = 1 then
        bit0 := not bit0;
      else
        next lp;
      end if;
    end loop lp;
    vec2 <= transport arr after 20 ns;
    rec2 <= transport r after 3 ns;
  end process;

  -- signal attributes, array attributes, conversions, aggregates, operators
  exprer : process (clk, pulse)
    variable v : integer := 0;
    variable b : bit_vector (0 to 3) := "0101";
    variable x : real := 1.5;
  begin
    v := 0;
    x := 1.5;
    if clk'event then v := v + 1; end if;
    if clk'active then v := v + 2; end if;
    if not pulse'stable then v := v + 4; end if;
    if clk'last_value = '0' then v := v + 8; end if;
    if clk'last_event < 3 ns then v := v + 16; end if;
    if count < 1000 or (100 / (count - count) = 1) then v := v + 32; end if;
    if count > 1000 and (100 / (count - count) = 1) then v := v + 64; end if;
    if off and (100 / (count - count) = 1) then v := v + 128; end if;
    b := b(0 to 1) & not b(2 to 3);
    b := (b xor "1111") nand (b nor "0011");
    v := v + span(b) + span("10") + abs (-3) + (7 rem 4) + (-7 mod 4) + 2 ** 3;
    x := x * real(v) + 0.25;
    v := v + integer(x) + b'length;
    scaled <= x;
    attrs <= v;
    exprs <= (count + 1) * 2 - gsig;
  end process;

  -- wait until, wait on ... for, wait for, and an assertion with report
  -- and severity
  waiter : process
    variable n : integer := 0;
  begin
    wait until clk = '1';
    n := n + 1;
    wait on pulse, count for 3 ns;
    n := n + 10;
    wait until count > 3 for 100 ns;
    n := n + 100;
    wait on vec for 50 ns;
    waits <= n;
    assert n = 0 report "waiter " & "done" severity warning;
    assert n /= 0 report "never printed";
    wait for 7 ns;
    assert false severity note;
    wait;
  end process;
end t;
