-- kernel scheduling mix: every way a process waits and a driver is edited
-- top: KMIX
-- max-ns: 120
package kmix_pkg is
  function wired (v : bit_vector) return bit;
end kmix_pkg;

package body kmix_pkg is
  function wired (v : bit_vector) return bit is
  begin
    for i in 0 to v'length - 1 loop
      if v(i) = '1' then
        return '1';
      end if;
    end loop;
    return '0';
  end wired;
end kmix_pkg;

entity TFF is
  port (clk : in bit; q : out bit);
end TFF;

architecture behav of TFF is
  signal state : bit := '0';
begin
  flip : process (clk)
  begin
    if clk'event and clk = '0' then
      state <= not state;
    end if;
  end process;
  q <= state;
end behav;

use work.kmix_pkg.all;
entity KMIX is
end KMIX;

architecture t of KMIX is
  component TFF
    port (clk : in bit; q : out bit);
  end component;
  signal clk : bit := '0';
  signal q0, q1, q2 : bit;
  signal a, b : bit := '0';
  signal pulse : bit := '0';
  signal bus_w : wired bit := '0';
  signal wakes : integer := 0;
  signal timeouts : integer := 0;
  signal late : integer := 0;
  signal glitch, early : bit := '0';
  signal flips : integer := 0;
  signal c1, c2, c3 : integer := 0;
begin
  clock : process
  begin
    clk <= not clk after 5 ns;
    wait for 5 ns;
  end process;

  s0 : TFF port map (clk => clk, q => q0);
  s1 : TFF port map (clk => q0, q => q1);
  s2 : TFF port map (clk => q1, q => q2);

  -- a zero-delay loop that counts to 20 through delta cycles, then settles
  c1 <= c3 + 1 when q2 = '1' and c3 < 20 else c3;
  c2 <= c1;
  c3 <= c2;

  stim : process
  begin
    wait for 3 ns;
    a <= '1';
    wait for 4 ns;
    b <= '1';
    -- a transport waveform, then an inertial edit that drops its tail
    pulse <= transport '1' after 2 ns, '0' after 4 ns, '1' after 9 ns;
    wait for 3 ns;
    pulse <= '0' after 1 ns;
    wait for 10 ns;
    a <= '0', '1' after 6 ns;
    b <= '0' after 2 ns;
    wait for 20 ns;
    assert false report "stimulus done" severity note;
    wait;
  end process;

  -- a condition filters its wake-ups; a timeout wakes it regardless
  deadline : process
  begin
    wait on a, pulse until pulse = '1' for 17 ns;
    if pulse = '1' then
      wakes <= wakes + 1;
    else
      timeouts <= timeouts + 1;
    end if;
  end process;

  -- woken early by a at 3 ns, it waits again until the same 10 ns deadline
  -- (the first timeout is then a duplicate that must not wake it twice)
  same_deadline : process
  begin
    wait on a for 10 ns;
    wait on c3 for 7 ns;
    late <= late + 1;
    wait for 0 ns;
    late <= late + 1;
    wait;
  end process;

  -- waits on a different signal each time round
  alternate : process
  begin
    wait on a;
    flips <= flips + 1;
    wait on b;
    flips <= flips + 10;
    wait on q1;
    assert false report "q1 moved" severity note;
  end process;

  -- an inertial edit that moves the pending transaction later, and a
  -- transport edit that moves it earlier, leave queue entries behind at
  -- 23 ns and 41 ns: no cycle may run for them
  edits : process
  begin
    glitch <= '1' after 23 ns;
    early <= '1' after 41 ns;
    wait for 2 ns;
    glitch <= '1' after 31 ns;
    early <= transport '1' after 36 ns;
    wait;
  end process;

  -- two processes reporting in the same delta: messages keep process order
  tell_a : process (q2)
  begin
    assert q2 = '0' report "q2 high (a)" severity note;
  end process;
  tell_b : process (q2)
  begin
    assert q2 = '0' report "q2 high (b)" severity note;
  end process;

  -- two drivers of a resolved signal
  drive1 : process (q0)
  begin
    bus_w <= q0 after 1 ns;
  end process;
  drive2 : process (q2)
  begin
    bus_w <= q2;
  end process;
end t;
