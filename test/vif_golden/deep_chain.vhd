-- A 90-term sum: its VIF nests more than 70 lists deep, which pins the
-- human-readable dump past Format's maximum indentation.
entity deep is
  port (a : in integer; y : out integer);
end deep;
architecture chain of deep is
  signal b : integer := 1;
begin
  p : process (a, b)
  begin
    y <= a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b + a + b;
  end process;
end chain;
