(** Seeded random VHDL design generation for the differential fuzzer.

    The generator is conservative by construction: expressions are typed,
    divisors and exponents are literal and small, every defining integer
    expression is bounded by a top-level [mod], signal topologies are
    acyclic, and process/concurrent drivers never overlap — so designs
    compile, elaborate, and quiesce, and the oracle's budget goes to
    demand-vs-staged agreement rather than to parse errors.  Part of the
    shapes compose the [lib/workload] generators (netlists, behavioral
    state machines, configurations) with randomized parameters. *)

type design = {
  d_seed : int;
  d_source : string;
  d_top : string option;
  d_max_ns : int;
}

let rand_from ~seed = Random.State.make [| seed; 0x5eed; 0xd1ff |]

(* ------------------------------------------------------------------ *)
(* Random expression strings *)

let pick st l = List.nth l (Random.State.int st (List.length l))

let small_lit st = string_of_int (Random.State.int st 10)
let nonzero_lit st = string_of_int (1 + Random.State.int st 8)

let rec int_expr st ~env ~depth =
  if depth <= 0 || (env = [] && Random.State.int st 4 = 0) then
    match env with
    | [] -> small_lit st
    | _ -> if Random.State.bool st then small_lit st else pick st env
  else
    let sub () = int_expr st ~env ~depth:(depth - 1) in
    match Random.State.int st 8 with
    | 0 -> Printf.sprintf "(%s + %s)" (sub ()) (sub ())
    | 1 -> Printf.sprintf "(%s - %s)" (sub ()) (sub ())
    | 2 -> Printf.sprintf "(%s * %s)" (sub ()) (sub ())
    | 3 -> Printf.sprintf "(%s mod %s)" (sub ()) (nonzero_lit st)
    | 4 -> Printf.sprintf "(%s / %s)" (sub ()) (nonzero_lit st)
    | 5 -> Printf.sprintf "(abs (%s))" (sub ())
    | 6 -> Printf.sprintf "(-%s)" (sub ())
    | _ -> Printf.sprintf "((%s mod 5) ** 2)" (sub ())

and bool_expr st ~env ~depth =
  if depth <= 0 then
    if Random.State.bool st then "true" else "false"
  else
    let isub () = int_expr st ~env ~depth:(depth - 1) in
    let bsub () = bool_expr st ~env ~depth:(depth - 1) in
    match Random.State.int st 7 with
    | 0 -> Printf.sprintf "(%s < %s)" (isub ()) (isub ())
    | 1 -> Printf.sprintf "(%s >= %s)" (isub ()) (isub ())
    | 2 -> Printf.sprintf "(%s = %s)" (isub ()) (isub ())
    | 3 -> Printf.sprintf "(%s /= %s)" (isub ()) (isub ())
    | 4 -> Printf.sprintf "(%s and %s)" (bsub ()) (bsub ())
    | 5 -> Printf.sprintf "(%s or %s)" (bsub ()) (bsub ())
    | _ -> Printf.sprintf "(not %s)" (bsub ())

(* Every defining occurrence goes through this bound so folded constants and
   simulated signal values stay far inside INTEGER'RANGE even when clocked
   processes iterate the expression. *)
let bounded e = Printf.sprintf "(%s) mod 9973" e

(* ------------------------------------------------------------------ *)
(* Shape 1: expression-heavy constants and concurrent assignments *)

let gen_exprs st ~size b =
  let n = 2 + (size * 3) + Random.State.int st 4 in
  let add = Buffer.add_string b in
  add "entity FZTOP is\nend FZTOP;\n\narchitecture fz of FZTOP is\n";
  let env = ref [] in
  for i = 0 to n - 1 do
    let name = Printf.sprintf "K%d" i in
    add
      (Printf.sprintf "  constant %s : integer := %s;\n" name
         (bounded (int_expr st ~env:!env ~depth:(1 + Random.State.int st 3))));
    env := name :: !env
  done;
  for i = 0 to (n / 2) - 1 do
    add (Printf.sprintf "  signal w%d : integer := 0;\n" i)
  done;
  add "begin\n";
  for i = 0 to (n / 2) - 1 do
    add
      (Printf.sprintf "  w%d <= %s after %d ns;\n" i
         (bounded (int_expr st ~env:!env ~depth:2))
         (1 + Random.State.int st 6))
  done;
  add "end fz;\n";
  (Some "FZTOP", 40)

(* ------------------------------------------------------------------ *)
(* Shape 2: random process/signal topology under a clock *)

let gen_processes st ~size b =
  let add = Buffer.add_string b in
  let n_proc = 1 + size + Random.State.int st 2 in
  let n_sig = 2 + (size * 2) in
  let n_conc = 1 + size in
  add "entity FZTOP is\nend FZTOP;\n\narchitecture fz of FZTOP is\n";
  add "  signal clk : bit := '0';\n";
  for i = 0 to n_sig - 1 do
    add (Printf.sprintf "  signal s%d : integer := %d;\n" i (Random.State.int st 10))
  done;
  for i = 0 to n_conc - 1 do
    add (Printf.sprintf "  signal c%d : integer := 0;\n" i)
  done;
  add "  signal flag : bit := '0';\n";
  add "begin\n";
  add "  clock : process\n  begin\n    clk <= not clk after 5 ns;\n    wait for 5 ns;\n  end process;\n";
  let sig_env = List.init n_sig (Printf.sprintf "s%d") in
  for p = 0 to n_proc - 1 do
    (* each process drives a disjoint slice of the s* signals (single driver
       per signal), reading any of them *)
    let lo = p * n_sig / n_proc and hi = ((p + 1) * n_sig / n_proc) - 1 in
    add (Printf.sprintf "  p%d : process (clk)\n    variable t : integer := 0;\n  begin\n" p);
    add "    if clk'event and clk = '1' then\n";
    add
      (Printf.sprintf "      t := %s;\n"
         (bounded (int_expr st ~env:sig_env ~depth:2)));
    for i = lo to hi do
      add
        (Printf.sprintf "      s%d <= %s;\n" i
           (bounded (int_expr st ~env:("t" :: sig_env) ~depth:2)))
    done;
    if p = 0 then begin
      add
        (Printf.sprintf "      if %s then\n        flag <= not flag;\n      end if;\n"
           (bool_expr st ~env:sig_env ~depth:2));
      add
        (Printf.sprintf
           "      assert %s report \"fuzz invariant\" severity note;\n"
           (bool_expr st ~env:sig_env ~depth:1))
    end;
    add "    end if;\n  end process;\n"
  done;
  (* concurrent assignments form an acyclic chain over the c* signals *)
  for i = 0 to n_conc - 1 do
    let env = sig_env @ List.init i (Printf.sprintf "c%d") in
    add
      (Printf.sprintf "  c%d <= %s after %d ns;\n" i
         (bounded (int_expr st ~env ~depth:2))
         (1 + Random.State.int st 4))
  done;
  add "end fz;\n";
  (Some "FZTOP", 60)

(* ------------------------------------------------------------------ *)
(* Shape 3: package + body + a using entity (multi-unit library flow) *)

let gen_package st ~size b =
  let add = Buffer.add_string b in
  let n_const = 2 + size and n_fun = 1 + (size / 2) in
  add "package FZPKG is\n";
  let env = ref [] in
  for i = 0 to n_const - 1 do
    let name = Printf.sprintf "P%d" i in
    add
      (Printf.sprintf "  constant %s : integer := %s;\n" name
         (bounded (int_expr st ~env:!env ~depth:2)));
    env := name :: !env
  done;
  for i = 0 to n_fun - 1 do
    add (Printf.sprintf "  function FF%d (x : integer) return integer;\n" i)
  done;
  add "end FZPKG;\n\npackage body FZPKG is\n";
  for i = 0 to n_fun - 1 do
    add
      (Printf.sprintf
         "  function FF%d (x : integer) return integer is\n  begin\n    return %s;\n  end FF%d;\n"
         i
         (bounded (int_expr st ~env:("x" :: !env) ~depth:2))
         i)
  done;
  add "end FZPKG;\n\n";
  add "use work.FZPKG.all;\n\nentity FZTOP is\nend FZTOP;\n\narchitecture fz of FZTOP is\n";
  add
    (Printf.sprintf "  constant Q : integer := %s;\n"
       (bounded (int_expr st ~env:!env ~depth:2)));
  add "  signal r : integer := 0;\n  signal u : integer := 0;\nbegin\n";
  add
    (Printf.sprintf "  r <= %s after 2 ns;\n"
       (bounded (Printf.sprintf "FF0(%s) + Q" (int_expr st ~env:!env ~depth:1))));
  add
    (Printf.sprintf "  u <= %s after 3 ns;\n"
       (bounded (int_expr st ~env:("Q" :: "r" :: !env) ~depth:2)));
  add "end fz;\n";
  (Some "FZTOP", 20)

(* ------------------------------------------------------------------ *)
(* Shape 4: enumeration state machine with a case statement *)

let gen_enum_fsm st ~size b =
  let add = Buffer.add_string b in
  let n_states = 2 + size + Random.State.int st 3 in
  add "entity FZTOP is\nend FZTOP;\n\narchitecture fz of FZTOP is\n";
  add "  type fz_state is (";
  for s = 0 to n_states - 1 do
    if s > 0 then add ", ";
    add (Printf.sprintf "ST%d" s)
  done;
  add ");\n  signal st : fz_state := ST0;\n";
  add "  signal clk : bit := '0';\n  signal code : integer := 0;\n  signal acc : integer := 0;\nbegin\n";
  add "  clock : process\n  begin\n    clk <= not clk after 5 ns;\n    wait for 5 ns;\n  end process;\n";
  add "  fsm : process (clk)\n  begin\n    if clk'event and clk = '1' then\n      case st is\n";
  for s = 0 to n_states - 1 do
    (* random successor keeps the walk interesting; any successor is valid *)
    let next = Random.State.int st n_states in
    add (Printf.sprintf "        when ST%d => st <= ST%d;\n" s next)
  done;
  add "      end case;\n";
  add
    (Printf.sprintf "      acc <= %s;\n"
       (bounded (int_expr st ~env:[ "acc"; "code" ] ~depth:2)));
  add "    end if;\n  end process;\n";
  add "  code <= fz_state'pos(st);\n";
  add "end fz;\n";
  (Some "FZTOP", 60)

(* ------------------------------------------------------------------ *)
(* Shape 5/6: compositions of the lib/workload generators *)

let gen_structural st ~size b =
  let instances = 1 + (size * 4) + Random.State.int st 8 in
  Buffer.add_string b (Workload.structural ~name:"FZNET" ~instances);
  (Some "FZNET", 30)

let gen_configured st ~size b =
  (* the per-label configuration binds A(i mod 3), so at least A0..A2 *)
  let archs = 3 + Random.State.int st 2 in
  let instances = 1 + size + Random.State.int st 4 in
  let style = if Random.State.bool st then `Per_label else `All in
  Buffer.add_string b (Workload.multi_arch_library ~archs);
  let netlist, config = Workload.config_workload ~style ~instances () in
  Buffer.add_string b netlist;
  Buffer.add_string b "\n";
  Buffer.add_string b config;
  (Some "BOARD", 20)

let gen_behavioral st ~size b =
  let states = 2 + size + Random.State.int st 4 in
  let exprs = 1 + (size * 2) + Random.State.int st 6 in
  Buffer.add_string b (Workload.behavioral ~name:"FZBEH" ~states ~exprs);
  (Some "FZBEH", 40)

(* ------------------------------------------------------------------ *)

let shapes =
  [|
    ("exprs", gen_exprs);
    ("processes", gen_processes);
    ("package", gen_package);
    ("enum-fsm", gen_enum_fsm);
    ("structural", gen_structural);
    ("configured", gen_configured);
    ("behavioral", gen_behavioral);
  |]

let shape_index ~seed =
  let st = rand_from ~seed in
  Random.State.int st (Array.length shapes)

let shape_name ~seed = fst shapes.(shape_index ~seed)

let generate ~seed ~size =
  let st = rand_from ~seed in
  let idx = Random.State.int st (Array.length shapes) in
  let _, gen = shapes.(idx) in
  let b = Buffer.create 4096 in
  let top, max_ns = gen st ~size b in
  { d_seed = seed; d_source = Buffer.contents b; d_top = top; d_max_ns = max_ns }

(* ------------------------------------------------------------------ *)
(* Random runtime values (shared with the Value_ops property tests) *)

let int_array st =
  let n = Random.State.int st 13 in
  let lo = Random.State.int st 8 in
  Value.Varray
    {
      bounds = (lo, Value.To, lo + n - 1);
      elems = Array.init n (fun _ -> Value.Vint (Random.State.int st 2001 - 1000));
    }

let bit_vector st =
  let n = 1 + Random.State.int st 16 in
  Value.Varray
    {
      bounds = (0, Value.To, n - 1);
      elems = Array.init n (fun _ -> Value.Venum (Random.State.int st 2));
    }

let rec value ?(depth = 2) st =
  if depth <= 0 then
    match Random.State.int st 4 with
    | 0 -> Value.Vint (Random.State.int st 2001 - 1000)
    | 1 -> Value.Vfloat (Random.State.float st 100.0 -. 50.0)
    | 2 -> Value.Venum (Random.State.int st 4)
    | _ -> Value.Vphys (Random.State.int st 10_000)
  else
    match Random.State.int st 6 with
    | 0 | 1 -> value ~depth:0 st
    | 2 -> int_array st
    | 3 -> bit_vector st
    | 4 ->
      let n = 1 + Random.State.int st 4 in
      Value.Vrecord
        (List.init n (fun i -> (Printf.sprintf "F%d" i, value ~depth:(depth - 1) st)))
    | _ ->
      let n = Random.State.int st 5 in
      Value.Varray
        {
          bounds = (0, Value.To, n - 1);
          elems = Array.init n (fun _ -> value ~depth:0 st);
        }
