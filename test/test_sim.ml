(* The simulation kernel and runtime support: driver/waveform editing,
   resolution, delta cycles, and property-based tests on the predefined
   operations. *)

(* ---- Value_ops properties ---- *)

let small_int = QCheck.int_range (-1000) 1000

let vhdl_mod_sign =
  QCheck.Test.make ~name:"mod result has the divisor's sign (LRM 7.2.4)" ~count:500
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      QCheck.assume (b <> 0);
      match Value_ops.binop Kir.Bmod (Value.Vint a) (Value.Vint b) with
      | Value.Vint r -> r = 0 || (r > 0) = (b > 0)
      | _ -> false)

let vhdl_rem_sign =
  QCheck.Test.make ~name:"rem result has the dividend's sign" ~count:500
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      QCheck.assume (b <> 0);
      match Value_ops.binop Kir.Brem (Value.Vint a) (Value.Vint b) with
      | Value.Vint r -> r = 0 || (r > 0) = (a > 0)
      | _ -> false)

let mod_rem_identity =
  QCheck.Test.make ~name:"(a/b)*b + a rem b = a" ~count:500
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      QCheck.assume (b <> 0);
      match
        ( Value_ops.binop Kir.Bdiv (Value.Vint a) (Value.Vint b),
          Value_ops.binop Kir.Brem (Value.Vint a) (Value.Vint b) )
      with
      | Value.Vint q, Value.Vint r -> (q * b) + r = a
      | _ -> false)

let gen_bits n =
  QCheck.Gen.map
    (fun l ->
      Value.Varray
        {
          bounds = (0, Types.To, List.length l - 1);
          elems = Array.of_list (List.map (fun b -> Value.Venum (if b then 1 else 0)) l);
        })
    QCheck.Gen.(list_size (return n) bool)

let de_morgan =
  QCheck.Test.make ~name:"not (a and b) = (not a) or (not b) on bit vectors" ~count:300
    (QCheck.make QCheck.Gen.(pair (gen_bits 8) (gen_bits 8)))
    (fun (a, b) ->
      let nand = Value_ops.unop Kir.Unot (Value_ops.binop Kir.Band a b) in
      let orn =
        Value_ops.binop Kir.Bor (Value_ops.unop Kir.Unot a) (Value_ops.unop Kir.Unot b)
      in
      Value.equal nand orn)

let concat_length =
  QCheck.Test.make ~name:"length (a & b) = length a + length b" ~count:300
    (QCheck.make QCheck.Gen.(pair (int_range 1 8) (int_range 1 8)))
    (fun (n, m) ->
      let mk n = QCheck.Gen.generate1 (gen_bits n) in
      match Value_ops.binop Kir.Bconcat (mk n) (mk m) with
      | Value.Varray { elems; _ } -> Array.length elems = n + m
      | _ -> false)

let compare_antisym =
  QCheck.Test.make ~name:"< and > are mirror images" ~count:500
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let lt = Value_ops.binop Kir.Blt (Value.Vint a) (Value.Vint b) in
      let gt = Value_ops.binop Kir.Bgt (Value.Vint b) (Value.Vint a) in
      Value.equal lt gt)

let slice_then_index =
  QCheck.Test.make ~name:"slicing preserves element positions" ~count:300
    (QCheck.make QCheck.Gen.(pair (gen_bits 10) (pair (int_range 0 9) (int_range 0 9))))
    (fun (v, (i, j)) ->
      let lo = min i j and hi = max i j in
      let s = Value_ops.slice v (lo, Types.To, hi) in
      List.for_all
        (fun k ->
          Value.equal (Value_ops.index s k) (Value_ops.index v k))
        (List.init (hi - lo + 1) (fun d -> lo + d)))

(* ---- driver editing rules ---- *)

let mk_sig () =
  Rt.make_signal ~id:0 ~name:":t:s" ~ty:Std.bit ~kind:`Plain ~resolution:None
    ~init:(Value.Venum 0)

let test_transport_vs_inertial_edit () =
  let s = mk_sig () in
  let d = Rt.driver_of s ~proc_id:1 in
  (* pending rise at t=10 *)
  Rt.schedule d ~mode:Kir.Transport ~transactions:[ (10, Some (Value.Venum 1)) ];
  (* transport at t=5: keeps nothing at >= 5 *)
  Rt.schedule d ~mode:Kir.Transport ~transactions:[ (5, Some (Value.Venum 0)) ];
  Alcotest.(check int) "transport removed the later transaction" 1 (List.length d.Rt.drv_wave);
  (* new pending at 10 again, then inertial at 7 wipes everything pending *)
  Rt.schedule d ~mode:Kir.Transport ~transactions:[ (10, Some (Value.Venum 1)) ];
  Rt.schedule d ~mode:Kir.Inertial ~transactions:[ (7, Some (Value.Venum 0)) ];
  (match d.Rt.drv_wave with
  | [ (7, Some v) ] ->
    Alcotest.(check bool) "inertial winner" true (Value.equal v (Value.Venum 0))
  | _ -> Alcotest.fail "inertial edit should leave exactly the new transaction");
  (* transport keeps strictly earlier transactions *)
  Rt.schedule d ~mode:Kir.Transport ~transactions:[ (12, Some (Value.Venum 1)) ];
  Alcotest.(check int) "earlier transaction kept under transport" 2
    (List.length d.Rt.drv_wave)

let test_multiple_drivers_need_resolution () =
  let s = mk_sig () in
  let d1 = Rt.driver_of s ~proc_id:1 in
  let d2 = Rt.driver_of s ~proc_id:2 in
  d1.Rt.drv_value <- Value.Venum 1;
  d2.Rt.drv_value <- Value.Venum 0;
  match Rt.update_signal ~now:0 s with
  | _ -> Alcotest.fail "expected a multiple-driver error"
  | exception Rt.Simulation_error _ -> ()

let test_resolution_applied () =
  let wired_or vs =
    Value.vbool false |> fun _ ->
    if List.exists (fun v -> Value.equal v (Value.Venum 1)) vs then Value.Venum 1
    else Value.Venum 0
  in
  let s =
    Rt.make_signal ~id:0 ~name:":t:b" ~ty:Std.bit ~kind:`Plain
      ~resolution:(Some wired_or) ~init:(Value.Venum 0)
  in
  let d1 = Rt.driver_of s ~proc_id:1 in
  let d2 = Rt.driver_of s ~proc_id:2 in
  d1.Rt.drv_value <- Value.Venum 0;
  d2.Rt.drv_value <- Value.Venum 1;
  let event = Rt.update_signal ~now:5 s in
  Alcotest.(check bool) "event detected" true event;
  Alcotest.(check bool) "resolved to 1" true (Value.equal s.Rt.current (Value.Venum 1));
  Alcotest.(check bool) "last value kept" true (Value.equal s.Rt.last_value (Value.Venum 0));
  Alcotest.(check int) "event time recorded" 5 s.Rt.last_event;
  (* disconnect the driving '1': the other driver keeps it low *)
  Rt.disconnect d2;
  let _ = Rt.update_signal ~now:7 s in
  Alcotest.(check bool) "back to 0 after disconnect" true
    (Value.equal s.Rt.current (Value.Venum 0))

(* ---- delta cycles end to end ---- *)

let run_simulation ?(ns = 100) src top =
  let c = Vhdl_compiler.create () in
  ignore (Vhdl_compiler.compile c src);
  let sim = Vhdl_compiler.elaborate c ~top () in
  let _ = Vhdl_compiler.run c sim ~max_ns:ns in
  sim

let test_delta_cycle_ordering () =
  (* a chain of zero-delay assignments settles within one time step through
     delta cycles, every process seeing consistent values *)
  let sim =
    run_simulation
      {|
entity tb is end tb;
architecture t of tb is
  signal a : integer := 0;
  signal b : integer := 0;
  signal c : integer := 0;
begin
  b <= a + 1;
  c <= b + 1;
  stim : process
  begin
    wait for 10 ns;
    a <= 5;
    wait;
  end process;
end t;
|}
      "tb"
  in
  (match Vhdl_compiler.value sim ":tb:C" with
  | Some v -> Alcotest.(check bool) "c = a+2 after settling" true (Value.equal v (Value.Vint 7))
  | None -> Alcotest.fail "no c");
  let st = Kernel.stats (Vhdl_compiler.kernel sim) in
  Alcotest.(check bool) "delta cycles occurred" true (st.Kernel.delta_cycles > 0)

let test_delta_limit_detects_oscillation () =
  (* unstable zero-delay loop: the kernel must abort, not hang *)
  let c = Vhdl_compiler.create () in
  ignore
    (Vhdl_compiler.compile c
       {|
entity osc is end osc;
architecture t of osc is
  signal a : bit := '0';
begin
  a <= not a;
end t;
|});
  let sim = Vhdl_compiler.elaborate c ~top:"osc" () in
  match Vhdl_compiler.run c sim ~max_ns:10 with
  | _ -> Alcotest.fail "expected a delta-limit error"
  | exception Rt.Simulation_error { msg; _ } ->
    Alcotest.(check bool) "mentions the limit" true
      (Astring_contains.contains msg "delta")

let test_event_vs_transaction () =
  (* assigning the same value is a transaction but not an event *)
  let sim =
    run_simulation
      {|
entity tb is end tb;
architecture t of tb is
  signal s : bit := '0';
  signal events : integer := 0;
  signal actives : integer := 0;
begin
  driver : process
  begin
    wait for 10 ns;
    s <= '0';             -- transaction, same value: no event
    wait for 10 ns;
    s <= '1';             -- event
    wait;
  end process;
  obs : process (s)
  begin
    events <= events + 1;
  end process;
end t;
|}
      "tb"
  in
  match Vhdl_compiler.value sim ":tb:EVENTS" with
  | Some v ->
    (* the observer runs once at initialization and once for the genuine
       event at 20 ns; the same-value transaction at 10 ns wakes nobody *)
    Alcotest.(check bool) "only the value change is an event" true
      (Value.equal v (Value.Vint 2))
  | None -> Alcotest.fail "no events signal"

let test_name_server_paths () =
  let sim =
    run_simulation
      {|
entity leaf is
  port (x : in bit);
end leaf;
architecture a of leaf is
  signal own : bit;
begin
  own <= x;
end a;
entity tb is end tb;
architecture t of tb is
  component leaf
    port (x : in bit);
  end component;
  signal s : bit := '0';
begin
  u1 : leaf port map (x => s);
  u2 : leaf port map (x => s);
end t;
|}
      "tb"
  in
  let ns = Vhdl_compiler.name_server sim in
  Alcotest.(check bool) "nested signal path" true
    (Name_server.find_signal ns ":tb:U1:OWN" <> None);
  Alcotest.(check bool) "second instance distinct" true
    (Name_server.find_signal ns ":tb:U2:OWN" <> None);
  Alcotest.(check int) "three instances (tb, u1, u2)" 3
    (List.length (Name_server.instances ns));
  (* connected port shares the actual's signal object *)
  match (Name_server.find_signal ns ":tb:S", Name_server.find_signal ns ":tb:U1:OWN") with
  | Some s, Some own -> Alcotest.(check bool) "distinct objects" true (s != own)
  | _ -> Alcotest.fail "signals missing"

let test_vcd_output () =
  let sim =
    run_simulation
      {|
entity tb is end tb;
architecture t of tb is
  signal s : bit := '0';
begin
  s <= '1' after 5 ns;
end t;
|}
      "tb"
  in
  let vcd = Trace.to_vcd (Vhdl_compiler.trace sim) ~timescale_fs:1 in
  Alcotest.(check bool) "has header" true (Astring_contains.contains vcd "$timescale");
  Alcotest.(check bool) "opens the instance scope" true
    (Astring_contains.contains vcd "$scope module tb $end");
  Alcotest.(check bool) "declares the signal" true
    (Astring_contains.contains vcd "$var wire 1 ! S $end");
  Alcotest.(check bool) "has the 5 ns timestamp" true
    (Astring_contains.contains vcd "#5000000")

let test_kernel_stats_consistency () =
  let sim =
    run_simulation ~ns:50
      {|
entity tb is end tb;
architecture t of tb is
  signal clk : bit := '0';
begin
  clk <= not clk after 5 ns;
end t;
|}
      "tb"
  in
  let st = Kernel.stats (Vhdl_compiler.kernel sim) in
  (* one toggle every 5 ns for 50 ns = 10 events, each from a transaction *)
  Alcotest.(check int) "events" 10 st.Kernel.events;
  Alcotest.(check bool) "transactions >= events" true
    (st.Kernel.transactions >= st.Kernel.events)

(* guarded signal kinds: when every driver of a REGISTER disconnects, the
   signal retains its value *)
let test_register_retains_on_disconnect () =
  let c = Vhdl_compiler.create () in
  ignore
    (Vhdl_compiler.compile c
       {|
package rp is
  function keep_or (v : bit_vector) return bit;
end rp;
package body rp is
  function keep_or (v : bit_vector) return bit is
  begin
    for i in 0 to v'length - 1 loop
      if v(i) = '1' then
        return '1';
      end if;
    end loop;
    return '0';
  end keep_or;
end rp;
|});
  ignore
    (Vhdl_compiler.compile c
       {|
use work.rp.all;
entity tb is end tb;
architecture t of tb is
  signal enable : bit := '1';
  signal r : keep_or bit register := '0';
begin
  b : block (enable = '1')
  begin
    r <= guarded '1' after 5 ns;
  end block;
  ctl : process
  begin
    wait for 20 ns;
    enable <= '0';     -- disconnects the guarded driver
    wait;
  end process;
end t;
|});
  let sim = Vhdl_compiler.elaborate c ~top:"tb" () in
  let _ = Vhdl_compiler.run c sim ~max_ns:100 in
  match Vhdl_compiler.value sim ":tb:R" with
  | Some v ->
    Alcotest.(check bool) "register keeps last value" true (Value.equal v (Value.Venum 1))
  | None -> Alcotest.fail "no r"



(* driver-queue invariant under random scheduling: the projected output
   waveform stays strictly time-sorted whatever mix of transport/inertial
   edits and value/null transactions arrives *)
let wave_sorted_invariant =
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 20)
        (map3
           (fun t inertial isnull -> (t, inertial, isnull))
           (int_range 0 100) bool bool))
  in
  QCheck.Test.make ~name:"driver waveform stays sorted under random edits" ~count:300
    (QCheck.make gen) (fun script ->
      let s = mk_sig () in
      let d = Rt.driver_of s ~proc_id:1 in
      List.iter
        (fun (t, inertial, isnull) ->
          let mode = if inertial then Kir.Inertial else Kir.Transport in
          let v = if isnull then None else Some (Value.Venum (t land 1)) in
          Rt.schedule d ~mode ~transactions:[ (t, v) ])
        script;
      let rec sorted = function
        | (a, _) :: ((b, _) :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      sorted d.Rt.drv_wave)

(* the kernel's heaps: under any interleaving of pushes and pops, every pop
   takes a smallest key still present *)
let heap_pops_minimum =
  let gen = QCheck.Gen.(list_size (int_range 1 60) (opt (int_range 0 40))) in
  QCheck.Test.make ~name:"heap pops a minimum under random push/pop" ~count:300
    (QCheck.make gen) (fun script ->
      let h = Heap.create () in
      let model = ref [] in
      List.for_all
        (function
          | Some key ->
            Heap.push h key key;
            model := key :: !model;
            true
          | None -> (
            match List.sort compare !model with
            | [] -> Heap.min_key h = max_int
            | least :: rest ->
              let ok = Heap.min_key h = least && Heap.top h = least in
              Heap.pop h;
              model := rest;
              ok))
        script)

(* Kernel.stats is the one source of the kernel's counts: a run exports
   exactly its own work to the sim.* telemetry counters *)
let test_stats_exported_to_telemetry () =
  let module Tm = Vhdl_telemetry.Telemetry in
  let names =
    [ "sim.delta_cycles"; "sim.time_steps"; "sim.events"; "sim.transactions";
      "sim.process_runs"; "sim.messages" ]
  in
  let before = List.map Tm.counter_value names in
  let sim =
    run_simulation ~ns:50
      {|
entity tb is end tb;
architecture t of tb is
  signal clk : bit := '0';
  signal n : integer := 0;
begin
  clk <= not clk after 5 ns;
  count : process (clk)
  begin
    n <= n + 1;
    assert n /= 3 report "three" severity note;
  end process;
end t;
|}
      "tb"
  in
  let st = Kernel.stats (Vhdl_compiler.kernel sim) in
  let sv = st.Kernel.severities in
  List.iter2
    (fun (name, expected) b ->
      Alcotest.(check int) name expected (Tm.counter_value name - b))
    (List.combine names
       [ st.Kernel.delta_cycles; st.Kernel.time_steps; st.Kernel.events;
         st.Kernel.transactions; st.Kernel.process_runs;
         sv.Kernel.notes + sv.Kernel.warnings + sv.Kernel.errors + sv.Kernel.failures ])
    before;
  Alcotest.(check int) "one note" 1 sv.Kernel.notes

let suite =
  [
    QCheck_alcotest.to_alcotest heap_pops_minimum;
    QCheck_alcotest.to_alcotest wave_sorted_invariant;
    QCheck_alcotest.to_alcotest vhdl_mod_sign;
    QCheck_alcotest.to_alcotest vhdl_rem_sign;
    QCheck_alcotest.to_alcotest mod_rem_identity;
    QCheck_alcotest.to_alcotest de_morgan;
    QCheck_alcotest.to_alcotest concat_length;
    QCheck_alcotest.to_alcotest compare_antisym;
    QCheck_alcotest.to_alcotest slice_then_index;
    Alcotest.test_case "transport vs inertial waveform editing" `Quick
      test_transport_vs_inertial_edit;
    Alcotest.test_case "multiple drivers require resolution" `Quick
      test_multiple_drivers_need_resolution;
    Alcotest.test_case "resolution function and disconnect" `Quick test_resolution_applied;
    Alcotest.test_case "delta-cycle settling" `Quick test_delta_cycle_ordering;
    Alcotest.test_case "delta limit detects oscillation" `Quick
      test_delta_limit_detects_oscillation;
    Alcotest.test_case "event vs transaction" `Quick test_event_vs_transaction;
    Alcotest.test_case "name server paths and sharing" `Quick test_name_server_paths;
    Alcotest.test_case "VCD output" `Quick test_vcd_output;
    Alcotest.test_case "kernel statistics consistency" `Quick test_kernel_stats_consistency;
    Alcotest.test_case "register signals retain value on disconnect" `Quick
      test_register_retains_on_disconnect;
    Alcotest.test_case "kernel stats exported to telemetry" `Quick
      test_stats_exported_to_telemetry;
  ]
