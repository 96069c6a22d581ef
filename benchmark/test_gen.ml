(* The benchmark's generators and oracles: inputs repeat exactly for a
   seed and change with it, and every oracle agrees with hand-worked
   VHDL semantics. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let check_int name ~expected got =
  if got <> expected then begin
    incr failures;
    Printf.printf "FAIL %s: expected %d, got %d\n" name expected got
  end

let texts seed =
  List.concat
    [
      List.init 32 (fun i -> (Gen.cascade_op ~seed i).Gen.text);
      List.init 30 (fun i -> (Gen.serve_op ~seed i).Gen.text);
      Array.to_list (Array.map (fun d -> d.Gen.design_text) (Gen.kernel_designs ~seed));
      List.init Gen.vif_packages (fun k -> (Gen.lib_package ~seed ~k ~version:1).Gen.text);
      List.init 20 (fun i ->
          match Gen.vif_op ~seed i with
          | Gen.User { name; pkgs; consts } ->
            Gen.user_source ~name ~pkgs ~pick_const:(fun k -> List.assoc k consts)
          | Gen.Bump k -> string_of_int k
          | Gen.Configure archs -> Gen.config_source archs);
    ]

let () =
  (* same seed, byte-identical inputs; another seed, other inputs *)
  check "seed 7 repeats" (texts 7 = texts 7);
  check "seeds 7 and 8 differ" (texts 7 <> texts 8);
  check "every cascade op differs from the other seed's"
    (List.for_all
       (fun i -> (Gen.cascade_op ~seed:7 i).Gen.text <> (Gen.cascade_op ~seed:8 i).Gen.text)
       (List.init 32 Fun.id));

  (* each block of ops is a permutation of the deck *)
  let block = List.init 16 (fun i -> Gen.deck_slot ~seed:3 ~stream:Gen.s_cascade Gen.cascade_deck (16 + i)) in
  check "a block deals the whole deck"
    (List.sort compare block = List.sort compare (Array.to_list Gen.cascade_deck));

  (* VHDL integer division, mod, rem and ** *)
  check_int "-7 / 2" ~expected:(-3) (Gen.vhdl_div (-7) 2);
  check_int "7 / -2" ~expected:(-3) (Gen.vhdl_div 7 (-2));
  check_int "-7 / -2" ~expected:3 (Gen.vhdl_div (-7) (-2));
  check_int "-7 mod 3" ~expected:2 (Gen.vhdl_mod (-7) 3);
  check_int "7 mod -3" ~expected:(-2) (Gen.vhdl_mod 7 (-3));
  check_int "-7 mod -3" ~expected:(-1) (Gen.vhdl_mod (-7) (-3));
  check_int "6 mod -3" ~expected:0 (Gen.vhdl_mod 6 (-3));
  check_int "-7 rem 3" ~expected:(-1) (Gen.vhdl_rem (-7) 3);
  check_int "7 rem -3" ~expected:1 (Gen.vhdl_rem 7 (-3));
  check_int "2 ** 10" ~expected:1024 (Gen.vhdl_pow 2 10);
  check_int "(-3) ** 3" ~expected:(-27) (Gen.vhdl_pow (-3) 3);
  check_int "5 ** 0" ~expected:1 (Gen.vhdl_pow 5 0);
  let e = Gen.Bin (Gen.Add, Gen.Lit 3, Gen.Bin (Gen.Mod, Gen.Neg (Gen.Ref "K0"), Gen.Pow (2, 3))) in
  check "expression text" (Gen.to_vhdl e = "(3 + ((-K0) mod (2 ** 3)))");
  check_int "expression value" ~expected:(3 + 3) (Gen.eval (fun _ -> 5) e);
  check "zero divisor is undefined"
    (match Gen.eval (fun _ -> 0) (Gen.Bin (Gen.Div, Gen.Lit 1, Gen.Ref "K0")) with
    | _ -> false
    | exception Gen.Undefined -> true);

  (* divider taps: a 5 ns clock from '0' through three stages from '0'
     count falling clock edges in binary *)
  let ch = { Gen.half_ns = 5; clk_init = 0; inits = [| 0; 0; 0 |] } in
  check "taps at 10 ns" (Gen.taps_at ch ~horizon_ns:10 = [| 1; 0; 0 |]);
  check "taps at 20 ns" (Gen.taps_at ch ~horizon_ns:20 = [| 0; 1; 0 |]);
  check "taps at 35 ns" (Gen.taps_at ch ~horizon_ns:35 = [| 1; 1; 0 |]);
  (* starting high, the first transition falls *)
  let hi = { Gen.half_ns = 5; clk_init = 1; inits = [| 1; 0 |] } in
  check "taps from '1' at 5 ns" (Gen.taps_at hi ~horizon_ns:5 = [| 0; 1 |]);

  (* inverter chains: the last net flips once per inverting cell *)
  check_int "200 inverters from '0'" ~expected:0 (Gen.board_parity ~n0:0 (Array.make 200 0));
  check_int "one inverter from '0'" ~expected:1 (Gen.board_parity ~n0:0 [| 1 |]);
  check_int "two inverters and a buffer from '1'" ~expected:1
    (Gen.board_parity ~n0:1 [| 0; 2; 1 |]);
  check_int "buffers only from '1'" ~expected:1 (Gen.board_parity ~n0:1 [| 2; 2; 2 |]);

  if !failures > 0 then exit 1
