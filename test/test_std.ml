(* The predefined STANDARD package, value images, type helpers, and the
   small utility modules. *)

let test_standard_types () =
  let env = Std.env () in
  let is_type name =
    match Env.lookup env name with
    | (Denot.Dtype _ | Denot.Dsubtype _) :: _ -> true
    | _ -> false
  in
  List.iter
    (fun n -> Alcotest.(check bool) n true (is_type n))
    [
      "BOOLEAN"; "BIT"; "CHARACTER"; "INTEGER"; "REAL"; "TIME"; "STRING"; "BIT_VECTOR";
      "NATURAL"; "POSITIVE"; "SEVERITY_LEVEL";
    ];
  (* enumeration literals are visible *)
  (match Env.lookup env "TRUE" with
  | [ Denot.Denum_lit { pos = 1; _ } ] -> ()
  | _ -> Alcotest.fail "TRUE should be position 1 of BOOLEAN");
  (match Env.lookup env "'0'" with
  | Denot.Denum_lit _ :: _ -> ()
  | _ -> Alcotest.fail "'0' should be visible");
  (* CHARACTER has the full 128-literal set *)
  match Types.enum_literals Std.character with
  | Some lits -> Alcotest.(check int) "128 characters" 128 (Array.length lits)
  | None -> Alcotest.fail "CHARACTER not an enumeration"

let test_time_units () =
  let env = Std.env () in
  let scale name =
    match Env.lookup env name with
    | Denot.Dphys_unit { scale; _ } :: _ -> scale
    | _ -> Alcotest.failf "no unit %s" name
  in
  Alcotest.(check int) "fs" 1 (scale "FS");
  Alcotest.(check int) "ns" 1_000_000 (scale "NS");
  Alcotest.(check int) "us = 1000 ns" (1000 * scale "NS") (scale "US");
  Alcotest.(check int) "min = 60 sec" (60 * scale "SEC") (scale "MIN")

let test_value_images () =
  Alcotest.(check string) "int" "42" (Value.image (Value.Vint 42));
  Alcotest.(check string) "bit" "'1'" (Value.image ~ty:Std.bit (Value.Venum 1));
  Alcotest.(check string) "boolean" "TRUE" (Value.image ~ty:Std.boolean (Value.Venum 1));
  Alcotest.(check string) "string value" "\"hi\""
    (Value.image ~ty:Std.string_ty (Std.string_value "hi"));
  let bv = Std.bit_vector_value "1010" in
  Alcotest.(check string) "bit_vector" "\"1010\"" (Value.image ~ty:Std.bit_vector bv);
  Alcotest.(check string) "record"
    "(X => 1, Y => 2)"
    (Value.image (Value.Vrecord [ ("X", Value.Vint 1); ("Y", Value.Vint 2) ]))

let test_string_round_trips () =
  Alcotest.(check string) "string_value/value_string" "hello"
    (Std.value_string (Std.string_value "hello"))

let test_type_helpers () =
  Alcotest.(check bool) "INTEGER discrete" true (Types.is_discrete Std.integer);
  Alcotest.(check bool) "REAL not discrete" false (Types.is_discrete Std.real);
  Alcotest.(check bool) "BIT_VECTOR array" true (Types.is_array Std.bit_vector);
  Alcotest.(check bool) "unconstrained" false (Types.is_constrained_array Std.bit_vector);
  let bv4 = Types.subtype Std.bit_vector ~constr:(Types.Crange (0, Types.To, 3)) in
  Alcotest.(check bool) "constrained subtype" true (Types.is_constrained_array bv4);
  Alcotest.(check bool) "subtype compatible with base" true (Types.compatible bv4 Std.bit_vector);
  Alcotest.(check (option (pair int int))) "bounds" (Some (0, 3)) (Types.bounds bv4);
  Alcotest.(check (option int)) "enum pos" (Some 1) (Types.enum_pos Std.boolean "TRUE");
  Alcotest.(check string) "short name" "BIT_VECTOR" (Types.short_name Std.bit_vector)

let test_default_values () =
  (* scalars default to the leftmost value of their subtype *)
  (match Value.default_of Std.positive with
  | Value.Vint 1 -> ()
  | v -> Alcotest.failf "POSITIVE default should be 1, got %s" (Value.image v));
  (match Value.default_of Std.boolean with
  | Value.Venum 0 -> ()
  | _ -> Alcotest.fail "BOOLEAN default should be FALSE");
  let bv4 = Types.subtype Std.bit_vector ~constr:(Types.Crange (3, Types.Downto, 0)) in
  match Value.default_of bv4 with
  | Value.Varray { bounds = (3, Types.Downto, 0); elems } ->
    Alcotest.(check int) "4 elements" 4 (Array.length elems)
  | _ -> Alcotest.fail "bad array default"

let test_range_helpers () =
  Alcotest.(check int) "to length" 4 (Value.range_length (1, Types.To, 4));
  Alcotest.(check int) "downto length" 4 (Value.range_length (4, Types.Downto, 1));
  Alcotest.(check int) "null range" 0 (Value.range_length (4, Types.To, 1));
  Alcotest.(check (list int)) "downto indices" [ 3; 2; 1 ]
    (Value.range_indices (3, Types.Downto, 1));
  Alcotest.(check (option int)) "offset in downto" (Some 0) (Value.array_offset (3, Types.Downto, 1) 3);
  Alcotest.(check (option int)) "out of range" None (Value.array_offset (3, Types.Downto, 1) 4)

let test_stripped_line_count () =
  let module U = Vhdl_util.Unix_compat in
  Alcotest.(check int) "plain" 3 (U.stripped_line_count "a\nb\nc");
  Alcotest.(check int) "blanks and comments" 2
    (U.stripped_line_count ~comment_prefixes:[ "--" ] "a\n\n-- x\n  -- y\nb\n");
  Alcotest.(check int) "empty" 0 (U.stripped_line_count "")

let test_phase_timer () =
  let module T = Vhdl_util.Phase_timer in
  let t = T.create () in
  let spin () =
    (* burn a little CPU time so self-time comparisons have signal *)
    let acc = ref 0 in
    for i = 1 to 200_000 do
      acc := !acc + i
    done;
    ignore !acc
  in
  T.time t "alpha" (fun () ->
      spin ();
      (* a nested frame charges its own phase, not alpha's *)
      T.time t "gamma" spin);
  T.time t "beta" (fun () -> ());
  let report = T.report t in
  Alcotest.(check (list string)) "phases in first-use order" [ "alpha"; "gamma"; "beta" ]
    (List.map fst report);
  Alcotest.(check bool) "self times non-negative" true
    (List.for_all (fun (_, s) -> s >= 0.0) report);
  Alcotest.(check bool) "total is the sum" true
    (abs_float (T.total t -. List.fold_left (fun a (_, s) -> a +. s) 0.0 report) < 1e-9);
  (* a frame of another timer, even inside one of t's, adds no phase to t *)
  let other = T.create () in
  T.time t "alpha" (fun () -> T.time other "elsewhere" spin);
  Alcotest.(check (list string)) "no stray phase" [ "alpha"; "gamma"; "beta" ]
    (List.map fst (T.report t));
  Alcotest.(check (list string)) "the other timer's own phase" [ "elsewhere" ]
    (List.map fst (T.report other))

let suite =
  [
    Alcotest.test_case "STANDARD types and literals" `Quick test_standard_types;
    Alcotest.test_case "TIME units" `Quick test_time_units;
    Alcotest.test_case "value images" `Quick test_value_images;
    Alcotest.test_case "string round-trips" `Quick test_string_round_trips;
    Alcotest.test_case "type helpers" `Quick test_type_helpers;
    Alcotest.test_case "default initial values" `Quick test_default_values;
    Alcotest.test_case "range helpers" `Quick test_range_helpers;
    Alcotest.test_case "stripped line counting" `Quick test_stripped_line_count;
    Alcotest.test_case "phase timer" `Quick test_phase_timer;
  ]
