(* VIF serialization: the codec's quoting and error offsets, round-trip
   properties over generated types, values, KIR expressions and statements,
   byte-identity goldens, and design-library behavior. *)

module W = Vif_codec.W
module R = Vif_codec.R

(* write then read, through the text *)
let via_text write read x = R.of_string read (W.to_string write x)

(* ---- the codec ---- *)

(* each atom, its written form, and the round trip *)
let atom_case name atom written =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) "written" written (W.to_string W.atom atom);
      Alcotest.(check string) "read back" atom (R.of_string R.atom written))

let atom_cases =
  [
    atom_case "bare atom" "hello" "hello";
    atom_case "atom with spaces" "two words" {|"two words"|};
    atom_case "atom with quotes" {|she said "hi"|} {|"she said \"hi\""|};
    atom_case "atom with newline" "a\nb" {|"a\nb"|};
    atom_case "empty atom" "" {|""|};
    atom_case "atom with a semicolon" "semi;colon" {|"semi;colon"|};
    atom_case "atom with parentheses" "arch:E(A)" {|"arch:E(A)"|};
  ]

let nested = W.list (W.list W.atom)
let read_nested = R.items (R.items R.atom)

let test_nested_and_comments () =
  let l = [ [ "a" ]; [ "b"; "c" ]; []; [ "d e" ] ] in
  Alcotest.(check string) "one space between items" {|((a) (b c) () ("d e"))|}
    (W.to_string nested l);
  Alcotest.(check (list (list string))) "round trip" l (via_text nested read_nested l);
  Alcotest.(check (list string)) "comments and whitespace skipped" [ "a"; "b" ]
    (R.of_string (R.items R.atom) "; header\n(a ; trailing\n b)  ");
  Alcotest.(check int) "ints in place" min_int (R.of_string R.int (string_of_int min_int))

let check_error name ~pos f =
  match f () with
  | _ -> Alcotest.failf "%s: no error" name
  | exception Vif_codec.Error e -> Alcotest.(check int) (name ^ ": offset") pos e.pos

let test_codec_errors () =
  check_error "unterminated list" ~pos:2 (fun () -> R.of_string (R.items R.atom) "(a");
  check_error "unterminated string" ~pos:6 (fun () -> R.of_string R.atom {|"open |});
  check_error "trailing input" ~pos:4 (fun () -> R.of_string (R.items R.atom) "(a) b");
  check_error "not an int" ~pos:1 (fun () -> R.of_string (R.items R.int) "(1x)");
  check_error "int overflow" ~pos:0 (fun () -> R.of_string R.int "4611686018427387904");
  check_error "wrong keyword" ~pos:1 (fun () -> R.of_string (R.field "name" R.atom) "(nme P)")

let atom_roundtrip =
  QCheck.Test.make ~name:"atoms round-trip (arbitrary strings)" ~count:500
    (QCheck.string_gen_of_size (QCheck.Gen.int_range 0 40) QCheck.Gen.printable)
    (fun s -> via_text W.atom R.atom s = s)

let nested_roundtrip =
  let atom = QCheck.Gen.(string_size ~gen:printable (int_range 0 8)) in
  QCheck.Test.make ~name:"nested lists round-trip" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 5) (list_size (int_range 0 5) atom)))
    (fun l -> via_text nested read_nested l = l)

(* ---- generators ---- *)

let gen_dir = QCheck.Gen.oneofl [ Types.To; Types.Downto ]

let gen_scalar_ty =
  QCheck.Gen.oneof
    [
      QCheck.Gen.return Std.integer;
      QCheck.Gen.return Std.boolean;
      QCheck.Gen.return Std.bit;
      QCheck.Gen.return Std.time;
      QCheck.Gen.return Std.real;
      QCheck.Gen.map
        (fun (lo, len) -> Types.subtype Std.integer ~constr:(Types.Crange (lo, Types.To, lo + len)))
        QCheck.Gen.(pair (int_range (-100) 100) (int_range 0 50));
      QCheck.Gen.map
        (fun n ->
          {
            Types.base = Printf.sprintf "WORK.T.E%d" n;
            kind = Types.Kenum (Array.init (max 1 n) (fun i -> Printf.sprintf "L%d" i));
            constr = None;
          })
        QCheck.Gen.(int_range 1 6);
    ]

let rec gen_ty depth st =
  if depth = 0 then gen_scalar_ty st
  else
    QCheck.Gen.frequency
      [
        (3, gen_scalar_ty);
        ( 1,
          QCheck.Gen.map2
            (fun index elem ->
              {
                Types.base = "WORK.T.ARR";
                kind = Types.Karray { index; elem };
                constr = Some (Types.Crange (0, Types.To, 3));
              })
            gen_scalar_ty
            (gen_ty (depth - 1)) );
        ( 1,
          QCheck.Gen.map
            (fun fields ->
              {
                Types.base = "WORK.T.REC";
                kind =
                  Types.Krecord (List.mapi (fun i t -> (Printf.sprintf "F%d" i, t)) fields);
                constr = None;
              })
            (QCheck.Gen.list_size (QCheck.Gen.int_range 1 3) (gen_ty (depth - 1))) );
      ]
      st

let rec gen_value depth st =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [
        map (fun n -> Value.Vint n) (int_range (-1000) 1000);
        map (fun n -> Value.Venum (abs n mod 4)) small_int;
        map (fun n -> Value.Vphys n) (int_range 0 1_000_000);
        map (fun x -> Value.Vfloat (Float.of_int x /. 8.0)) (int_range (-100) 100);
      ]
      st
  else
    frequency
      [
        (3, gen_value 0);
        ( 1,
          map
            (fun elems ->
              Value.Varray
                {
                  bounds = (0, Types.To, List.length elems - 1);
                  elems = Array.of_list elems;
                })
            (list_size (int_range 1 4) (gen_value (depth - 1))) );
        ( 1,
          map
            (fun vs ->
              Value.Vrecord (List.mapi (fun i v -> (Printf.sprintf "F%d" i, v)) vs))
            (list_size (int_range 1 3) (gen_value (depth - 1))) );
      ]
      st

let rec gen_expr depth st =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [
        map (fun v -> Kir.Elit v) (gen_value 1);
        map
          (fun (l, i) -> Kir.Evar { level = l; index = i; name = "V" })
          (pair (int_range 0 3) (int_range (-3) 10));
        map (fun i -> Kir.Egeneric { index = i; name = "G" }) (int_range 0 5);
        map (fun i -> Kir.Esig (Kir.Sig_local i)) (int_range 0 10);
        return (Kir.Esig Kir.Sig_guard);
        return (Kir.Esig_attr (Kir.Sig_local 0, Kir.Sa_event));
      ]
      st
  else
    frequency
      [
        (2, gen_expr 0);
        ( 2,
          map2
            (fun (op, a) b -> Kir.Ebin (op, a, b))
            (pair (oneofl [ Kir.Badd; Kir.Bmul; Kir.Band; Kir.Beq; Kir.Bconcat ])
               (gen_expr (depth - 1)))
            (gen_expr (depth - 1)) );
        (1, map (fun a -> Kir.Eun (Kir.Uneg, a)) (gen_expr (depth - 1)));
        (1, map2 (fun a i -> Kir.Eindex (a, i)) (gen_expr (depth - 1)) (gen_expr 0));
        (1, map (fun a -> Kir.Efield (a, "F1")) (gen_expr (depth - 1)));
        ( 1,
          map
            (fun args -> Kir.Ecall (Kir.F_user "WORK.P:F/INTEGER", args))
            (list_size (int_range 0 3) (gen_expr (depth - 1))) );
        (1, map (fun a -> Kir.Econvert (Kir.To_integer, a)) (gen_expr (depth - 1)));
        (1, map (fun a -> Kir.Earray_attr (a, Kir.At_length)) (gen_expr (depth - 1)));
      ]
      st

let ty_roundtrip =
  QCheck.Test.make ~name:"type descriptors round-trip through VIF" ~count:300
    (QCheck.make (gen_ty 2))
    (fun ty -> via_text Vif.write_ty Vif.read_ty ty = ty)

let value_roundtrip =
  QCheck.Test.make ~name:"values round-trip through VIF" ~count:300
    (QCheck.make (gen_value 3))
    (fun v -> Value.equal (via_text Vif.write_value Vif.read_value v) v)

let expr_roundtrip =
  QCheck.Test.make ~name:"KIR expressions round-trip through VIF" ~count:300
    (QCheck.make (gen_expr 3))
    (fun e -> via_text Vif.write_expr Vif.read_expr e = e)

(* random statements: covers targets, waveforms (incl. null transactions),
   loops with labels, calls with signal args, waits, and asserts *)
let gen_stmt depth0 =
  let open QCheck.Gen in
  let gen_target =
    map
      (fun (l, i) -> Kir.Tvar { level = l; index = i; name = "V" })
      (pair (int_range 0 2) (int_range (-2) 6))
  in
  let gen_sig_target = map (fun i -> Kir.Ts_sig (Kir.Sig_local i)) (int_range 0 6) in
  let gen_wave =
    list_size (int_range 1 3)
      (map2
         (fun v after ->
           { Kir.wv_value = v; wv_after = Option.map (fun n -> Kir.Elit (Value.Vint n)) after })
         (oneof [ return None; map Option.some (gen_expr 1) ])
         (opt (int_range 0 99)))
  in
  let rec go depth st =
    if depth = 0 then
      oneof
        [
          return Kir.Snull;
          map2 (fun t e -> Kir.Sassign (t, e, None)) gen_target (gen_expr 1);
          map3
            (fun target waveform guarded ->
              Kir.Ssig_assign
                { target; mode = Kir.Inertial; waveform; guarded; line = 1 })
            gen_sig_target gen_wave bool;
          map
            (fun c -> Kir.Sexit { cond = c; label = Some "L" })
            (oneof [ return None; map Option.some (gen_expr 0) ]);
          map
            (fun e -> Kir.Sreturn e)
            (oneof [ return None; map Option.some (gen_expr 1) ]);
          map2
            (fun c r ->
              Kir.Sassert { cond = c; report = r; severity = None; line = 2 })
            (gen_expr 1)
            (oneof [ return None; map Option.some (gen_expr 0) ]);
          map3
            (fun on until for_ ->
              Kir.Swait
                {
                  on = List.map (fun i -> Kir.Sig_local i) on;
                  until;
                  for_ = Option.map (fun n -> Kir.Elit (Value.Vint n)) for_;
                  line = 3;
                })
            (list_size (int_range 0 2) (int_range 0 5))
            (oneof [ return None; map Option.some (gen_expr 0) ])
            (opt (int_range 0 50));
        ]
        st
    else
      frequency
        [
          (2, go 0);
          ( 1,
            map3
              (fun c a b -> Kir.Sif ([ (c, a) ], b))
              (gen_expr 1)
              (list_size (int_range 0 2) (go (depth - 1)))
              (list_size (int_range 0 2) (go (depth - 1))) );
          ( 1,
            map2
              (fun body (lo, hi) ->
                Kir.Sfor
                  {
                    var = 0;
                    var_name = "I";
                    range = (Kir.Elit (Value.Vint lo), Types.To, Kir.Elit (Value.Vint hi));
                    body;
                    loop_label = Some "L";
                  })
              (list_size (int_range 1 2) (go (depth - 1)))
              (pair (int_range 0 3) (int_range 4 9)) );
          ( 1,
            map2
              (fun c body -> Kir.Swhile (c, body, None))
              (gen_expr 1)
              (list_size (int_range 1 2) (go (depth - 1))) );
          ( 1,
            map
              (fun args ->
                Kir.Scall
                  ( Kir.P_user "WORK.P:PR/INTEGER",
                    List.map
                      (fun e ->
                        {
                          Kir.ca_mode = Kir.Arg_in;
                          ca_expr = e;
                          ca_target = None;
                          ca_signal = None;
                        })
                      args ))
              (list_size (int_range 0 3) (gen_expr 1)) );
        ]
        st
  in
  go depth0

let stmt_roundtrip =
  QCheck.Test.make ~name:"KIR statements round-trip through VIF" ~count:300
    (QCheck.make (gen_stmt 3))
    (fun st -> via_text Vif.write_stmt Vif.read_stmt st = st)

let value_roundtrip_via_text =
  QCheck.Test.make ~name:"values survive the textual VIF form" ~count:200
    (QCheck.make (gen_value 3))
    (fun v ->
      let text = Vif_codec.indented (W.to_string Vif.write_value v) in
      Value.equal (R.of_string Vif.read_value text) v)

(* ---- statements ---- *)

let test_stmt_roundtrip () =
  let stmt =
    Kir.Sif
      ( [
          ( Kir.Ebin (Kir.Blt, Kir.Evar { level = 0; index = 0; name = "X" }, Kir.Elit (Value.Vint 5)),
            [
              Kir.Ssig_assign
                {
                  target = Kir.Ts_index (Kir.Ts_sig (Kir.Sig_local 2), Kir.Elit (Value.Vint 1));
                  mode = Kir.Transport;
                  waveform =
                    [
                      { Kir.wv_value = Some (Kir.Elit (Value.Venum 1)); wv_after = Some (Kir.Elit (Value.Vphys 5)) };
                    ];
                  guarded = true;
                  line = 12;
                };
              Kir.Swait { on = [ Kir.Sig_local 0 ]; until = None; for_ = None; line = 13 };
            ] );
        ],
        [
          Kir.Sfor
            {
              var = 0;
              var_name = "I";
              range = (Kir.Elit (Value.Vint 0), Kir.To, Kir.Elit (Value.Vint 7));
              body = [ Kir.Snext { cond = None; label = Some "OUTER" }; Kir.Snull ];
              loop_label = Some "OUTER";
            };
          Kir.Scall
            ( Kir.P_user "WORK.P:PR/INTEGER",
              [
                {
                  Kir.ca_mode = Kir.Arg_inout;
                  ca_expr = Kir.Evar { level = 0; index = 1; name = "Y" };
                  ca_target = Some (Kir.Tvar { level = 0; index = 1; name = "Y" });
                  ca_signal = None;
                };
              ] );
        ] )
  in
  Alcotest.(check bool) "statement round-trips" true
    (via_text Vif.write_stmt Vif.read_stmt stmt = stmt)

(* ---- libraries ---- *)

let mk_entity ?(seq = 0) name =
  let info =
    Unit_info.Uentity
      { Unit_info.en_name = name; en_generics = []; en_ports = []; en_context = [] }
  in
  {
    Unit_info.u_library = "WORK";
    u_key = Unit_info.key_of info;
    u_info = info;
    u_deps = [];
    u_source_lines = 3;
    u_sequence = seq;
  }

let mk_arch ?(seq = 0) ~entity name =
  let info =
    Unit_info.Uarch
      {
        Unit_info.ar_name = name;
        ar_entity = entity;
        ar_constants = [];
        ar_signals = [];
        ar_components = [];
        ar_subprograms = [];
        ar_body = [];
        ar_config_specs = [];
      }
  in
  {
    Unit_info.u_library = "WORK";
    u_key = Unit_info.key_of info;
    u_info = info;
    u_deps = [ ("WORK", "entity:" ^ entity) ];
    u_source_lines = 5;
    u_sequence = seq;
  }

let with_temp_dir f =
  let dir = Filename.temp_file "viftest" "" in
  Sys.remove dir;
  f dir

let test_library_disk_roundtrip () =
  with_temp_dir @@ fun dir ->
  let lib = Library.create ~dir ~name:"WORK" () in
  Library.insert lib (mk_entity "E1");
  Library.insert lib (mk_arch ~entity:"E1" "A1");
  (* a second library instance sees the units from disk, with dependencies
     resolved on read *)
  let lib2 = Library.create ~dir ~name:"WORK" () in
  (match Library.find lib2 ~library:"WORK" ~key:"arch:E1(A1)" with
  | Some u -> Alcotest.(check int) "arch deps loaded" 1 (List.length u.Unit_info.u_deps)
  | None -> Alcotest.fail "arch not found from disk");
  Alcotest.(check bool) "entity was pulled in as a dependency" true
    (Library.find lib2 ~library:"WORK" ~key:"entity:E1" <> None);
  Alcotest.(check int) "both units visible" 2 (List.length (Library.all lib2))

let test_library_sequence_order () =
  with_temp_dir @@ fun dir ->
  let lib = Library.create ~dir ~name:"WORK" () in
  Library.insert lib (mk_entity "E");
  Library.insert lib (mk_arch ~entity:"E" "FIRST");
  Library.insert lib (mk_arch ~entity:"E" "SECOND");
  Library.insert lib (mk_arch ~entity:"E" "THIRD");
  let seqs =
    Library.all lib
    |> List.filter_map (fun (u : Unit_info.compiled_unit) ->
           match u.Unit_info.u_info with
           | Unit_info.Uarch ar -> Some (ar.Unit_info.ar_name, u.Unit_info.u_sequence)
           | _ -> None)
  in
  let third = List.assoc "THIRD" seqs in
  Alcotest.(check bool) "latest has the highest sequence" true
    (List.for_all (fun (_, s) -> s <= third) seqs);
  (* recompiling FIRST makes it the latest: the §3.3 nondeterminism *)
  Library.insert lib (mk_arch ~entity:"E" "FIRST");
  let lib2 = Library.create ~dir ~name:"WORK" () in
  let seqs2 =
    Library.all lib2
    |> List.filter_map (fun (u : Unit_info.compiled_unit) ->
           match u.Unit_info.u_info with
           | Unit_info.Uarch ar -> Some (ar.Unit_info.ar_name, u.Unit_info.u_sequence)
           | _ -> None)
  in
  Alcotest.(check bool) "recompiled FIRST is now latest (persisted)" true
    (List.assoc "FIRST" seqs2 > List.assoc "THIRD" seqs2)

let test_reference_library () =
  with_temp_dir @@ fun ref_dir ->
  with_temp_dir @@ fun work_dir ->
  let ref_lib = Library.create ~dir:ref_dir ~name:"GATES" () in
  Library.insert ref_lib (mk_entity "NAND2");
  let work = Library.create ~dir:work_dir ~name:"WORK" () in
  Library.add_reference work ~as_name:"GATES" ref_lib;
  Alcotest.(check bool) "reference library resolves" true
    (Library.find work ~library:"GATES" ~key:"entity:NAND2" <> None);
  Alcotest.(check bool) "work does not leak into reference lookups" true
    (Library.find work ~library:"GATES" ~key:"entity:MISSING" = None)

let test_human_readable_dump () =
  with_temp_dir @@ fun dir ->
  let lib = Library.create ~dir ~name:"WORK" () in
  Library.insert lib (mk_entity "DUMPME");
  match Library.dump lib ~library:"WORK" ~key:"entity:DUMPME" with
  | Some text ->
    Alcotest.(check bool) "mentions the unit" true (Astring_contains.contains text "DUMPME");
    Alcotest.(check bool) "is multi-line (indented)" true (String.contains text '\n')
  | None -> Alcotest.fail "dump failed"

(* ---- byte-identity goldens ---- *)

(* test/vif_golden holds, per corpus design (plus deep_chain.vhd, whose
   90-term sum nests past Format's maximum indentation), the VIF files the
   earlier tree-based codec wrote, and three units' human-readable dumps;
   test/cli/vif_golden.t checks that compiling the designs writes them. *)
let golden_path name =
  Filename.concat
    (if Sys.file_exists "vif_golden" then "vif_golden" else Filename.concat "test" "vif_golden")
    name

let golden_vifs () =
  let dirs =
    Sys.readdir (golden_path "") |> Array.to_list |> List.sort compare
    |> List.filter (fun d -> Sys.is_directory (golden_path d))
  in
  List.concat_map
    (fun d ->
      Sys.readdir (golden_path d) |> Array.to_list |> List.sort compare
      |> List.map (fun f -> Filename.concat (golden_path d) f))
    dirs

(* every proper prefix of a unit's text is malformed: decoding it raises
   the codec's error, at an offset inside the prefix, and nothing else *)
let test_prefixes_rejected () =
  List.iter
    (fun path ->
      let text = Vhdl_util.Unix_compat.read_file path in
      for k = 0 to String.length text - 1 do
        match Vif_units.of_string (String.sub text 0 k) with
        | _ -> Alcotest.failf "%s: prefix of %d bytes decoded" path k
        | exception Vif_codec.Error { pos; _ } ->
          if pos > k then Alcotest.failf "%s: prefix of %d bytes: error at %d" path k pos
      done)
    (golden_vifs ())

(* fields are read in the order the writer emits them: swapping the last
   two is rejected where the first of them should start *)
let test_reordered_fields_rejected () =
  let text = Vhdl_util.Unix_compat.read_file (golden_path "kernel_mix/entity@TFF.vif") in
  let rec find sub i = if String.sub text i (String.length sub) = sub then i else find sub (i + 1) in
  let lines = find "(source_lines" 0 and seq = find "(sequence" 0 in
  let field i j = String.sub text i (j - i) in
  let swapped =
    field 0 lines ^ field seq (String.length text - 1) ^ " "
    ^ field lines (seq - 1) ^ ")"
  in
  Alcotest.(check int) "same length" (String.length text) (String.length swapped);
  check_error "reordered" ~pos:(lines + 1) (fun () -> Vif_units.of_string swapped)

let test_corrupt_file_in_library () =
  with_temp_dir @@ fun dir ->
  let lib = Library.create ~dir ~name:"WORK" () in
  Library.insert lib (mk_entity "E1");
  let file = Filename.concat dir (Library.file_of_key "entity:E1") in
  let text = Vhdl_util.Unix_compat.read_file file in
  Vhdl_util.Unix_compat.write_file file (String.sub text 0 30);
  let expect name f =
    match f (Library.create ~dir ~name:"WORK" ()) with
    | _ -> Alcotest.failf "%s: no error" name
    | exception Library.Library_error msg ->
      Alcotest.(check bool) (name ^ " names the file") true (Astring_contains.contains msg file);
      Alcotest.(check bool) (name ^ " names the offset") true
        (Astring_contains.contains msg "at byte ")
  in
  expect "find" (fun lib -> ignore (Library.find lib ~library:"WORK" ~key:"entity:E1"));
  expect "all" (fun lib -> ignore (Library.all lib))

let test_vif_goldens () =
  List.iter
    (fun path ->
      let text = Vhdl_util.Unix_compat.read_file path in
      Alcotest.(check string) (path ^ " re-written") text
        (Vif_units.to_string (Vif_units.of_string text)))
    (golden_vifs ());
  List.iter
    (fun (stem, key) ->
      let lib = Library.create ~dir:(golden_path stem) ~name:"WORK" () in
      Alcotest.(check (option string)) (stem ^ ": dump of " ^ key)
        (Some (Vhdl_util.Unix_compat.read_file (golden_path (stem ^ ".dump"))))
        (Option.map (fun d -> d ^ "\n") (Library.dump lib ~library:"WORK" ~key)))
    [
      ("deep_chain", "arch:DEEP(CHAIN)");
      ("kernel_mix", "package:KMIX_PKG");
      ("golden_seed12_configured", "arch:BOARD(NET)");
    ]

let suite =
  atom_cases
  @ [
    Alcotest.test_case "nested lists, comments, ints" `Quick test_nested_and_comments;
    Alcotest.test_case "malformed text raises at its offset" `Quick test_codec_errors;
    QCheck_alcotest.to_alcotest atom_roundtrip;
    QCheck_alcotest.to_alcotest nested_roundtrip;
    QCheck_alcotest.to_alcotest ty_roundtrip;
    QCheck_alcotest.to_alcotest value_roundtrip;
    QCheck_alcotest.to_alcotest expr_roundtrip;
    QCheck_alcotest.to_alcotest stmt_roundtrip;
    QCheck_alcotest.to_alcotest value_roundtrip_via_text;
    Alcotest.test_case "statements round-trip" `Quick test_stmt_roundtrip;
    Alcotest.test_case "disk library round-trip with dependency fix-up" `Quick
      test_library_disk_roundtrip;
    Alcotest.test_case "compilation-order stamps (latest-arch input)" `Quick
      test_library_sequence_order;
    Alcotest.test_case "reference libraries are consulted" `Quick test_reference_library;
    Alcotest.test_case "human-readable VIF dump" `Quick test_human_readable_dump;
    Alcotest.test_case "golden VIF files re-write and dump byte for byte" `Quick test_vif_goldens;
    Alcotest.test_case "every proper prefix of a VIF file is rejected" `Quick
      test_prefixes_rejected;
    Alcotest.test_case "reordered fields are rejected" `Quick test_reordered_fields_rejected;
    Alcotest.test_case "a corrupt VIF file raises Library_error" `Quick
      test_corrupt_file_in_library;
  ]
