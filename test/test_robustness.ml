(* Robustness: malformed programs must produce diagnostics (or structured
   errors) — never internal failures or crashes.  The corpus covers the
   error classes the paper's sections 3.1-3.4 worry about. *)

let never_crashes src =
  let c = Vhdl_compiler.create () in
  match Vhdl_compiler.compile ~fail_on_error:false c src with
  | _ -> true
  | exception Vhdl_compiler.Compile_error _ -> true
  | exception Pval.Internal _ -> false
  | exception Grammar.Ill_formed _ -> false

let check src = Alcotest.(check bool) ("no crash: " ^ String.escaped src) true (never_crashes src)

let expect_rejected src =
  let c = Vhdl_compiler.create () in
  match Vhdl_compiler.compile c src with
  | _ -> Alcotest.failf "expected rejection: %s" (String.escaped src)
  | exception Vhdl_compiler.Compile_error _ -> ()

let corpus =
  [
    (* syntax errors *)
    "entity";
    "entity x is";
    "entity x is end y;;";
    "architecture a of;";
    "garbage tokens everywhere";
    ");;((";
    (* name errors *)
    "entity t is end t;\narchitecture a of t is\nbegin\n  nosuch <= 1;\nend a;";
    "entity t is end t;\narchitecture a of t is\n  signal s : missing_type;\nbegin\nend a;";
    "architecture a of missing_entity is\nbegin\nend a;";
    (* type errors *)
    "entity t is end t;\narchitecture a of t is\n  signal s : bit := 42;\nbegin\nend a;";
    "entity t is end t;\narchitecture a of t is\n  signal s : integer := '1';\nbegin\nend a;";
    "entity t is end t;\narchitecture a of t is\n  signal s : integer;\nbegin\n  s <= true and 1;\nend a;";
    (* structure errors *)
    "entity t is end t;\narchitecture a of t is\n  variable v : integer;\nbegin\nend a;";
    "entity t is end t;\narchitecture a of t is\nbegin\n  p : process (nosig)\n  begin\n  end process;\nend a;";
    "entity t is end t;\narchitecture a of t is\nbegin\n  u : missing_component port map (x => 1);\nend a;";
    (* subprogram errors *)
    "entity t is end t;\narchitecture a of t is\n  function f (x : integer) return integer is\n  begin\n    return true;\n  end f;\nbegin\nend a;";
    "entity t is end t;\narchitecture a of t is\nbegin\n  p : process\n  begin\n    return 1;\n    wait;\n  end process;\nend a;";
    (* case/choice errors *)
    "entity t is end t;\narchitecture a of t is\n  signal s : integer;\nbegin\n  p : process\n    variable v : integer := 0;\n  begin\n    case v is\n      when v => s <= 1;\n    end case;\n    wait;\n  end process;\nend a;";
    (* use clause errors *)
    "use work.nopackage.all;\nentity t is end t;\narchitecture a of t is\nbegin\nend a;";
    "use nolib.pkg.all;\nentity t is end t;\narchitecture a of t is\nbegin\nend a;";
    (* configuration errors *)
    "configuration c of missing is\n  for a\n  end for;\nend c;";
    (* homograph / redeclaration shenanigans *)
    "entity t is end t;\narchitecture a of t is\n  signal s : bit;\n  signal s : bit;\nbegin\nend a;";
    (* deep nesting *)
    "entity t is end t;\narchitecture a of t is\nbegin\n  p : process\n  begin\n    if true then if true then if true then if true then\n      null;\n    end if; end if; end if; end if;\n    wait;\n  end process;\nend a;";
    (* escape-audit probes: each of these once pointed at a raw
       invalid_arg / assert false; they must answer with diagnostics *)
    "entity t is end t;\narchitecture a of t is\n  type r is record\n    f : integer;\n  end record;\n  signal x, y : r;\n  signal b : boolean;\nbegin\n  b <= x < y;\nend a;";
    "entity t is end t;\narchitecture a of t is\nbegin\n  p : process\n  begin\n    assert false report 42;\n    wait;\n  end process;\nend a;";
    "entity t is end t;\narchitecture a of t is\n  signal s : bit;\nbegin\n  p : process\n  begin\n    if s then\n      null;\n    end if;\n    wait;\n  end process;\nend a;";
    "entity t is end t;\narchitecture a of t is\n  function \"++\" (x : integer) return integer is\n  begin\n    return x;\n  end;\nbegin\nend a;";
    (* empty-ish inputs *)
    "";
    "-- just a comment\n";
  ]

let test_corpus () = List.iter check corpus

let test_rejections () =
  List.iter expect_rejected
    [
      "entity t is end t;\narchitecture a of t is\nbegin\n  nosuch <= 1;\nend a;";
      "entity t is end t;\narchitecture a of t is\n  signal s : bit := 42;\nbegin\nend a;";
      "entity t is end t;\narchitecture a of t is\n  variable v : integer;\nbegin\nend a;";
      "entity t is end t;\narchitecture a of t is\nbegin\n  p : process\n  begin\n    return 1;\n    wait;\n  end process;\nend a;";
      (* record ordering and a non-STRING report expression must be user
         diagnostics, not Value/Std invalid_arg escapes *)
      "entity t is end t;\narchitecture a of t is\n  type r is record\n    f : integer;\n  end record;\n  signal x, y : r;\n  signal b : boolean;\nbegin\n  b <= x < y;\nend a;";
      "entity t is end t;\narchitecture a of t is\nbegin\n  p : process\n  begin\n    assert false report 42;\n    wait;\n  end process;\nend a;";
    ]

(* end-name mismatches are diagnosed but not fatal to unit construction *)
let test_end_name_mismatch () =
  let c = Vhdl_compiler.create () in
  (match
     Vhdl_compiler.compile ~fail_on_error:false c
       "entity good is end wrong;\narchitecture a of good is\nbegin\nend alsowrong;"
   with
  | _ -> ()
  | exception _ -> Alcotest.fail "should not be fatal");
  let msgs = Vhdl_compiler.diagnostics c in
  Alcotest.(check bool) "mismatch diagnosed" true
    (List.exists (fun d -> Astring_contains.contains d.Diag.message "mismatched") msgs)

(* a sensitivity-list process containing wait is illegal (LRM 9.2) *)
(* LRM 8.x: functions may neither assign signals nor wait *)
let test_function_purity () =
  expect_rejected
    "entity t is end t;\narchitecture a of t is\n  signal s : bit;\nbegin\n  p : process\n    function f return integer is\n    begin\n      s <= '1';\n      return 1;\n    end f;\n    variable v : integer;\n  begin\n    v := f;\n    wait;\n  end process;\nend a;";
  expect_rejected
    "entity t is end t;\narchitecture a of t is\nbegin\n  p : process\n    function f return integer is\n    begin\n      wait for 1 ns;\n      return 1;\n    end f;\n    variable v : integer;\n  begin\n    v := f;\n    wait;\n  end process;\nend a;"

let test_homograph_rejected () =
  expect_rejected
    "entity t is end t;\narchitecture a of t is\n  signal s : bit;\n  signal s : bit;\nbegin\nend a;";
  expect_rejected
    "entity t is end t;\narchitecture a of t is\n  signal s : bit;\n  constant s : integer := 1;\nbegin\nend a;";
  (* overloadable kinds may share a name *)
  let c = Vhdl_compiler.create () in
  (match
     Vhdl_compiler.compile c
       "entity t is end t;\narchitecture a of t is\n  function f (x : integer) return integer is\n  begin\n    return x;\n  end f;\n  function f (x : bit) return integer is\n  begin\n    return 0;\n  end f;\nbegin\nend a;"
   with
  | _ -> ()
  | exception Vhdl_compiler.Compile_error _ ->
    Alcotest.fail "overloaded functions must be accepted")

let test_descending_waveform_rejected () =
  expect_rejected
    "entity t is end t;\narchitecture a of t is\n  signal s : bit;\nbegin\n  p : process\n  begin\n    s <= '1' after 20 ns, '0' after 10 ns;\n    wait;\n  end process;\nend a;"

let test_sensitivity_plus_wait () =
  expect_rejected
    "entity t is end t;\narchitecture a of t is\n  signal s : bit;\nbegin\n  p : process (s)\n  begin\n    wait for 1 ns;\n  end process;\nend a;"

(* random token soup never crashes the compiler *)
let fuzz_tokens =
  let words =
    [|
      "entity"; "architecture"; "is"; "end"; "begin"; "process"; "signal"; "of";
      "if"; "then"; "wait"; "for"; "("; ")"; ";"; ":"; "<="; ":="; ","; "'1'";
      "42"; "x"; "y"; "bit"; "integer"; "+"; "*"; "=>"; "when"; "case"; "loop";
      "\"s\""; "."; "'"; "use"; "work"; "all"; "port"; "map"; "type"; "array";
    |]
  in
  QCheck.Test.make ~name:"random token soup never crashes" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 60) (int_range 0 (Array.length words - 1)))
    (fun picks ->
      let src = String.concat " " (List.map (fun i -> words.(i)) picks) in
      never_crashes src)

(* mutation fuzz: start from a *valid* generated design, damage it with a
   few random token-level edits (delete / duplicate / swap), and require
   the compiler to answer with diagnostics or success — never a crash.
   Mutations of valid programs probe much deeper paths than token soup:
   most of the program still makes sense, so analysis proceeds far past
   the parser before hitting the damage. *)
let fuzz_mutations =
  let split_words src =
    String.split_on_char '\n' src
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (fun w -> w <> "")
  in
  let gen =
    QCheck.Gen.(
      map3
        (fun pick edits seeds -> (pick, edits, seeds))
        (int_range 0 2)
        (int_range 1 4)
        (list_size (return 8) (int_range 0 1_000_000)))
  in
  let arb =
    QCheck.make gen ~print:(fun (pick, edits, _) ->
        Printf.sprintf "base %d with %d edits" pick edits)
  in
  QCheck.Test.make ~name:"mutated valid designs never crash" ~count:120 arb
    (fun (pick, edits, seeds) ->
      let base =
        match pick with
        | 0 -> Workload.behavioral ~name:"m0" ~states:3 ~exprs:4
        | 1 -> Workload.package ~name:"m1" ~n:5
        | _ -> Workload.expression_heavy ~n:4
      in
      let words = Array.of_list (split_words base) in
      let words = ref (Array.to_list words) in
      let seeds = Array.of_list seeds in
      for k = 0 to edits - 1 do
        let ws = Array.of_list !words in
        let n = Array.length ws in
        if n > 2 then begin
          let at = seeds.(2 * k mod 8) mod n in
          match seeds.((2 * k + 1) mod 8) mod 3 with
          | 0 ->
            (* delete *)
            words := Array.to_list ws |> List.filteri (fun i _ -> i <> at)
          | 1 ->
            (* duplicate *)
            words :=
              List.concat
                (List.mapi (fun i w -> if i = at then [ w; w ] else [ w ]) (Array.to_list ws))
          | _ ->
            (* swap with neighbour *)
            let j = (at + 1) mod n in
            let tmp = ws.(at) in
            ws.(at) <- ws.(j);
            ws.(j) <- tmp;
            words := Array.to_list ws
        end
      done;
      never_crashes (String.concat " " !words))

(* ------------------------------------------------------------------ *)
(* Crash containment: parser recovery, the per-unit firewall, budgets *)

(* One compile reports *all* syntax errors at stable lines, and the
   well-formed sibling units still reach the library. *)
let test_multi_error_recovery () =
  let src =
    String.concat "\n"
      [
        "entity good1 is end good1;";
        "entity bad1 is";
        "  port garbage ( ;";
        "end bad1;";
        "entity good2 is end good2;";
        "architecture broken of good1 is";
        "  signal s : ) bit;";
        "end broken;";
        "entity good3 is end good3;";
        "package bad2 is";
        "  constant c : := 1;";
        "end bad2;";
        "entity good4 is end good4;";
      ]
  in
  let c = Vhdl_compiler.create () in
  let units = Vhdl_compiler.compile ~fail_on_error:false c src in
  let error_lines =
    Vhdl_compiler.diagnostics c
    |> List.filter Diag.is_error
    |> List.map (fun d -> d.Diag.line)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "one error per damaged unit, stable lines"
    [ 3; 7; 11 ] error_lines;
  let keys = List.map (fun (u : Unit_info.compiled_unit) -> u.Unit_info.u_key) units in
  List.iter
    (fun k -> Alcotest.(check bool) ("sibling survives: " ^ k) true (List.mem k keys))
    [ "entity:GOOD1"; "entity:GOOD2"; "entity:GOOD3"; "entity:GOOD4" ]

(* An internal exception injected into one unit's analysis becomes an
   internal-error diagnostic tagged with phase and unit; siblings compile. *)
let test_poisoned_unit_firewall () =
  let src =
    "entity good1 is end good1;\nentity bad is end bad;\nentity good2 is end good2;"
  in
  let c = Vhdl_compiler.create () in
  let units =
    Difftest_fault.with_poison "entity:BAD" (fun () ->
        Vhdl_compiler.compile ~fail_on_error:false c src)
  in
  let internals = List.filter Diag.is_internal (Vhdl_compiler.diagnostics c) in
  (match internals with
  | [ d ] -> (
    match d.Diag.origin with
    | Diag.Internal { phase; unit_name } ->
      Alcotest.(check string) "phase" "analysis" phase;
      Alcotest.(check (option string)) "unit" (Some "entity BAD") unit_name
    | _ -> Alcotest.fail "expected Internal origin")
  | ds -> Alcotest.failf "expected exactly one internal diagnostic, got %d" (List.length ds));
  let keys = List.map (fun (u : Unit_info.compiled_unit) -> u.Unit_info.u_key) units in
  Alcotest.(check bool) "good1 survives" true (List.mem "entity:GOOD1" keys);
  Alcotest.(check bool) "good2 survives" true (List.mem "entity:GOOD2" keys);
  Alcotest.(check bool) "poisoned unit reported" true
    (List.exists
       (fun r -> r.Supervisor.ur_status = Supervisor.Poisoned)
       (Vhdl_compiler.last_report c))

(* A unit reaches the library only when its analysis is error-free: the
   erroneous architecture between two clean entities is reported as
   errored, returned by no compile, and written nowhere. *)
let test_errored_unit_not_committed () =
  let dir = Filename.temp_file "commit" "" in
  Sys.remove dir;
  let src =
    "entity e is end e;\narchitecture a of e is\n  signal s : bit := 42;\nbegin\nend a;\nentity f is end f;"
  in
  let c = Vhdl_compiler.create ~work_dir:dir () in
  let units = Vhdl_compiler.compile ~fail_on_error:false c src in
  Alcotest.(check (list string)) "compile returns the clean units"
    [ "entity:E"; "entity:F" ]
    (List.map (fun (u : Unit_info.compiled_unit) -> u.Unit_info.u_key) units);
  let lib = Vhdl_compiler.work_library c in
  Alcotest.(check bool) "A is not in the library" true
    (Library.find lib ~library:"WORK" ~key:"arch:E(A)" = None);
  Alcotest.(check bool) "A has no VIF file" false
    (Sys.file_exists (Filename.concat dir (Library.file_of_key "arch:E(A)")));
  Alcotest.(check bool) "E has its VIF file" true
    (Sys.file_exists (Filename.concat dir (Library.file_of_key "entity:E")));
  Alcotest.(check (list string)) "the report still lists A as errored" [ "architecture A" ]
    (List.filter_map
       (fun r ->
         if r.Supervisor.ur_status = Supervisor.Errored then Some r.Supervisor.ur_name
         else None)
       (Vhdl_compiler.last_report c))

(* The simulation firewall: an architecture written by another tool, whose
   process asserts with a non-STRING report, escapes the kernel; [run]
   turns that into an internal-simulation diagnostic. *)
let test_simulation_firewall () =
  let c = Vhdl_compiler.create () in
  ignore (Vhdl_compiler.compile c "entity img is end img;");
  let proc =
    {
      Kir.proc_label = "P";
      proc_sensitivity = [];
      proc_locals = [];
      proc_body =
        [
          Kir.Sassert
            {
              cond = Kir.Elit Value.v_false;
              report = Some (Kir.Elit (Value.Vint 3));
              severity = None;
              line = 7;
            };
          Kir.Swait { on = []; until = None; for_ = None; line = 8 };
        ];
      proc_postponed_wait = false;
    }
  in
  let info =
    Unit_info.Uarch
      {
        Unit_info.ar_name = "A";
        ar_entity = "IMG";
        ar_constants = [];
        ar_signals = [];
        ar_components = [];
        ar_subprograms = [];
        ar_body = [ Kir.C_process proc ];
        ar_config_specs = [];
      }
  in
  Library.insert (Vhdl_compiler.work_library c)
    {
      Unit_info.u_library = "WORK";
      u_key = Unit_info.key_of info;
      u_info = info;
      u_deps = [ ("WORK", "entity:IMG") ];
      u_source_lines = 10;
      u_sequence = 0;
    };
  let sim = Vhdl_compiler.elaborate c ~top:"img" () in
  match Vhdl_compiler.run c sim ~max_ns:10 with
  | _ -> Alcotest.fail "the kernel escape should surface as Compile_error"
  | exception Vhdl_compiler.Compile_error [ { Diag.origin = Diag.Internal { phase; _ }; _ } ] ->
    Alcotest.(check string) "phase" "simulation" phase

(* Pathological nesting is a diagnostic, not a Stack_overflow (the parse
   stack is depth-limited); moderate nesting still compiles. *)
let deep_parens n =
  Printf.sprintf
    "entity t is end t;\narchitecture a of t is\n  signal s : integer;\nbegin\n  s <= %s1%s;\nend a;"
    (String.concat "" (List.init n (fun _ -> "(")))
    (String.concat "" (List.init n (fun _ -> ")")))

let test_deep_nesting () =
  let c = Vhdl_compiler.create () in
  (match Vhdl_compiler.compile ~fail_on_error:false c (deep_parens 6000) with
  | _ -> ()
  | exception Vhdl_compiler.Compile_error _ -> ());
  Alcotest.(check bool) "deep nesting diagnosed" true
    (List.exists
       (fun d -> Astring_contains.contains d.Diag.message "nesting deeper")
       (Vhdl_compiler.diagnostics c));
  let c2 = Vhdl_compiler.create () in
  match Vhdl_compiler.compile c2 (deep_parens 500) with
  | _ -> ()
  | exception Vhdl_compiler.Compile_error ds ->
    Alcotest.failf "500-deep nesting should compile: %s"
      (Format.asprintf "%a" Diag.pp_list ds)

(* Exhausted evaluator fuel surfaces as a budget diagnostic and the
   remaining units show up as skipped in the partial-result report. *)
let test_eval_fuel_budget () =
  let budgets = { Supervisor.no_budgets with Supervisor.eval_fuel = Some 50 } in
  let c = Vhdl_compiler.create ~budgets () in
  let src = Workload.behavioral ~name:"fueltest" ~states:3 ~exprs:4 in
  (match Vhdl_compiler.compile ~fail_on_error:false c src with
  | _ -> ()
  | exception Vhdl_compiler.Compile_error _ -> ());
  Alcotest.(check bool) "budget diagnostic" true
    (Diag.has_budget (Vhdl_compiler.diagnostics c));
  Alcotest.(check bool) "remaining units skipped" true
    (List.exists
       (fun r -> r.Supervisor.ur_status = Supervisor.Skipped)
       (Vhdl_compiler.last_report c))

(* An already-expired deadline trips on the evaluator's tick hook. *)
let test_deadline_budget () =
  let budgets = { Supervisor.no_budgets with Supervisor.deadline_s = Some (-1.0) } in
  let c = Vhdl_compiler.create ~budgets () in
  let src = Workload.behavioral ~name:"deadlinetest" ~states:4 ~exprs:6 in
  (match Vhdl_compiler.compile ~fail_on_error:false c src with
  | _ -> ()
  | exception Vhdl_compiler.Compile_error _ -> ());
  Alcotest.(check bool) "deadline diagnostic" true
    (Diag.has_budget (Vhdl_compiler.diagnostics c))

(* The elaboration step budget turns a too-large hierarchy into a
   Compile_error carrying a budget diagnostic. *)
let test_elab_budget () =
  let budgets = { Supervisor.no_budgets with Supervisor.elab_steps = Some 2 } in
  let c = Vhdl_compiler.create ~budgets () in
  ignore
    (Vhdl_compiler.compile c
       "entity t is end t;\narchitecture a of t is\n  signal x : integer := 0;\n  signal y : integer := 0;\nbegin\n  p : process\n  begin\n    x <= 1;\n    wait;\n  end process;\n  q : process\n  begin\n    y <= 2;\n    wait;\n  end process;\nend a;");
  match Vhdl_compiler.elaborate c ~top:"t" () with
  | _ -> Alcotest.fail "elaboration should exhaust its step budget"
  | exception Vhdl_compiler.Compile_error ds ->
    Alcotest.(check bool) "budget diagnostic" true (Diag.has_budget ds)

(* A zero-delay process loop exhausts the per-instant step fuel: the run
   ends with the Fuel_exhausted outcome instead of spinning forever. *)
let test_sim_step_fuel () =
  let budgets = { Supervisor.no_budgets with Supervisor.sim_step_fuel = Some 10 } in
  let c = Vhdl_compiler.create ~budgets () in
  ignore
    (Vhdl_compiler.compile c
       "entity t is end t;\narchitecture a of t is\n  signal s : integer := 0;\nbegin\n  p : process\n  begin\n    s <= s + 1;\n    wait for 0 ns;\n  end process;\nend a;");
  let sim = Vhdl_compiler.elaborate c ~top:"t" () in
  match Vhdl_compiler.run c sim ~max_ns:5 with
  | Kernel.Fuel_exhausted -> ()
  | o ->
    Alcotest.failf "expected fuel exhaustion, got %s"
      (match o with
      | Kernel.Quiescent -> "quiescent"
      | Kernel.Time_limit -> "time-limit"
      | Kernel.Stopped -> "stopped"
      | Kernel.Fuel_exhausted -> "fuel-exhausted")

let suite =
  [
    Alcotest.test_case "error corpus never crashes" `Quick test_corpus;
    Alcotest.test_case "bad programs are rejected" `Quick test_rejections;
    Alcotest.test_case "end-name mismatch is diagnosed" `Quick test_end_name_mismatch;
    Alcotest.test_case "sensitivity list + wait rejected" `Quick test_sensitivity_plus_wait;
    Alcotest.test_case "functions may not assign signals or wait" `Quick test_function_purity;
    Alcotest.test_case "homographs rejected, overloads accepted" `Quick test_homograph_rejected;
    Alcotest.test_case "descending waveforms rejected" `Quick test_descending_waveform_rejected;
    Alcotest.test_case "multi-error recovery: all errors, siblings compile" `Quick
      test_multi_error_recovery;
    Alcotest.test_case "poisoned unit is contained, siblings compile" `Quick
      test_poisoned_unit_firewall;
    Alcotest.test_case "an errored unit never reaches the library" `Quick
      test_errored_unit_not_committed;
    Alcotest.test_case "a kernel escape is contained by run" `Quick test_simulation_firewall;
    Alcotest.test_case "deep nesting is a diagnostic, not an overflow" `Quick
      test_deep_nesting;
    Alcotest.test_case "evaluator fuel exhausts into a budget diagnostic" `Quick
      test_eval_fuel_budget;
    Alcotest.test_case "compile deadline exhausts into a budget diagnostic" `Quick
      test_deadline_budget;
    Alcotest.test_case "elaboration step budget is enforced" `Quick test_elab_budget;
    Alcotest.test_case "per-instant sim step fuel is enforced" `Quick test_sim_step_fuel;
    QCheck_alcotest.to_alcotest fuzz_tokens;
    QCheck_alcotest.to_alcotest fuzz_mutations;
  ]
