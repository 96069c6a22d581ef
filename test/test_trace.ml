(* Waveform tracing: a golden VCD on a hand-driven trace, and a round-trip
   check on a full corpus simulation — the emitted VCD must parse with the
   minimal IEEE-1364 reader below and agree with the in-memory change log. *)

let corpus_path name =
  let dir =
    if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"
  in
  Filename.concat dir name

let read_corpus name = Vhdl_util.Unix_compat.read_file (corpus_path name)

(* ------------------------------------------------------------------ *)
(* A minimal VCD reader: header declarations plus the change stream. *)

type vcd_var = {
  vv_id : string;
  vv_type : string;
  vv_width : int;
  vv_name : string;
  vv_scope : string list; (* outermost first *)
}

type vcd = {
  v_timescale : string;
  v_vars : vcd_var list;
  v_changes : (int * string * string) list; (* time, id code, value token *)
  v_dumpvars : (string * string) list; (* id code, initial value token *)
}

let parse_vcd (text : string) : vcd =
  let words =
    String.split_on_char '\n' text
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (fun w -> w <> "")
  in
  let vars = ref [] and changes = ref [] and dumpvars = ref [] in
  let timescale = ref "" in
  let scope = ref [] in
  let time = ref (-1) in
  let in_dump = ref false in
  let rec upto_end acc = function
    | "$end" :: rest -> (List.rev acc, rest)
    | w :: rest -> upto_end (w :: acc) rest
    | [] -> failwith "unterminated $ section"
  in
  let change id tok =
    if !in_dump then dumpvars := (id, tok) :: !dumpvars
    else if !time < 0 then failwith "change before any #time"
    else changes := (!time, id, tok) :: !changes
  in
  let rec go = function
    | [] -> ()
    | "$version" :: rest | "$date" :: rest | "$comment" :: rest ->
      let _, rest = upto_end [] rest in
      go rest
    | "$timescale" :: rest ->
      let ws, rest = upto_end [] rest in
      timescale := String.concat " " ws;
      go rest
    | "$scope" :: _kind :: name :: "$end" :: rest ->
      scope := !scope @ [ name ];
      go rest
    | "$upscope" :: "$end" :: rest ->
      (match List.rev !scope with
      | _ :: outer -> scope := List.rev outer
      | [] -> failwith "$upscope at top level");
      go rest
    | "$var" :: ty :: width :: id :: name :: "$end" :: rest ->
      vars :=
        {
          vv_id = id;
          vv_type = ty;
          vv_width = int_of_string width;
          vv_name = name;
          vv_scope = !scope;
        }
        :: !vars;
      go rest
    | "$enddefinitions" :: "$end" :: rest -> go rest
    | "$dumpvars" :: rest ->
      in_dump := true;
      go rest
    | "$end" :: rest when !in_dump ->
      in_dump := false;
      go rest
    | w :: rest when w.[0] = '#' ->
      let t = int_of_string (String.sub w 1 (String.length w - 1)) in
      if t < !time then failwith "time went backwards";
      time := t;
      go rest
    | w :: rest when w.[0] = 'b' || w.[0] = 'r' -> (
      (* vector/real change: value token then the id code *)
      match rest with
      | id :: rest ->
        change id w;
        go rest
      | [] -> failwith "vector change without id")
    | w :: rest when w.[0] = '0' || w.[0] = '1' || w.[0] = 'x' || w.[0] = 'z' ->
      (* scalar change: digit glued to the id code *)
      change (String.sub w 1 (String.length w - 1)) (String.make 1 w.[0]);
      go rest
    | w :: _ -> failwith ("unrecognized VCD token " ^ w)
  in
  go words;
  if !scope <> [] then failwith "unbalanced $scope/$upscope";
  {
    v_timescale = !timescale;
    v_vars = List.rev !vars;
    v_changes = List.rev !changes;
    v_dumpvars = List.rev !dumpvars;
  }

let find_var vcd name =
  match List.find_opt (fun v -> v.vv_name = name) vcd.v_vars with
  | Some v -> v
  | None -> Alcotest.failf "variable %s not declared in the VCD" name

(* ------------------------------------------------------------------ *)
(* Golden VCD on a hand-driven trace *)

let mk_signal ~id ~name ~ty ~init =
  Rt.make_signal ~id ~name ~ty ~kind:`Plain ~resolution:None ~init

let fire (s : Rt.signal) time v =
  s.Rt.current <- v;
  List.iter (fun f -> f time s) s.Rt.observers

let test_golden_vcd () =
  let tr = Trace.create () in
  let clk = mk_signal ~id:0 ~name:":top:CLK" ~ty:Std.bit ~init:(Value.Venum 0) in
  let cnt = mk_signal ~id:1 ~name:":top:CNT" ~ty:Std.integer ~init:(Value.Vint 0) in
  let tmp = mk_signal ~id:2 ~name:":top:U1:T" ~ty:Std.real ~init:(Value.Vfloat 0.5) in
  Trace.watch tr ":top:CLK" clk;
  Trace.watch tr ":top:CNT" cnt;
  Trace.watch tr ":top:U1:T" tmp;
  fire clk 1000 (Value.Venum 1);
  fire cnt 1000 (Value.Vint 5);
  fire clk 2000 (Value.Venum 0);
  fire clk 2000 (Value.Venum 1) (* delta-cycle churn: only the settled value shows *);
  fire cnt 3000 (Value.Vint 5) (* no value change: elided *);
  fire tmp 3000 (Value.Vfloat 1.25);
  let expected =
    String.concat "\n"
      [
        "$version vhdlc simulation $end";
        "$timescale 1 ps $end";
        "$scope module top $end";
        "$var wire 1 ! CLK $end";
        "$var integer 64 # CNT $end";
        "$scope module U1 $end";
        "$var real 64 $ T $end";
        "$upscope $end";
        "$upscope $end";
        "$enddefinitions $end";
        "#0";
        "$dumpvars";
        "0!";
        "b0000000000000000000000000000000000000000000000000000000000000000 #";
        "r0.5 $";
        "$end";
        "#1000";
        "1!";
        "b0000000000000000000000000000000000000000000000000000000000000101 #";
        "#3000";
        "r1.25 $";
        "";
      ]
  in
  Alcotest.(check string) "golden VCD" expected (Trace.to_vcd tr ~timescale_fs:1000)

(* Integers and physical values dump as 64-bit two's complement: the sign
   of an OCaml int (bit 62) fills bit 63 *)
let test_negative_vcd () =
  let tr = Trace.create () in
  let i = mk_signal ~id:0 ~name:":top:I" ~ty:Std.integer ~init:(Value.Vint min_int) in
  let t = mk_signal ~id:1 ~name:":top:T" ~ty:Std.time ~init:(Value.Vphys (-3)) in
  Trace.watch tr ":top:I" i;
  Trace.watch tr ":top:T" t;
  fire i 1000 (Value.Vint (min_int + 1) (* INTEGER'LEFT *));
  fire t 1000 (Value.Vphys (-1));
  let vcd = parse_vcd (Trace.to_vcd tr ~timescale_fs:1000) in
  Alcotest.(check (list int)) "widths" [ 64; 64 ]
    (List.map (fun v -> v.vv_width) vcd.v_vars);
  let bits s = "b" ^ s in
  Alcotest.(check (list (pair string string))) "initial values"
    [ ("!", bits ("11" ^ String.make 62 '0')); ("#", bits (String.make 62 '1' ^ "01")) ]
    vcd.v_dumpvars;
  Alcotest.(check (list string)) "INTEGER'LEFT and -1 fs"
    [ bits ("11" ^ String.make 61 '0' ^ "1"); bits (String.make 64 '1') ]
    (List.map (fun (_, _, tok) -> tok) vcd.v_changes)

(* ------------------------------------------------------------------ *)
(* Round trip on a real simulation *)

let simulate name ~top ~ns =
  let c = Vhdl_compiler.create () in
  ignore (Vhdl_compiler.compile c (read_corpus name));
  let sim = Vhdl_compiler.elaborate c ~top () in
  ignore (Vhdl_compiler.run c sim ~max_ns:ns);
  (Vhdl_compiler.trace sim, Trace.to_vcd (Vhdl_compiler.trace sim) ~timescale_fs:1)

let test_roundtrip_corpus () =
  let tr, text = simulate "golden_seed18_processes.vhd" ~top:"FZTOP" ~ns:60 in
  let vcd = parse_vcd text in
  Alcotest.(check string) "timescale" "1 fs" vcd.v_timescale;
  Alcotest.(check bool) "has variables" true (vcd.v_vars <> []);
  (* ids are unique, and the initial dump covers each exactly once *)
  let ids = List.map (fun v -> v.vv_id) vcd.v_vars in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  Alcotest.(check (list string)) "dumpvars covers every variable in order" ids
    (List.map fst vcd.v_dumpvars);
  (* every change references a declared id, and vector tokens fit their
     declared width *)
  let width_of =
    let tbl = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace tbl v.vv_id v) vcd.v_vars;
    fun id ->
      match Hashtbl.find_opt tbl id with
      | Some v -> v
      | None -> Alcotest.failf "change for undeclared id %s" id
  in
  let check_token (id, tok) =
    let v = width_of id in
    match tok.[0] with
    | 'b' ->
      Alcotest.(check bool)
        (Printf.sprintf "vector token fits %s[%d]" v.vv_name v.vv_width)
        true
        (String.length tok - 1 <= v.vv_width)
    | 'r' -> Alcotest.(check string) "real var" "real" v.vv_type
    | _ -> Alcotest.(check int) ("scalar var " ^ v.vv_name) 1 v.vv_width
  in
  List.iter check_token vcd.v_dumpvars;
  List.iter (fun (_, id, tok) -> check_token (id, tok)) vcd.v_changes;
  (* cross-check one signal against the in-memory log: CLK's VCD change
     count equals its collapsed history (last value per instant, repeats
     dropped — exactly what the VCD emits) *)
  let clk = find_var vcd "CLK" in
  let vcd_clk =
    List.filter_map
      (fun (t, id, tok) -> if id = clk.vv_id then Some (t, tok) else None)
      vcd.v_changes
  in
  let history = Trace.history tr ~path:":fztop:CLK" in
  let collapsed =
    let by_last =
      List.fold_left
        (fun acc (t, v) ->
          match acc with
          | (t', _) :: rest when t' = t -> (t, v) :: rest
          | _ -> (t, v) :: acc)
        [] history
      |> List.rev
    in
    (* keep transitions only *)
    let _, transitions =
      List.fold_left
        (fun (prev, acc) (t, v) ->
          match prev with
          | Some p when Value.equal p v -> (prev, acc)
          | _ -> (Some v, (t, v) :: acc))
        (None, []) by_last
    in
    List.rev transitions
  in
  (* the first collapsed entry is time 0 (the dumpvars block), the rest are
     the #time changes *)
  (match collapsed with
  | (0, v0) :: rest ->
    let render v =
      match v with
      | Value.Venum 0 -> "0"
      | Value.Venum 1 -> "1"
      | _ -> "x"
    in
    (match List.assoc_opt clk.vv_id vcd.v_dumpvars with
    | Some tok -> Alcotest.(check string) "initial CLK" (render v0) tok
    | None -> Alcotest.fail "CLK missing from dumpvars");
    Alcotest.(check int) "CLK change count" (List.length rest)
      (List.length vcd_clk);
    List.iter2
      (fun (t, v) (t', tok) ->
        Alcotest.(check int) "CLK change time" t t';
        Alcotest.(check string) "CLK change value" (render v) tok)
      rest vcd_clk
  | _ -> Alcotest.fail "CLK history does not start at time 0")

(* ------------------------------------------------------------------ *)
(* Kernel goldens: every corpus design, run to four times its horizon,
   must reproduce its committed [.golden] byte for byte — outcome and
   kernel counts, messages, then the VCD.  The files were written by the
   kernel that rescanned every driver and process on each delta cycle, so
   they pin the event-driven kernel to its semantics: same cycles, same
   process runs, same waveforms. *)

let header src key =
  let prefix = "-- " ^ key ^ ": " in
  let n = String.length prefix in
  List.find_map
    (fun l ->
      if String.length l > n && String.sub l 0 n = prefix then
        Some (String.sub l n (String.length l - n))
      else None)
    (String.split_on_char '\n' src)

let kernel_golden src =
  let c = Vhdl_compiler.create () in
  ignore (Vhdl_compiler.compile c src);
  let top = Option.get (header src "top") in
  let sim = Vhdl_compiler.elaborate c ~top () in
  let max_ns = 4 * int_of_string (Option.get (header src "max-ns")) in
  let outcome = Vhdl_compiler.run c sim ~max_ns in
  let st = Kernel.stats (Vhdl_compiler.kernel sim) in
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "$comment outcome %s time_steps %d delta_cycles %d events %d transactions %d \
     process_runs %d $end\n"
    (match outcome with
    | Kernel.Quiescent -> "quiescent"
    | Kernel.Time_limit -> "time-limit"
    | Kernel.Stopped -> "stopped"
    | Kernel.Fuel_exhausted -> "fuel-exhausted")
    st.Kernel.time_steps st.Kernel.delta_cycles st.Kernel.events st.Kernel.transactions
    st.Kernel.process_runs;
  List.iter
    (fun (t, sev, msg) ->
      Printf.bprintf b "$comment %s %s: %s $end\n" (Rt.format_time t)
        (Kernel.severity_name sev) msg)
    (Vhdl_compiler.messages sim);
  Buffer.add_string b (Trace.to_vcd (Vhdl_compiler.trace sim) ~timescale_fs:1);
  Buffer.contents b

let test_kernel_goldens () =
  let dir = Filename.dirname (corpus_path "x") in
  let designs =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".vhd")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "kernel_mix is among the goldens" true
    (List.mem "kernel_mix.vhd" designs);
  List.iter
    (fun name ->
      let expected = read_corpus (Filename.remove_extension name ^ ".golden") in
      Alcotest.(check string) name expected (kernel_golden (read_corpus name)))
    designs

(* GTKWave-facing sanity on a second corpus shape: scopes balance and the
   enum state variable is a vector wide enough for its literals *)
let test_enum_widths () =
  let _, text = simulate "golden_seed3_behavioral.vhd" ~top:"FZBEH" ~ns:40 in
  let vcd = parse_vcd text in
  let state = find_var vcd "STATE" in
  Alcotest.(check string) "enum is a wire vector" "wire" state.vv_type;
  Alcotest.(check int) "5 literals need 3 bits" 3 state.vv_width;
  let dout = find_var vcd "DOUT" in
  Alcotest.(check string) "integer var type" "integer" dout.vv_type;
  Alcotest.(check int) "integer width" 64 dout.vv_width

let suite =
  [
    Alcotest.test_case "golden VCD" `Quick test_golden_vcd;
    Alcotest.test_case "round trip on a corpus simulation" `Quick test_roundtrip_corpus;
    Alcotest.test_case "enum and integer widths" `Quick test_enum_widths;
    Alcotest.test_case "kernel goldens" `Quick test_kernel_goldens;
    Alcotest.test_case "negative integers and times" `Quick test_negative_vcd;
  ]
