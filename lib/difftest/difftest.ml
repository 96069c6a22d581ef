(** Differential fuzzing campaigns and the reproducer corpus (see .mli). *)

type summary = {
  mutable total : int;
  mutable compiled : int;
  mutable simulated : int;
  mutable rejected : int;
  mutable divergences : int;
  mutable crashes : int;
  mutable shrunk : (int * string * Difftest_oracle.verdict) list;
  mutable reproducer_files : string list;
}

let smoke_seeds = List.init 100 (fun i -> i + 1)

(* ------------------------------------------------------------------ *)
(* Reproducer corpus *)

let save_reproducer ~dir ~seed ~top ~max_ns ~verdict source =
  Vhdl_util.Unix_compat.mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "shrunk_seed%d.vhd" seed) in
  let b = Buffer.create 1024 in
  Buffer.add_string b "-- vhdlfuzz reproducer\n";
  Buffer.add_string b (Printf.sprintf "-- seed: %d\n" seed);
  Buffer.add_string b
    (Printf.sprintf "-- top: %s\n" (Option.value top ~default:"-"));
  Buffer.add_string b (Printf.sprintf "-- max-ns: %d\n" max_ns);
  (* a divergence's detail can span many lines (VIF dumps); every line
     must stay a comment or the header corrupts the reproducer *)
  String.split_on_char '\n' (Difftest_oracle.describe verdict)
  |> List.iter (fun line ->
         Buffer.add_string b (Printf.sprintf "-- verdict: %s\n" line));
  Buffer.add_string b source;
  if source = "" || source.[String.length source - 1] <> '\n' then
    Buffer.add_char b '\n';
  Vhdl_util.Unix_compat.write_file path (Buffer.contents b);
  path

type corpus_entry = {
  ce_path : string;
  ce_top : string option;
  ce_max_ns : int;
  ce_source : string;
}

let header_field line key =
  let prefix = "-- " ^ key ^ ":" in
  if String.length line >= String.length prefix
     && String.sub line 0 (String.length prefix) = prefix
  then
    Some
      (String.trim
         (String.sub line (String.length prefix)
            (String.length line - String.length prefix)))
  else None

let load_corpus_file path =
  let source = Vhdl_util.Unix_compat.read_file path in
  let top = ref None and max_ns = ref 50 in
  List.iter
    (fun line ->
      (match header_field line "top" with
      | Some "-" -> ()
      | Some t -> top := Some t
      | None -> ());
      match header_field line "max-ns" with
      | Some n -> ( match int_of_string_opt n with Some n -> max_ns := n | None -> ())
      | None -> ())
    (String.split_on_char '\n' source);
  { ce_path = path; ce_top = !top; ce_max_ns = !max_ns; ce_source = source }

let replay ?(inject_fault = false) path =
  let e = load_corpus_file path in
  Difftest_oracle.check_source ~inject_fault ~max_ns:e.ce_max_ns ~top:e.ce_top
    e.ce_source

(* ------------------------------------------------------------------ *)
(* Campaigns *)

(* oracle runs the shrinker may spend on one failing design *)
let shrink_budget = 600

let run_campaign ?(inject_fault = false) ?corpus_dir ?(log = fun _ -> ()) ~seeds ~size () =
  if inject_fault then Difftest_fault.arm ();
  let s =
    {
      total = 0;
      compiled = 0;
      simulated = 0;
      rejected = 0;
      divergences = 0;
      crashes = 0;
      shrunk = [];
      reproducer_files = [];
    }
  in
  List.iter
    (fun seed ->
      let design = Difftest_gen.generate ~seed ~size in
      let verdict = Difftest_oracle.check ~inject_fault design in
      s.total <- s.total + 1;
      (match verdict with
      | Difftest_oracle.Agree { compiled; simulated; _ } ->
        if compiled then begin
          s.compiled <- s.compiled + 1;
          if simulated then s.simulated <- s.simulated + 1
        end
        else s.rejected <- s.rejected + 1
      | Difftest_oracle.Divergence _ -> s.divergences <- s.divergences + 1
      | Difftest_oracle.Crash _ -> s.crashes <- s.crashes + 1);
      match verdict with
      | Difftest_oracle.Agree _ ->
        log
          (Printf.sprintf "seed %d (%s): %s" seed
             (Difftest_gen.shape_name ~seed)
             (Difftest_oracle.describe verdict))
      | _ ->
        log
          (Printf.sprintf "seed %d (%s): %s — shrinking" seed
             (Difftest_gen.shape_name ~seed)
             (Difftest_oracle.describe verdict));
        let interesting src =
          Difftest_oracle.same_class verdict
            (Difftest_oracle.check_source ~inject_fault
               ~max_ns:design.Difftest_gen.d_max_ns
               ~top:design.Difftest_gen.d_top src)
        in
        let minimized, st =
          Difftest_shrink.shrink ~max_tests:shrink_budget ~interesting
            design.Difftest_gen.d_source
        in
        log
          (Printf.sprintf "seed %d: shrunk %d -> %d lines (%d oracle runs)" seed
             st.Difftest_shrink.lines_before st.Difftest_shrink.lines_after
             st.Difftest_shrink.tests_run);
        s.shrunk <- (seed, minimized, verdict) :: s.shrunk;
        Option.iter
          (fun dir ->
            let path =
              save_reproducer ~dir ~seed ~top:design.Difftest_gen.d_top
                ~max_ns:design.Difftest_gen.d_max_ns ~verdict minimized
            in
            s.reproducer_files <- path :: s.reproducer_files;
            log (Printf.sprintf "seed %d: reproducer written to %s" seed path))
          corpus_dir)
    seeds;
  s

(* Tight enough to trip on runaway behavior, loose enough that ordinary
   generated designs compile and simulate untouched. *)
let default_campaign_budgets =
  {
    Supervisor.eval_fuel = Some 2_000_000;
    elab_steps = Some 50_000;
    deadline_s = Some 20.0;
    sim_step_fuel = Some 100_000;
  }

let run_budget_campaign ?(budgets = default_campaign_budgets) ?corpus_dir
    ?(log = fun _ -> ()) ~seeds ~size () =
  let s =
    {
      total = 0;
      compiled = 0;
      simulated = 0;
      rejected = 0;
      divergences = 0;
      crashes = 0;
      shrunk = [];
      reproducer_files = [];
    }
  in
  List.iter
    (fun seed ->
      let design = Difftest_gen.generate ~seed ~size in
      let contained src =
        Difftest_oracle.check_contained ~budgets ~max_ns:design.Difftest_gen.d_max_ns
          ~top:design.Difftest_gen.d_top src
      in
      let verdict = contained design.Difftest_gen.d_source in
      s.total <- s.total + 1;
      match verdict with
      | Difftest_oracle.Agree { compiled; simulated; _ } ->
        if compiled then begin
          s.compiled <- s.compiled + 1;
          if simulated then s.simulated <- s.simulated + 1
        end
        else s.rejected <- s.rejected + 1;
        log
          (Printf.sprintf "seed %d (%s): %s" seed
             (Difftest_gen.shape_name ~seed)
             (Difftest_oracle.describe verdict))
      | Difftest_oracle.Divergence _ | Difftest_oracle.Crash _ ->
        s.crashes <- s.crashes + 1;
        log
          (Printf.sprintf "seed %d (%s): %s — shrinking" seed
             (Difftest_gen.shape_name ~seed)
             (Difftest_oracle.describe verdict));
        let interesting src = Difftest_oracle.same_class verdict (contained src) in
        let minimized, st =
          Difftest_shrink.shrink ~max_tests:shrink_budget ~interesting
            design.Difftest_gen.d_source
        in
        log
          (Printf.sprintf "seed %d: shrunk %d -> %d lines (%d oracle runs)" seed
             st.Difftest_shrink.lines_before st.Difftest_shrink.lines_after
             st.Difftest_shrink.tests_run);
        s.shrunk <- (seed, minimized, verdict) :: s.shrunk;
        Option.iter
          (fun dir ->
            let path =
              save_reproducer ~dir ~seed ~top:design.Difftest_gen.d_top
                ~max_ns:design.Difftest_gen.d_max_ns ~verdict minimized
            in
            s.reproducer_files <- path :: s.reproducer_files;
            log (Printf.sprintf "seed %d: reproducer written to %s" seed path))
          corpus_dir)
    seeds;
  s

let pp_summary fmt s =
  Format.fprintf fmt
    "@[<v>designs:      %d@,both compiled: %d@,simulated:    %d@,rejected:     \
     %d@,divergences:  %d@,crashes:      %d@]"
    s.total s.compiled s.simulated s.rejected s.divergences s.crashes
