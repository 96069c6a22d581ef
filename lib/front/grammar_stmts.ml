(** Principal AG, sequential-statement region.

    Statement rules collect LEF for their expressions and call [exprEval]
    (through {!Stmt_sem}) exactly as the paper's if-statement example
    does. *)

open Pval
open Gram_util
module B = Grammar.Builder

let nonterminals =
  [
    "stmts"; "stmt"; "waveform"; "wave_elem"; "after_opt"; "transport_opt";
    "on_opt"; "until_opt"; "forts_opt"; "report_opt"; "severity_opt";
    "elsif_list"; "else_opt"; "case_alts"; "case_alt"; "when_opt";
  ]

let add b =
  List.iter (fun n -> ignore (B.nonterminal b n)) nonterminals;
  let prod = B.production b in

  prod ~name:"stmts_empty" ~lhs:"stmts" ~rhs:[] ~rules:[];
  prod ~name:"stmts_more" ~lhs:"stmts" ~rhs:[ "stmts"; "stmt" ] ~rules:[];

  (* ---- assignments and calls (the name-headed statements) ---- *)
  prod ~name:"stmt_var_assign" ~lhs:"stmt" ~rhs:[ "name"; ":="; "expr"; ";" ]
    ~rules:
      (stmt_rules
         ~deps:[ (0, "LEVEL"); (1, "LEF"); (2, "LINE"); (3, "LEF") ]
         ~msg_deps:[ 1; 3 ]
         (fun level target line rhs ->
           Stmt_sem.build_var_assign ~level:(as_int level) ~line:(as_int line)
             (as_lef target) (as_lef rhs)));
  prod ~name:"stmt_sig_assign" ~lhs:"stmt"
    ~rhs:[ "name"; "<="; "transport_opt"; "waveform"; ";" ]
    ~rules:
      (stmt_rules
         ~deps:
           [ (0, "LEVEL"); (0, "RETTY"); (1, "LEF"); (2, "LINE"); (3, "BOOLV"); (4, "WAVES") ]
         ~msg_deps:[ 1; 4 ]
         (fun level retty target line transport waves ->
           let stmts, msgs =
             Stmt_sem.build_signal_assign ~level:(as_int level) ~line:(as_int line)
               ~transport:(as_bool transport) ~guarded:false (as_lef target)
               (as_waves waves)
           in
           (* a function body may not assign signals (LRM purity) *)
           let msgs =
             match as_opt retty with
             | Some _ ->
               msgs
               @ [
                   Diag.error ~line:(as_int line)
                     "signal assignment is not allowed in a function";
                 ]
             | None -> msgs
           in
           (stmts, msgs)));
  prod ~name:"stmt_call" ~lhs:"stmt" ~rhs:[ "name"; ";" ]
    ~rules:
      (stmt_rules
         ~deps:[ (0, "LEVEL"); (1, "LEF"); (2, "LINE") ]
         ~msg_deps:[ 1 ]
         (fun level name line ->
           Stmt_sem.build_proc_call ~level:(as_int level) ~line:(as_int line) (as_lef name)));
  prod ~name:"transport_none" ~lhs:"transport_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "BOOLV") (Bool false) ];
  prod ~name:"transport_some" ~lhs:"transport_opt" ~rhs:[ "transport" ]
    ~rules:[ const ~target:(0, "BOOLV") (Bool true) ];

  (* ---- waveforms ---- *)
  prod ~name:"waveform_one" ~lhs:"waveform" ~rhs:[ "wave_elem" ] ~rules:[];
  prod ~name:"waveform_more" ~lhs:"waveform" ~rhs:[ "waveform"; ","; "wave_elem" ]
    ~rules:
      [
        rule ~target:(0, "WAVES") ~deps:[ (1, "WAVES"); (3, "WAVES") ] (fun a c ->
            Waves (as_waves a @ as_waves c));
      ];
  prod ~name:"wave_elem" ~lhs:"wave_elem" ~rhs:[ "expr"; "after_opt" ]
    ~rules:
      [
        rule ~target:(0, "WAVES") ~deps:[ (1, "LEF"); (2, "OLEF") ] (fun value after ->
            let lef = as_lef value in
            let line = match lef with t :: _ -> t.Lef.l_line | [] -> 0 in
            Waves
              [
                {
                  w_value = lef;
                  w_after = Option.map as_lef (as_opt after);
                  w_line = line;
                };
              ]);
      ];
  prod ~name:"after_none" ~lhs:"after_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "OLEF") (Opt None) ];
  prod ~name:"after_some" ~lhs:"after_opt" ~rhs:[ "after"; "expr" ]
    ~rules:
      [
        rule ~target:(0, "OLEF") ~deps:[ (2, "LEF") ] (fun l -> Opt (Some l));
      ];

  (* ---- wait ---- *)
  prod ~name:"stmt_wait" ~lhs:"stmt" ~rhs:[ "wait"; "on_opt"; "until_opt"; "forts_opt"; ";" ]
    ~rules:
      (stmt_rules
         ~deps:
           [ (0, "LEVEL"); (0, "RETTY"); (1, "LINE"); (2, "LEFS"); (3, "OLEF"); (4, "OLEF") ]
         ~msg_deps:[ 2; 3; 4 ]
         (fun level retty line on until for_ ->
           let stmts, msgs =
             Stmt_sem.build_wait ~level:(as_int level) ~line:(as_int line)
               ~on:(lefs_in_order on)
               ~until:(Option.map as_lef (as_opt until))
               ~for_:(Option.map as_lef (as_opt for_))
           in
           let msgs =
             match as_opt retty with
             | Some _ ->
               msgs
               @ [
                   Diag.error ~line:(as_int line)
                     "wait statements are not allowed in a function";
                 ]
             | None -> msgs
           in
           (stmts, msgs)));
  prod ~name:"on_none" ~lhs:"on_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "LEFS") (Lefs []) ];
  prod ~name:"on_some" ~lhs:"on_opt" ~rhs:[ "on"; "name_list" ] ~rules:[];
  prod ~name:"until_none" ~lhs:"until_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "OLEF") (Opt None) ];
  prod ~name:"until_some" ~lhs:"until_opt" ~rhs:[ "until"; "expr" ]
    ~rules:
      [
        rule ~target:(0, "OLEF") ~deps:[ (2, "LEF") ] (fun l -> Opt (Some l));
      ];
  prod ~name:"forts_none" ~lhs:"forts_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "OLEF") (Opt None) ];
  prod ~name:"forts_some" ~lhs:"forts_opt" ~rhs:[ "for"; "expr" ]
    ~rules:
      [
        rule ~target:(0, "OLEF") ~deps:[ (2, "LEF") ] (fun l -> Opt (Some l));
      ];

  (* ---- assert ---- *)
  prod ~name:"stmt_assert" ~lhs:"stmt"
    ~rhs:[ "assert"; "expr"; "report_opt"; "severity_opt"; ";" ]
    ~rules:
      (stmt_rules
         ~deps:[ (0, "LEVEL"); (1, "LINE"); (2, "LEF"); (3, "OLEF"); (4, "OLEF") ]
         ~msg_deps:[ 2; 3; 4 ]
         (fun level line cond report severity ->
           Stmt_sem.build_assert ~level:(as_int level) ~line:(as_int line)
             ~cond:(as_lef cond)
             ~report:(Option.map as_lef (as_opt report))
             ~severity:(Option.map as_lef (as_opt severity))));
  prod ~name:"report_none" ~lhs:"report_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "OLEF") (Opt None) ];
  prod ~name:"report_some" ~lhs:"report_opt" ~rhs:[ "report"; "expr" ]
    ~rules:
      [
        rule ~target:(0, "OLEF") ~deps:[ (2, "LEF") ] (fun l -> Opt (Some l));
      ];
  prod ~name:"severity_none" ~lhs:"severity_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "OLEF") (Opt None) ];
  prod ~name:"severity_some" ~lhs:"severity_opt" ~rhs:[ "severity"; "expr" ]
    ~rules:
      [
        rule ~target:(0, "OLEF") ~deps:[ (2, "LEF") ] (fun l -> Opt (Some l));
      ];

  (* ---- if ---- *)
  prod ~name:"stmt_if" ~lhs:"stmt"
    ~rhs:[ "if"; "expr"; "then"; "stmts"; "elsif_list"; "else_opt"; "end"; "if"; ";" ]
    ~rules:
      (stmt_rules
         ~deps:
           [ (0, "LEVEL"); (1, "LINE"); (2, "LEF"); (4, "CODE"); (5, "ARMS"); (6, "CODE") ]
         ~msg_deps:[ 2; 4; 5; 6 ]
         (fun level line cond then_code elsifs else_code ->
           let arms = (as_lef cond, as_stmts then_code) :: List.rev (as_arms elsifs) in
           Stmt_sem.build_if ~level:(as_int level) ~line:(as_int line) ~arms
             ~else_:(as_stmts else_code)));
  prod ~name:"elsif_empty" ~lhs:"elsif_list" ~rhs:[]
    ~rules:[ const ~target:(0, "ARMS") (Arms []) ];
  prod ~name:"elsif_more" ~lhs:"elsif_list"
    ~rhs:[ "elsif_list"; "elsif"; "expr"; "then"; "stmts" ]
    ~rules:
      [
        rule ~target:(0, "ARMS") ~deps:[ (1, "ARMS"); (3, "LEF"); (5, "CODE") ]
          (fun prev cond code -> Arms ((as_lef cond, as_stmts code) :: as_arms prev));
      ];
  prod ~name:"else_none" ~lhs:"else_opt" ~rhs:[] ~rules:[];
  prod ~name:"else_some" ~lhs:"else_opt" ~rhs:[ "else"; "stmts" ] ~rules:[];

  (* ---- case ---- *)
  prod ~name:"stmt_case" ~lhs:"stmt"
    ~rhs:[ "case"; "expr"; "is"; "case_alts"; "end"; "case"; ";" ]
    ~rules:
      (stmt_rules
         ~deps:[ (0, "LEVEL"); (1, "LINE"); (2, "LEF"); (4, "ALTS") ]
         ~msg_deps:[ 2; 4 ]
         (fun level line sel alts ->
           Stmt_sem.build_case ~level:(as_int level) ~line:(as_int line) (as_lef sel)
             (List.rev (as_alts alts))));
  prod ~name:"case_alts_one" ~lhs:"case_alts" ~rhs:[ "case_alt" ] ~rules:[];
  prod ~name:"case_alts_more" ~lhs:"case_alts" ~rhs:[ "case_alts"; "case_alt" ]
    ~rules:
      [
        rule ~target:(0, "ALTS") ~deps:[ (1, "ALTS"); (2, "ALTS") ] (fun a c ->
            Alts (List.rev_append (as_alts c) (as_alts a)));
      ];
  prod ~name:"case_alt" ~lhs:"case_alt" ~rhs:[ "when"; "chlist"; "=>"; "stmts" ]
    ~rules:
      [
        rule ~target:(0, "ALTS") ~deps:[ (2, "CHS"); (4, "CODE") ] (fun chs code ->
            Alts [ (as_choices chs, as_stmts code) ]);
      ];

  (* ---- loops; each form also exists with a loop label (exit/next can
     then target an outer loop by name) ---- *)
  let loop_prod ~labeled =
    let off = if labeled then 2 else 0 in
    let name = if labeled then "stmt_loop_labeled" else "stmt_loop" in
    let rhs =
      (if labeled then [ "ID"; ":" ] else [])
      @ [ "loop"; "stmts"; "end"; "loop" ]
      @ (if labeled then [ "opt_id" ] else [])
      @ [ ";" ]
    in
    prod ~name ~lhs:"stmt" ~rhs
      ~rules:
        (let loop label code = ([ Kir.Sloop (as_stmts code, label) ], []) in
         let msg_deps = [ off + 2 ] in
         if labeled then
           stmt_rules ~deps:[ (1, "VAL"); (off + 2, "CODE") ] ~msg_deps (fun lbl code ->
               loop (Some (tok_id lbl)) code)
         else stmt_rules ~deps:[ (off + 2, "CODE") ] ~msg_deps (fun code -> loop None code))
  in
  loop_prod ~labeled:false;
  loop_prod ~labeled:true;
  let while_prod ~labeled =
    let off = if labeled then 2 else 0 in
    let name = if labeled then "stmt_while_labeled" else "stmt_while" in
    let rhs =
      (if labeled then [ "ID"; ":" ] else [])
      @ [ "while"; "expr"; "loop"; "stmts"; "end"; "loop" ]
      @ (if labeled then [ "opt_id" ] else [])
      @ [ ";" ]
    in
    prod ~name ~lhs:"stmt" ~rhs
      ~rules:
        (let loop label level line cond code =
           let c, msgs =
             Stmt_sem.boolean_cond ~level:(as_int level) ~line:(as_int line) (as_lef cond)
           in
           ([ Kir.Swhile (c, as_stmts code, label) ], msgs)
         in
         let msg_deps = [ off + 2; off + 4 ] in
         if labeled then
           stmt_rules
             ~deps:
               [ (1, "VAL"); (0, "LEVEL"); (off + 1, "LINE"); (off + 2, "LEF"); (off + 4, "CODE") ]
             ~msg_deps
             (fun lbl level line cond code -> loop (Some (tok_id lbl)) level line cond code)
         else
           stmt_rules
             ~deps:[ (0, "LEVEL"); (off + 1, "LINE"); (off + 2, "LEF"); (off + 4, "CODE") ]
             ~msg_deps
             (fun level line cond code -> loop None level line cond code))
  in
  while_prod ~labeled:false;
  while_prod ~labeled:true;
  let for_prod ~labeled =
    let off = if labeled then 2 else 0 in
    let name = if labeled then "stmt_for_labeled" else "stmt_for" in
    let rhs =
      (if labeled then [ "ID"; ":" ] else [])
      @ [ "for"; "ID"; "in"; "discrete_range"; "loop"; "stmts"; "end"; "loop" ]
      @ (if labeled then [ "opt_id" ] else [])
      @ [ ";" ]
    in
    prod ~name ~lhs:"stmt" ~rhs
      ~rules:
        ([
           (* the loop variable is visible in the body with a loop-var slot *)
           rule ~target:(off + 6, "ENV")
             ~deps:
               [
                 (0, "ENV"); (0, "LEVEL"); (0, "LOOPDEPTH"); (off + 1, "LINE");
                 (off + 2, "VAL"); (off + 4, "RNG");
               ]
             (fun env level depth line v rng ->
               let name = tok_id v in
               let ty =
                 Stmt_sem.for_var_type ~level:(as_int level) ~line:(as_int line)
                   ~range:(as_rng rng)
               in
               Env
                 (Env.extend (as_env env) name
                    (Denot.Dobject
                       {
                         name;
                         cls = Denot.Cconstant;
                         ty;
                         mode = None;
                         slot =
                           Denot.Sl_frame
                             { level = as_int level; index = -(as_int depth + 1) };
                       })));
           rule ~target:(off + 6, "LOOPDEPTH") ~deps:[ (0, "LOOPDEPTH") ] (fun d ->
               Int (as_int d + 1));
         ]
        @
        let loop label level depth line v rng code =
          Stmt_sem.build_for ?loop_label:label ~level:(as_int level) ~line:(as_int line)
            ~loop_depth:(as_int depth) ~var_name:(tok_id v) ~range:(as_rng rng)
            ~body:(as_stmts code) ()
        in
        let msg_deps = [ off + 4; off + 6 ] in
        if labeled then
          stmt_rules
            ~deps:
              [
                (1, "VAL"); (0, "LEVEL"); (0, "LOOPDEPTH"); (off + 1, "LINE"); (off + 2, "VAL");
                (off + 4, "RNG"); (off + 6, "CODE");
              ]
            ~msg_deps
            (fun lbl level depth line v rng code ->
              loop (Some (tok_id lbl)) level depth line v rng code)
        else
          stmt_rules
            ~deps:
              [
                (0, "LEVEL"); (0, "LOOPDEPTH"); (off + 1, "LINE"); (off + 2, "VAL");
                (off + 4, "RNG"); (off + 6, "CODE");
              ]
            ~msg_deps
            (fun level depth line v rng code -> loop None level depth line v rng code))
  in
  for_prod ~labeled:false;
  for_prod ~labeled:true;

  (* ---- next / exit / return / null ---- *)
  let exit_next_prod ~next =
    let kw = if next then "next" else "exit" in
    prod ~name:("stmt_" ^ kw) ~lhs:"stmt" ~rhs:[ kw; "opt_id"; "when_opt"; ";" ]
      ~rules:
        (stmt_rules
           ~deps:[ (0, "LEVEL"); (1, "LINE"); (2, "OID"); (3, "OLEF") ]
           ~msg_deps:[ 3 ]
           (fun level line oid cond ->
             let label =
               match as_opt oid with
               | Some (Str s) -> Some s
               | _ -> None
             in
             Stmt_sem.build_exit ?label ~level:(as_int level) ~line:(as_int line) ~next
               (Option.map as_lef (as_opt cond))
               ()))
  in
  exit_next_prod ~next:true;
  exit_next_prod ~next:false;
  prod ~name:"when_none" ~lhs:"when_opt" ~rhs:[]
    ~rules:[ const ~target:(0, "OLEF") (Opt None) ];
  prod ~name:"when_some" ~lhs:"when_opt" ~rhs:[ "when"; "expr" ]
    ~rules:
      [
        rule ~target:(0, "OLEF") ~deps:[ (2, "LEF") ] (fun l -> Opt (Some l));
      ];
  prod ~name:"stmt_return" ~lhs:"stmt" ~rhs:[ "return"; "expr_opt"; ";" ]
    ~rules:
      (stmt_rules
         ~deps:[ (0, "LEVEL"); (0, "RETTY"); (1, "LINE"); (2, "OLEF") ]
         ~msg_deps:[ 2 ]
         (fun level retty line value ->
           let ret_ty =
             match as_opt retty with
             | Some (Sty { ty; _ }) -> Some ty
             | _ -> None
           in
           Stmt_sem.build_return ~level:(as_int level) ~line:(as_int line) ~ret_ty
             (Option.map as_lef (as_opt value))));
  prod ~name:"stmt_null" ~lhs:"stmt" ~rhs:[ "null"; ";" ]
    ~rules:(stmt_rules ~deps:[] ~msg_deps:[] ([ Kir.Snull ], []))
