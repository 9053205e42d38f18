(* Tests for translation validation: the symbolic evaluator ({!Symbolic}),
   the equivalence engine ({!Equiv}), the per-pass optimizer snapshots
   ({!Optimizer.apply_staged}), the compiled-artifact vet ({!Vet}), and the
   truncated-immediate lint rule. *)

module Value = Druzhba_util.Value
module Prng = Druzhba_util.Prng
module Machine_code = Druzhba_machine_code.Machine_code
module Atoms = Druzhba_atoms.Atoms
module Ir = Druzhba_pipeline.Ir
module Interp = Druzhba_pipeline.Interp
module Dgen = Druzhba_pipeline.Dgen
module Emit = Druzhba_pipeline.Emit
module Optimizer = Druzhba_optimizer.Optimizer
module Symbolic = Druzhba_analysis.Symbolic
module Equiv = Druzhba_analysis.Equiv
module Lint = Druzhba_analysis.Lint
module Fuzz = Druzhba_fuzz.Fuzz
module Frontend = Druzhba_compiler.Frontend
module Codegen = Druzhba_compiler.Codegen
module Synth = Druzhba_compiler.Synth
module Testing = Druzhba_compiler.Testing
module Vet = Druzhba_compiler.Vet
module Spec = Druzhba_spec.Spec

(* --- QCheck: the symbolic evaluator agrees with the interpreter ------------- *)

(* Random well-formed [Ir.expr] over the atoms the normal form quantifies:
   containers, state slots, constants (including control-space constants
   wider than the datapath, to exercise [Trunc]).  No [Var]/[Mc]/[Call] —
   those are resolved before the normal form and tested via whole-pipeline
   obligations below. *)
let gen_expr bits : Ir.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Ir.Const n) (int_bound ((2 * Value.max_value bits) + 3));
        map (fun k -> Ir.Phv k) (int_bound 3);
        map (fun k -> Ir.State k) (int_bound 3);
      ]
  in
  let unop = oneofl [ Ir.Neg; Ir.Not ] in
  let binop =
    oneofl
      [ Ir.Add; Ir.Sub; Ir.Mul; Ir.Div; Ir.Mod; Ir.Eq; Ir.Neq; Ir.Lt; Ir.Gt; Ir.Le; Ir.Ge;
        Ir.And; Ir.Or ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (1, leaf);
               (2, map (fun e -> Ir.Trunc e) (self (n - 1)));
               (2, map2 (fun op e -> Ir.Unop (op, e)) unop (self (n - 1)));
               (4, map3 (fun op a b -> Ir.Binop (op, a, b)) binop (self (n / 2)) (self (n / 2)));
               ( 2,
                 map3 (fun c a b -> Ir.Cond (c, a, b)) (self (n / 3)) (self (n / 3)) (self (n / 3))
               );
             ])

let gen_case bits : (Ir.expr * int array * int array) QCheck.Gen.t =
  let open QCheck.Gen in
  let vals = array_size (return 4) (int_bound (Value.max_value bits)) in
  map3 (fun e phv state -> (e, phv, state)) (gen_expr bits) vals vals

let print_case (e, phv, state) =
  Fmt.str "expr: %s@.phv: %a@.state: %a" (Ir.show_expr e)
    Fmt.(Dump.array int)
    phv
    Fmt.(Dump.array int)
    state

let qcheck_eval_agrees bits =
  QCheck.Test.make
    ~name:(Printf.sprintf "symbolic eval agrees with Interp at %d bits" bits)
    ~count:500
    (QCheck.make ~print:print_case (gen_case bits))
    (fun (e, phv, state) ->
      let helpers = Hashtbl.create 0 in
      let ctx = Interp.create ~bits ~mc:(Machine_code.of_list []) helpers in
      let expected = Interp.eval ctx ~phv ~state (Interp.resolve_expr ctx [] e) in
      let env =
        Symbolic.env_of ~bits ~helpers
          ~phv:(fun k -> Symbolic.Phv k)
          ~state:(fun k -> Symbolic.State ("alu", k))
          ()
      in
      let sym = Symbolic.eval env e in
      let assign = function
        | Symbolic.Aphv k -> phv.(k)
        | Symbolic.Astate (_, k) -> state.(k)
        | Symbolic.Actrl _ -> 0
      in
      let got = Symbolic.eval_concrete ~bits ~assign sym in
      if got <> expected then
        QCheck.Test.fail_reportf "normal form %s evaluates to %d, interpreter says %d"
          (Symbolic.to_string sym) got expected
      else true)

(* --- Table-1: every optimizer pass is proved equivalent --------------------- *)

let level_chain ~mc desc =
  ("unoptimized", desc)
  :: List.map
       (fun st -> (st.Optimizer.st_pass, st.Optimizer.st_desc))
       (Optimizer.apply_staged ~level:Optimizer.Scc_inline ~mc desc)

let test_table1_proved () =
  List.iter
    (fun (bm : Spec.benchmark) ->
      let compiled = Spec.compile_exn bm in
      let chain = level_chain ~mc:compiled.Codegen.c_mc compiled.Codegen.c_desc in
      let obs = Equiv.check_chain ~mc:compiled.Codegen.c_mc chain in
      Alcotest.(check bool) (bm.Spec.bm_name ^ ": has obligations") true (obs <> []);
      List.iter
        (fun ob ->
          match ob.Equiv.ob_status with
          | Equiv.Proved _ -> ()
          | _ ->
            Alcotest.failf "%s: not proved: %a" bm.Spec.bm_name Equiv.pp_obligation ob)
        obs)
    Spec.all

let test_apply_staged_matches_apply () =
  let compiled = Spec.compile_exn (Spec.find_exn "sampling") in
  let mc = compiled.Codegen.c_mc and desc = compiled.Codegen.c_desc in
  List.iter
    (fun level ->
      let staged = Optimizer.apply_staged ~level ~mc desc in
      let final =
        match List.rev staged with [] -> desc | last :: _ -> last.Optimizer.st_desc
      in
      Alcotest.(check string)
        (Optimizer.level_name level ^ ": staged final = apply")
        (Emit.to_string (Optimizer.apply ~level ~mc desc))
        (Emit.to_string final))
    [ Optimizer.Unoptimized; Optimizer.Scc; Optimizer.Scc_inline ];
  Alcotest.(check (list string))
    "scc+inline pass names"
    [ "scc_propagate"; "dead_elim"; "inline_functions" ]
    (List.map
       (fun st -> st.Optimizer.st_pass)
       (Optimizer.apply_staged ~level:Optimizer.Scc_inline ~mc desc))

(* --- Sabotage: a miscompiling pass is refuted with a replayable witness ----- *)

(* Injects a deliberate miscompile into the output of [scc_propagate]: the
   first [If] of a stateful ALU gets its branches swapped — the classic
   "folded the conditional the wrong way" optimizer bug. *)
let sabotage (d : Ir.t) =
  let swapped = ref false in
  let rec swap_stmts = function
    | [] -> []
    | Ir.If (c, a, b) :: rest when not !swapped ->
      swapped := true;
      Ir.If (c, b, a) :: rest
    | s :: rest -> s :: swap_stmts rest
  in
  let stages =
    Array.map
      (fun (st : Ir.stage) ->
        {
          st with
          Ir.s_stateful =
            Array.map
              (fun (a : Ir.alu) ->
                if !swapped then a else { a with Ir.a_body = swap_stmts a.Ir.a_body })
              st.Ir.s_stateful;
        })
      d.Ir.d_stages
  in
  if not !swapped then Alcotest.fail "sabotage: no If statement found to corrupt";
  { d with Ir.d_stages = stages }

let test_sabotaged_scc_refuted () =
  let compiled = Spec.compile_exn (Spec.find_exn "sampling") in
  let mc = compiled.Codegen.c_mc and desc = compiled.Codegen.c_desc in
  let bad = sabotage (Optimizer.scc_propagate ~mc desc) in
  let obs =
    Equiv.check_chain ~mc [ ("unoptimized", desc); ("sabotaged scc_propagate", bad) ]
  in
  let refuted = List.filter Equiv.is_refuted obs in
  if refuted = [] then
    Alcotest.failf "sabotage not refuted; summary: %a"
      Fmt.(Dump.list (Dump.pair string int))
      (Equiv.summary obs);
  (* Every refutation must replay: running the subject's stage through the
     interpreter on the witness assignment reproduces the divergence. *)
  List.iter
    (fun ob ->
      match ob.Equiv.ob_status with
      | Equiv.Refuted (_, w) ->
        let assign = Equiv.assign_of_witness w in
        let lhs = Equiv.replay ~mc ~subject:ob.Equiv.ob_subject ~assign desc in
        let rhs = Equiv.replay ~mc ~subject:ob.Equiv.ob_subject ~assign bad in
        Alcotest.(check int) "witness lhs replays" w.Equiv.w_lhs lhs;
        Alcotest.(check int) "witness rhs replays" w.Equiv.w_rhs rhs;
        if lhs = rhs then Alcotest.fail "witness does not separate the descriptions"
      | _ -> ())
    refuted

(* --- Vet: compiled Table-1 artifacts against the reference semantics -------- *)

let test_vet_benchmarks_clean () =
  List.iter
    (fun (bm : Spec.benchmark) ->
      let compiled = Spec.compile_exn bm in
      let obs = Vet.check compiled in
      Alcotest.(check bool) (bm.Spec.bm_name ^ ": has obligations") true (obs <> []);
      List.iter
        (fun ob ->
          if Vet.is_refuted ob then
            Alcotest.failf "%s: refuted: %a" bm.Spec.bm_name Vet.pp_obligation ob)
        obs)
    Spec.all

(* --- Vet: the §5.2 narrow-synthesis artifact is refuted statically ---------- *)

let synth_problem ?(bits = 10) ?(synth_bits = 10) ?(budget = 200_000) src =
  {
    Synth.p_program = Frontend.parse src;
    p_target =
      Codegen.target ~depth:1 ~width:1 ~bits ~stateful:(Atoms.find_exn "pair")
        ~stateless:(Atoms.find_exn "stateless_full") ();
    p_synth_bits = synth_bits;
    p_examples = 16;
    p_budget = budget;
    p_seed = 42;
  }

let test_vet_refutes_narrow_synthesis () =
  let p =
    synth_problem ~synth_bits:4 "state s = 0; transaction t { if (pkt.a >= 100) { s = s + 1; } }"
  in
  match Synth.synthesize p with
  | Synth.Budget_exhausted { candidates } ->
    Alcotest.failf "narrow synthesis should succeed, gave up after %d" candidates
  | Synth.Synthesized compiled -> (
    (* Static verdict first: the 4-bit machine code cannot implement the
       10-bit spec, and vet must say so without executing any PHVs. *)
    let obs = Vet.check compiled in
    let refuted = List.filter Vet.is_refuted obs in
    if refuted = [] then
      Alcotest.failf "narrow synthesis not refuted statically; summary: %a"
        Fmt.(Dump.list (Dump.pair string int))
        (Vet.summary obs);
    (* ... and full-width fuzzing agrees with the static verdict. *)
    match Testing.check ~n:3000 compiled with
    | Fuzz.Mismatch _ -> ()
    | o -> Alcotest.failf "full-width fuzzing should also reject: %a" Fuzz.pp_outcome o)

(* --- Lint: truncated immediates -------------------------------------------- *)

let test_lint_truncated_immediate () =
  let bits = 8 in
  let cfg = Dgen.config ~depth:1 ~width:1 ~bits () in
  let desc =
    Dgen.generate cfg ~stateful:(Atoms.find_exn "raw") ~stateless:(Atoms.find_exn "stateless_mux")
  in
  let immediates =
    List.filter_map
      (fun (name, dom) -> match dom with Ir.Immediate -> Some name | Ir.Selector _ -> None)
      (Ir.control_domains desc)
  in
  let key = match immediates with k :: _ -> k | [] -> Alcotest.fail "no immediate control" in
  let oversized = (1 lsl bits) + 5 in
  let mc =
    Machine_code.of_list
      (List.map
         (fun (name, _) -> (name, if name = key then oversized else 0))
         (Ir.control_domains desc))
  in
  let findings = Lint.check ~mc desc in
  let hits = List.filter (fun f -> f.Lint.f_rule = "truncated-immediate") findings in
  match hits with
  | [ f ] ->
    Alcotest.(check string) "subject names the machine-code key" key f.Lint.f_subject;
    Alcotest.(check bool) "warning severity" true (f.Lint.f_severity = Lint.Warning)
  | l -> Alcotest.failf "expected exactly one truncated-immediate finding, got %d" (List.length l)

(* A clean program (all immediates representable) does not trip the rule. *)
let test_lint_truncated_immediate_silent () =
  let compiled = Spec.compile_exn (Spec.find_exn "sampling") in
  let findings = Lint.check ~mc:compiled.Codegen.c_mc compiled.Codegen.c_desc in
  Alcotest.(check (list string)) "no truncated-immediate findings" []
    (List.filter_map
       (fun f -> if f.Lint.f_rule = "truncated-immediate" then Some f.Lint.f_subject else None)
       findings)

(* --- Report schema ---------------------------------------------------------- *)

let test_report_schema_deterministic () =
  let f =
    { Lint.f_rule = "r"; f_severity = Lint.Warning; f_subject = "s"; f_message = "m" }
  in
  let json =
    Lint.report_to_json ~tool:"lint"
      [ Lint.target ~name:"b" [ f ]; Lint.target ~name:"a" [] ]
  in
  Alcotest.(check string) "versioned, sorted, deterministic"
    "{\"schema\":\"druzhba-report/1\",\"tool\":\"lint\",\"targets\":[{\"name\":\"a\",\"findings\":[],\"errors\":0,\"warnings\":0},{\"name\":\"b\",\"findings\":[{\"rule\":\"r\",\"severity\":\"warning\",\"subject\":\"s\",\"message\":\"m\"}],\"errors\":0,\"warnings\":1}]}"
    json

let () =
  Alcotest.run "symbolic"
    [
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_eval_agrees 4; qcheck_eval_agrees 8; qcheck_eval_agrees 10 ] );
      ( "equiv",
        [
          Alcotest.test_case "Table-1 levels proved" `Quick test_table1_proved;
          Alcotest.test_case "apply_staged matches apply" `Quick test_apply_staged_matches_apply;
          Alcotest.test_case "sabotaged scc refuted with replayable witness" `Quick
            test_sabotaged_scc_refuted;
        ] );
      ( "vet",
        [
          Alcotest.test_case "Table-1 artifacts clean" `Quick test_vet_benchmarks_clean;
          Alcotest.test_case "narrow synthesis refuted statically" `Slow
            test_vet_refutes_narrow_synthesis;
        ] );
      ( "lint",
        [
          Alcotest.test_case "truncated immediate flagged" `Quick test_lint_truncated_immediate;
          Alcotest.test_case "clean program silent" `Quick test_lint_truncated_immediate_silent;
          Alcotest.test_case "report schema deterministic" `Quick test_report_schema_deterministic;
        ] );
    ]
