(* Integration tests for dgen (pipeline generation), the interpreter, the
   dsim engine, and the optimizer: hand-computed simulations, structural
   checks on the three description versions of Fig. 6, and the central
   property that all three versions are observationally equivalent. *)

module Prng = Druzhba_util.Prng
module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Dgen = Druzhba_pipeline.Dgen
module Names = Druzhba_pipeline.Names
module Emit = Druzhba_pipeline.Emit
module Optimizer = Druzhba_optimizer.Optimizer
module Compile = Druzhba_pipeline.Compile
module Substrate = Druzhba_dsim.Substrate
module Phv = Druzhba_dsim.Phv
module Traffic = Druzhba_dsim.Traffic
module Trace = Druzhba_dsim.Trace
module Atoms = Druzhba_atoms.Atoms
module Fuzz = Druzhba_fuzz.Fuzz

let gen ~depth ~width ?(bits = 32) ?(stateful = "raw") ?(stateless = "stateless_full") () =
  Dgen.generate
    (Dgen.config ~depth ~width ~bits ())
    ~stateful:(Atoms.find_exn stateful) ~stateless:(Atoms.find_exn stateless)

(* All controls zero, output muxes pass-through: the identity pipeline. *)
let neutral_mc (desc : Ir.t) =
  let mc = Machine_code.empty () in
  List.iter (fun (name, _) -> Machine_code.set mc name 0) (Ir.control_domains desc);
  Array.iter
    (fun (st : Ir.stage) ->
      Array.iter
        (fun name -> Machine_code.set mc name (Names.Select.passthrough ~width:desc.Ir.d_width))
        st.Ir.s_output_muxes)
    desc.Ir.d_stages;
  mc

(* Frozen runs on the interpreter and on the closures. *)
let interpreted desc ~mc ~inputs = Substrate.run (Substrate.of_engine desc ~mc) ~inputs
let closures desc ~mc ~inputs =
  Substrate.run (Substrate.of_compiled (Compile.compile desc ~mc)) ~inputs

let run_outputs desc mc inputs =
  let trace = interpreted desc ~mc ~inputs in
  trace.Trace.outputs

(* --- Structural checks ------------------------------------------------------ *)

let test_required_names_shape () =
  let desc = gen ~depth:2 ~width:2 () in
  let names = Ir.required_names desc in
  Alcotest.(check bool) "nonempty" true (List.length names > 0);
  List.iter
    (fun n ->
      Alcotest.(check bool) ("prefixed: " ^ n) true
        (String.length n > 15 && String.sub n 0 15 = "pipeline_stage_"))
    names;
  (* output muxes for both stages and containers are required *)
  List.iter
    (fun i ->
      List.iter
        (fun c ->
          let n = Names.output_mux ~stage:i ~container:c in
          Alcotest.(check bool) ("has " ^ n) true (List.mem n names))
        [ 0; 1 ])
    [ 0; 1 ]

let test_alu_count () =
  let desc = gen ~depth:3 ~width:4 () in
  Alcotest.(check int) "stages" 3 (Array.length desc.Ir.d_stages);
  Array.iter
    (fun (st : Ir.stage) ->
      Alcotest.(check int) "stateless per stage" 4 (Array.length st.Ir.s_stateless);
      Alcotest.(check int) "stateful per stage" 4 (Array.length st.Ir.s_stateful);
      Alcotest.(check int) "output muxes" 4 (Array.length st.Ir.s_output_muxes))
    desc.Ir.d_stages

let test_control_domains () =
  let desc = gen ~depth:1 ~width:2 ~stateful:"sub" () in
  let domains = Ir.control_domains desc in
  let find n = List.assoc n domains in
  let sf = Names.stateful_alu ~stage:0 ~alu:0 in
  Alcotest.(check bool) "arith op domain" true
    (find (Names.slot ~alu_prefix:sf ~slot_name:"arith_op_0") = Ir.Selector 2);
  Alcotest.(check bool) "mux3 domain" true
    (find (Names.slot ~alu_prefix:sf ~slot_name:"mux3_0") = Ir.Selector 3);
  Alcotest.(check bool) "const domain" true
    (find (Names.slot ~alu_prefix:sf ~slot_name:"const_0") = Ir.Immediate);
  Alcotest.(check bool) "input mux domain" true
    (find (Names.input_mux ~alu_prefix:sf ~operand:0) = Ir.Selector 2);
  Alcotest.(check bool) "output mux domain" true
    (find (Names.output_mux ~stage:0 ~container:0) = Ir.Selector 7)

(* --- Hand-computed simulations ---------------------------------------------- *)

(* width 1, depth 1, raw atom accumulating pkt_0 into state_0. *)
let accumulator_setup () =
  let desc = gen ~depth:1 ~width:1 ~stateful:"raw" () in
  let mc = neutral_mc desc in
  (desc, mc)

let sf0 = Names.stateful_alu ~stage:0 ~alu:0
let out0 = Names.output_mux ~stage:0 ~container:0

let test_accumulator_old_state () =
  let desc, mc = accumulator_setup () in
  (* output mux selects the stateful ALU's output = pre-execution state_0 *)
  Machine_code.set mc out0 (Names.Select.stateful_output ~width:1 0);
  let outputs = run_outputs desc mc [ [| 5 |]; [| 7 |]; [| 9 |] ] in
  Alcotest.(check (list (list int)))
    "running sum, delayed"
    [ [ 0 ]; [ 5 ]; [ 12 ] ]
    (List.map Array.to_list outputs);
  let trace = interpreted desc ~mc ~inputs:[ [| 5 |]; [| 7 |]; [| 9 |] ] in
  Alcotest.(check (option (list int)))
    "final state" (Some [ 21 ])
    (Option.map Array.to_list (Trace.find_state trace sf0))

let test_accumulator_new_state () =
  let desc, mc = accumulator_setup () in
  Machine_code.set mc out0 (Names.Select.stateful_new_state ~width:1 0);
  let outputs = run_outputs desc mc [ [| 5 |]; [| 7 |]; [| 9 |] ] in
  Alcotest.(check (list (list int)))
    "post-update sums"
    [ [ 5 ]; [ 12 ]; [ 21 ] ]
    (List.map Array.to_list outputs)

let test_passthrough () =
  let desc, mc = accumulator_setup () in
  (* neutral mc already selects pass-through *)
  let outputs = run_outputs desc mc [ [| 1 |]; [| 2 |]; [| 3 |] ] in
  Alcotest.(check (list (list int)))
    "identity" [ [ 1 ]; [ 2 ]; [ 3 ] ]
    (List.map Array.to_list outputs)

let test_stateless_const () =
  let desc, mc = accumulator_setup () in
  let sl0 = Names.stateless_alu ~stage:0 ~alu:0 in
  (* stateless_full opcode 5 returns C() (its 7th const instance) *)
  Machine_code.set mc (Names.slot ~alu_prefix:sl0 ~slot_name:"opcode") 5;
  Machine_code.set mc (Names.slot ~alu_prefix:sl0 ~slot_name:"const_6") 99;
  Machine_code.set mc out0 (Names.Select.stateless_output ~width:1 0);
  let outputs = run_outputs desc mc [ [| 1 |]; [| 2 |] ] in
  Alcotest.(check (list (list int))) "const" [ [ 99 ]; [ 99 ] ] (List.map Array.to_list outputs)

let test_raw_immediate_increment () =
  (* raw with mux2 selecting C()=3: state += 3 per PHV regardless of input *)
  let desc, mc = accumulator_setup () in
  Machine_code.set mc (Names.slot ~alu_prefix:sf0 ~slot_name:"mux2_0") 1;
  Machine_code.set mc (Names.slot ~alu_prefix:sf0 ~slot_name:"const_0") 3;
  Machine_code.set mc out0 (Names.Select.stateful_new_state ~width:1 0);
  let outputs = run_outputs desc mc [ [| 100 |]; [| 100 |] ] in
  Alcotest.(check (list (list int))) "increments" [ [ 3 ]; [ 6 ] ] (List.map Array.to_list outputs)

let test_pipeline_latency_and_order () =
  (* depth 3 pass-through: distinct PHVs exit in order, one per tick after the
     pipeline fills (the two-halves rule: one stage per tick). *)
  let desc = gen ~depth:3 ~width:1 () in
  let mc = neutral_mc desc in
  let eng = Substrate.of_engine desc ~mc in
  Alcotest.(check (option (list int)))
    "tick 1: nothing out" None
    (Option.map Array.to_list (Substrate.step eng ~input:(Some [| 10 |])));
  Alcotest.(check (option (list int)))
    "tick 2: nothing out" None
    (Option.map Array.to_list (Substrate.step eng ~input:(Some [| 20 |])));
  Alcotest.(check (option (list int)))
    "tick 3: first PHV exits" (Some [ 10 ])
    (Option.map Array.to_list (Substrate.step eng ~input:(Some [| 30 |])));
  Alcotest.(check (option (list int)))
    "tick 4: second PHV exits" (Some [ 20 ])
    (Option.map Array.to_list (Substrate.step eng ~input:None));
  Alcotest.(check (option (list int)))
    "tick 5: third PHV exits" (Some [ 30 ])
    (Option.map Array.to_list (Substrate.step eng ~input:None))

let test_state_visible_to_next_phv () =
  (* Back-to-back PHVs at the same stateful ALU observe strictly increasing
     state: writes are visible to the next PHV (§2.2). *)
  let desc, mc = accumulator_setup () in
  Machine_code.set mc out0 (Names.Select.stateful_output ~width:1 0);
  let outputs = run_outputs desc mc [ [| 1 |]; [| 1 |]; [| 1 |]; [| 1 |] ] in
  Alcotest.(check (list (list int)))
    "monotone" [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ]
    (List.map Array.to_list outputs)

let test_bits_wraparound () =
  (* 4-bit pipeline: the accumulator wraps modulo 16. *)
  let desc = gen ~depth:1 ~width:1 ~bits:4 () in
  let mc = neutral_mc desc in
  Machine_code.set mc out0 (Names.Select.stateful_new_state ~width:1 0);
  let outputs = run_outputs desc mc [ [| 9 |]; [| 9 |] ] in
  Alcotest.(check (list (list int))) "wraps" [ [ 9 ]; [ 2 ] ] (List.map Array.to_list outputs)

let test_if_else_raw_semantics () =
  (* if_else_raw programmed as the sampling update: if (s == 9) s = 0 else
     s = s + 1.  Machine code: rel_op '=='; then-branch Opt -> 0 and
     Mux3 -> C()=0; else-branch Opt -> s and Mux3 -> C()=1. *)
  let desc = gen ~depth:1 ~width:1 ~stateful:"if_else_raw" () in
  let mc = neutral_mc desc in
  let set slot v = Machine_code.set mc (Names.slot ~alu_prefix:sf0 ~slot_name:slot) v in
  set "rel_op_0" 2 (* == *);
  set "opt_0" 0 (* state_0 *);
  set "mux3_0" 2 (* C() *);
  set "const_0" 9;
  set "opt_1" 1 (* then: 0 *);
  set "mux3_1" 2;
  set "const_1" 0;
  set "opt_2" 0 (* else: state_0 *);
  set "mux3_2" 2;
  set "const_2" 1;
  Machine_code.set mc out0 (Names.Select.stateful_new_state ~width:1 0);
  let inputs = List.init 21 (fun _ -> [| 0 |]) in
  let outputs = run_outputs desc mc inputs |> List.map (fun p -> p.(0)) in
  let expected = List.init 21 (fun i -> (i + 1) mod 10) in
  Alcotest.(check (list int)) "sampling counter" expected outputs

(* --- Optimizer --------------------------------------------------------------- *)

let random_setup ?(stateful = "if_else_raw") ?(depth = 2) ?(width = 2) ?(seed = 1) () =
  let desc = gen ~depth ~width ~stateful () in
  let mc = Fuzz.random_mc (Prng.create seed) desc in
  (desc, mc)

let test_scc_removes_mc_nodes () =
  let desc, mc = random_setup () in
  let v2 = Optimizer.scc_propagate ~mc desc in
  Alcotest.(check (list string)) "no machine-code names needed" [] (Ir.required_names v2);
  Alcotest.(check bool) "smaller" true (Ir.size v2 < Ir.size desc)

let count_calls (d : Ir.t) =
  let count acc (e : Ir.expr) = match e with Ir.Call _ -> acc + 1 | _ -> acc in
  let n = ref 0 in
  Array.iter
    (fun (st : Ir.stage) ->
      let alu (a : Ir.alu) = n := List.fold_left (Ir.fold_stmt count) !n a.Ir.a_body in
      Array.iter alu st.Ir.s_stateless;
      Array.iter alu st.Ir.s_stateful)
    d.Ir.d_stages;
  !n

let test_inline_removes_calls () =
  let desc, mc = random_setup () in
  let v2 = Optimizer.scc_propagate ~mc desc in
  let v3 = Optimizer.inline_functions v2 in
  Alcotest.(check bool) "v2 has calls" true (count_calls v2 > 0);
  Alcotest.(check int) "v3 call-free" 0 (count_calls v3);
  Alcotest.(check bool) "v3 not larger than v2" true (Ir.size v3 <= Ir.size v2)

let test_scc_is_pure () =
  let desc, mc = random_setup () in
  let before = Ir.size desc in
  let required_before = Ir.required_names desc in
  ignore (Optimizer.scc_propagate ~mc desc);
  ignore (Optimizer.inline_functions (Optimizer.scc_propagate ~mc desc));
  Alcotest.(check int) "size unchanged" before (Ir.size desc);
  Alcotest.(check (list string)) "required unchanged" required_before (Ir.required_names desc)

let test_scc_missing_pair_raises () =
  let desc, mc = random_setup () in
  let name = List.hd (Ir.required_names desc) in
  Machine_code.remove mc name;
  match Optimizer.scc_propagate ~mc desc with
  | _ -> Alcotest.fail "expected Missing"
  | exception Machine_code.Missing n -> Alcotest.(check string) "name" name n

let equal_traces (a : Trace.t) (b : Trace.t) =
  List.for_all2 Phv.equal a.Trace.outputs b.Trace.outputs
  && List.for_all2
       (fun (n1, s1) (n2, s2) -> n1 = n2 && s1 = s2)
       a.Trace.final_state b.Trace.final_state

let check_three_versions ~stateful ~depth ~width ~seed =
  let desc = gen ~depth ~width ~stateful () in
  let prng = Prng.create seed in
  let mc = Fuzz.random_mc prng desc in
  let traffic = Traffic.create ~seed:(seed + 1) ~width ~bits:32 in
  let inputs = Traffic.phvs traffic 40 in
  let v2 = Optimizer.scc_propagate ~mc desc in
  let v3 = Optimizer.apply ~level:Optimizer.Scc_inline ~mc desc in
  let t1 = interpreted desc ~mc ~inputs in
  let t2 = interpreted v2 ~mc ~inputs in
  let t3 = interpreted v3 ~mc ~inputs in
  (* the closure-compiled engine agrees with the interpreter on all versions *)
  let c1 = closures desc ~mc ~inputs in
  let c2 = closures v2 ~mc ~inputs in
  let c3 = closures v3 ~mc ~inputs in
  List.for_all (equal_traces t1) [ t2; t3; c1; c2; c3 ]

(* Machine code with out-of-domain selector values (e.g. a hand-written
   program with a selector beyond the mux arity): the selector chain falls
   through to its last choice in every version and every backend — no crash,
   no divergence between versions. *)
let prop_out_of_domain_selectors =
  QCheck.Test.make ~name:"out-of-domain selectors are total and consistent" ~count:30
    QCheck.(pair small_nat (int_range 1 3))
    (fun (seed, width) ->
      let desc = gen ~depth:2 ~width ~stateful:"pair" () in
      let prng = Prng.create seed in
      (* draw selectors far outside their domains and immediates over the
         full width *)
      let mc = Machine_code.empty () in
      List.iter
        (fun (name, domain) ->
          let v =
            match (domain : Ir.control_domain) with
            | Ir.Selector n -> Prng.int prng (n * 5)
            | Ir.Immediate -> Prng.bits prng 32
          in
          Machine_code.set mc name v)
        (Ir.control_domains desc);
      let inputs = Traffic.phvs (Traffic.create ~seed:(seed + 1) ~width ~bits:32) 25 in
      let t1 = interpreted desc ~mc ~inputs in
      let t2 = interpreted (Optimizer.scc_propagate ~mc desc) ~mc ~inputs in
      let c3 = closures (Optimizer.apply ~level:Optimizer.Scc_inline ~mc desc) ~mc ~inputs in
      equal_traces t1 t2 && equal_traces t1 c3)

(* Every selector at -1, at its bound n, and at n + 7, in unvalidated
   machine code: each selector chain takes its default arm, on the
   interpreter and the closures alike, at every optimization level. *)
let test_selectors_outside_domain () =
  List.iter
    (fun stateful ->
      let desc = gen ~depth:2 ~width:2 ~stateful () in
      let inputs = Traffic.phvs (Traffic.create ~seed:9 ~width:2 ~bits:32) 25 in
      List.iter
        (fun (what, selector) ->
          let prng = Prng.create 5 in
          let mc = Machine_code.empty () in
          List.iter
            (fun (name, domain) ->
              Machine_code.set mc name
                (match (domain : Ir.control_domain) with
                | Ir.Selector n -> selector n
                | Ir.Immediate -> Prng.bits prng 32))
            (Ir.control_domains desc);
          let reference = interpreted desc ~mc ~inputs in
          List.iter
            (fun level ->
              let d = Optimizer.apply ~level ~mc desc in
              let name executor =
                Printf.sprintf "%s, selectors at %s: %s at %s" stateful what executor
                  (Optimizer.level_name level)
              in
              Alcotest.(check bool) (name "interpreter") true
                (equal_traces reference (interpreted d ~mc ~inputs));
              Alcotest.(check bool) (name "closures") true
                (equal_traces reference (closures d ~mc ~inputs)))
            [ Optimizer.Unoptimized; Optimizer.Scc; Optimizer.Scc_inline ])
        [ ("-1", fun _ -> -1); ("n", fun n -> n); ("n + 7", fun n -> n + 7) ])
    [ "raw"; "sub"; "pred_raw"; "if_else_raw"; "nested_ifs"; "pair" ]

let prop_optimizer_equivalence =
  QCheck.Test.make ~name:"v1 = v2 = v3 on random machine code" ~count:60
    QCheck.(
      quad
        (oneofl [ "raw"; "sub"; "pred_raw"; "if_else_raw"; "nested_ifs"; "pair" ])
        (int_range 1 3) (int_range 1 3) small_nat)
    (fun (stateful, depth, width, seed) -> check_three_versions ~stateful ~depth ~width ~seed)

let test_equivalence_all_stateless () =
  List.iter
    (fun stateless ->
      let desc = gen ~depth:2 ~width:2 ~stateless () in
      let mc = Fuzz.random_mc (Prng.create 7) desc in
      let inputs = Traffic.phvs (Traffic.create ~seed:8 ~width:2 ~bits:32) 30 in
      let t1 = interpreted desc ~mc ~inputs in
      let t2 = interpreted (Optimizer.scc_propagate ~mc desc) ~mc ~inputs in
      Alcotest.(check bool) ("equivalent: " ^ stateless) true (equal_traces t1 t2))
    [ "stateless_arith"; "stateless_rel"; "stateless_mux"; "stateless_logical"; "stateless_full" ]

(* --- Emission (Fig. 6) -------------------------------------------------------- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_emit_versions () =
  let desc, mc = random_setup ~depth:1 ~width:1 () in
  let v1 = Emit.to_string desc in
  let v2 = Emit.to_string (Optimizer.scc_propagate ~mc desc) in
  let v3 = Emit.to_string (Optimizer.apply ~level:Optimizer.Scc_inline ~mc desc) in
  (* v1 looks up machine code at runtime; v2 and v3 do not. *)
  Alcotest.(check bool) "v1 has values[...]" true (contains ~sub:"values[" v1);
  Alcotest.(check bool) "v2 has no values[...]" false (contains ~sub:"values[" v2);
  Alcotest.(check bool) "v3 has no values[...]" false (contains ~sub:"values[" v3);
  (* v3 inlines the mux helpers out of the ALU bodies. *)
  Alcotest.(check bool) "v1 calls input mux" true (contains ~sub:"input_mux_0 (" v1);
  Alcotest.(check bool) "v3 does not call input mux" false (contains ~sub:"input_mux_0 (" v3);
  (* emission is deterministic *)
  Alcotest.(check string) "deterministic" v1 (Emit.to_string desc)

(* --- Fuzz harness -------------------------------------------------------------- *)

let test_fuzz_missing_pairs_detected () =
  let desc, mc = random_setup () in
  let name = List.hd (Ir.required_names desc) in
  Machine_code.remove mc name;
  let spec =
    { Fuzz.spec_init = (fun () -> [||]); spec_step = (fun _ phv -> phv) }
  in
  match
    Fuzz.run_equivalence ~desc ~mc ~spec ~observed:[] ~state_layout:[] ~n:5 ()
  with
  | Fuzz.Missing_pairs [ n ] -> Alcotest.(check string) "name" name n
  | _ -> Alcotest.fail "expected Missing_pairs"

let test_fuzz_passthrough_spec_passes () =
  let desc = gen ~depth:2 ~width:2 () in
  let mc = neutral_mc desc in
  let spec = { Fuzz.spec_init = (fun () -> [||]); spec_step = (fun _ phv -> phv) } in
  match
    Fuzz.run_equivalence ~desc ~mc ~spec ~observed:[ 0; 1 ] ~state_layout:[] ~n:50 ()
  with
  | Fuzz.Pass { phvs = 50 } -> ()
  | o -> Alcotest.failf "expected pass, got %a" Fuzz.pp_outcome o

let test_fuzz_detects_wrong_spec () =
  let desc = gen ~depth:1 ~width:1 () in
  let mc = neutral_mc desc in
  (* spec claims the pipeline increments container 0; the pipeline is identity *)
  let spec =
    {
      Fuzz.spec_init = (fun () -> [||]);
      spec_step = (fun _ phv -> [| (phv.(0) + 1) land 0xFFFFFFFF |]);
    }
  in
  match Fuzz.run_equivalence ~desc ~mc ~spec ~observed:[ 0 ] ~state_layout:[] ~n:20 () with
  | Fuzz.Mismatch { mm_index = 0; mm_kind = `Output 0; _ } -> ()
  | o -> Alcotest.failf "expected mismatch at phv 0, got %a" Fuzz.pp_outcome o

let test_fuzz_state_layout_mismatch () =
  let desc, mc = accumulator_setup () in
  (* spec expects the accumulator state to be the sum *plus one* *)
  let spec =
    {
      Fuzz.spec_init = (fun () -> [| 1 |]);
      spec_step =
        (fun st phv ->
          st.(0) <- st.(0) + phv.(0);
          phv);
    }
  in
  match
    Fuzz.run_equivalence ~desc ~mc ~spec ~observed:[] ~state_layout:[ (sf0, 0, 0) ] ~n:10 ()
  with
  | Fuzz.Mismatch { mm_kind = `State 0; mm_index = -1; _ } -> ()
  | o -> Alcotest.failf "expected state mismatch, got %a" Fuzz.pp_outcome o

let test_random_mc_in_domain () =
  let desc = gen ~depth:2 ~width:3 ~stateful:"pair" () in
  let prng = Prng.create 11 in
  for _ = 1 to 20 do
    let mc = Fuzz.random_mc prng desc in
    List.iter
      (fun (name, domain) ->
        let v = Machine_code.find mc name in
        match (domain : Ir.control_domain) with
        | Ir.Selector n ->
          Alcotest.(check bool) ("selector in domain: " ^ name) true (v >= 0 && v < n)
        | Ir.Immediate -> Alcotest.(check bool) ("immediate in width: " ^ name) true (v >= 0))
      (Ir.control_domains desc)
  done

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "pipeline"
    [
      ( "structure",
        [
          Alcotest.test_case "required names" `Quick test_required_names_shape;
          Alcotest.test_case "alu counts" `Quick test_alu_count;
          Alcotest.test_case "control domains" `Quick test_control_domains;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "accumulator old state" `Quick test_accumulator_old_state;
          Alcotest.test_case "accumulator new state" `Quick test_accumulator_new_state;
          Alcotest.test_case "passthrough" `Quick test_passthrough;
          Alcotest.test_case "stateless const" `Quick test_stateless_const;
          Alcotest.test_case "raw immediate increment" `Quick test_raw_immediate_increment;
          Alcotest.test_case "latency and order" `Quick test_pipeline_latency_and_order;
          Alcotest.test_case "state visible to next phv" `Quick test_state_visible_to_next_phv;
          Alcotest.test_case "bit-width wraparound" `Quick test_bits_wraparound;
          Alcotest.test_case "if_else_raw sampling" `Quick test_if_else_raw_semantics;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "scc removes mc nodes" `Quick test_scc_removes_mc_nodes;
          Alcotest.test_case "inline removes calls" `Quick test_inline_removes_calls;
          Alcotest.test_case "passes are pure" `Quick test_scc_is_pure;
          Alcotest.test_case "missing pair raises" `Quick test_scc_missing_pair_raises;
          Alcotest.test_case "equivalence across stateless alus" `Quick
            test_equivalence_all_stateless;
          Alcotest.test_case "selectors at -1, n and n + 7" `Quick test_selectors_outside_domain;
        ]
        @ qsuite [ prop_optimizer_equivalence; prop_out_of_domain_selectors ] );
      ("emission", [ Alcotest.test_case "fig6 versions" `Quick test_emit_versions ]);
      ( "fuzz",
        [
          Alcotest.test_case "missing pairs detected" `Quick test_fuzz_missing_pairs_detected;
          Alcotest.test_case "passthrough spec passes" `Quick test_fuzz_passthrough_spec_passes;
          Alcotest.test_case "wrong spec detected" `Quick test_fuzz_detects_wrong_spec;
          Alcotest.test_case "state layout mismatch" `Quick test_fuzz_state_layout_mismatch;
          Alcotest.test_case "random mc in domain" `Quick test_random_mc_in_domain;
        ] );
    ]
