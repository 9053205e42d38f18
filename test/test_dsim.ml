(* Tests for the dsim extras: traffic determinism, trace rendering, the
   time-travel debugger (paper §7), and bounded-exhaustive verification. *)

module Prng = Druzhba_util.Prng
module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Dgen = Druzhba_pipeline.Dgen
module Names = Druzhba_pipeline.Names
module Compile = Druzhba_pipeline.Compile
module Interp = Druzhba_pipeline.Interp
module Engine = Druzhba_dsim.Engine
module Driver = Druzhba_dsim.Driver
module Substrate = Druzhba_dsim.Substrate
module Native_substrate = Druzhba_dsim.Native_substrate
module Budget = Druzhba_dsim.Budget
module Faults = Druzhba_dsim.Faults
module Phv = Druzhba_dsim.Phv
module Traffic = Druzhba_dsim.Traffic
module Trace = Druzhba_dsim.Trace
module Debugger = Druzhba_dsim.Debugger
module Atoms = Druzhba_atoms.Atoms
module Fuzz = Druzhba_fuzz.Fuzz
module Verify = Druzhba_fuzz.Verify

let gen ~depth ~width ?(bits = 32) ?(stateful = "raw") () =
  Dgen.generate
    (Dgen.config ~depth ~width ~bits ())
    ~stateful:(Atoms.find_exn stateful) ~stateless:(Atoms.find_exn "stateless_full")

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
let interpreted ?init desc ~mc ~inputs =
  Substrate.run (Substrate.of_engine ?init desc ~mc) ~inputs

let closures desc ~mc ~inputs =
  Substrate.run (Substrate.of_compiled (Compile.compile desc ~mc)) ~inputs

(* accumulator: state += pkt_0, output mux exposes old state *)
let accumulator () =
  let desc = gen ~depth:1 ~width:1 () in
  let mc = neutral_mc desc in
  Machine_code.set mc
    (Names.output_mux ~stage:0 ~container:0)
    (Names.Select.stateful_output ~width:1 0);
  (desc, mc)

(* --- Traffic ------------------------------------------------------------------ *)

let test_traffic_deterministic () =
  let a = Traffic.phvs (Traffic.create ~seed:5 ~width:3 ~bits:16) 50 in
  let b = Traffic.phvs (Traffic.create ~seed:5 ~width:3 ~bits:16) 50 in
  Alcotest.(check bool) "same trace" true (List.for_all2 Phv.equal a b);
  let c = Traffic.phvs (Traffic.create ~seed:6 ~width:3 ~bits:16) 50 in
  Alcotest.(check bool) "different seed differs" false (List.for_all2 Phv.equal a c)

let test_traffic_width_and_bits () =
  let phvs = Traffic.phvs (Traffic.create ~seed:1 ~width:4 ~bits:6) 100 in
  List.iter
    (fun phv ->
      Alcotest.(check int) "width" 4 (Phv.width phv);
      Array.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 64)) phv)
    phvs

(* --- Phv ------------------------------------------------------------------------ *)

let test_phv_equal_monomorphic () =
  Alcotest.(check bool) "equal" true (Phv.equal [| 1; 2; 3 |] [| 1; 2; 3 |]);
  Alcotest.(check bool) "differs in last" false (Phv.equal [| 1; 2; 3 |] [| 1; 2; 4 |]);
  Alcotest.(check bool) "length mismatch" false (Phv.equal [| 1; 2 |] [| 1; 2; 3 |]);
  Alcotest.(check bool) "empty" true (Phv.equal [||] [||])

let test_phv_blit () =
  let src = [| 7; 8; 9 |] in
  let dst = Phv.create ~width:3 in
  Phv.blit src dst;
  Alcotest.(check bool) "copied" true (Phv.equal src dst);
  src.(0) <- 100;
  Alcotest.(check int) "no aliasing" 7 (Phv.get dst 0)

(* --- Trace ---------------------------------------------------------------------- *)

let test_trace_buffer () =
  (* capacity 2 forces doubling growth across 5 pushes *)
  let buf = Trace.Buffer.create ~width:2 ~capacity:2 in
  Alcotest.(check int) "width" 2 (Trace.Buffer.width buf);
  let scratch = [| 0; 0; 0; 0 |] in
  for i = 1 to 5 do
    scratch.(2) <- (10 * i) + 1;
    scratch.(3) <- (10 * i) + 2;
    Trace.Buffer.push buf scratch ~off:2
  done;
  Alcotest.(check int) "length" 5 (Trace.Buffer.length buf);
  Alcotest.(check (list int)) "row 3 (borrowed)" [ 41; 42 ]
    (Array.to_list (Trace.Buffer.row buf 3));
  let frozen = Trace.Buffer.contents buf in
  Alcotest.(check int) "contents length" 5 (List.length frozen);
  Alcotest.(check (list int)) "first row" [ 11; 12 ] (Array.to_list (List.hd frozen));
  (* frozen rows are copies: clearing and refilling must not disturb them *)
  Trace.Buffer.clear buf;
  Alcotest.(check int) "cleared" 0 (Trace.Buffer.length buf);
  scratch.(2) <- 999;
  Trace.Buffer.push buf scratch ~off:2;
  Alcotest.(check (list int)) "frozen rows unaffected" [ 11; 12 ]
    (Array.to_list (List.hd frozen));
  Alcotest.(check bool) "row bounds checked" true
    (match Trace.Buffer.row buf 1 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_trace_pp_smoke () =
  let desc, mc = accumulator () in
  let trace = interpreted desc ~mc ~inputs:[ [| 1 |]; [| 2 |] ] in
  let rendered = Fmt.str "%a" Trace.pp trace in
  Alcotest.(check bool) "mentions phv lines" true (String.length rendered > 20)

let test_engine_init_state () =
  let desc, mc = accumulator () in
  let init = [ (Names.stateful_alu ~stage:0 ~alu:0, [| 100 |]) ] in
  let trace = interpreted ~init desc ~mc ~inputs:[ [| 5 |] ] in
  Alcotest.(check (option (list int)))
    "state starts at 100" (Some [ 105 ])
    (Option.map Array.to_list (Trace.find_state trace (Names.stateful_alu ~stage:0 ~alu:0)))

(* --- Debugger -------------------------------------------------------------------- *)

let session () =
  let desc, mc = accumulator () in
  Debugger.start desc ~mc ~inputs:(List.init 20 (fun i -> [| i + 1 |]))

let test_debugger_step_and_inspect () =
  let d = session () in
  let snap1 = Debugger.step d in
  Alcotest.(check int) "tick 1" 1 snap1.Debugger.snap_tick;
  (* after tick 1 the accumulator holds input 1 *)
  Alcotest.(check (option int))
    "state after tick 1" (Some 1)
    (Debugger.state d ~alu:(Names.stateful_alu ~stage:0 ~alu:0) ~slot:0);
  let _ = Debugger.step d in
  Alcotest.(check (option int))
    "state after tick 2" (Some 3)
    (Debugger.state d ~alu:(Names.stateful_alu ~stage:0 ~alu:0) ~slot:0)

let test_debugger_rewind () =
  let d = session () in
  let _ = Debugger.goto d 10 in
  Alcotest.(check (option int))
    "state at tick 10" (Some 55)
    (Debugger.state d ~alu:(Names.stateful_alu ~stage:0 ~alu:0) ~slot:0);
  (* rewind: tick 3 = 1+2+3 *)
  let snap = Debugger.goto d 3 in
  Alcotest.(check int) "cursor" 3 (Debugger.cursor d);
  Alcotest.(check int) "snapshot tick" 3 snap.Debugger.snap_tick;
  Alcotest.(check (option int))
    "state at tick 3" (Some 6)
    (Debugger.state d ~alu:(Names.stateful_alu ~stage:0 ~alu:0) ~slot:0);
  (* step_back one more *)
  let _ = Debugger.step_back d in
  Alcotest.(check (option int))
    "state at tick 2" (Some 3)
    (Debugger.state d ~alu:(Names.stateful_alu ~stage:0 ~alu:0) ~slot:0);
  (* and forward again: the history is replayed, not recomputed differently *)
  let _ = Debugger.step d in
  Alcotest.(check (option int))
    "state back at tick 3" (Some 6)
    (Debugger.state d ~alu:(Names.stateful_alu ~stage:0 ~alu:0) ~slot:0)

let test_debugger_breakpoint () =
  let d = session () in
  (* break when the accumulator reaches exactly 15 = 1+2+3+4+5 *)
  let bp = Debugger.break_on_state ~alu:(Names.stateful_alu ~stage:0 ~alu:0) ~slot:0 ~value:15 in
  (match Debugger.continue_until ~limit:50 d bp with
  | Some snap -> Alcotest.(check int) "fires at tick 5" 5 snap.Debugger.snap_tick
  | None -> Alcotest.fail "breakpoint never fired");
  (* rewind to where state was 6 *)
  match
    Debugger.rewind_until d
      (Debugger.break_on_state ~alu:(Names.stateful_alu ~stage:0 ~alu:0) ~slot:0 ~value:6)
  with
  | Some snap -> Alcotest.(check int) "rewinds to tick 3" 3 snap.Debugger.snap_tick
  | None -> Alcotest.fail "rewind never fired"

let test_debugger_first_divergence () =
  let desc, mc = accumulator () in
  let buggy = Machine_code.copy mc in
  (* flip the raw atom's mux to C() = 0: the accumulator stops accumulating *)
  Machine_code.set buggy
    (Names.slot ~alu_prefix:(Names.stateful_alu ~stage:0 ~alu:0) ~slot_name:"mux2_0")
    1;
  let inputs = List.init 20 (fun i -> [| i + 1 |]) in
  let a = Debugger.start desc ~mc ~inputs in
  let b = Debugger.start desc ~mc:buggy ~inputs in
  match Debugger.first_divergence ~observed:[ 0 ] a b with
  | Some tick ->
    (* tick 1 outputs old state 0 for both; tick 2 differs (1 vs 0) *)
    Alcotest.(check int) "diverges at tick 2" 2 tick
  | None -> Alcotest.fail "no divergence found"

let test_debugger_output_breakpoint () =
  let d = session () in
  let bp = Debugger.break_on_output ~container:0 ~pred:(fun v -> v >= 10) in
  match Debugger.continue_until ~limit:50 d bp with
  | Some snap -> (
    match snap.Debugger.snap_output with
    | Some phv -> Alcotest.(check bool) "output >= 10" true (phv.(0) >= 10)
    | None -> Alcotest.fail "no output at firing tick")
  | None -> Alcotest.fail "output breakpoint never fired"

(* --- Bounded-exhaustive verification ----------------------------------------------- *)

(* the accumulator at 3 bits: prove equivalence over all inputs and states *)
let test_verify_proves_accumulator () =
  let desc = gen ~depth:1 ~width:1 ~bits:3 () in
  let mc = neutral_mc desc in
  Machine_code.set mc
    (Names.output_mux ~stage:0 ~container:0)
    (Names.Select.stateful_output ~width:1 0);
  let spec =
    {
      Fuzz.spec_init = (fun () -> [| 0 |]);
      spec_step =
        (fun st phv ->
          let out = [| st.(0) |] in
          st.(0) <- (st.(0) + phv.(0)) land 7;
          out);
    }
  in
  match
    Verify.exhaustive_check ~desc ~mc ~spec ~observed:[ 0 ]
      ~state_layout:[ (Names.stateful_alu ~stage:0 ~alu:0, 0, 0) ]
      ~init:[] ()
  with
  | Verify.Proved { states; inputs_per_state } ->
    Alcotest.(check int) "8 reachable states" 8 states;
    Alcotest.(check int) "8 inputs each" 8 inputs_per_state
  | r -> Alcotest.failf "expected proof, got %a" Verify.pp_result r

let test_verify_finds_counterexample () =
  let desc = gen ~depth:1 ~width:1 ~bits:3 () in
  let mc = neutral_mc desc in
  Machine_code.set mc
    (Names.output_mux ~stage:0 ~container:0)
    (Names.Select.stateful_output ~width:1 0);
  (* spec wrongly claims saturation at 7 instead of wraparound *)
  let spec =
    {
      Fuzz.spec_init = (fun () -> [| 0 |]);
      spec_step =
        (fun st phv ->
          let out = [| st.(0) |] in
          st.(0) <- min 7 (st.(0) + phv.(0));
          out);
    }
  in
  match
    Verify.exhaustive_check ~desc ~mc ~spec ~observed:[ 0 ]
      ~state_layout:[ (Names.stateful_alu ~stage:0 ~alu:0, 0, 0) ]
      ~init:[] ()
  with
  | Verify.Counterexample cx ->
    Alcotest.(check bool) "state divergence" true (cx.Verify.cx_kind = `State 0)
  | r -> Alcotest.failf "expected counterexample, got %a" Verify.pp_result r

let test_verify_budget () =
  let desc = gen ~depth:1 ~width:1 ~bits:3 () in
  let mc = neutral_mc desc in
  Machine_code.set mc
    (Names.output_mux ~stage:0 ~container:0)
    (Names.Select.stateful_output ~width:1 0);
  let spec =
    {
      Fuzz.spec_init = (fun () -> [| 0 |]);
      spec_step =
        (fun st phv ->
          let out = [| st.(0) |] in
          st.(0) <- (st.(0) + phv.(0)) land 7;
          out);
    }
  in
  match
    Verify.exhaustive_check ~max_states:3 ~desc ~mc ~spec ~observed:[ 0 ]
      ~state_layout:[ (Names.stateful_alu ~stage:0 ~alu:0, 0, 0) ]
      ~init:[] ()
  with
  | Verify.Inconclusive { explored } -> Alcotest.(check bool) "honest" true (explored >= 3)
  | r -> Alcotest.failf "expected inconclusive, got %a" Verify.pp_result r

(* verify a real compiled benchmark at tiny width: sampling at 4 bits *)
let test_verify_compiled_sampling () =
  let bm = Druzhba_spec.Spec.find_exn "sampling" in
  let bits = 4 in
  let compiled = Druzhba_spec.Spec.compile_exn ~bits bm in
  let module Codegen = Druzhba_compiler.Codegen in
  let module Testing = Druzhba_compiler.Testing in
  match
    Verify.exhaustive_check ~desc:compiled.Codegen.c_desc ~mc:compiled.Codegen.c_mc
      ~spec:(Testing.spec_of compiled) ~observed:(Testing.observed compiled)
      ~state_layout:(Testing.state_layout compiled)
      ~init:compiled.Codegen.c_layout.Codegen.l_init ()
  with
  | Verify.Proved { states; _ } -> Alcotest.(check bool) "some states" true (states >= 10)
  | r -> Alcotest.failf "expected proof, got %a" Verify.pp_result r

(* --- Budget (watchdog fuel) --------------------------------------------------- *)

let test_budget_fuel () =
  (match Budget.ticks 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero budget accepted");
  let b = Budget.ticks 3 in
  Alcotest.(check int) "limit" 3 (Budget.limit b);
  for _ = 1 to 3 do
    Budget.spend b
  done;
  Alcotest.(check int) "dry" 0 (Budget.remaining b);
  (match Budget.spend b with
  | exception Budget.Exhausted -> ()
  | () -> Alcotest.fail "spend on a dry budget succeeded");
  (* refill re-arms to the full limit without reallocating *)
  Budget.refill b;
  Alcotest.(check int) "refilled" 3 (Budget.remaining b);
  Budget.spend b;
  Alcotest.(check int) "spends again" 2 (Budget.remaining b)

let test_budget_of_seconds () =
  (match Budget.of_seconds 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero timeout accepted");
  Alcotest.(check int) "fixed nominal rate"
    (2 * Budget.nominal_ticks_per_second)
    (Budget.limit (Budget.of_seconds 2))

let test_budget_bounds_engine () =
  let desc, mc = accumulator () in
  let inputs = Traffic.phvs (Traffic.create ~seed:11 ~width:1 ~bits:32) 10 in
  let engine = Substrate.of_engine desc ~mc in
  let buf = Trace.Buffer.create ~width:1 ~capacity:(List.length inputs) in
  (match Substrate.run_into ~budget:(Budget.ticks 2) engine ~inputs buf with
  | exception Budget.Exhausted -> ()
  | () -> Alcotest.fail "2 ticks of fuel finished an 11-tick simulation");
  Substrate.run_into ~budget:(Budget.ticks 1000) engine ~inputs buf;
  Alcotest.(check int) "ample fuel completes" (List.length inputs)
    (List.length (Trace.Buffer.contents buf))

(* --- Lazy errors ------------------------------------------------------------------ *)

(* The engine resolves its description once, at [create], but every error
   still raises at the evaluation that meets it, with the text a direct walk
   of the description raises: a description that never reaches its defect
   runs cleanly. *)

(* The accumulator with the body of its stateful ALU replaced. *)
let with_stateful_body body =
  let desc, mc = accumulator () in
  let st = desc.Ir.d_stages.(0) in
  let alu = { (st.Ir.s_stateful.(0)) with Ir.a_body = body } in
  ({ desc with Ir.d_stages = [| { st with Ir.s_stateful = [| alu |] } |] }, mc)

(* Runs [inputs] through a fresh engine, created before any input is seen. *)
let run_fresh desc ~mc inputs =
  let engine = Substrate.of_engine desc ~mc in
  let buf = Trace.Buffer.create ~width:1 ~capacity:(List.length inputs) in
  Substrate.run_into engine ~inputs:(List.map (fun v -> [| v |]) inputs) buf

(* The two executors, each built before any input is seen: the engine and
   the closures must raise the same error at the same evaluation. *)
let executors =
  [
    ("interpreter", run_fresh);
    ( "closures",
      fun desc ~mc inputs ->
        ignore (closures desc ~mc ~inputs:(List.map (fun v -> [| v |]) inputs)) );
  ]

(* [body] runs only on a PHV whose container 0 holds 7. *)
let on_seven body = [ Ir.If (Ir.Binop (Ir.Eq, Ir.Phv 0, Ir.Const 7), body, []) ]

let test_lazy_missing_pair () =
  List.iter
    (fun name ->
      let desc, mc = accumulator () in
      Machine_code.remove mc name;
      let engine = Substrate.of_engine desc ~mc in
      let buf = Trace.Buffer.create ~width:1 ~capacity:2 in
      Alcotest.check_raises name (Machine_code.Missing name) (fun () ->
          Substrate.run_into engine ~inputs:[ [| 1 |]; [| 2 |] ] buf))
    [
      Names.output_mux ~stage:0 ~container:0;
      Names.input_mux ~alu_prefix:(Names.stateful_alu ~stage:0 ~alu:0) ~operand:0;
    ]

(* Operands run right to left on the interpreter and the closures alike, so
   a program missing two pairs names the same one on both: an arithmetic
   operator, and a comparison the closures fuse into their branch. *)
let test_lazy_missing_operands () =
  let missing op = Ir.Binop (op, Ir.Mc "left_absent", Ir.Mc "right_absent") in
  List.iter
    (fun (what, body) ->
      let desc, mc = with_stateful_body body in
      let raised run =
        match run () with () -> None | exception Machine_code.Missing name -> Some name
      in
      let engine = raised (fun () -> run_fresh desc ~mc [ 1 ]) in
      let closures = raised (fun () -> ignore (closures desc ~mc ~inputs:[ [| 1 |] ])) in
      Alcotest.(check (option string)) (what ^ ": interpreter") (Some "right_absent") engine;
      Alcotest.(check (option string)) (what ^ ": closures") engine closures)
    [
      ("binop", [ Ir.Store (0, missing Ir.Add) ]);
      ("fused comparison", [ Ir.If (missing Ir.Lt, [ Ir.Store (0, Ir.Const 1) ], []) ]);
    ]

(* Helper arguments are evaluated by value, in parameter order, on the
   interpreter and the closures alike: without a pair, both fail with the
   same [Missing] name, or both run to the same trace, whatever its muxes
   select. *)
let outcome run =
  match run () with
  | (trace : Trace.t) -> Ok (trace.Trace.outputs, trace.Trace.final_state)
  | exception Machine_code.Missing name -> Error name

let executors_agree what desc mc =
  let inputs = Traffic.phvs (Traffic.create ~seed:11 ~width:desc.Ir.d_width ~bits:8) 6 in
  let engine = outcome (fun () -> interpreted desc ~mc ~inputs) in
  let closures = outcome (fun () -> closures desc ~mc ~inputs) in
  let show = function Ok _ -> "ran" | Error name -> "Missing " ^ name in
  if engine <> closures then
    Alcotest.failf "%s: interpreter %s, closures %s" what (show engine) (show closures);
  engine

let gen_pair ~depth ~width stateful stateless =
  Dgen.generate
    (Dgen.config ~depth ~width ~bits:8 ())
    ~stateful:(Atoms.find_exn stateful) ~stateless:(Atoms.find_exn stateless)

let test_lazy_missing_arguments () =
  let shapes =
    List.concat_map
      (fun (sf, _) -> List.map (fun (sl, _) -> (1, 1, sf, sl)) Atoms.stateless_atoms)
      Atoms.stateful_atoms
    @ [ (2, 2, "pred_raw", "stateless_full") ]
  in
  List.iter
    (fun (depth, width, sf, sl) ->
      let desc = gen_pair ~depth ~width sf sl in
      let mc = Fuzz.random_mc (Prng.create 3) desc in
      List.iter
        (fun name ->
          let mc = Machine_code.copy mc in
          Machine_code.remove mc name;
          let what = Printf.sprintf "%dx%d %s/%s without %s" depth width sf sl name in
          ignore (executors_agree what desc mc))
        (Ir.required_names desc))
    shapes;
  (* a constant the mux does not select is still an argument, and it comes
     before the mux's own control *)
  let desc = gen_pair ~depth:1 ~width:1 "if_else_raw" "stateless_arith" in
  let base = Fuzz.random_mc (Prng.create 3) desc in
  List.iter
    (fun (alu, mux) ->
      let const = alu ^ "_const_0" and sel = alu ^ "_" ^ mux in
      List.iter
        (fun (what, edit) ->
          let mc = Machine_code.copy base in
          Machine_code.remove mc const;
          edit mc;
          Alcotest.(check (result reject string))
            (Printf.sprintf "%s without %s, %s" alu const what)
            (Error const)
            (executors_agree what desc mc))
        [ ("mux selects another operand", fun mc -> Machine_code.set mc sel 0);
          ("mux control missing too", fun mc -> Machine_code.remove mc sel) ])
    [
      (Names.stateless_alu ~stage:0 ~alu:0, "mux2_0");
      (Names.stateful_alu ~stage:0 ~alu:0, "mux3_0");
    ]

let test_lazy_unknown_helper () =
  let desc, mc = with_stateful_body (on_seven [ Ir.Return (Ir.Call ("no_such_helper", [])) ]) in
  List.iter
    (fun (exec, run) ->
      run desc ~mc [ 1; 2; 3 ];
      Alcotest.check_raises (exec ^ ": branch taken")
        (Invalid_argument "Interp: unknown helper 'no_such_helper'")
        (fun () -> run desc ~mc [ 1; 7 ]))
    executors

let test_lazy_unbound_variable () =
  List.iter
    (fun (exec, run) ->
      let desc, mc = with_stateful_body (on_seven [ Ir.Store (0, Ir.Var "ghost") ]) in
      run desc ~mc [ 1; 2; 3 ];
      Alcotest.check_raises (exec ^ ": branch taken") (Interp.Unbound_variable "ghost") (fun () ->
          run desc ~mc [ 7 ]);
      (* a [Let] in a branch is out of scope after its [If] *)
      let desc, mc =
        with_stateful_body (on_seven [ Ir.Let ("x", Ir.Const 1) ] @ [ Ir.Store (0, Ir.Var "x") ])
      in
      Alcotest.check_raises (exec ^ ": branch local after its If") (Interp.Unbound_variable "x")
        (fun () -> run desc ~mc [ 7 ]))
    executors

let test_lazy_arity_mismatch () =
  (* the input mux takes (phv0, ctrl) *)
  let mux = Names.input_mux ~alu_prefix:(Names.stateful_alu ~stage:0 ~alu:0) ~operand:0 in
  let call args = with_stateful_body (on_seven [ Ir.Store (0, Ir.Call (mux, args)) ]) in
  List.iter
    (fun (exec, run) ->
      let desc, mc = call [ Ir.Phv 0 ] in
      run desc ~mc [ 1 ];
      Alcotest.check_raises (exec ^ ": too few arguments") (Invalid_argument "List.fold_left2")
        (fun () -> run desc ~mc [ 7 ]);
      (* arguments past the shorter list are never evaluated *)
      let desc, mc = call [ Ir.Phv 0; Ir.Const 0; Ir.Mc "absent" ] in
      Alcotest.check_raises (exec ^ ": too many arguments") (Invalid_argument "List.fold_left2")
        (fun () -> run desc ~mc [ 7 ]);
      (* ... but those before the mismatch are, first *)
      let desc, mc = call [ Ir.Mc "absent" ] in
      Alcotest.check_raises (exec ^ ": argument before the mismatch")
        (Machine_code.Missing "absent") (fun () -> run desc ~mc [ 7 ]))
    executors

(* Of two parameters sharing a name, the last one binds; the shadowed
   argument still runs first. *)
let test_duplicate_parameter_last_wins () =
  let dup args =
    let desc, mc = with_stateful_body [ Ir.Store (0, Ir.Call ("dup", args)) ] in
    let helpers = Hashtbl.copy desc.Ir.d_helpers in
    Hashtbl.replace helpers "dup"
      { Ir.h_name = "dup"; h_params = [ "a"; "a" ]; h_body = Ir.Var "a"; h_ctrl = None };
    ({ desc with Ir.d_helpers = helpers }, mc)
  in
  let state trace =
    Option.map Array.to_list (Trace.find_state trace (Names.stateful_alu ~stage:0 ~alu:0))
  in
  List.iter
    (fun (exec, run) ->
      let desc, mc = dup [ Ir.Const 5; Ir.Const 9 ] in
      Alcotest.(check (option (list int))) (exec ^ ": second argument") (Some [ 9 ])
        (state (run desc ~mc ~inputs:[ [| 1 |] ]));
      let desc, mc = dup [ Ir.Mc "absent"; Ir.Const 9 ] in
      Alcotest.check_raises (exec ^ ": shadowed argument runs") (Machine_code.Missing "absent")
        (fun () -> ignore (run desc ~mc ~inputs:[ [| 1 |] ])))
    [
      ("interpreter", fun desc ~mc ~inputs -> interpreted desc ~mc ~inputs);
      ("closures", fun desc ~mc ~inputs -> closures desc ~mc ~inputs);
    ]

(* A helper body runs in its own scope: a name it reads but does not bind
   is unbound there, even where its caller has a local of that name. *)
let test_lazy_helper_free_name () =
  let call helper args =
    let desc, mc =
      with_stateful_body
        (on_seven [ Ir.Let ("x", Ir.Const 7); Ir.Store (0, Ir.Call (helper.Ir.h_name, args)) ])
    in
    let helpers = Hashtbl.copy desc.Ir.d_helpers in
    Hashtbl.replace helpers helper.Ir.h_name helper;
    ({ desc with Ir.d_helpers = helpers }, mc)
  in
  let free = { Ir.h_name = "free"; h_params = []; h_body = Ir.Var "x"; h_ctrl = None } in
  (* a parameter, bound to the caller's [x], beside the free [x] *)
  let shift =
    {
      Ir.h_name = "shift";
      h_params = [ "a" ];
      h_body = Ir.Binop (Ir.Add, Ir.Var "a", Ir.Var "x");
      h_ctrl = None;
    }
  in
  List.iter
    (fun (exec, run) ->
      List.iter
        (fun (helper, args) ->
          let desc, mc = call helper args in
          run desc ~mc [ 1; 2 ];
          Alcotest.check_raises
            (Printf.sprintf "%s: %s, branch taken" exec helper.Ir.h_name)
            (Interp.Unbound_variable "x")
            (fun () -> run desc ~mc [ 7 ]))
        [ (free, []); (shift, [ Ir.Var "x" ]) ])
    executors

(* A caller's name is the caller's, not a parameter's: a packet field
   called [ctrl] passed to [Opt] reaches the Opt helper's argument, whatever
   the helper's own "ctrl" control holds. *)
let test_argument_named_like_parameter () =
  let src =
    "type : stateful\nstate variables : {state_0}\nhole variables : {}\n\
     packet fields : {ctrl}\nstate_0 = state_0 + Opt(ctrl);\n"
  in
  let alu =
    match Druzhba_alu_dsl.Parser.parse_result ~name:"capture" src with
    | Ok alu -> alu
    | Error e -> Alcotest.fail e
  in
  let desc =
    Dgen.generate (Dgen.config ~depth:1 ~width:1 ~bits:8 ()) ~stateful:alu
      ~stateless:(Atoms.find_exn "stateless_arith")
  in
  let mc = Fuzz.random_mc (Prng.create 3) desc in
  let alu_prefix = Names.stateful_alu ~stage:0 ~alu:0 in
  Machine_code.set mc (Names.slot ~alu_prefix ~slot_name:"opt_0") 0;
  ignore (executors_agree "a field called ctrl through Opt" desc mc)

(* The coverage probe numbers branch sites in pre-order over the ALU body,
   whatever path runs, and reports latches and the explicit/default
   output. *)
let test_probe_branch_sites () =
  let on k = Ir.Binop (Ir.Eq, Ir.Phv 0, Ir.Const k) in
  let desc, mc =
    with_stateful_body
      [
        Ir.If
          ( on 1,
            [ Ir.If (on 1, [], [ Ir.If (on 2, [], []) ]) ],
            [ Ir.If (on 2, [ Ir.Store (0, Ir.Const 5) ], []) ] );
        Ir.If (on 2, [ Ir.Return (Ir.Const 9) ], []);
        Ir.If (on 3, [], []);
      ]
  in
  let alu = Names.stateful_alu ~stage:0 ~alu:0 in
  let events = ref [] in
  let log alu' e = if String.equal alu' alu then events := e :: !events in
  let probe =
    {
      Interp.pr_branch =
        (fun ~alu ~site ~taken ->
          log alu (Printf.sprintf "b%d%c" site (if taken then 't' else 'f')));
      pr_latch = (fun ~alu ~slot -> log alu (Printf.sprintf "l%d" slot));
      pr_output = (fun ~alu ~returned -> log alu (if returned then "return" else "default"));
      pr_mux = (fun ~mux:_ ~ctrl:_ -> ());
    }
  in
  let engine = Engine.create desc ~mc in
  Engine.instrument engine (Some probe);
  let buf = Trace.Buffer.create ~width:1 ~capacity:2 in
  Driver.run_into engine.Engine.driver ~inputs:[ [| 1 |]; [| 2 |] ] buf;
  Alcotest.(check (list string))
    "pre-order sites"
    [ "b0t"; "b1t"; "b4f"; "b5f"; "default"; "b0f"; "b3t"; "l0"; "b4t"; "return" ]
    (List.rev !events)

(* --- Faults (hardware fault injection) ---------------------------------------- *)

let test_faults_deterministic () =
  let desc = gen ~depth:2 ~width:2 () in
  let plan seed = Faults.generate ~seed ~desc ~n_inputs:20 ~count:5 () in
  Alcotest.(check bool) "same seed, same plan" true (plan 42 = plan 42);
  Alcotest.(check bool) "some seed draws a non-empty plan" true
    (List.exists (fun s -> not (Faults.is_empty (plan s))) [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check bool) "seeds diversify plans" true
    (List.exists (fun s -> plan s <> plan 42) [ 1; 2; 3; 4; 5 ])

(* the two substrates must agree tick-for-tick *under* the same fault plan,
   and a fault-free replay on the same instances must show no residue *)
let test_faults_substrates_agree_and_replay_clean () =
  let desc, mc = accumulator () in
  let inputs = Traffic.phvs (Traffic.create ~seed:23 ~width:1 ~bits:32) 40 in
  let capacity = List.length inputs in
  let pristine = interpreted desc ~mc ~inputs in
  let engine = Substrate.of_engine desc ~mc in
  let compiled = Substrate.of_compiled (Compile.compile desc ~mc) in
  let eng_buf = Trace.Buffer.create ~width:1 ~capacity in
  let cmp_buf = Trace.Buffer.create ~width:1 ~capacity in
  let sensitive = ref 0 in
  for seed = 1 to 8 do
    let plan = Faults.generate ~seed ~desc ~n_inputs:capacity ~count:4 () in
    Substrate.run_into ~faults:plan engine ~inputs eng_buf;
    Substrate.run_into ~faults:plan compiled ~inputs cmp_buf;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: outputs agree under faults" seed)
      true
      (Trace.Buffer.contents eng_buf = Trace.Buffer.contents cmp_buf);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: state agrees under faults" seed)
      true
      (Substrate.current_state engine = Substrate.current_state compiled);
    if Trace.Buffer.contents eng_buf <> pristine.Trace.outputs then incr sensitive
  done;
  Alcotest.(check bool) "some fault visibly perturbs the accumulator" true (!sensitive > 0);
  (* fault-free replay: the overlay never touches the no-fault code path *)
  Substrate.run_into engine ~inputs eng_buf;
  Substrate.run_into compiled ~inputs cmp_buf;
  Alcotest.(check bool) "engine replay is pristine" true
    (Trace.Buffer.contents eng_buf = pristine.Trace.outputs);
  Alcotest.(check bool) "compiled replay is pristine" true
    (Trace.Buffer.contents cmp_buf = pristine.Trace.outputs)

(* --- Substrate interface --------------------------------------------------------- *)

module Optimizer = Druzhba_optimizer.Optimizer
module Drmt_substrate = Druzhba_dsim.Drmt_substrate
module Sim = Druzhba_drmt.Sim
module P4 = Druzhba_drmt.P4

let run_into_trace packed ~inputs =
  let buf = Trace.Buffer.create ~width:(Substrate.width packed) ~capacity:(List.length inputs) in
  Substrate.run_into packed ~inputs buf;
  (Trace.Buffer.contents buf, Substrate.current_state packed)

let check_same_run msg (rows_a, state_a) (rows_b, state_b) =
  Alcotest.(check int) (msg ^ ": same row count") (List.length rows_a) (List.length rows_b);
  List.iteri
    (fun i (a, b) ->
      if not (Phv.equal a b) then
        Alcotest.failf "%s: row %d differs (%a vs %a)" msg i Phv.pp a Phv.pp b)
    (List.combine rows_a rows_b);
  Alcotest.(check bool) (msg ^ ": same final state") true
    (List.for_all2
       (fun (n1, v1) (n2, v2) -> n1 = n2 && Array.to_list v1 = Array.to_list v2)
       state_a state_b)

(* The two RMT adapters honor the same contract: identical rows and final
   state for identical (init, inputs), and [run_into] is an independent,
   repeatable run. *)
let test_substrate_rmt_adapters_agree () =
  let desc = gen ~depth:2 ~width:2 ~bits:8 () in
  let mc = Fuzz.random_mc (Prng.create 3) desc in
  let init = [ (Druzhba_pipeline.Names.stateful_alu ~stage:0 ~alu:0, [| 9 |]) ] in
  let engine = Substrate.of_engine ~init desc ~mc in
  let compiled = Substrate.of_compiled ~init (Compile.compile desc ~mc) in
  Alcotest.(check int) "same width" (Substrate.width engine) (Substrate.width compiled);
  Alcotest.(check string) "default labels" "interpreter" (Substrate.name engine);
  let inputs = Traffic.phvs (Traffic.create ~seed:4 ~width:2 ~bits:8) 40 in
  let a = run_into_trace engine ~inputs and b = run_into_trace compiled ~inputs in
  check_same_run "engine vs compiled" a b;
  (* independent-run contract: replaying the same value repeats the run *)
  check_same_run "engine replay" a (run_into_trace engine ~inputs);
  (* load_state re-arms subsequent runs *)
  Substrate.load_state engine [];
  Substrate.load_state compiled [];
  check_same_run "after state reload" (run_into_trace engine ~inputs)
    (run_into_trace compiled ~inputs)

(* [load_state] arms the live state on every RMT executor: [current_state]
   reports the preload at once (the first of two bindings of one name), and
   stepping from it, directly or in a debugger session, agrees tick by tick
   across the executors and ends where [run_into] from the same preload
   ends.  The native module joins when the toolchain is available. *)
let test_load_state_arms_live_state () =
  let desc = gen ~depth:2 ~width:2 ~bits:8 () in
  let mc = Fuzz.random_mc (Prng.create 3) desc in
  let alu = Names.stateful_alu ~stage:0 ~alu:0 in
  let preload = [ (alu, [| 9 |]); (alu, [| 4 |]) ] in
  let inputs = [ [| 3; 5 |]; [| 7; 11 |] ] in
  let ticks = List.length inputs + desc.Ir.d_depth in
  let native =
    match Native_substrate.available () with
    | Error reason ->
      Printf.printf "native skipped: toolchain unavailable (%s)\n" reason;
      []
    | Ok () ->
      [
        ( "native",
          fun () ->
            match Native_substrate.create desc ~mc with
            | Ok packed -> packed
            | Error reason -> Alcotest.failf "native build failed: %s" reason );
      ]
  in
  let executors =
    [
      ("interpreter", fun () -> Substrate.of_engine desc ~mc);
      ("closures", fun () -> Substrate.of_compiled (Compile.compile desc ~mc));
    ]
    @ native
  in
  let loaded make =
    let packed = make () in
    Substrate.load_state packed preload;
    packed
  in
  (* (exiting PHV, state) after each tick *)
  let rec stepped packed t =
    if t = ticks then []
    else
      let out = Substrate.step packed ~input:(List.nth_opt inputs t) in
      let tick = (out, Substrate.current_state packed) in
      tick :: stepped packed (t + 1)
  in
  let rec debugged session t =
    if t = ticks then []
    else
      let snap = Debugger.step session in
      let tick = (snap.Debugger.snap_output, snap.Debugger.snap_state) in
      tick :: debugged session (t + 1)
  in
  let reference = ref None in
  List.iter
    (fun (exec, make) ->
      let packed = loaded make in
      Alcotest.(check (option int))
        (exec ^ ": current_state after load_state")
        (Some 9)
        (Option.map (fun v -> v.(0)) (List.assoc_opt alu (Substrate.current_state packed)));
      let steps = stepped packed 0 in
      (match !reference with
      | None -> reference := Some steps
      | Some expected ->
        List.iteri
          (fun t (a, b) ->
            Alcotest.(check bool) (Printf.sprintf "%s: tick %d = interpreter" exec (t + 1)) true
              (a = b))
          (List.combine expected steps));
      Alcotest.(check bool) (exec ^ ": debugger session = steps") true
        (debugged (Debugger.start_on (loaded make) ~inputs) 0 = steps);
      let rows, state = run_into_trace (loaded make) ~inputs in
      check_same_run (exec ^ ": steps = run_into")
        (rows, state)
        (List.filter_map fst steps, snd (List.nth steps (ticks - 1))))
    executors

(* Every executor reads the machine code it was built with.  Each is built
   at every optimization level; then every pair of the table changes value
   or goes, and two hundred more are added, so the table grows.  Each run
   still equals the run on the unmutated table.  The native module joins
   when the toolchain is available. *)
let test_executors_keep_built_machine_code () =
  let desc = gen ~depth:2 ~width:2 ~bits:8 ~stateful:"pred_raw" () in
  let original = Fuzz.random_mc (Prng.create 17) desc in
  let inputs = Traffic.phvs (Traffic.create ~seed:19 ~width:2 ~bits:8) 40 in
  let native =
    match Native_substrate.available () with
    | Error _ -> []
    | Ok () ->
      [
        ( "native",
          fun d ~mc ->
            match Native_substrate.create d ~mc with
            | Ok packed -> packed
            | Error reason -> Alcotest.failf "native build failed: %s" reason );
      ]
  in
  let executors =
    [
      ("interpreter", fun d ~mc -> Substrate.of_engine d ~mc);
      ("closures", fun d ~mc -> Substrate.of_compiled (Compile.compile d ~mc));
    ]
    @ native
  in
  List.iter
    (fun level ->
      let d = Optimizer.apply ~level ~mc:original desc in
      List.iter
        (fun (exec, build) ->
          let expected = run_into_trace (build d ~mc:(Machine_code.copy original)) ~inputs in
          let mc = Machine_code.copy original in
          let built = build d ~mc in
          List.iteri
            (fun i (name, v) ->
              if i mod 3 = 0 then Machine_code.remove mc name else Machine_code.set mc name (v + 1))
            (Machine_code.to_alist mc);
          for i = 0 to 199 do
            Machine_code.set mc (Printf.sprintf "added_%d" i) i
          done;
          check_same_run
            (Printf.sprintf "%s@%s" exec (Optimizer.level_name level))
            expected (run_into_trace built ~inputs))
        executors)
    [ Optimizer.Unoptimized; Optimizer.Scc; Optimizer.Scc_inline ]

let drmt_test_program =
  P4.parse
    {|
header h {
  a : 8;
  b : 8;
}
action bump(v) {
  h.b = h.b + v;
  reg.hits = reg.hits + 1;
}
action relay() {
  reg.relayed = reg.relayed + 1;
}
table t0 {
  key : h.a;
  match : exact;
  actions : { bump };
  default : bump 1;
}
table t1 {
  key : h.b;
  match : exact;
  actions : { relay };
  default : relay;
}
control {
  apply t0;
  apply t1;
}
|}

(* The dRMT substrate replays {!Sim.run_sequential} exactly: same per-packet
   traffic streams, same final registers. *)
let test_drmt_substrate_replays_sim () =
  let sub = Drmt_substrate.create ~mode:Drmt_substrate.Sequential ~entries:[] drmt_test_program in
  let packed = Drmt_substrate.pack sub in
  let inputs = Drmt_substrate.traffic ~seed:42 sub 25 in
  let _, state = run_into_trace packed ~inputs in
  let r = Sim.run_sequential ~seed:42 ~entries:[] ~packets:25 drmt_test_program in
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name state with
      | Some vec -> Alcotest.(check int) ("register " ^ name) v vec.(0)
      | None -> Alcotest.failf "register %s missing from substrate state" name)
    r.Sim.r_registers

(* Event-driven and sequential dRMT substrates agree through the generic
   trace contract (the single-trial core of the dRMT campaign). *)
let test_drmt_substrate_event_vs_sequential () =
  let seq = Drmt_substrate.of_p4 ~mode:Drmt_substrate.Sequential ~entries:[] drmt_test_program in
  let evt = Drmt_substrate.of_p4 ~mode:Drmt_substrate.Event ~entries:[] drmt_test_program in
  Alcotest.(check string) "labels" "drmt@sequential" (Substrate.name seq);
  Alcotest.(check string) "labels" "drmt@event" (Substrate.name evt);
  (* layout: h.a, h.b + trailing drop flag *)
  Alcotest.(check int) "row width" 3 (Substrate.width seq);
  let sub = Drmt_substrate.create ~mode:Drmt_substrate.Sequential ~entries:[] drmt_test_program in
  let inputs = Drmt_substrate.traffic ~seed:7 sub 30 in
  check_same_run "event vs sequential" (run_into_trace seq ~inputs) (run_into_trace evt ~inputs);
  (* register preload flows through load_state on both *)
  Substrate.load_state seq [ ("hits", [| 100 |]) ];
  Substrate.load_state evt [ ("hits", [| 100 |]) ];
  let _, state = run_into_trace seq ~inputs in
  check_same_run "preloaded event vs sequential" (run_into_trace seq ~inputs)
    (run_into_trace evt ~inputs);
  match List.assoc_opt "hits" state with
  | Some vec -> Alcotest.(check int) "preload counted" (100 + 30) vec.(0)
  | None -> Alcotest.fail "hits register missing"

(* A register preloaded twice keeps its first binding, as every RMT
   substrate's state reads it: [current_state] reports it after [load_state]
   and again after a run that never writes it. *)
let test_drmt_duplicate_preload () =
  List.iter
    (fun mode ->
      let packed =
        Drmt_substrate.of_p4 ~mode ~entries:(Drmt_router.entries ()) (Drmt_router.program ())
      in
      let routed () = List.assoc_opt "routed" (Substrate.current_state packed) in
      Substrate.load_state packed [ ("routed", [| 1 |]); ("routed", [| 2 |]) ];
      Alcotest.(check (option (array int))) "after load_state" (Some [| 1 |]) (routed ());
      ignore (run_into_trace packed ~inputs:[]);
      Alcotest.(check (option (array int))) "after an empty run" (Some [| 1 |]) (routed ()))
    [ Drmt_substrate.Event; Drmt_substrate.Sequential ]

(* The debugger drives any substrate: a compiled-backend session steps in
   lock-step with the interpreter session on the same inputs. *)
let test_debugger_on_compiled_substrate () =
  let desc, mc = accumulator () in
  let inputs = [ [| 3 |]; [| 5 |]; [| 7 |] ] in
  let interp = Debugger.start desc ~mc ~inputs in
  let closures = Debugger.start_on (Substrate.of_compiled (Compile.compile desc ~mc)) ~inputs in
  for _ = 1 to 6 do
    let a = Debugger.step interp and b = Debugger.step closures in
    Alcotest.(check bool) "same tick output" true
      (match (a.Debugger.snap_output, b.Debugger.snap_output) with
      | Some x, Some y -> Phv.equal x y
      | None, None -> true
      | _ -> false)
  done

(* A dRMT debugger session: each step runs one packet to completion under
   the reference semantics; registers persist across steps and rewinding
   revisits recorded snapshots. *)
let test_debugger_on_drmt_substrate () =
  let sub = Drmt_substrate.create ~mode:Drmt_substrate.Sequential ~entries:[] drmt_test_program in
  let inputs = [ [| 1; 2; 0 |]; [| 3; 4; 0 |] ] in
  let session = Debugger.start_on (Drmt_substrate.pack sub) ~inputs in
  let s1 = Debugger.step session in
  (match List.assoc_opt "hits" s1.Debugger.snap_state with
  | Some v -> Alcotest.(check int) "one packet through t0" 1 v.(0)
  | None -> Alcotest.fail "hits register missing");
  let s2 = Debugger.step session in
  (match List.assoc_opt "hits" s2.Debugger.snap_state with
  | Some v -> Alcotest.(check int) "registers persist across steps" 2 v.(0)
  | None -> Alcotest.fail "hits register missing");
  (* time travel: back to tick 1, state as recorded then *)
  let back = Debugger.step_back session in
  Alcotest.(check int) "rewound to tick 1" 1 back.Debugger.snap_tick;
  match List.assoc_opt "hits" back.Debugger.snap_state with
  | Some v -> Alcotest.(check int) "historical state" 1 v.(0)
  | None -> Alcotest.fail "hits register missing"

(* --- Input-path fault plans ------------------------------------------------------ *)

let test_faults_generate_io () =
  let plan = Faults.generate_io ~seed:9 ~width:3 ~bits:8 ~n_inputs:20 ~count:6 () in
  let again = Faults.generate_io ~seed:9 ~width:3 ~bits:8 ~n_inputs:20 ~count:6 () in
  Alcotest.(check bool) "pure in the seed" true (plan = again);
  Alcotest.(check int) "no stuck-at sites on the input path" 0 (Faults.n_stuck plan);
  Alcotest.(check bool) "drew something" true (not (Faults.is_empty plan))

let test_faults_overlay_inputs () =
  let inputs = List.init 8 (fun i -> [| i; 10 + i |]) in
  (* hand-built plan: flip bit 2 of container 1 of PHV 3; drop PHV 5 *)
  let plan =
    {
      Faults.fp_seed = 0;
      fp_flips = [ { Faults.bf_phv = 3; bf_container = 1; bf_bit = 2 } ];
      fp_stuck = [];
      fp_dropped = Array.init 8 (fun i -> i = 5);
    }
  in
  let out = Faults.overlay_inputs plan inputs in
  Alcotest.(check int) "dropped slot removed" 7 (List.length out);
  Alcotest.(check int) "flip applied" (13 lxor 4) (List.nth out 3).(1);
  Alcotest.(check int) "drop shifts later slots" 16 (List.nth out 5).(1);
  (* originals untouched: the overlay copies before flipping *)
  Alcotest.(check int) "input list not mutated" 13 (List.nth inputs 3).(1)

let () =
  Alcotest.run "dsim"
    [
      ( "traffic",
        [
          Alcotest.test_case "deterministic" `Quick test_traffic_deterministic;
          Alcotest.test_case "width and bits" `Quick test_traffic_width_and_bits;
        ] );
      ( "phv",
        [
          Alcotest.test_case "monomorphic equal" `Quick test_phv_equal_monomorphic;
          Alcotest.test_case "blit" `Quick test_phv_blit;
        ] );
      ( "trace",
        [
          Alcotest.test_case "buffer push/grow/freeze" `Quick test_trace_buffer;
          Alcotest.test_case "pp smoke" `Quick test_trace_pp_smoke;
          Alcotest.test_case "init state" `Quick test_engine_init_state;
        ] );
      ( "debugger",
        [
          Alcotest.test_case "step and inspect" `Quick test_debugger_step_and_inspect;
          Alcotest.test_case "rewind (time travel)" `Quick test_debugger_rewind;
          Alcotest.test_case "breakpoints" `Quick test_debugger_breakpoint;
          Alcotest.test_case "first divergence" `Quick test_debugger_first_divergence;
          Alcotest.test_case "output breakpoint" `Quick test_debugger_output_breakpoint;
        ] );
      ( "budget",
        [
          Alcotest.test_case "fuel: spend, exhaust, refill" `Quick test_budget_fuel;
          Alcotest.test_case "of_seconds uses the nominal rate" `Quick test_budget_of_seconds;
          Alcotest.test_case "bounds an engine run" `Quick test_budget_bounds_engine;
        ] );
      ( "lazy errors",
        [
          Alcotest.test_case "missing pair: raises at run" `Quick test_lazy_missing_pair;
          Alcotest.test_case "two missing operands: same name" `Quick test_lazy_missing_operands;
          Alcotest.test_case "missing arguments: same name or same trace" `Quick
            test_lazy_missing_arguments;
          Alcotest.test_case "unknown helper: raises if reached" `Quick test_lazy_unknown_helper;
          Alcotest.test_case "unbound var: raises if reached" `Quick test_lazy_unbound_variable;
          Alcotest.test_case "arity mismatch: List.fold_left2" `Quick test_lazy_arity_mismatch;
          Alcotest.test_case "duplicate parameter: last wins" `Quick
            test_duplicate_parameter_last_wins;
          Alcotest.test_case "argument named like a parameter" `Quick
            test_argument_named_like_parameter;
          Alcotest.test_case "helper reads no caller local" `Quick test_lazy_helper_free_name;
        ] );
      ( "probe",
        [ Alcotest.test_case "pre-order branch sites" `Quick test_probe_branch_sites ] );
      ( "faults",
        [
          Alcotest.test_case "plans are pure in their seed" `Quick test_faults_deterministic;
          Alcotest.test_case "substrates agree, replay is clean" `Quick
            test_faults_substrates_agree_and_replay_clean;
          Alcotest.test_case "input-path plans (generate_io)" `Quick test_faults_generate_io;
          Alcotest.test_case "overlay_inputs flips and drops" `Quick test_faults_overlay_inputs;
        ] );
      ( "substrate",
        [
          Alcotest.test_case "RMT adapters honor the contract" `Quick
            test_substrate_rmt_adapters_agree;
          Alcotest.test_case "dRMT substrate replays Sim" `Quick test_drmt_substrate_replays_sim;
          Alcotest.test_case "dRMT event = sequential through the contract" `Quick
            test_drmt_substrate_event_vs_sequential;
          Alcotest.test_case "dRMT duplicate preload keeps the first binding" `Quick
            test_drmt_duplicate_preload;
          Alcotest.test_case "debugger drives the compiled substrate" `Quick
            test_debugger_on_compiled_substrate;
          Alcotest.test_case "debugger drives the dRMT substrate" `Quick
            test_debugger_on_drmt_substrate;
          Alcotest.test_case "executors read the machine code they were built with" `Quick
            test_executors_keep_built_machine_code;
          Alcotest.test_case "load_state arms the live state" `Quick
            test_load_state_arms_live_state;
        ] );
      ( "verification",
        [
          Alcotest.test_case "proves the accumulator" `Quick test_verify_proves_accumulator;
          Alcotest.test_case "finds a counterexample" `Quick test_verify_finds_counterexample;
          Alcotest.test_case "honest on budget" `Quick test_verify_budget;
          Alcotest.test_case "proves compiled sampling at 4 bits" `Quick
            test_verify_compiled_sampling;
        ] );
    ]
