(* Allocation-regression tests for the zero-allocation tick engine.

   The steady-state hot path — {!Compiled.run_into} over a preallocated
   engine and {!Trace.Buffer} — must not allocate per PHV: the register file
   is a preallocated ping-pong pair, stages run through scratch buffers, and
   outputs are blitted into the buffer's preallocated rows.  The test runs
   every Table-1 program at scc+inline (the Table-1 configuration) and
   asserts [Gc.allocated_bytes] per steady-state PHV stays below a small
   fixed bound; per-run setup (the init hash table, closures) is amortized
   over the workload and real regressions — a fresh block per tick anywhere
   in the engine, compiled ALUs, or muxes — cost tens to thousands of bytes
   per PHV, far above the bound.

   A second test pins the buffered fast path to the frozen-trace path: for
   every program and level, [run_into] + [Buffer.contents] must reproduce
   [run_compiled] and [Engine.run] exactly. *)

module Ir = Druzhba_pipeline.Ir
module Compile = Druzhba_pipeline.Compile
module Optimizer = Druzhba_optimizer.Optimizer
module Engine = Druzhba_dsim.Engine
module Compiled = Druzhba_dsim.Compiled
module Traffic = Druzhba_dsim.Traffic
module Trace = Druzhba_dsim.Trace
module Phv = Druzhba_dsim.Phv
module Spec = Druzhba_spec.Spec
module Codegen = Druzhba_compiler.Codegen

(* Generous vs the expected ~0 bytes/PHV, tiny vs the pre-rewrite engine's
   hundreds-to-thousands of bytes/PHV. *)
let bytes_per_phv_bound = 64.0
let alloc_phvs = 2_000

let setup (bm : Spec.benchmark) =
  let compiled = Spec.compile_exn bm in
  let mc = compiled.Codegen.c_mc in
  let desc = compiled.Codegen.c_desc in
  let init = compiled.Codegen.c_layout.Codegen.l_init in
  (desc, mc, init)

let test_steady_state_allocation (bm : Spec.benchmark) () =
  let desc, mc, init = setup bm in
  let inputs =
    Traffic.phvs (Traffic.create ~seed:0xA110C ~width:bm.Spec.bm_width ~bits:32) alloc_phvs
  in
  let v3 = Optimizer.apply ~level:Optimizer.Scc_inline ~mc desc in
  let c = Compile.compile v3 ~mc in
  let t = Compiled.create c in
  let buf = Trace.Buffer.create ~width:bm.Spec.bm_width ~capacity:alloc_phvs in
  (* warm-up: page in code paths, trigger any one-time lazy work *)
  Compiled.run_into ~init t ~inputs buf;
  let a0 = Gc.allocated_bytes () in
  Compiled.run_into ~init t ~inputs buf;
  let a1 = Gc.allocated_bytes () in
  let per_phv = (a1 -. a0) /. float_of_int alloc_phvs in
  if per_phv >= bytes_per_phv_bound then
    Alcotest.failf "%s: %.2f bytes allocated per steady-state PHV (bound %.0f)" bm.Spec.bm_name
      per_phv bytes_per_phv_bound

(* The batched entry point ({!Substrate.run_batch_into}, now an alias of
   [run_into] kept for the benchmark's sources) must hold the same bound
   through the packed substrate interface. *)
let test_batched_steady_state_allocation (bm : Spec.benchmark) () =
  let desc, mc, init = setup bm in
  let inputs =
    Traffic.phvs (Traffic.create ~seed:0xA110C ~width:bm.Spec.bm_width ~bits:32) alloc_phvs
  in
  let v3 = Optimizer.apply ~level:Optimizer.Scc_inline ~mc desc in
  let packed = Druzhba_dsim.Substrate.of_compiled ~init (Compile.compile v3 ~mc) in
  let buf = Trace.Buffer.create ~width:bm.Spec.bm_width ~capacity:alloc_phvs in
  Druzhba_dsim.Substrate.run_batch_into ~batch:64 packed ~inputs buf;
  let a0 = Gc.allocated_bytes () in
  Druzhba_dsim.Substrate.run_batch_into ~batch:64 packed ~inputs buf;
  let a1 = Gc.allocated_bytes () in
  let per_phv = (a1 -. a0) /. float_of_int alloc_phvs in
  if per_phv >= bytes_per_phv_bound then
    Alcotest.failf "%s: %.2f bytes allocated per steady-state batched PHV (bound %.0f)"
      bm.Spec.bm_name per_phv bytes_per_phv_bound

(* Batched = sequential on every Table-1 program, level and substrate, at
   two batch sizes the {!Substrate.run_batch_into} alias must ignore.  The
   random-program property test in test_batch.ml covers the same contract
   across geometry, faults and budgets; this pins the real benchmark
   programs. *)
let test_batched_equals_sequential (bm : Spec.benchmark) () =
  let desc, mc, init = setup bm in
  let inputs = Traffic.phvs (Traffic.create ~seed:0xFA57 ~width:bm.Spec.bm_width ~bits:32) 50 in
  let capacity = List.length inputs in
  List.iter
    (fun level ->
      let d = Optimizer.apply ~level ~mc desc in
      let c = Compile.compile d ~mc in
      List.iter
        (fun (label, packed_of) ->
          let seq_buf = Trace.Buffer.create ~width:bm.Spec.bm_width ~capacity in
          let packed = packed_of () in
          Druzhba_dsim.Substrate.run_into packed ~inputs seq_buf;
          let seq_state = Druzhba_dsim.Substrate.current_state packed in
          List.iter
            (fun batch ->
              let bat_buf = Trace.Buffer.create ~width:bm.Spec.bm_width ~capacity in
              let packed = packed_of () in
              Druzhba_dsim.Substrate.run_batch_into ~batch packed ~inputs bat_buf;
              let bat_state = Druzhba_dsim.Substrate.current_state packed in
              let rows b = List.init (Trace.Buffer.length b) (Trace.Buffer.row b) in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%s/%s batch %d = sequential" bm.Spec.bm_name
                   (Optimizer.level_name level) label batch)
                true
                (rows seq_buf = rows bat_buf && seq_state = bat_state))
            [ 64; 7 ])
        [
          ("engine", fun () -> Druzhba_dsim.Substrate.of_engine ~init d ~mc);
          ("compiled", fun () -> Druzhba_dsim.Substrate.of_compiled ~init c);
        ])
    [ Optimizer.Unoptimized; Optimizer.Scc; Optimizer.Scc_inline ]

let test_buffered_path_equals_frozen (bm : Spec.benchmark) () =
  let desc, mc, init = setup bm in
  let inputs = Traffic.phvs (Traffic.create ~seed:0xFA57 ~width:bm.Spec.bm_width ~bits:32) 50 in
  List.iter
    (fun level ->
      let d = Optimizer.apply ~level ~mc desc in
      let c = Compile.compile d ~mc in
      let reference = Engine.run ~init d ~mc ~inputs in
      (* frozen convenience path *)
      let frozen = Compiled.run_compiled ~init c ~inputs in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s run_compiled = Engine.run" bm.Spec.bm_name
           (Optimizer.level_name level))
        true (Trace.equal reference frozen);
      (* reusable-buffer fast path, twice through the same engine and buffer
         (the second run must not see state from the first) *)
      let t = Compiled.create c in
      let buf = Trace.Buffer.create ~width:bm.Spec.bm_width ~capacity:10 (* forces growth *) in
      Compiled.run_into ~init t ~inputs buf;
      Compiled.run_into ~init t ~inputs buf;
      let buffered =
        {
          Trace.inputs;
          outputs = Trace.Buffer.contents buf;
          final_state = Compiled.current_state t;
        }
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s run_into = Engine.run" bm.Spec.bm_name
           (Optimizer.level_name level))
        true
        (Trace.equal reference buffered))
    [ Optimizer.Unoptimized; Optimizer.Scc; Optimizer.Scc_inline ]

let () =
  Alcotest.run "perf"
    [
      ( "steady-state allocation (scc+inline, compiled)",
        List.map
          (fun (bm : Spec.benchmark) ->
            Alcotest.test_case bm.Spec.bm_name `Quick (test_steady_state_allocation bm))
          Spec.all );
      ( "steady-state allocation (scc+inline, batched)",
        List.map
          (fun (bm : Spec.benchmark) ->
            Alcotest.test_case bm.Spec.bm_name `Quick (test_batched_steady_state_allocation bm))
          Spec.all );
      ( "batched = sequential (all levels, both substrates)",
        List.map
          (fun (bm : Spec.benchmark) ->
            Alcotest.test_case bm.Spec.bm_name `Quick (test_batched_equals_sequential bm))
          Spec.all );
      ( "buffered fast path = frozen trace",
        List.map
          (fun (bm : Spec.benchmark) ->
            Alcotest.test_case bm.Spec.bm_name `Quick (test_buffered_path_equals_frozen bm))
          Spec.all );
    ]
