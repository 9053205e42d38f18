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

   The interpreter holds it too, at every optimization level.

   The dRMT substrates hold the same bound per packet: each prepares its
   program once and re-arms preallocated packet rows, table selections and
   register file on every run.

   A second test pins the buffered fast path to the frozen-trace path: for
   every program and level, [run_into] + [Buffer.contents] must reproduce
   [run_compiled] and [Engine.run] exactly.

   A last test holds a removed coverage probe to zero callbacks, the
   uninstrumented trace and the uninstrumented tick cost. *)

module Ir = Druzhba_pipeline.Ir
module Interp = Druzhba_pipeline.Interp
module Compile = Druzhba_pipeline.Compile
module Optimizer = Druzhba_optimizer.Optimizer
module Engine = Druzhba_dsim.Engine
module Compiled = Druzhba_dsim.Compiled
module Traffic = Druzhba_dsim.Traffic
module Trace = Druzhba_dsim.Trace
module Phv = Druzhba_dsim.Phv
module Spec = Druzhba_spec.Spec
module Codegen = Druzhba_compiler.Codegen
module Substrate = Druzhba_dsim.Substrate
module Drmt_substrate = Druzhba_dsim.Drmt_substrate
module Campaign = Druzhba_campaign.Campaign
module Prng = Druzhba_util.Prng

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

(* The interpreter holds the same bound at every level: {!Engine.create}
   resolves the description once (calls point at their helpers, variables
   are frame slots, output muxes know their helpers), and frames live on
   the engine's preallocated stack, so a tick neither hashes a helper name
   nor builds an environment.  Only [Mc] nodes still pay a hash lookup,
   which allocates nothing. *)
let test_interpreter_steady_state_allocation (bm : Spec.benchmark) () =
  let desc, mc, init = setup bm in
  let inputs =
    Traffic.phvs (Traffic.create ~seed:0xA110C ~width:bm.Spec.bm_width ~bits:32) alloc_phvs
  in
  List.iter
    (fun level ->
      let t = Engine.create ~init (Optimizer.apply ~level ~mc desc) ~mc in
      let buf = Trace.Buffer.create ~width:bm.Spec.bm_width ~capacity:alloc_phvs in
      Engine.run_into t ~inputs buf;
      Engine.reset ~init t;
      let a0 = Gc.allocated_bytes () in
      Engine.run_into t ~inputs buf;
      let a1 = Gc.allocated_bytes () in
      let per_phv = (a1 -. a0) /. float_of_int alloc_phvs in
      if per_phv >= bytes_per_phv_bound then
        Alcotest.failf "%s/%s: %.2f bytes allocated per steady-state PHV (bound %.0f)"
          bm.Spec.bm_name (Optimizer.level_name level) per_phv bytes_per_phv_bound)
    [ Optimizer.Unoptimized; Optimizer.Scc; Optimizer.Scc_inline ]

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

(* The router fixture and a 4-table chain as a dRMT campaign trial draws
   it, with entries installed. *)
let drmt_programs =
  [
    ("drmt_router", fun () -> (Drmt_router.program (), Drmt_router.entries ()));
    ( "campaign chain, 4 tables",
      fun () ->
        ( Campaign.drmt_program ~tables:4,
          Campaign.drmt_entries (Prng.create 0xA110C) ~tables:4 ~count:8 ) );
  ]

let test_drmt_steady_state_allocation make mode () =
  let p, entries = make () in
  let sub = Drmt_substrate.create ~mode ~entries p in
  let inputs = Drmt_substrate.traffic ~seed:0xA110C sub alloc_phvs in
  let packed = Drmt_substrate.pack sub in
  let buf = Trace.Buffer.create ~width:(Substrate.width packed) ~capacity:alloc_phvs in
  Substrate.run_into packed ~inputs buf;
  let a0 = Gc.allocated_bytes () in
  Substrate.run_into packed ~inputs buf;
  let a1 = Gc.allocated_bytes () in
  let per_packet = (a1 -. a0) /. float_of_int alloc_phvs in
  if per_packet >= bytes_per_phv_bound then
    Alcotest.failf "%s: %.2f bytes allocated per steady-state packet (bound %.0f)"
      (Substrate.name packed) per_packet bytes_per_phv_bound

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

(* A coverage probe installed and then removed ([Engine.instrument e
   (Some p)], then [None]) must leave the engine as it was: no callback
   fires, the trace is a never-instrumented engine's, and so is the tick
   cost (best of [probe_reps] interleaved runs; the code paths are the
   same, so the bound's margin is noise).  Measured where coverage
   campaigns instrument: the unoptimized description, interpreted.  A
   counting probe costs so little that only the callback count sees a
   removal that left it installed. *)
let probe_phvs = 2_000
let probe_reps = 5
let probe_ratio_bound = 1.5

let test_removed_probe_is_free () =
  let bm = List.find (fun (b : Spec.benchmark) -> b.Spec.bm_name = "sampling") Spec.all in
  let desc, mc, init = setup bm in
  let inputs =
    Traffic.phvs (Traffic.create ~seed:0xD52ba ~width:bm.Spec.bm_width ~bits:32) probe_phvs
  in
  let hits = ref 0 in
  let probe =
    {
      Interp.pr_branch = (fun ~alu:_ ~site:_ ~taken:_ -> incr hits);
      pr_latch = (fun ~alu:_ ~slot:_ -> incr hits);
      pr_output = (fun ~alu:_ ~returned:_ -> incr hits);
      pr_mux = (fun ~mux:_ ~ctrl:_ -> incr hits);
    }
  in
  let baseline = Engine.create ~init desc ~mc and removed = Engine.create ~init desc ~mc in
  let buf = Trace.Buffer.create ~width:bm.Spec.bm_width ~capacity:probe_phvs in
  Engine.instrument removed (Some probe);
  Engine.run_into removed ~inputs buf;
  if !hits = 0 then Alcotest.fail "the installed probe never fired";
  Engine.instrument removed None;
  hits := 0;
  let time engine =
    let t0 = Unix.gettimeofday () in
    Engine.run_into engine ~inputs buf;
    Unix.gettimeofday () -. t0
  in
  Engine.run_into baseline ~inputs buf;
  let best_base = ref infinity and best_off = ref infinity in
  for _ = 1 to probe_reps do
    best_base := Float.min !best_base (time baseline);
    best_off := Float.min !best_off (time removed)
  done;
  let ratio = !best_off /. !best_base in
  Printf.printf "off/baseline %.3f (bound %.1f)\n" ratio probe_ratio_bound;
  Alcotest.(check int) "callbacks after removal" 0 !hits;
  Engine.reset ~init removed;
  Engine.run_into removed ~inputs buf;
  let trace =
    { Trace.inputs; outputs = Trace.Buffer.contents buf; final_state = Engine.current_state removed }
  in
  Alcotest.(check bool) "trace = never-instrumented engine's" true
    (Trace.equal (Engine.run ~init desc ~mc ~inputs) trace);
  if not (ratio < probe_ratio_bound) then
    Alcotest.failf "removed probe costs %.3fx the never-instrumented engine (bound %.1f)" ratio
      probe_ratio_bound

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
      ( "steady-state allocation (interpreter)",
        List.map
          (fun (bm : Spec.benchmark) ->
            Alcotest.test_case bm.Spec.bm_name `Quick (test_interpreter_steady_state_allocation bm))
          Spec.all );
      ( "steady-state allocation (scc+inline, batched)",
        List.map
          (fun (bm : Spec.benchmark) ->
            Alcotest.test_case bm.Spec.bm_name `Quick (test_batched_steady_state_allocation bm))
          Spec.all );
      ( "steady-state allocation (dRMT)",
        List.concat_map
          (fun (name, make) ->
            List.map
              (fun (mode, mode_name) ->
                Alcotest.test_case (name ^ ", " ^ mode_name) `Quick
                  (test_drmt_steady_state_allocation make mode))
              [ (Drmt_substrate.Event, "event"); (Drmt_substrate.Sequential, "sequential") ])
          drmt_programs );
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
      ( "coverage probe, removed",
        [ Alcotest.test_case "sampling, unopt interpreter" `Quick test_removed_probe_is_free ] );
    ]
