(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) plus the ablations DESIGN.md calls out.

   Sections:
     1. Bechamel microbenchmarks — one Test.make per Table-1 program and
        optimization level (compiled descriptions, 500-PHV workload), giving
        statistically solid per-PHV costs.
     2. Table 1 — the paper's measurement verbatim: wall-clock time to
        simulate 50 000 PHVs per program at the three optimization levels,
        on closure-compiled descriptions (the rustc analogue).
     3. Ablation: the same sweep on the interpreted descriptions — shows
        what explicit inlining is worth without a compiling backend.
     4. Fig. 6 — generated-description sizes across the three versions.
        Plus the dead-ALU elimination ablation: description sizes after
        the liveness-based dead_elim pass, per Table-1 program.
     5. Case study (§5.2) — the compiler-testing campaign: 120+ programs,
        injected missing-pairs failures, narrow-width synthesis failures.
     6. dRMT (§4) — schedule quality and simulated throughput for the
        L2/L3 program across processor counts. *)

module Druzhba = Druzhba_core.Druzhba
open Druzhba
module Table1 = Druzhba_experiments.Table1
module Casestudy = Druzhba_experiments.Casestudy
module Fig6 = Druzhba_experiments.Fig6
module Bench_report = Druzhba_experiments.Bench_report
module Interp = Druzhba_pipeline.Interp
open Bechamel
open Toolkit

(* --- 1. Bechamel microbenchmarks -------------------------------------------------- *)

let bench_phvs = 500

let table1_tests () =
  let tests =
    List.concat_map
      (fun (bm : Spec.benchmark) ->
        let compiled = Spec.compile_exn bm in
        let mc = compiled.Compiler.Codegen.c_mc in
        let desc = compiled.Compiler.Codegen.c_desc in
        let init = compiled.Compiler.Codegen.c_layout.Compiler.Codegen.l_init in
        let inputs =
          Traffic.phvs (Traffic.create ~seed:0xBE5 ~width:bm.Spec.bm_width ~bits:32) bench_phvs
        in
        let v2 = Optimizer.scc_propagate ~mc desc in
        let v3 = Optimizer.inline_functions v2 in
        List.map
          (fun (level, d) ->
            let c = Compile.compile d ~mc in
            (* engine and output buffer preallocated outside the timed body:
               the benchmark measures the zero-allocation steady-state tick
               path, not construction or trace freezing *)
            let t = Compiled.create c in
            let buf = Trace.Buffer.create ~width:bm.Spec.bm_width ~capacity:bench_phvs in
            Test.make
              ~name:(Printf.sprintf "%s/%s" bm.Spec.bm_name level)
              (Staged.stage (fun () -> Compiled.run_into ~init t ~inputs buf)))
          [ ("unopt", desc); ("scc", v2); ("scc+inline", v3) ])
      Spec.all
  in
  Test.make_grouped ~name:"table1" ~fmt:"%s %s" tests

let run_bechamel () =
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.4) ~stabilize:false () in
  let instance = Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] (table1_tests ()) in
  let ols =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) instance
      raw
  in
  Printf.printf "%-36s %14s\n" "benchmark (500 PHVs per run)" "time/run";
  Hashtbl.fold (fun name result acc -> (name, result) :: acc) ols []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (name, result) ->
         match Analyze.OLS.estimates result with
         | Some [ est ] ->
           let ms = est /. 1_000_000. in
           Printf.printf "%-36s %11.3f ms\n" name ms
         | _ -> Printf.printf "%-36s %14s\n" name "n/a")

(* --- 4b. dead_elim size ablation --------------------------------------------------- *)

(* For each Table-1 program: description size after SCC propagation alone vs
   after the liveness-based dead-ALU elimination pass that follows it.  The
   delta is the number of IR nodes the machine code can never select. *)
let run_dead_elim_ablation () =
  Printf.printf "%-16s %12s %14s %10s\n" "program" "scc size" "scc+dead size" "removed";
  List.iter
    (fun (bm : Spec.benchmark) ->
      let compiled = Spec.compile_exn bm in
      let mc = compiled.Compiler.Codegen.c_mc in
      let desc = compiled.Compiler.Codegen.c_desc in
      let scc = Optimizer.scc_propagate ~mc desc in
      let pruned = Optimizer.dead_elim ~mc scc in
      let a = Ir.size scc and b = Ir.size pruned in
      Printf.printf "%-16s %12d %14d %10d\n" bm.Spec.bm_name a b (a - b))
    Spec.all

(* --- 5b. Campaign scaling across domains -------------------------------------------- *)

(* Throughput scaling of the multicore differential campaign: the same
   fixed-seed campaign at 1/2/4/8 domains.  Beyond the scaling curve this
   doubles as a determinism check — the JSON report must be byte-identical
   at every job count (per-trial seeds are derived from the master seed and
   the trial index, never from scheduling). *)
let run_campaign_scaling ~trials =
  let phvs = 80 in
  Printf.printf "campaign: %d trials x %d PHVs, differential oracle (6 configs/trial)\n" trials
    phvs;
  Printf.printf "%-6s %10s %10s %14s\n" "jobs" "wall (s)" "speedup" "JSON report";
  let baseline = ref 0.0 in
  let reference_json = ref "" in
  List.iter
    (fun jobs ->
      let cfg = Campaign.config ~trials ~jobs ~phvs () in
      let t0 = Unix.gettimeofday () in
      let report = Campaign.run cfg in
      let dt = Unix.gettimeofday () -. t0 in
      let json = Campaign.to_json report in
      if jobs = 1 then begin
        baseline := dt;
        reference_json := json
      end;
      Printf.printf "%-6d %10.2f %9.2fx %14s\n" jobs dt
        (if dt > 0. then !baseline /. dt else nan)
        (if String.equal json !reference_json then "identical" else "DIFFERS"))
    [ 1; 2; 4; 8 ]

(* --- 6. dRMT ------------------------------------------------------------------------ *)

let drmt_program =
  {|
header ethernet { dst : 48; etype : 16; }
header ipv4 { ttl : 8; src : 32; dst : 32; }
action set_port(port) { meta.out_port = port; }
action route(port) {
  meta.out_port = port;
  ipv4.ttl = ipv4.ttl - 1;
  reg.routed = reg.routed + 1;
}
action drop_packet() { drop; reg.dropped = reg.dropped + 1; }
action count_acl() { reg.acl_hits = reg.acl_hits + 1; }
table l2_forward { key : ethernet.dst; match : exact; actions : { set_port }; default : set_port 0; }
table ipv4_route { key : ipv4.dst; match : lpm; actions : { route, drop_packet }; default : drop_packet; }
table acl { key : ipv4.src; match : ternary; actions : { count_acl, drop_packet }; default : count_acl; }
control { apply l2_forward; apply ipv4_route; apply acl; }
|}

let drmt_entries =
  {|
entry l2_forward exact 43707 set_port 3
entry ipv4_route lpm 2886729728/8 route 9
entry ipv4_route lpm 2886737920/16 route 7
entry acl ternary 13&255 drop_packet
|}

let run_drmt_bench () =
  let p = Drmt.P4.parse drmt_program in
  let entries = match Drmt.Entries.parse drmt_entries with Ok e -> e | Error e -> failwith e in
  let dag = Drmt.Dag.build p in
  Printf.printf "program: %d tables; dependency DAG critical path = %d cycles\n"
    (List.length p.Drmt.P4.tables) (Drmt.Dag.critical_path dag);
  Printf.printf "%-6s %10s %12s %16s %22s\n" "procs" "makespan" "cycles" "pkts/cycle"
    "peak match (chip/proc)";
  List.iter
    (fun processors ->
      let cfg = Drmt.Scheduler.config ~processors ~match_capacity:2 ~action_capacity:4 () in
      match Drmt.Scheduler.schedule cfg dag with
      | exception Drmt.Scheduler.Infeasible why ->
        Printf.printf "%-6d %s\n" processors ("infeasible at line rate: " ^ why)
      | sched ->
        let packets = 20_000 in
        let t0 = Unix.gettimeofday () in
        let r = Drmt.Sim.run ~cfg ~entries ~packets p in
        let dt = Unix.gettimeofday () -. t0 in
        let s = r.Drmt.Sim.r_stats in
        Printf.printf "%-6d %10d %12d %16.3f %15d/%-6d   (%.0f ms wall)\n" processors
          sched.Drmt.Scheduler.makespan s.Drmt.Sim.st_cycles
          (float_of_int s.Drmt.Sim.st_packets /. float_of_int s.Drmt.Sim.st_cycles)
          s.Drmt.Sim.st_peak_match_per_cycle s.Drmt.Sim.st_peak_match_per_processor (dt *. 1000.))
    [ 1; 2; 4; 8 ]

(* --- JSON perf trajectory ------------------------------------------------------------ *)

(* Machine-readable benchmark report (BENCH_pr15.json, schema
   druzhba-bench/4): per Table-1 program and optimization level, the
   steady-state tick cost on the compiled substrate (ns/PHV, PHVs/sec, best
   of three timed runs) and its steady-state allocation rate
   (Gc.allocated_bytes per PHV, which must stay at ~0).  Each executor has
   one tick path, so "ns_per_phv" is the closures' [run_into] and
   "native_ns_per_phv" the native module's; schema /4 drops the /3 fields
   that timed or checked a second, batched path ("batch", "seq_ns_per_phv",
   "native_seq_ns_per_phv", "batch_agree", "batch_sweep").  Each level
   carries the agreement bits CI gates on: "engine_compiled_agree" (Engine
   trace = Compiled trace) and, with the native toolchain present,
   "native_agree" (native trace + final state = closure trace on the check
   workload) beside "native_ns_per_phv" and "native_phvs_per_sec".  On a
   machine without the toolchain those fields are omitted and a top-level
   "native_unavailable" string carries the probe's reason — the report is
   still valid and all other gates still apply.  Additional sections:
   "probe_overhead" (the coverage-probe flag must cost nothing when
   disabled) and "drmt".  Reports are read back by
   {!Druzhba_experiments.Bench_report}, which accepts schemas /1 to /4 —
   the speedup tables below use it. *)

type native_sample = {
  nv_ns_per_phv : float;
  nv_phvs_per_sec : float;
  nv_agree : bool; (* native trace + state = closure trace on the check workload *)
}

type level_sample = {
  ls_level : string;
  ls_ns_per_phv : float;
  ls_phvs_per_sec : float;
  ls_bytes_per_phv : float;
  ls_agree : bool; (* Engine trace = Compiled trace on the check workload *)
  ls_native : native_sample option; (* None when the toolchain is unavailable *)
}

type program_sample = {
  ps_program : string;
  ps_depth : int;
  ps_width : int;
  ps_alu : string;
  ps_levels : level_sample list;
}

let json_check_phvs = 64
let timed_reps = 3

(* Best (minimum) wall-clock of [timed_reps] runs: the workload is
   deterministic, so the minimum is the least-noise estimate of the
   steady-state cost. *)
let best_of_time f =
  let best = ref infinity in
  for _ = 1 to timed_reps do
    let t0 = Unix.gettimeofday () in
    let _ = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* [native] gates the native rows: when false (toolchain probe failed) the
   closure and interpreter measurements still run, native fields are simply
   absent.  Substrate construction — which for native includes the
   out-of-process ocamlopt run, the analogue of the rustc time the paper
   excludes — sits outside every timer. *)
let measure_program ~phvs ~native (bm : Spec.benchmark) : program_sample =
  let compiled = Spec.compile_exn bm in
  let mc = compiled.Compiler.Codegen.c_mc in
  let desc = compiled.Compiler.Codegen.c_desc in
  let init = compiled.Compiler.Codegen.c_layout.Compiler.Codegen.l_init in
  let inputs = Traffic.phvs (Traffic.create ~seed:0xD52ba ~width:bm.Spec.bm_width ~bits:32) phvs in
  let check_inputs =
    Traffic.phvs (Traffic.create ~seed:0x601d ~width:bm.Spec.bm_width ~bits:32) json_check_phvs
  in
  let v2 = Optimizer.scc_propagate ~mc desc in
  let v3 = Optimizer.inline_functions v2 in
  let buf = Trace.Buffer.create ~width:bm.Spec.bm_width ~capacity:phvs in
  let levels =
    List.map
      (fun (level, d) ->
        let c = Compile.compile d ~mc in
        let t = Compiled.create c in
        (* warm-up run (pages in code paths), then best-of-N timed runs and
           one allocation-counted run *)
        Compiled.run_into ~init t ~inputs buf;
        let dt = best_of_time (fun () -> Compiled.run_into ~init t ~inputs buf) in
        let a0 = Gc.allocated_bytes () in
        Compiled.run_into ~init t ~inputs buf;
        let a1 = Gc.allocated_bytes () in
        let n = float_of_int phvs in
        let engine_trace = Engine.run ~init d ~mc ~inputs:check_inputs in
        let compiled_trace = Compiled.run_compiled ~init c ~inputs:check_inputs in
        let ls_native =
          if not native then None
          else
            match Native_substrate.create ~init d ~mc with
            | Error _ -> None
            | Ok packed ->
              Substrate.run_into packed ~inputs buf;
              let ndt = best_of_time (fun () -> Substrate.run_into packed ~inputs buf) in
              let nbuf =
                Trace.Buffer.create ~width:bm.Spec.bm_width ~capacity:json_check_phvs
              in
              Substrate.run_into packed ~inputs:check_inputs nbuf;
              let native_trace =
                {
                  Trace.inputs = check_inputs;
                  outputs = Trace.Buffer.contents nbuf;
                  final_state = Substrate.current_state packed;
                }
              in
              Some
                {
                  nv_ns_per_phv = ndt *. 1e9 /. n;
                  nv_phvs_per_sec = (if ndt > 0. then n /. ndt else infinity);
                  nv_agree = Trace.equal native_trace compiled_trace;
                }
        in
        {
          ls_level = level;
          ls_ns_per_phv = dt *. 1e9 /. n;
          ls_phvs_per_sec = (if dt > 0. then n /. dt else infinity);
          ls_bytes_per_phv = (a1 -. a0) /. n;
          ls_agree = Trace.equal engine_trace compiled_trace;
          ls_native;
        })
      [ ("unopt", desc); ("scc", v2); ("scc+inline", v3) ]
  in
  {
    ps_program = bm.Spec.bm_name;
    ps_depth = bm.Spec.bm_depth;
    ps_width = bm.Spec.bm_width;
    ps_alu = bm.Spec.bm_stateful;
    ps_levels = levels;
  }

(* --- Coverage-probe overhead --------------------------------------------------------- *)

(* The interpreter's coverage hooks must be free when disabled: with no
   probe installed the per-ALU dispatch is a single branch on a preloaded
   flag.  Measured on the unoptimized description (the configuration
   coverage campaigns instrument): baseline = a never-instrumented engine,
   "off" = the same engine after a probe was installed and removed.  CI
   gates off/baseline < 1.5 (identical code paths; the margin is noise). *)

type probe_overhead = {
  po_program : string;
  po_phvs : int;
  po_baseline_ns : float;
  po_on_ns : float;
  po_off_ns : float;
}

let probe_ratio_bound = 1.5
let po_ratio po = if po.po_baseline_ns > 0. then po.po_off_ns /. po.po_baseline_ns else nan
let po_ok po = po_ratio po < probe_ratio_bound

let measure_probe_overhead ~phvs : probe_overhead =
  let bm = List.find (fun (b : Spec.benchmark) -> b.Spec.bm_name = "sampling") Spec.all in
  let compiled = Spec.compile_exn bm in
  let mc = compiled.Compiler.Codegen.c_mc in
  let desc = compiled.Compiler.Codegen.c_desc in
  let init = compiled.Compiler.Codegen.c_layout.Compiler.Codegen.l_init in
  let inputs = Traffic.phvs (Traffic.create ~seed:0xD52ba ~width:bm.Spec.bm_width ~bits:32) phvs in
  let buf = Trace.Buffer.create ~width:bm.Spec.bm_width ~capacity:phvs in
  let engine = Engine.create ~init desc ~mc in
  let time () =
    Engine.run_into engine ~inputs buf;
    best_of_time (fun () -> Engine.run_into engine ~inputs buf) *. 1e9 /. float_of_int phvs
  in
  let baseline = time () in
  let hits = ref 0 in
  let probe =
    {
      Interp.pr_branch = (fun ~alu:_ ~site:_ ~taken:_ -> incr hits);
      pr_latch = (fun ~alu:_ ~slot:_ -> incr hits);
      pr_output = (fun ~alu:_ ~returned:_ -> incr hits);
      pr_mux = (fun ~mux:_ ~ctrl:_ -> incr hits);
    }
  in
  Engine.instrument engine (Some probe);
  let on_ns = time () in
  Engine.instrument engine None;
  let off_ns = time () in
  {
    po_program = bm.Spec.bm_name;
    po_phvs = phvs;
    po_baseline_ns = baseline;
    po_on_ns = on_ns;
    po_off_ns = off_ns;
  }

(* dRMT rows: the bench l2l3 program run through the substrate interface in
   both modes, on identical derived-seed traffic.  Times the steady-state
   [run_into] path (substrate construction and trace freezing excluded). *)

type drmt_mode_sample = {
  dm_mode : string;
  dm_ns_per_phv : float;
  dm_phvs_per_sec : float;
}

type drmt_sample = {
  ds_program : string;
  ds_tables : int;
  ds_phvs : int;
  ds_modes : drmt_mode_sample list;
  ds_agree : bool; (* event trace = sequential trace on the same workload *)
}

let measure_drmt ~phvs : drmt_sample =
  let p = Drmt.P4.parse drmt_program in
  let entries = match Drmt.Entries.parse drmt_entries with Ok e -> e | Error e -> failwith e in
  let run mode =
    let sub = Drmt_substrate.create ~mode ~entries p in
    let inputs = Drmt_substrate.traffic ~seed:0xD52ba sub phvs in
    let packed = Drmt_substrate.pack sub in
    let buf = Trace.Buffer.create ~width:(Substrate.width packed) ~capacity:phvs in
    Substrate.run_into packed ~inputs buf;
    (* warm cache; run_into clears the buffer and re-arms, so time a fresh run *)
    let t0 = Unix.gettimeofday () in
    Substrate.run_into packed ~inputs buf;
    let dt = Unix.gettimeofday () -. t0 in
    let trace =
      {
        Trace.inputs;
        outputs = Trace.Buffer.contents buf;
        final_state = Substrate.current_state packed;
      }
    in
    (dt, trace)
  in
  let dt_seq, trace_seq = run Drmt_substrate.Sequential in
  let dt_ev, trace_ev = run Drmt_substrate.Event in
  let n = float_of_int phvs in
  let sample dm_mode dt =
    {
      dm_mode;
      dm_ns_per_phv = dt *. 1e9 /. n;
      dm_phvs_per_sec = (if dt > 0. then n /. dt else infinity);
    }
  in
  {
    ds_program = "l2l3";
    ds_tables = List.length p.Drmt.P4.tables;
    ds_phvs = phvs;
    ds_modes = [ sample "sequential" dt_seq; sample "event" dt_ev ];
    ds_agree = Trace.equal trace_seq trace_ev;
  }

let bench_pr = 15
let bench_path = Printf.sprintf "BENCH_pr%d.json" bench_pr

let render_json ~quick ~phvs ~(native_unavailable : string option) ~(drmt : drmt_sample)
    ~(po : probe_overhead) (samples : program_sample list) =
  let b = Buffer.create 4096 in
  let bpf fmt = Printf.bprintf b fmt in
  bpf "{\n";
  bpf "  \"schema\": \"druzhba-bench/4\",\n";
  bpf "  \"pr\": %d,\n" bench_pr;
  bpf "  \"quick\": %b,\n" quick;
  bpf "  \"phvs\": %d,\n" phvs;
  (match native_unavailable with
  | Some reason -> bpf "  \"native_unavailable\": \"%s\",\n" (String.escaped reason)
  | None -> ());
  bpf "  \"timed_reps\": %d,\n" timed_reps;
  bpf "  \"check_phvs\": %d,\n" json_check_phvs;
  bpf "  \"programs\": [\n";
  List.iteri
    (fun i ps ->
      bpf "    {\n";
      bpf "      \"program\": \"%s\", \"depth\": %d, \"width\": %d, \"alu\": \"%s\",\n"
        ps.ps_program ps.ps_depth ps.ps_width ps.ps_alu;
      bpf "      \"levels\": [\n";
      List.iteri
        (fun j ls ->
          let native_fields =
            match ls.ls_native with
            | None -> ""
            | Some nv ->
              Printf.sprintf
                ", \"native_ns_per_phv\": %.1f, \"native_phvs_per_sec\": %.0f, \
                 \"native_agree\": %b"
                nv.nv_ns_per_phv nv.nv_phvs_per_sec nv.nv_agree
          in
          bpf
            "        {\"level\": \"%s\", \"ns_per_phv\": %.1f, \"phvs_per_sec\": %.0f, \
             \"bytes_per_phv\": %.2f, \"engine_compiled_agree\": %b%s}%s\n"
            ls.ls_level ls.ls_ns_per_phv ls.ls_phvs_per_sec ls.ls_bytes_per_phv ls.ls_agree
            native_fields
            (if j = 2 then "" else ","))
        ps.ps_levels;
      bpf "      ]\n";
      bpf "    }%s\n" (if i = List.length samples - 1 then "" else ","))
    samples;
  bpf "  ],\n";
  bpf "  \"probe_overhead\": {\n";
  bpf "    \"program\": \"%s\", \"phvs\": %d,\n" po.po_program po.po_phvs;
  bpf "    \"baseline_ns_per_phv\": %.1f, \"on_ns_per_phv\": %.1f, \"off_ns_per_phv\": %.1f,\n"
    po.po_baseline_ns po.po_on_ns po.po_off_ns;
  bpf "    \"off_ratio\": %.3f, \"off_ratio_bound\": %.1f, \"within_bound\": %b\n" (po_ratio po)
    probe_ratio_bound (po_ok po);
  bpf "  },\n";
  bpf "  \"drmt\": {\n";
  bpf "    \"program\": \"%s\", \"tables\": %d, \"phvs\": %d,\n" drmt.ds_program drmt.ds_tables
    drmt.ds_phvs;
  bpf "    \"modes\": [\n";
  List.iteri
    (fun i dm ->
      bpf "      {\"mode\": \"%s\", \"ns_per_phv\": %.1f, \"phvs_per_sec\": %.0f}%s\n" dm.dm_mode
        dm.dm_ns_per_phv dm.dm_phvs_per_sec
        (if i = List.length drmt.ds_modes - 1 then "" else ","))
    drmt.ds_modes;
  bpf "    ],\n";
  bpf "    \"event_sequential_agree\": %b\n" drmt.ds_agree;
  bpf "  },\n";
  let all_agree =
    drmt.ds_agree
    && po_ok po
    && List.for_all
         (fun ps ->
           List.for_all
             (fun ls ->
               ls.ls_agree && match ls.ls_native with Some nv -> nv.nv_agree | None -> true)
             ps.ps_levels)
         samples
  in
  bpf "  \"all_agree\": %b\n" all_agree;
  bpf "}\n";
  (Buffer.contents b, all_agree)

(* Speedup table against the committed BENCH_pr5.json, which timed the
   same sequential closure tick loop, read back through the schema-tolerant
   {!Bench_report} parser. *)
let print_speedups ~path ~baseline_path =
  match (Bench_report.of_file baseline_path, Bench_report.of_file path) with
  | Error _, _ | _, Error _ ->
    Printf.printf "(no %s baseline found; skipping speedup table)\n" baseline_path
  | Ok baseline, Ok current ->
    let rows =
      Bench_report.speedups ~baseline ~current
      |> List.filter (fun (_, level, _) -> level = "scc+inline")
    in
    Printf.printf "\nspeedup vs %s (scc+inline, pr%d -> pr%d):\n" baseline_path
      baseline.Bench_report.br_pr current.Bench_report.br_pr;
    List.iter (fun (program, _, s) -> Printf.printf "  %-18s %6.1fx\n" program s) rows

(* The native substrate's tick cost against the *sequential* scc+inline
   cost in the committed BENCH_pr8.json (the closure tick loop the emitted
   code replaces), per program, flagging the rows under 5x. *)
let print_native_speedups ~path ~baseline_path =
  match (Bench_report.of_file baseline_path, Bench_report.of_file path) with
  | Error _, _ | _, Error _ ->
    Printf.printf "(no %s baseline found; skipping native speedup table)\n" baseline_path
  | Ok baseline, Ok current -> (
    match current.Bench_report.br_native_unavailable with
    | Some reason -> Printf.printf "\n(native substrate unavailable: %s)\n" reason
    | None ->
      let rows =
        current.Bench_report.br_rows
        |> List.filter_map (fun (r : Bench_report.level_row) ->
               match
                 ( r.Bench_report.br_level,
                   r.Bench_report.br_native_ns_per_phv,
                   Bench_report.find_row baseline ~program:r.Bench_report.br_program
                     ~level:"scc+inline" )
               with
               | "scc+inline", Some nns, Some b when nns > 0. -> (
                 match b.Bench_report.br_seq_ns_per_phv with
                 | Some seq -> Some (r.Bench_report.br_program, seq /. nns)
                 | None -> None)
               | _ -> None)
      in
      Printf.printf "\nnative vs %s sequential scc+inline:\n" baseline_path;
      List.iter
        (fun (program, s) ->
          Printf.printf "  %-18s %6.1fx%s\n" program s (if s >= 5.0 then "" else "   (< 5x)"))
        rows;
      let over = List.length (List.filter (fun (_, s) -> s >= 5.0) rows) in
      Printf.printf "  %d/%d rows at >= 5x\n" over (List.length rows))

let run_json_report ~quick ~path =
  let phvs = if quick then 5_000 else 50_000 in
  let native_unavailable =
    match Native_substrate.available () with Ok () -> None | Error reason -> Some reason
  in
  Printf.printf "perf trajectory: %d PHVs/run, compiled substrate (best of %d)\n" phvs timed_reps;
  (match native_unavailable with
  | Some reason -> Printf.printf "native substrate unavailable (%s); native columns omitted\n" reason
  | None -> ());
  Printf.printf "%-18s %-12s %12s %14s %12s %6s %12s %6s\n" "program" "level" "ns/PHV"
    "PHVs/sec" "bytes/PHV" "agree" "native ns" "native";
  let samples =
    List.map
      (fun bm ->
        let ps = measure_program ~phvs ~native:(native_unavailable = None) bm in
        List.iter
          (fun ls ->
            Printf.printf "%-18s %-12s %12.1f %14.0f %12.2f %6s %12s %6s\n" ps.ps_program
              ls.ls_level ls.ls_ns_per_phv ls.ls_phvs_per_sec ls.ls_bytes_per_phv
              (if ls.ls_agree then "yes" else "NO")
              (match ls.ls_native with
              | Some nv -> Printf.sprintf "%.1f" nv.nv_ns_per_phv
              | None -> "-")
              (match ls.ls_native with
              | Some nv -> if nv.nv_agree then "yes" else "NO"
              | None -> "-"))
          ps.ps_levels;
        ps)
      Spec.all
  in
  let po = measure_probe_overhead ~phvs:(if quick then 2_000 else 10_000) in
  Printf.printf
    "\nprobe overhead (%s, unopt interpreter): baseline %.1f ns/PHV, on %.1f, off %.1f \
     (off/baseline %.3f, bound %.1f)\n"
    po.po_program po.po_baseline_ns po.po_on_ns po.po_off_ns (po_ratio po) probe_ratio_bound;
  let drmt = measure_drmt ~phvs:(if quick then 2_000 else 20_000) in
  List.iter
    (fun dm ->
      Printf.printf "%-18s %-12s %12.1f %14.0f %14s %8s\n" "drmt/l2l3" dm.dm_mode dm.dm_ns_per_phv
        dm.dm_phvs_per_sec "-"
        (if drmt.ds_agree then "yes" else "NO"))
    drmt.ds_modes;
  let json, all_agree = render_json ~quick ~phvs ~native_unavailable ~drmt ~po samples in
  let oc = open_out path in
  output_string oc json;
  close_out oc;
  Printf.printf "\nwrote %s\n" path;
  print_speedups ~path ~baseline_path:"BENCH_pr5.json";
  print_native_speedups ~path ~baseline_path:"BENCH_pr8.json";
  if not all_agree then
    Printf.printf
      "DIVERGENCE: a backend pair differs (Engine/Compiled, native/closures, dRMT \
       event/sequential) or the disabled coverage probe is not free\n";
  all_agree

(* --- main --------------------------------------------------------------------------- *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  if Array.exists (( = ) "--json") Sys.argv then begin
    (* JSON trajectory mode: only the machine-readable report (plus the
       agreement gates); exits non-zero on divergence *)
    section (Printf.sprintf "Perf trajectory (%s)" bench_path);
    if not (run_json_report ~quick ~path:bench_path) then exit 1
  end
  else begin
  let phvs = if quick then 5_000 else 50_000 in

  section "1. Bechamel microbenchmarks (compiled descriptions)";
  run_bechamel ();

  section (Printf.sprintf "2. Table 1 reproduction: %d PHVs, closure-compiled descriptions" phvs);
  let rows = Table1.run ~phvs ~mode:"compiled" () in
  Fmt.pr "%a@." Table1.pp rows;
  Fmt.pr "%a" Table1.summary rows;

  section (Printf.sprintf "3. Ablation: %d PHVs, interpreted descriptions" phvs);
  let rows_interp = Table1.run ~phvs ~mode:"interpreter" () in
  Fmt.pr "%a@." Table1.pp rows_interp;
  Fmt.pr "%a" Table1.summary rows_interp;

  section (Printf.sprintf "3b. Native codegen: %d PHVs, Dynlinked emitted descriptions" phvs);
  (match Native_substrate.available () with
  | Error reason -> Printf.printf "(native substrate unavailable: %s)\n" reason
  | Ok () ->
    let rows_native = Table1.run ~phvs ~mode:"native" () in
    Fmt.pr "%a@." Table1.pp rows_native;
    Fmt.pr "%a" Table1.summary rows_native);

  section "4. Fig. 6: pipeline-description sizes across optimization versions";
  let v = Fig6.render () in
  Fmt.pr "%a@." Fig6.pp_summary v;
  let v45 = Fig6.render ~depth:4 ~width:5 ~stateful:"pred_raw" () in
  Fmt.pr "4x5 pred_raw pipeline: %a@." Fig6.pp_summary v45;

  section "4b. Dead-ALU elimination: description sizes after liveness pruning";
  run_dead_elim_ablation ();

  section "5. Case study (Sec 5.2): testing the compilers";
  let report =
    Casestudy.run
      ~phvs:(if quick then 300 else 1000)
      ~jobs:(Druzhba.Campaign.Runner.default_jobs ()) ()
  in
  Fmt.pr "%a@." Casestudy.pp report;

  section "5b. Campaign throughput scaling across domains (1/2/4/8)";
  run_campaign_scaling ~trials:(if quick then 50 else 200);

  section "6. dRMT (Sec 4): schedule and throughput";
  run_drmt_bench ();

  Printf.printf "\ndone.\n"
  end
