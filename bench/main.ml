(* The evaluation harness: regenerates every table and figure of the paper's
   evaluation (§5) plus the ablations DESIGN.md calls out, as the text
   tables EXPERIMENTS.md quotes.

     dune exec bench/main.exe             # 50 000 PHVs per Table-1 run
     dune exec bench/main.exe -- --quick  # 5 000 PHVs, smaller case study

   Any other argument is refused with exit 2.

   It writes no record and gates nothing: end-to-end and per-layer
   performance is measured by perfbench/run.py, and the agreement of the
   executors is checked by the test suite (test/test_golden.ml,
   test/test_drmt.ml, test/test_perf.ml).

   Sections:
     1. Bechamel microbenchmarks — one Test.make per Table-1 program and
        optimization level (compiled descriptions, 500-PHV workload), giving
        statistically solid per-PHV costs.
     2. Table 1 — the paper's measurement verbatim: wall-clock time to
        simulate 50 000 PHVs per program at the three optimization levels,
        on closure-compiled descriptions (the rustc analogue).
     3. Ablation: the same sweep on the interpreted descriptions — shows
        what explicit inlining is worth without a compiling backend.
        3b repeats it on the Dynlinked emitted modules when the native
        toolchain is available.
     4. Fig. 6 — generated-description sizes across the three versions.
        Plus the dead-ALU elimination ablation: description sizes after
        the liveness-based dead_elim pass, per Table-1 program.
     5. Case study (§5.2) — the compiler-testing campaign: 120+ programs,
        injected missing-pairs failures, narrow-width synthesis failures.
        5b times one campaign at 1/2/4/8 domains.
     6. dRMT (§4) — schedule quality and simulated throughput for the
        L2/L3 program across processor counts. *)

module Druzhba = Druzhba_core.Druzhba
open Druzhba
module Table1 = Druzhba_experiments.Table1
module Casestudy = Druzhba_experiments.Casestudy
module Fig6 = Druzhba_experiments.Fig6
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
            let t = Substrate.of_compiled ~init c in
            let buf = Trace.Buffer.create ~width:bm.Spec.bm_width ~capacity:bench_phvs in
            Test.make
              ~name:(Printf.sprintf "%s/%s" bm.Spec.bm_name level)
              (Staged.stage (fun () -> Substrate.run_into t ~inputs buf)))
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
   the trial index, never from scheduling).  1 000 trials take about a
   second at 1 domain, in --quick mode too: a campaign of a few hundredths
   of a second would time domain start-up, not scaling. *)
let run_campaign_scaling () =
  let trials = 1_000 and phvs = 80 in
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

(* --- main --------------------------------------------------------------------------- *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let () =
  let quick =
    match Array.to_list Sys.argv with
    | [ _ ] -> false
    | [ _; "--quick" ] -> true
    | _ ->
      (* a removed flag must not run the harness and pass as if it had checked something *)
      prerr_endline "usage: bench/main.exe [--quick]";
      exit 2
  in
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
  run_campaign_scaling ();

  section "6. dRMT (Sec 4): schedule and throughput";
  run_drmt_bench ();

  Printf.printf "\ndone.\n"
