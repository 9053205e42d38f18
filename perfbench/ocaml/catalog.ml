(* Every per-layer metric, with its unit and reducer.  A traced run
   declares all of them, so a workload that never enters a layer reports 0
   for it; BENCHMARK.json's "per_layer" list names the same metrics, and
   perfbench/run.py refuses a run whose output misses one. *)

let last = "last"

let campaign =
  [
    ("dgen.ms_per_trial", "ms", last);
    ("fuzz.random_mc_ms_per_trial", "ms", last);
    ("machine_code.validate_ms_per_trial", "ms", last);
    ("optimizer.ms_per_trial", "ms", last);
    ("optimizer.ir_nodes", "count", last);
    ("compile.ms_per_trial", "ms", last);
    ("vcompile.ms_per_trial", "ms", last);
    ("engine.build_ms_per_trial", "ms", last);
    ("engine.ns_per_phv", "ns", last);
    ("compiled.ns_per_phv", "ns", last);
    ("oracle.diff_ms_per_trial", "ms", last);
    ("drmt.schedule_ms_per_trial", "ms", last);
    ("drmt_substrate.event_ns_per_phv", "ns", last);
    ("drmt_substrate.sequential_ns_per_phv", "ns", last);
    ("campaign.rmt.trial_p50_ms", "ms", "median");
    ("campaign.rmt.trial_tail_ms", "ms", "tail");
    ("campaign.drmt.trial_p50_ms", "ms", "median");
    ("campaign.drmt.trial_tail_ms", "ms", "tail");
    ("campaign.native.trial_p50_ms", "ms", "median");
    ("campaign.native.trial_tail_ms", "ms", "tail");
    ("runner.busy_share", "ratio", last);
    ("trace.overhead_ratio", "ratio", last);
  ]

let native =
  [
    ("emit.ms_per_trial", "ms", last);
    ("emit.source_kb", "kB", last);
    ("native_substrate.ocamlopt_ms_per_trial", "ms", last);
    ("native_substrate.dynlink_ms_per_trial", "ms", last);
    ("native_substrate.compiles", "count", "sum");
    ("native_substrate.cache_hits", "count", "sum");
    ("native_substrate.memo_hits", "count", "sum");
    ("native_substrate.ns_per_phv", "ns", last);
    ("native_substrate.rss_kb_per_trial", "kB", last);
  ]

let coverage =
  [
    ("coverage.replay_ms_per_trial", "ms", last);
    ("coverage.novel_share", "ratio", last);
    ("corpus.mutated_share", "ratio", last);
    ("corpus.mutation_miss_share", "ratio", last);
    ("corpus.save_ms", "ms", "median");
    ("shrink.ms_per_find", "ms", "median");
    ("shrink.probes_per_find", "count", "median");
  ]

let tiers = [ "interpreter"; "closures_seq"; "closures_batch"; "native_seq"; "native_batch" ]
let levels = [ "unopt"; "scc"; "scc_inline" ]

let table1 =
  List.concat_map
    (fun tier ->
      List.map (fun level -> (Printf.sprintf "dsim.%s.%s.ns_per_phv" tier level, "ns", "geomean")) levels)
    tiers
  @ [
      ("dsim.bytes_per_phv", "B", last);
      ("table1.build_ms.interpreter", "ms", "median");
      ("table1.build_ms.compiled", "ms", "median");
      ("table1.build_ms.native", "ms", "median");
    ]

let service =
  [
    ("service.submit_ms", "ms", "median");
    ("service.queue_wait_ms", "ms", "median");
    ("service.run_s", "s", "median");
    ("service.report_ms", "ms", "median");
    ("service.generator_lag_ms", "ms", "median");
    ("service.shed_share", "ratio", last);
  ]

(* Each workload's own view of its end-to-end result, under the names its
   users know.  Printed on every run; reported with the per-layer metrics
   because the contract's end-to-end list must mean something on every
   workload. *)
let views =
  [
    ("trials_per_s", "1/s", "median");
    ("time_to_find_p50_s", "s", "median");
    ("time_to_find_tail_s", "s", "tail");
    ("trials_to_find_p50", "count", "median");
    ("table1.unopt_ns_per_phv", "ns", "geomean");
    ("table1.scc_ns_per_phv", "ns", "geomean");
    ("table1.scc_inline_ns_per_phv", "ns", "geomean");
    ("jobs_per_s", "1/s", "median");
    ("job_latency_p50_s", "s", "median");
    ("job_latency_tail_s", "s", "tail");
    ("first_event_p50_ms", "ms", "median");
  ]

let layers = campaign @ native @ coverage @ table1 @ service

let declare_layers (run : Common.run) =
  List.iter (fun (name, unit_, reduce) -> Common.declare run.Common.layers name ~unit_ ~reduce) layers;
  List.iter (fun (name, unit_, reduce) -> Common.declare run.Common.row name ~unit_ ~reduce) views

(* Adds a sample under the catalog's unit and reducer. *)
let add_layer (run : Common.run) name v =
  match List.find_opt (fun (n, _, _) -> n = name) layers with
  | Some (_, unit_, reduce) -> Common.add run.Common.layers name ~unit_ ~reduce v
  | None -> invalid_arg ("Catalog.add_layer: unknown metric " ^ name)

let add_view (run : Common.run) name v =
  match List.find_opt (fun (n, _, _) -> n = name) views with
  | Some (_, unit_, reduce) -> Common.add run.Common.row name ~unit_ ~reduce v
  | None -> invalid_arg ("Catalog.add_view: unknown metric " ^ name)

(* The contract's end-to-end metrics, each defined per workload in
   perfbench/README.md, but for set-up time, which perfbench/run.py
   measures in fresh processes.  Throughput is one sample per run, all operations
   over all their time, and latency is reduced by its mean: on a host whose
   speed swings by half for seconds at a time, a median of per-operation
   figures jumps between the two speeds, while these move with the share of
   the run spent in each. *)
let add_e2e (run : Common.run) name v =
  let unit_, reduce =
    match name with
    | "peak_rss_mb" -> ("MB", "last")
    | "ops_per_s" -> ("1/s", "last")
    | "op_mean_ms" -> ("ms", "mean")
    | "op_tail_ms" -> ("ms", "tail")
    | _ -> invalid_arg ("Catalog.add_e2e: unknown metric " ^ name)
  in
  Common.add run.Common.e2e name ~unit_ ~reduce v
