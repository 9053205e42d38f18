(* Workloads campaign-mixed and campaign-native: repeated [Campaign.run]
   calls of a fixed trial count, 80 PHVs per trial.

   - campaign-mixed: substrate "all" (RMT and dRMT trials alternate),
     uniform-random generation.  Stresses per-trial set-up (dgen,
     optimizer, closure compile, vectorise) and the six-configuration
     differential run; bypasses native, coverage, corpus, shrink, service.
     Jobs 1: on a shared two-vCPU host, jobs-2 wall time of identical
     calls swings by 2x (both domains must be scheduled together for every
     minor collection), while jobs 1 repeats within a few per cent.
   - campaign-native: substrate "native".  Every call starts from an empty
     native cache and a cleared plugin memo, so each trial pays
     emit -> ocamlopt -> Dynlink, as a real campaign drawing fresh programs
     does.  Dominated by that layer and by its global lock, which jobs 2
     exposes (most of the time is spent in ocamlopt child processes, so
     this workload stays steady at jobs 2).

   One operation is one trial; one sample is one [Campaign.run] call. *)

module Prng = Druzhba_util.Prng
module Campaign = Druzhba_campaign.Campaign
module Runner = Druzhba_campaign.Runner
module Native_substrate = Druzhba_dsim.Native_substrate

open Common

let phvs = 80

type kind = Mixed | Native

let jobs = function Mixed -> 1 | Native -> 2

let substrate = function Mixed -> "all" | Native -> "native"

(* Trials per [Campaign.run] call: enough that one call takes ~0.2 s. *)
let chunk = function Mixed -> 96 | Native -> 8

(* Calls after which peak memory is read. *)
let rss_calls = 4

let config kind ~master_seed =
  Campaign.config ~trials:(chunk kind) ~jobs:(jobs kind) ~master_seed ~substrate:(substrate kind) ~phvs ()

(* Points the native build cache at a new empty directory and forgets the
   plugins loaded so far, so the next call compiles every program. *)
let cold_cache ~work name =
  Unix.putenv "DRUZHBA_NATIVE_CACHE_DIR" (fresh_dir ~work name);
  Native_substrate.clear_memo ()

let setup kind =
  Runner.force_atoms ();
  match kind with
  | Mixed -> ()
  | Native -> ( match Native_substrate.probe () with Ok _ -> () | Error e -> failwith e)

(* The traced pass over the first call's trials, replayed one by one on
   this domain; see {!Replay}. *)
let traced run kind ~work ~(cfg : Campaign.config) ~(report : Campaign.report) ~untraced_wall
    ~reference_wall =
  let acc = Hashtbl.create 32 in
  if kind = Native then cold_cache ~work "native-traced";
  let tc = match Native_substrate.probe () with Ok tc -> Some tc | Error _ -> None in
  let counts = Hashtbl.create 4 in
  let mismatches = ref 0 and busy = ref 0. in
  let (), replay_wall =
    timed (fun () ->
        List.iter
          (fun (t : Campaign.trial) ->
            let index = t.Campaign.t_index in
            let fam, outcome, wall =
              try Replay.trial acc ~tc ~cfg index
              with e -> ("rmt", "exception: " ^ Printexc.to_string e, 0.)
            in
            busy := !busy +. wall;
            bump counts fam 1.;
            Catalog.add_layer run (Printf.sprintf "campaign.%s.trial_p50_ms" fam) (ms wall);
            Catalog.add_layer run (Printf.sprintf "campaign.%s.trial_tail_ms" fam) (ms wall);
            if outcome <> Replay.outcome_json t.Campaign.t_outcome then incr mismatches)
          report.Campaign.r_trials)
  in
  check run "traced outcomes equal untraced" (!mismatches = 0)
    (Printf.sprintf "%d of %d trials differ" !mismatches (List.length report.Campaign.r_trials));
  let n_all = float_of_int (List.length report.Campaign.r_trials) in
  let n_prog = get counts "rmt" +. get counts "native" in
  let n_native = get counts "native" and n_drmt = get counts "drmt" in
  let per n key = if n > 0. then ms (get acc key) /. n else 0. in
  let ns_per_phv layer =
    let phvs = get acc (layer ^ ".phvs") in
    if phvs > 0. then get acc (layer ^ ".s") *. 1e9 /. phvs else 0.
  in
  let layer = Catalog.add_layer run in
  layer "dgen.ms_per_trial" (per n_prog "dgen");
  layer "fuzz.random_mc_ms_per_trial" (per n_prog "random_mc");
  layer "machine_code.validate_ms_per_trial" (per n_prog "validate");
  layer "optimizer.ms_per_trial" (per n_prog "optimizer");
  layer "optimizer.ir_nodes"
    (let runs = get acc "optimizer.runs" in
     if runs > 0. then get acc "ir_nodes" /. runs else 0.);
  layer "compile.ms_per_trial" (per n_prog "compile");
  layer "vcompile.ms_per_trial" (per n_prog "vcompile");
  layer "engine.build_ms_per_trial" (per n_prog "engine.build");
  layer "engine.ns_per_phv" (ns_per_phv "engine");
  layer "compiled.ns_per_phv" (ns_per_phv "compiled");
  layer "oracle.diff_ms_per_trial" (per n_all "oracle.diff");
  layer "drmt.schedule_ms_per_trial" (per n_drmt "drmt.schedule");
  layer "drmt_substrate.event_ns_per_phv" (ns_per_phv "drmt_event");
  layer "drmt_substrate.sequential_ns_per_phv" (ns_per_phv "drmt_sequential");
  layer "emit.ms_per_trial" (per n_native "emit");
  layer "emit.source_kb" (if n_native > 0. then get acc "emit.bytes" /. 1024. /. n_native else 0.);
  layer "native_substrate.ocamlopt_ms_per_trial" (per n_native "ocamlopt");
  layer "native_substrate.dynlink_ms_per_trial" (per n_native "dynlink");
  layer "native_substrate.ns_per_phv" (ns_per_phv "native");
  (* the share of the pool's capacity the trials' own work fills: below 1
     when trials wait (for the native lock, or at block boundaries) *)
  layer "runner.busy_share" (!busy /. (untraced_wall *. float_of_int (jobs kind)));
  (* tracing cost: the replay (jobs 1) against an untraced jobs-1 run of
     the same size *)
  let jobs1_wall = if jobs kind = 1 then untraced_wall else reference_wall in
  layer "trace.overhead_ratio" (replay_wall /. jobs1_wall)

let run run kind ~seed ~seconds ~trace ~work =
  let cfg_of k = config kind ~master_seed:(Prng.derive seed k) in
  setup kind;
  let rss0 = proc_status_kb "VmRSS" in
  let deadline = now () +. seconds in
  let first = ref None and k = ref 0 and trials = ref 0 and walls = ref [] and total = ref 0. in
  let stats0 = Native_substrate.stats () in
  while !k = 0 || now () < deadline do
    let cfg = cfg_of !k in
    if kind = Native then cold_cache ~work (Printf.sprintf "native-%d" !k);
    let before = Native_substrate.stats () in
    let report, wall = timed (fun () -> Campaign.run cfg) in
    walls := wall :: !walls;
    total := !total +. wall;
    let n = List.length report.Campaign.r_trials in
    trials := !trials + n;
    List.iter (fun t -> op run ~ok:(not (Campaign.trial_failed t))) report.Campaign.r_trials;
    if kind = Native then begin
      (* cold: nothing comes from the on-disk cache, and every trial either
         compiles its program or reuses one compiled earlier in this call
         (two trials of a call can draw the same program) *)
      let after = Native_substrate.stats () in
      let delta f = f after - f before in
      let compiles = delta (fun s -> s.Native_substrate.st_compiles)
      and memo_hits = delta (fun s -> s.Native_substrate.st_memo_hits)
      and cache_hits = delta (fun s -> s.Native_substrate.st_cache_hits) in
      if cache_hits <> 0 || compiles + memo_hits <> n then
        check run (Printf.sprintf "cold cache, call %d" !k) false
          (Printf.sprintf "%d compiles, %d memo hits, %d cache hits for %d trials" compiles
             memo_hits cache_hits n);
      remove_tree (Filename.concat work (Printf.sprintf "native-%d" !k))
    end;
    Catalog.add_e2e run "op_mean_ms" (ms wall);
    Catalog.add_e2e run "op_tail_ms" (ms wall);
    Catalog.add_view run "trials_per_s" (float_of_int n /. wall);
    if Option.is_none !first then first := Some (cfg, report);
    incr k;
    if !k = rss_calls then Catalog.add_e2e run "peak_rss_mb" (peak_rss_mb ())
  done;
  if !k < rss_calls then Catalog.add_e2e run "peak_rss_mb" (peak_rss_mb ());
  Catalog.add_e2e run "ops_per_s" (float_of_int !trials /. !total);
  let stats1 = Native_substrate.stats () and rss1 = proc_status_kb "VmRSS" in
  let cfg, report = Option.get !first in
  (* the first call is the cold one; the busy share compares the replay
     with a typical call of the same size *)
  let untraced_wall = Common.median !walls in
  (* output check: the report is byte-identical at the other job count *)
  if kind = Native then cold_cache ~work "native-reference";
  let reference, reference_wall =
    timed (fun () -> Campaign.run { cfg with Campaign.c_jobs = 3 - jobs kind })
  in
  check run "report equals the other job count's"
    (Campaign.to_json report = Campaign.to_json reference)
    (Printf.sprintf "master seed %d" cfg.Campaign.c_master_seed);
  if kind = Native then
    check run "native toolchain used" (report.Campaign.r_notes = []) (String.concat "; " report.Campaign.r_notes);
  if trace then begin
    Catalog.declare_layers run;
    let layer = Catalog.add_layer run in
    layer "native_substrate.compiles"
      (float_of_int (stats1.Native_substrate.st_compiles - stats0.Native_substrate.st_compiles));
    layer "native_substrate.cache_hits"
      (float_of_int (stats1.Native_substrate.st_cache_hits - stats0.Native_substrate.st_cache_hits));
    layer "native_substrate.memo_hits"
      (float_of_int (stats1.Native_substrate.st_memo_hits - stats0.Native_substrate.st_memo_hits));
    if kind = Native then
      layer "native_substrate.rss_kb_per_trial"
        ((rss1 -. rss0) /. float_of_int (max 1 !trials));
    traced run kind ~work ~cfg ~report ~untraced_wall ~reference_wall
  end
