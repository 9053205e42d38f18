(* Workload coverage-find: time to find a planted compiler bug.

   A sweep over master seeds drawn from the workload seed.  For each, a
   coverage-guided RMT campaign runs with the sabotaged optimizer pass
   planted ([--sabotage-pass]), a fresh corpus directory, 20 PHVs per
   trial (the CI sabotage-gate configuration) and a breaker at the first
   failure, so [Campaign.run] returns at the first finding, shrunk.  One
   operation is one seed; it fails if nothing is found within the trial
   budget.  This is the only workload that runs coverage replay, corpus
   mutation and corpus saves, and it puts shrinking on the critical path. *)

module Prng = Druzhba_util.Prng
module Ir = Druzhba_pipeline.Ir
module Dgen = Druzhba_pipeline.Dgen
module Atoms = Druzhba_atoms.Atoms
module Fuzz = Druzhba_fuzz.Fuzz
module Traffic = Druzhba_dsim.Traffic
module Campaign = Druzhba_campaign.Campaign
module Coverage = Druzhba_campaign.Coverage
module Corpus = Druzhba_campaign.Corpus
module Runner = Druzhba_campaign.Runner

open Common

let jobs = 1
let phvs = 20
let budget = 2000

(* Seeds after which peak memory is read: the peak is the largest campaign
   seen so far, so it settles only after many seeds. *)
let rss_seeds = 64

let config ~master_seed ~corpus_dir =
  Campaign.config ~trials:budget ~jobs ~master_seed ~substrate:"rmt" ~phvs ~coverage:true
    ~corpus_dir ~sabotage_pass:true ~max_failures:1 ~checkpoint_every:16 ()

let setup () = Runner.force_atoms ()

(* The finding: the breaker's trial, divergent, with its shrunk
   counterexample in the report. *)
let finding (report : Campaign.report) =
  match report.Campaign.r_stopped_after with
  | None -> None
  | Some i -> (
    match List.nth_opt report.Campaign.r_trials i with
    | Some ({ Campaign.t_outcome = Campaign.Finished (Druzhba_campaign.Oracle.Divergence _); _ } as t)
      ->
      Some t
    | _ -> None)

(* Trials actually executed: the breaker cuts at a block boundary. *)
let executed (cfg : Campaign.config) index =
  let every = cfg.Campaign.c_checkpoint_every in
  min cfg.Campaign.c_trials ((index / every + 1) * every)

(* Regenerates trial [index]'s program the way [Campaign.run_trial] draws
   it in coverage mode: the mutate-or-fresh decision against the block
   snapshot first, on the trial's own PRNG.  Returns whether a mutation was
   attempted and missed, and the (shape, desc, mc, inputs) the trial ran. *)
let regenerate ~(cfg : Campaign.config) ~snapshot index =
  let prng = Prng.create (Prng.derive cfg.Campaign.c_master_seed index) in
  let mine = List.filter Corpus.is_rmt (Array.to_list snapshot) |> Array.of_list in
  let describe ~depth ~width ~bits ~stateful ~stateless =
    Dgen.generate
      (Dgen.config ~depth ~width ~bits ())
      ~stateful:(Atoms.find_exn stateful) ~stateless:(Atoms.find_exn stateless)
  in
  let mutated, attempted =
    if Array.length mine = 0 || Prng.int prng 4 >= 3 then (None, false)
    else
      let parent = mine.(Prng.int prng (Array.length mine)) in
      match parent.Corpus.e_material with
      | Corpus.Rmt_material { depth; width; bits; stateful; stateless; mc } -> (
        let desc = describe ~depth ~width ~bits ~stateful ~stateless in
        match Corpus.mutate_rmt prng ~domains:(Ir.control_domains desc) ~bits mc with
        | None -> (None, true)
        | Some (_, mc') -> (Some ((depth, width, bits, stateful, stateless), mc'), true))
      | Corpus.Drmt_material _ -> (None, true)
  in
  let (depth, width, bits, stateful, stateless), mc_override =
    match mutated with
    | Some (params, mc) -> (params, Some mc)
    | None -> (
      match Campaign.draw_params Campaign.Rmt prng with
      | Campaign.Rmt_params { depth; width; bits; stateful; stateless } ->
        ((depth, width, bits, stateful, stateless), None)
      | _ -> invalid_arg "Coverage_wl.regenerate: RMT draw expected")
  in
  let desc = describe ~depth ~width ~bits ~stateful ~stateless in
  let mc = match mc_override with Some mc -> mc | None -> Fuzz.random_mc prng desc in
  let inputs = Traffic.phvs (Traffic.create ~seed:(Prng.bits prng 30) ~width ~bits) cfg.Campaign.c_phvs in
  let shape = Coverage.rmt_shape ~depth ~width ~bits ~stateful ~stateless in
  (attempted && mutated = None, shape, desc, mc, inputs)

let read_tree dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))

let same_tree a b = read_tree a = read_tree b

(* The traced pass over one seed: the campaign's block loop re-run trial by
   trial through [Campaign.run_trial] (jobs 1), with the coverage replay,
   the corpus save and the shrink of the finding timed on their own. *)
let traced run ~work ~(cfg : Campaign.config) ~(report : Campaign.report) ~untraced_corpus =
  let acc = Hashtbl.create 16 in
  let stop = Option.value report.Campaign.r_stopped_after ~default:(budget - 1) in
  let expected = Array.of_list report.Campaign.r_trials in
  let corpus = Corpus.create () and coverage = ref Coverage.empty and snapshot = ref [||] in
  let novel = ref 0 and mutated = ref 0 and attempts = ref 0 and misses = ref 0 in
  let mismatches = ref 0 and replayed = ref 0 and coverage_differs = ref 0 in
  let base = ref 0 in
  while !base <= stop do
    let hi = min budget (!base + cfg.Campaign.c_checkpoint_every) in
    let block =
      List.init (hi - !base) (fun k ->
          let index = !base + k in
          let missed, shape, desc, mc, inputs = regenerate ~cfg ~snapshot:!snapshot index in
          if missed then incr misses;
          let replayed_coverage =
            Replay.timed_into acc "coverage.replay" (fun () ->
                Coverage.of_rmt_trial ~shape ~desc ~mc ~inputs ())
          in
          let ((t : Campaign.trial), extra), wall =
            timed (fun () -> Campaign.run_trial ~snapshot:!snapshot ~cfg index)
          in
          Catalog.add_layer run "campaign.rmt.trial_p50_ms" (ms wall);
          Catalog.add_layer run "campaign.rmt.trial_tail_ms" (ms wall);
          incr replayed;
          (match t.Campaign.t_origin with
          | Some (Corpus.Mutated _) ->
            incr mutated;
            incr attempts
          | _ -> if missed then incr attempts);
          (match extra with
          | Some x when not (Coverage.equal x.Campaign.x_coverage replayed_coverage) ->
            incr coverage_differs
          | _ -> ());
          if index <= stop then
            if
              Replay.outcome_json t.Campaign.t_outcome
              <> Replay.outcome_json expected.(index).Campaign.t_outcome
            then incr mismatches;
          (* shrink cost: the finding trial again, without shrinking *)
          (match t.Campaign.t_shrunk with
          | Some s when index = stop ->
            let no_shrink = { cfg with Campaign.c_shrink = false } in
            let _, unshrunk =
              timed (fun () -> Campaign.run_trial ~snapshot:!snapshot ~cfg:no_shrink index)
            in
            Catalog.add_layer run "shrink.ms_per_find" (ms (wall -. unshrunk));
            Catalog.add_layer run "shrink.probes_per_find"
              (float_of_int s.Druzhba_campaign.Shrink.sh_probes)
          | _ -> ());
          (t, extra))
    in
    List.iter
      (fun ((t : Campaign.trial), extra) ->
        match extra with
        | None -> ()
        | Some x ->
          let nvl = Coverage.novel ~existing:!coverage x.Campaign.x_coverage in
          if nvl > 0 then begin
            incr novel;
            ignore
              (Corpus.add corpus ~trial:t.Campaign.t_index
                 ~origin:(Option.value t.Campaign.t_origin ~default:Corpus.Fresh)
                 ~material:x.Campaign.x_material ~novel:nvl)
          end;
          coverage := Coverage.union !coverage x.Campaign.x_coverage)
      block;
    snapshot := Corpus.snapshot corpus;
    base := hi
  done;
  check run "traced outcomes equal untraced" (!mismatches = 0)
    (Printf.sprintf "%d of %d trials differ" !mismatches (stop + 1));
  check run "regenerated programs reach the campaign's coverage" (!coverage_differs = 0)
    (Printf.sprintf "%d trials differ" !coverage_differs);
  (* the corpus save, timed on its own; its bytes must match the save the
     untraced campaign made *)
  let dir = fresh_dir ~work "corpus-traced" in
  let entries, fresh, mutated_entries = Corpus.stats corpus in
  let summary =
    Campaign.coverage_summary
      { Campaign.cv_coverage = !coverage; cv_novel_trials = !novel; cv_corpus_entries = entries;
        cv_corpus_fresh = fresh; cv_corpus_mutated = mutated_entries }
  in
  let (), save_s =
    timed (fun () ->
        Corpus.save dir ~master_seed:cfg.Campaign.c_master_seed ~coverage:!coverage ~summary corpus)
  in
  Catalog.add_layer run "corpus.save_ms" (ms save_s);
  check run "traced corpus equals untraced corpus" (same_tree dir untraced_corpus)
    "corpus directories differ";
  let n = float_of_int (max 1 !replayed) in
  Catalog.add_layer run "coverage.replay_ms_per_trial" (ms (get acc "coverage.replay") /. n);
  Catalog.add_layer run "coverage.novel_share" (float_of_int !novel /. n);
  Catalog.add_layer run "corpus.mutated_share" (float_of_int !mutated /. n);
  Catalog.add_layer run "corpus.mutation_miss_share"
    (if !attempts > 0 then float_of_int !misses /. float_of_int !attempts else 0.)

let run run ~seed ~seconds ~trace ~work =
  setup ();
  let deadline = now () +. seconds in
  let first = ref None and k = ref 0 and trials = ref 0 and total = ref 0. in
  while !k = 0 || now () < deadline do
    let master_seed = Prng.derive seed !k in
    let corpus_dir = fresh_dir ~work (Printf.sprintf "corpus-%d" !k) in
    let cfg = config ~master_seed ~corpus_dir in
    let report, wall = timed (fun () -> Campaign.run cfg) in
    (match finding report with
    | Some t ->
      op run ~ok:true;
      let index = t.Campaign.t_index in
      check run
        (Printf.sprintf "seed %d: shrunk counterexample in report" master_seed)
        (match t.Campaign.t_shrunk with Some s -> s.Druzhba_campaign.Shrink.sh_inputs <> [] | None -> false)
        (Printf.sprintf "finding at trial %d" index);
      trials := !trials + executed cfg index;
      total := !total +. wall;
      Catalog.add_e2e run "op_mean_ms" (ms wall);
      Catalog.add_e2e run "op_tail_ms" (ms wall);
      Catalog.add_view run "time_to_find_p50_s" wall;
      Catalog.add_view run "time_to_find_tail_s" wall;
      Catalog.add_view run "trials_to_find_p50" (float_of_int (index + 1));
      Catalog.add_view run "trials_per_s" (float_of_int (executed cfg index) /. wall)
    | None ->
      op run ~ok:false;
      check run (Printf.sprintf "seed %d: bug found" master_seed) false
        (Printf.sprintf "nothing found in %d trials" budget));
    if Option.is_none !first then first := Some (cfg, report, corpus_dir) else remove_tree corpus_dir;
    incr k;
    if !k = rss_seeds then Catalog.add_e2e run "peak_rss_mb" (peak_rss_mb ())
  done;
  if !k < rss_seeds then Catalog.add_e2e run "peak_rss_mb" (peak_rss_mb ());
  if !total > 0. then Catalog.add_e2e run "ops_per_s" (float_of_int !trials /. !total);
  if trace then begin
    Catalog.declare_layers run;
    let cfg, report, corpus_dir = Option.get !first in
    traced run ~work ~cfg ~report ~untraced_corpus:corpus_dir
  end
