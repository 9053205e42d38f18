(* Multicore differential fuzz campaigns (paper §5.2 at campaign scale).

   A campaign is N independent trials sharded over OCaml 5 domains.  Each
   trial is keyed by a seed derived from (master seed, trial index) with
   {!Prng.derive}, so the campaign's results — and its JSON report — are
   bit-identical regardless of [--jobs]; parallelism only buys wall-clock.

   One trial runs a differential check over a substrate family:

   - {b RMT}: draw a random small pipeline (dimensions and ALU atoms from
     the trial seed), draw random well-formed machine code for it, and run
     the cross-backend oracle ({!Oracle.check}): interpreter vs
     closure-compiled execution at all three optimization levels.
   - {b dRMT}: draw a random table-chain P4 program, random table entries
     and a random processor count, and judge the event-driven dRMT model
     against the sequential P4 reference semantics
     ({!Oracle.diff_substrates} over {!Oracle.drmt_substrates}).  Generated
     register updates are commutative and never feed back into matches or
     field writes, so full trace+state equality is a sound oracle even
     when packets overlap in the event-driven schedule.

   [substrate] selects the family: [`Rmt], [`Drmt], or [`All] (trials
   alternate by index, so a fixed master seed exercises both sides
   deterministically).  Any divergence is minimized by {!Shrink} before it
   is reported, so the report carries the smallest PHV trace (and, for RMT,
   the essential machine-code pairs) that reproduces the bug.

   Robustness layer (this file's second job): a campaign must *finish* even
   when individual trials misbehave.

   - {b crash containment}: an exception escaping a trial becomes a
     structured [Crashed] outcome carrying the exception text, a bounded
     backtrace, and the trial seed — never a dead worker or a lost report.
   - {b watchdog}: an optional per-trial tick budget ({!Druzhba_dsim.Budget})
     turns runaway simulations into [Timed_out] outcomes.  Fuel is
     deterministic where a wall clock is not, so timeouts reproduce and the
     report stays byte-identical across job counts.
   - {b circuit breaker}: [max_failures] stops the campaign at the Nth
     failing trial (by index, independent of scheduling) with a partial but
     complete-as-far-as-it-went report.
   - {b checkpoint/resume}: trials run in fixed-size blocks; after each
     block the campaign can persist a {!Checkpoint} and a killed run can
     [resume] from it, reconstructing the uneventful prefix from seeds and
     producing a byte-identical final report.
   - {b fault injection}: with [faults] enabled, every agreeing trial is
     additionally stressed under seeded hardware-fault overlays
     ({!Druzhba_dsim.Faults}); the two substrates must agree *under* faults
     and a fault-free replay must match the pristine reference. *)

module Prng = Druzhba_util.Prng
module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Dgen = Druzhba_pipeline.Dgen
module Compile = Druzhba_pipeline.Compile
module Optimizer = Druzhba_optimizer.Optimizer
module Atoms = Druzhba_atoms.Atoms
module Traffic = Druzhba_dsim.Traffic
module Phv = Druzhba_dsim.Phv
module Trace = Druzhba_dsim.Trace
module Engine = Druzhba_dsim.Engine
module Compiled = Druzhba_dsim.Compiled
module Budget = Druzhba_dsim.Budget
module Faults = Druzhba_dsim.Faults
module Substrate = Druzhba_dsim.Substrate
module Drmt_substrate = Druzhba_dsim.Drmt_substrate
module P4 = Druzhba_drmt.P4
module Scheduler = Druzhba_drmt.Scheduler
module Entries = Druzhba_drmt.Entries
module Fuzz = Druzhba_fuzz.Fuzz

(* The atom pools a trial draws from.  Every stateful atom of the library
   is fair game; the stateless side always includes the full ALU since it
   is the only one the rule-based compiler targets, plus the small ones. *)
let stateful_pool = [| "raw"; "sub"; "pred_raw"; "if_else_raw"; "nested_ifs"; "pair" |]
let stateless_pool = [| "stateless_full"; "stateless_arith"; "stateless_rel"; "stateless_mux" |]

(* Which substrate family a trial exercises. *)
type family = Rmt | Drmt | Native

(* The substrate registry: every selector name the CLI and the service
   accept, mapped to the family rotation its trials draw from.  A
   multi-member selection alternates members by trial index — deterministic
   in the index alone, so resume and any [--jobs] count see the same
   split.  Adding a backend family is one row here (plus its trial body);
   the CLI, the service protocol, checkpoint signatures, and report
   provenance all read this table. *)
let registry : (string * family list) list =
  [ ("rmt", [ Rmt ]); ("drmt", [ Drmt ]); ("all", [ Rmt; Drmt ]); ("native", [ Native ]) ]

let substrate_names = List.map fst registry
let families_of_name name = List.assoc_opt name registry

(* Number of configurations each family's oracle compares. *)
let family_configs = function Rmt -> 6 | Drmt -> 2 | Native -> 3

type fault_config = {
  fc_runs : int; (* fault scenarios per agreeing trial *)
  fc_per_run : int; (* faults drawn per scenario *)
}

let fault_config ?(runs = 8) ?(per_run = 2) () =
  if runs <= 0 then invalid_arg "Campaign.fault_config: runs must be positive";
  if per_run <= 0 then invalid_arg "Campaign.fault_config: per_run must be positive";
  { fc_runs = runs; fc_per_run = per_run }

type config = {
  c_trials : int;
  c_jobs : int;
  c_master_seed : int;
  c_substrate : string; (* substrate-registry name: which families trials exercise *)
  c_phvs : int; (* PHVs simulated per trial *)
  c_batch : int;
      (* always 64 and read by nothing here: perfbench's replay still passes
         it to {!Substrate.run_batch_into}, which ignores it; delete both with
         the next change to the benchmark *)
  c_shrink : bool; (* minimize failing trials *)
  c_max_probes : int; (* shrink budget, in oracle re-runs *)
  c_fuel : int option; (* per-trial tick budget (watchdog); None = unlimited *)
  c_max_failures : int option; (* circuit breaker; None = run to completion *)
  c_faults : fault_config option; (* fault-injection mode *)
  c_checkpoint_every : int; (* block size: trials between checkpoints *)
  c_coverage : bool; (* coverage-guided mode: track coverage, evolve a corpus *)
  c_corpus_dir : string option; (* where to persist the corpus (coverage mode) *)
  c_sabotage_pass : bool;
      (* plant {!Sabotage}'s buggy optimizer pass in every RMT trial's
         oracle: the acceptance gate for coverage-guided mode (the trigger
         is provably unreachable by uniform-random machine code) *)
  c_hook : (int -> unit) option; (* test-only: runs at trial start (chaos injection) *)
  c_sabotage : (int -> bool) option;
      (* test-only: dRMT trials for which this answers true run the
         event-driven candidate with semantically mutated table entries, so
         the oracle MUST report a divergence (end-to-end proof that an
         injected bug is caught with a replayable seed) *)
}

let config ?(trials = 100) ?(jobs = 1) ?(master_seed = 0xD52ba) ?(substrate = "rmt")
    ?(phvs = 100) ?(shrink = true) ?(max_probes = 400) ?fuel ?max_failures ?faults
    ?(checkpoint_every = 64) ?(coverage = false) ?corpus_dir ?(sabotage_pass = false) ?hook
    ?sabotage () =
  if trials <= 0 then invalid_arg "Campaign.config: trials must be positive";
  if phvs <= 0 then invalid_arg "Campaign.config: phvs must be positive";
  if max_probes <= 0 then invalid_arg "Campaign.config: max_probes must be positive";
  (match fuel with
  | Some f when f <= 0 -> invalid_arg "Campaign.config: fuel must be positive"
  | _ -> ());
  (match max_failures with
  | Some m when m <= 0 -> invalid_arg "Campaign.config: max_failures must be positive"
  | _ -> ());
  if families_of_name substrate = None then
    invalid_arg
      (Printf.sprintf "Campaign.config: unknown substrate %S (expected one of %s)" substrate
         (String.concat ", " substrate_names));
  if checkpoint_every <= 0 then invalid_arg "Campaign.config: checkpoint_every must be positive";
  if corpus_dir <> None && not coverage then
    invalid_arg "Campaign.config: corpus_dir requires coverage mode";
  { c_trials = trials; c_jobs = jobs; c_master_seed = master_seed; c_substrate = substrate;
    c_phvs = phvs; c_batch = 64; c_shrink = shrink; c_max_probes = max_probes; c_fuel = fuel;
    c_max_failures = max_failures; c_faults = faults; c_checkpoint_every = checkpoint_every;
    c_coverage = coverage; c_corpus_dir = corpus_dir; c_sabotage_pass = sabotage_pass;
    c_hook = hook; c_sabotage = sabotage }

(* Trials rotate through the selection's families by index — deterministic
   in the index alone, so resume and any job count see the same split
   (under "all", even indices are RMT and odd are dRMT, as before the
   registry existed). *)
let family_of ~(cfg : config) index =
  match families_of_name cfg.c_substrate with
  | Some members -> List.nth members (index mod List.length members)
  | None -> invalid_arg (Printf.sprintf "Campaign.family_of: unknown substrate %S" cfg.c_substrate)

(* Fault-mode verdict for one trial: how sensitive the program is to
   injected faults, whether the substrates stayed in lock-step under them,
   and whether a fault-free replay still matches the pristine reference
   (i.e. the overlay leaked nothing into the no-fault path). *)
type fault_stats = {
  fs_runs : int;
  fs_sensitive : int; (* scenarios whose output departed from the fault-free reference *)
  fs_substrate_mismatch : int; (* scenarios where Engine and Compiled disagreed under faults *)
  fs_replay_ok : bool; (* fault-free replay after the fault runs equals the reference *)
}

type outcome =
  | Finished of Oracle.outcome
  | Crashed of { cr_exn : string; cr_backtrace : string }
  | Timed_out of { to_fuel : int (* the budget that was exhausted *) }

(* The drawn shape of one trial, per family.  Both variants are fully
   determined by the trial seed, so a checkpoint only needs the seed to
   reconstruct them. *)
type params =
  | Rmt_params of { depth : int; width : int; bits : int; stateful : string; stateless : string }
  | Drmt_params of { tables : int; processors : int; entries : int }
  | Native_params of {
      depth : int;
      width : int;
      bits : int;
      stateful : string;
      stateless : string;
    } (* same draw shape as RMT; the trial runs the native-codegen oracle *)

type trial = {
  t_index : int;
  t_seed : int; (* derived; reproduces the trial on its own *)
  t_params : params;
  t_origin : Corpus.origin option; (* coverage mode: how this trial's program arose *)
  t_outcome : outcome;
  t_shrunk : Shrink.result option; (* present iff the trial diverged and shrinking ran *)
  t_faults : fault_stats option; (* present iff fault mode ran on this trial *)
  t_native_fallback : bool;
      (* a native build failed, so the closures stood in for the emitted
         module; never in the report's trial records, only counted in its
         notes (and persisted in checkpoints) *)
}

(* What a coverage-mode trial hands back to the block loop besides its
   trial record: the coverage it reached and the material the corpus would
   store if that coverage turns out to be novel.  Novelty itself is judged
   at the block boundary, in index order, against the merged global map —
   never inside the (parallel) trial. *)
type trial_extra = { x_coverage : Coverage.t; x_material : Corpus.material }

(* Coverage-mode accounting surfaced in the report (and rendered as the
   druzhba-coverage/1 section of the JSON). *)
type coverage_stats = {
  cv_coverage : Coverage.t;
  cv_novel_trials : int;
  cv_corpus_entries : int;
  cv_corpus_fresh : int;
  cv_corpus_mutated : int;
}

type report = {
  r_config : config;
  r_trials : trial list; (* in index order; trimmed at the breaker's cutoff *)
  r_coverage : coverage_stats option; (* present iff coverage mode ran *)
  r_notes : string list;
      (* structured campaign-level degradation notes (e.g. the native
         toolchain being unavailable), deterministic in the configuration
         and environment — never per-trial, never timing-dependent *)
  r_agree : int;
  r_divergent : int;
  r_invalid : int;
  r_crashed : int;
  r_timeout : int;
  r_fault_flagged : int; (* trials with substrate mismatch or replay corruption *)
  r_stopped_after : int option; (* Some i: the breaker fired at trial i *)
}

(* A trial counts against the circuit breaker when it found anything that
   needs a human: a divergence, invalid machine code from the generator, a
   crash, a timeout, or a fault-mode substrate mismatch / replay leak.
   Fault *sensitivity* alone is expected (faults are supposed to perturb
   outputs) and does not trip the breaker. *)
let fault_flagged = function
  | Some fs -> fs.fs_substrate_mismatch > 0 || not fs.fs_replay_ok
  | None -> false

let trial_failed (t : trial) =
  match t.t_outcome with
  | Finished (Oracle.Agree _) -> fault_flagged t.t_faults
  | Finished (Oracle.Divergence _ | Oracle.Invalid_mc _) | Crashed _ | Timed_out _ -> true

(* --- One trial ------------------------------------------------------------ *)

(* Fresh-trial parameter draws, shared between the uniform-random path and
   coverage mode's "sample fresh" arm (which has already consumed decision
   draws from the same PRNG). *)
let draw_params family prng =
  match family with
  | Rmt ->
    let depth = 1 + Prng.int prng 2 in
    let width = 1 + Prng.int prng 2 in
    let bits = [| 8; 16; 32 |].(Prng.int prng 3) in
    let stateful = stateful_pool.(Prng.int prng (Array.length stateful_pool)) in
    let stateless = stateless_pool.(Prng.int prng (Array.length stateless_pool)) in
    Rmt_params { depth; width; bits; stateful; stateless }
  | Drmt ->
    (* feasible by construction: tables <= 4 and the default per-processor
       crossbar capacities admit 4 matches/actions even at 1 processor *)
    let tables = 1 + Prng.int prng 4 in
    let processors = 1 + Prng.int prng 4 in
    let entries = Prng.int prng (4 * tables) in
    Drmt_params { tables; processors; entries }
  | Native ->
    (* identical draw sequence to RMT, so the same seed exercises the same
       program shape on either selector *)
    let depth = 1 + Prng.int prng 2 in
    let width = 1 + Prng.int prng 2 in
    let bits = [| 8; 16; 32 |].(Prng.int prng 3) in
    let stateful = stateful_pool.(Prng.int prng (Array.length stateful_pool)) in
    let stateless = stateless_pool.(Prng.int prng (Array.length stateless_pool)) in
    Native_params { depth; width; bits; stateful; stateless }

(* Trial parameters are the first draws from the trial PRNG — kept as a
   separate function because checkpoint resume re-derives them for trials
   whose full record was not persisted.  The returned PRNG continues the
   stream (the trial body draws programs and traffic seeds from it). *)
let trial_params family seed =
  let prng = Prng.create seed in
  (prng, draw_params family prng)

(* --- dRMT trial material -----------------------------------------------------

   A generated dRMT program is a dependency chain: table i keys exactly on
   8-bit field f_i and its action adds the matched argument into f_{i+1}
   (so entries steer later matches) and bumps a private per-table register.
   Register updates are commutative increments and registers are never read
   into matches or field writes — the one program shape for which full
   trace + final-state equality between the event-driven schedule and the
   sequential reference is a sound oracle even when packets overlap. *)

let drmt_program ~tables : P4.t =
  let field i = "f" ^ string_of_int i in
  let act i = "act" ^ string_of_int i in
  let tbl i = "t" ^ string_of_int i in
  let headers = [ { P4.h_name = "h"; h_fields = List.init (tables + 1) (fun i -> (field i, 8)) } ] in
  let actions =
    List.init tables (fun i ->
        {
          P4.a_name = act i;
          a_params = [ "v" ];
          a_body =
            [
              P4.Assign
                ( P4.Header ("h", field (i + 1)),
                  P4.Binop (P4.Add, P4.Ref (P4.Header ("h", field (i + 1))), P4.Param "v") );
              P4.Assign
                ( P4.Reg ("r" ^ string_of_int i),
                  P4.Binop (P4.Add, P4.Ref (P4.Reg ("r" ^ string_of_int i)), P4.Int 1) );
            ];
        })
  in
  let tables_l =
    List.init tables (fun i ->
        {
          P4.t_name = tbl i;
          t_key = P4.Header ("h", field i);
          t_match = P4.Exact;
          t_actions = [ act i ];
          t_default = (act i, [ 0 ]);
        })
  in
  { P4.headers; actions; tables = tables_l; control = List.init tables tbl }

let drmt_entries prng ~tables ~count =
  List.init count (fun _ ->
      let t = Prng.int prng tables in
      {
        Entries.en_table = "t" ^ string_of_int t;
        en_pattern = Entries.Pexact (Prng.int prng 256);
        en_action = "act" ^ string_of_int t;
        en_args = [ 1 + Prng.int prng 255 ];
      })

(* Semantic mutation for the acceptance test: bump every installed entry's
   argument and every table's default argument, so the mutated configuration
   computes different field values on every packet. *)
let sabotage_entries entries =
  List.map
    (fun (e : Entries.entry) ->
      { e with Entries.en_args = List.map (fun v -> v + 1) e.Entries.en_args })
    entries

let sabotage_program (p : P4.t) =
  {
    p with
    P4.tables =
      List.map
        (fun (t : P4.table) ->
          let name, args = t.P4.t_default in
          { t with P4.t_default = (name, List.map (fun v -> v + 1) args) })
        p.P4.tables;
  }

(* Backtraces are captured where the exception is *caught* (inside the
   trial), so they contain only frames below the handler — identical
   whichever domain ran the trial, which keeps crash records byte-stable
   across [--jobs]. *)
let backtrace_text () =
  match Printexc.get_backtrace () with "" -> "<backtrace not recorded>" | bt -> bt

(* Runs [fc_runs] seeded fault scenarios against an already-agreeing trial,
   on any substrate pair: the two substrates must agree *under* the same
   fault plan, departing from the fault-free reference is mere sensitivity,
   and a fault-free replay afterwards must match the pristine reference on
   both (the overlay must leave no residue).  [gen_plan k] builds the k-th
   scenario's plan — substrate-family-specific geometry lives in the
   caller.  Scenario seeds derive from the trial seed, so fault mode is as
   reproducible as the trial itself. *)
let run_faults ?budget ~(fc : fault_config)
    ~(pair : Substrate.packed * Substrate.packed) ~(gen_plan : int -> Faults.t) ~inputs () :
    fault_stats =
  (* every sub-run gets a full tank: the watchdog bounds each simulation,
     not their sum, so enabling faults never shifts timeout behaviour *)
  let refill () = match budget with Some b -> Budget.refill b | None -> () in
  let sub_a, sub_b = pair in
  let capacity = List.length inputs in
  let ref_buf = Trace.Buffer.create ~width:(Substrate.width sub_a) ~capacity in
  let a_buf = Trace.Buffer.create ~width:(Substrate.width sub_a) ~capacity in
  let b_buf = Trace.Buffer.create ~width:(Substrate.width sub_b) ~capacity in
  refill ();
  Substrate.run_into ?budget sub_a ~inputs ref_buf;
  let ref_state = Substrate.current_state sub_a in
  let sensitive = ref 0 and mismatch = ref 0 in
  for k = 1 to fc.fc_runs do
    let plan = gen_plan k in
    refill ();
    Substrate.run_into ?budget ~faults:plan sub_a ~inputs a_buf;
    let a_state = Substrate.current_state sub_a in
    refill ();
    Substrate.run_into ?budget ~faults:plan sub_b ~inputs b_buf;
    let b_state = Substrate.current_state sub_b in
    (* the two substrates must agree *under* the same faults... *)
    if Oracle.diff_runs ~ref_buf:a_buf ~ref_state:a_state ~act_buf:b_buf ~act_state:b_state <> None
    then incr mismatch;
    (* ...while departing from the fault-free reference is mere sensitivity *)
    if Oracle.diff_runs ~ref_buf ~ref_state ~act_buf:a_buf ~act_state:a_state <> None then
      incr sensitive
  done;
  (* fault-free replay on the same substrates: the overlay must leave no residue *)
  refill ();
  Substrate.run_into ?budget sub_a ~inputs a_buf;
  let replay_a =
    Oracle.diff_runs ~ref_buf ~ref_state ~act_buf:a_buf
      ~act_state:(Substrate.current_state sub_a)
    = None
  in
  refill ();
  Substrate.run_into ?budget sub_b ~inputs b_buf;
  let replay_b =
    Oracle.diff_runs ~ref_buf ~ref_state ~act_buf:b_buf
      ~act_state:(Substrate.current_state sub_b)
    = None
  in
  {
    fs_runs = fc.fc_runs;
    fs_sensitive = !sensitive;
    fs_substrate_mismatch = !mismatch;
    fs_replay_ok = replay_a && replay_b;
  }

(* The RMT trial body: random pipeline + machine code, six-configuration
   oracle, machine-code-aware shrinking, per-stage fault geometry.

   [mc_override] (coverage mode) supplies a corpus mutant instead of a
   fresh random draw.  Under [c_sabotage_pass] the oracle runs with
   {!Sabotage.transform} planted on the post-optimizer candidates —
   rebuilt per shrink probe so the trigger tracks the neutralized code.
   In coverage mode the trial also replays its inputs on an instrumented
   reference engine and returns the structural coverage reached. *)
let run_rmt_trial ~(cfg : config) ~seed ~prng ?mc_override ~depth ~width ~bits ~stateful_name
    ~stateless_name () =
  let desc =
    Dgen.generate
      (Dgen.config ~depth ~width ~bits ())
      ~stateful:(Atoms.find_exn stateful_name) ~stateless:(Atoms.find_exn stateless_name)
  in
  let mc = match mc_override with Some mc -> mc | None -> Fuzz.random_mc prng desc in
  let traffic_seed = Prng.bits prng 30 in
  let inputs = Traffic.phvs (Traffic.create ~seed:traffic_seed ~width ~bits) cfg.c_phvs in
  let budget = Option.map Budget.ticks cfg.c_fuel in
  let transform_for mc = if cfg.c_sabotage_pass then Some (Sabotage.transform ~mc) else None in
  let outcome =
    Oracle.check ?budget ?transform:(transform_for mc) ~desc ~mc ~inputs ()
  in
  let shrunk =
    match outcome with
    | Oracle.Divergence _ when cfg.c_shrink ->
      let repro ~inputs ~mc =
        (* each probe gets the full budget; a probe that still exhausts
           it is treated as non-reproducing by the shrinker *)
        (match budget with Some b -> Budget.refill b | None -> ());
        match
          Oracle.check ?budget ?transform:(transform_for mc) ~desc ~mc ~inputs ()
        with
        | Oracle.Divergence _ -> true
        | Oracle.Agree _ | Oracle.Invalid_mc _ -> false
      in
      Some (Shrink.minimize ~max_probes:cfg.c_max_probes ~repro ~inputs ~mc ())
    | _ -> None
  in
  let faults =
    match (cfg.c_faults, outcome) with
    | Some fc, Oracle.Agree _ ->
      let pair =
        ( Substrate.of_engine ~label:"interpreter@unoptimized" desc ~mc,
          Substrate.of_compiled ~label:"closures@unoptimized" (Compile.compile desc ~mc) )
      in
      let gen_plan k =
        Faults.generate ~seed:(Prng.derive seed k) ~desc ~n_inputs:(List.length inputs)
          ~count:fc.fc_per_run ()
      in
      Some (run_faults ?budget ~fc ~pair ~gen_plan ~inputs ())
    | _ -> None
  in
  let extra =
    if not cfg.c_coverage then None
    else begin
      (* coverage replay runs on the pristine reference engine with its own
         full tank, like every other sub-run *)
      (match budget with Some b -> Budget.refill b | None -> ());
      let shape =
        Coverage.rmt_shape ~depth ~width ~bits ~stateful:stateful_name ~stateless:stateless_name
      in
      let x_coverage = Coverage.of_rmt_trial ?budget ~shape ~desc ~mc ~inputs () in
      let x_material =
        Corpus.Rmt_material
          { depth; width; bits; stateful = stateful_name; stateless = stateless_name; mc }
      in
      Some { x_coverage; x_material }
    end
  in
  (Finished outcome, shrunk, faults, extra)

(* The native trial body: the same random pipeline + machine code draw as
   RMT, but the oracle is the three-configuration native-codegen check —
   interpreter reference, closures at scc+inline, and the Dynlinked module
   emitted from the same description.  When the native toolchain is
   unavailable the trial degrades to {!Oracle.check_native_fallback}
   (closures standing in under the ["native-fallback@scc-inline"] label):
   same configuration count, same seeds, same classification space, so
   reports stay byte-deterministic and the degradation is reported once,
   in the campaign notes, not per trial.  A build that fails although the
   toolchain is available (a compiler error on one program) degrades the
   same way and sets [fallback], which the campaign notes count.

   Fault mode pairs the native artifact against the interpreter — the two
   most unlike substrates in the repo — under the shared stuck/flip/drop
   overlay protocol. *)
let run_native_trial ~(cfg : config) ~seed ~prng ~fallback ~depth ~width ~bits ~stateful_name
    ~stateless_name () =
  let desc =
    Dgen.generate
      (Dgen.config ~depth ~width ~bits ())
      ~stateful:(Atoms.find_exn stateful_name) ~stateless:(Atoms.find_exn stateless_name)
  in
  let mc = Fuzz.random_mc prng desc in
  let traffic_seed = Prng.bits prng 30 in
  let inputs = Traffic.phvs (Traffic.create ~seed:traffic_seed ~width ~bits) cfg.c_phvs in
  let budget = Option.map Budget.ticks cfg.c_fuel in
  let check ~inputs mc =
    match Oracle.check_native ?budget ~desc ~mc ~inputs () with
    | Ok outcome -> outcome
    | Error _unavailable ->
      fallback := true;
      Oracle.check_native_fallback ?budget ~desc ~mc ~inputs ()
  in
  let outcome = check ~inputs mc in
  let shrunk =
    match outcome with
    | Oracle.Divergence _ when cfg.c_shrink ->
      let repro ~inputs ~mc =
        (match budget with Some b -> Budget.refill b | None -> ());
        match check ~inputs mc with
        | Oracle.Divergence _ -> true
        | Oracle.Agree _ | Oracle.Invalid_mc _ -> false
      in
      Some (Shrink.minimize ~max_probes:cfg.c_max_probes ~repro ~inputs ~mc ())
    | _ -> None
  in
  let faults =
    match (cfg.c_faults, outcome) with
    | Some fc, Oracle.Agree _ ->
      let optimized = Optimizer.apply ~level:Oracle.native_level ~mc desc in
      let candidate =
        match
          Druzhba_dsim.Native_substrate.create ~label:"native@scc-inline" optimized ~mc
        with
        | Ok native -> native
        | Error _ ->
          fallback := true;
          Substrate.of_compiled ~label:"native-fallback@scc-inline" (Compile.compile optimized ~mc)
      in
      let pair = (Substrate.of_engine ~label:"interpreter@unoptimized" desc ~mc, candidate) in
      let gen_plan k =
        Faults.generate ~seed:(Prng.derive seed k) ~desc ~n_inputs:(List.length inputs)
          ~count:fc.fc_per_run ()
      in
      Some (run_faults ?budget ~fc ~pair ~gen_plan ~inputs ())
    | _ -> None
  in
  (Finished outcome, shrunk, faults, None)

(* The dRMT trial body: random chain program + entries, event-driven vs
   sequential oracle, input-only shrinking, input-path fault geometry.
   [entries_override] (coverage mode) installs a corpus mutant's entry list
   instead of a fresh random draw. *)
let run_drmt_trial ~(cfg : config) ~seed ~prng ~index ?entries_override ~tables ~processors
    ~n_entries () =
  let p = drmt_program ~tables in
  let entries =
    match entries_override with
    | Some entries -> entries
    | None -> drmt_entries prng ~tables ~count:n_entries
  in
  let traffic_seed = Prng.bits prng 30 in
  let sched_cfg = Scheduler.config ~processors () in
  let sabotaged = match cfg.c_sabotage with Some f -> f index | None -> false in
  (* the reference always runs the pristine configuration; under sabotage
     the event-driven candidate gets semantically mutated tables *)
  let candidate_p = if sabotaged then sabotage_program p else p in
  let candidate_entries = if sabotaged then sabotage_entries entries else entries in
  let reference =
    Drmt_substrate.create ~mode:Drmt_substrate.Sequential ~entries p
  in
  let substrates () =
    [
      Drmt_substrate.pack reference;
      Drmt_substrate.of_p4 ~cfg:sched_cfg ~mode:Drmt_substrate.Event ~entries:candidate_entries
        candidate_p;
    ]
  in
  let inputs = Drmt_substrate.traffic ~seed:traffic_seed reference cfg.c_phvs in
  let budget = Option.map Budget.ticks cfg.c_fuel in
  let check inputs =
    Oracle.diff_substrates ?budget ~substrates:(substrates ()) ~inputs ()
  in
  let outcome = check inputs in
  let shrunk =
    match outcome with
    | Oracle.Divergence _ when cfg.c_shrink ->
      let repro ~inputs =
        (match budget with Some b -> Budget.refill b | None -> ());
        match check inputs with
        | Oracle.Divergence _ -> true
        | Oracle.Agree _ | Oracle.Invalid_mc _ -> false
      in
      Some (Shrink.minimize_inputs ~max_probes:cfg.c_max_probes ~repro ~inputs ())
    | _ -> None
  in
  let faults =
    match (cfg.c_faults, outcome) with
    | Some fc, Oracle.Agree _ ->
      let pair =
        match substrates () with
        | [ a; b ] -> (a, b)
        | _ -> assert false
      in
      let gen_plan k =
        (* input-path plan on the dRMT trace geometry; generated header
           fields are 8-bit wide *)
        Faults.generate_io ~seed:(Prng.derive seed k)
          ~width:(Drmt_substrate.width reference)
          ~bits:8 ~n_inputs:(List.length inputs) ~count:fc.fc_per_run ()
      in
      Some (run_faults ?budget ~fc ~pair ~gen_plan ~inputs ())
    | _ -> None
  in
  let extra =
    if not cfg.c_coverage then None
    else begin
      (match budget with Some b -> Budget.refill b | None -> ());
      let shape = Coverage.drmt_shape ~tables ~processors in
      let x_coverage = Coverage.of_drmt_trial ?budget ~shape ~p ~entries ~inputs () in
      Some { x_coverage; x_material = Corpus.Drmt_material { tables; processors; entries } }
    end
  in
  (Finished outcome, shrunk, faults, extra)

(* --- Coverage-mode generation -------------------------------------------------

   A coverage-mode trial first decides — from its own derived PRNG, before
   any parameter draw — whether to mutate a corpus member of its family
   (3 in 4, when the block-start snapshot has one) or to sample fresh.
   Mutants re-enter the normal trial body with the mutated material
   overriding the random draw; a mutation that does not apply falls back
   to fresh sampling with the same PRNG.  Everything is a pure function of
   (master seed, index, snapshot), and the snapshot only changes at block
   boundaries, so generation is byte-deterministic across [--jobs]. *)

let pick_mutation prng family (snapshot : Corpus.entry array) =
  let mine =
    Array.of_list
      (List.filter
         (fun e ->
           match family with
           | Rmt -> Corpus.is_rmt e
           | Drmt -> not (Corpus.is_rmt e)
           (* the corpus stores no native material; native trials always
              sample fresh *)
           | Native -> false)
         (Array.to_list snapshot))
  in
  if Array.length mine = 0 || Prng.int prng 4 >= 3 then None
  else begin
    let parent = mine.(Prng.int prng (Array.length mine)) in
    match parent.Corpus.e_material with
    | Corpus.Rmt_material { depth; width; bits; stateful; stateless; mc } -> (
      (* domains come from the regenerated description — a pure function of
         the stored parameters *)
      let desc =
        Dgen.generate
          (Dgen.config ~depth ~width ~bits ())
          ~stateful:(Atoms.find_exn stateful) ~stateless:(Atoms.find_exn stateless)
      in
      match Corpus.mutate_rmt prng ~domains:(Ir.control_domains desc) ~bits mc with
      | None -> None
      | Some (op, mc') ->
        Some
          ( Corpus.Mutated { parent = parent.Corpus.e_id; op },
            Rmt_params { depth; width; bits; stateful; stateless },
            `Rmt_mc mc' ))
    | Corpus.Drmt_material { tables; processors; entries } -> (
      match Corpus.mutate_drmt prng ~tables ~entries with
      | None -> None
      | Some (op, tables', entries') ->
        Some
          ( Corpus.Mutated { parent = parent.Corpus.e_id; op },
            Drmt_params { tables = tables'; processors; entries = List.length entries' },
            `Drmt_entries entries' ))
  end

let run_trial ?(snapshot = [||]) ~(cfg : config) index : trial * trial_extra option =
  (* backtrace recording is per-domain in OCaml 5, so arm it here (on
     whichever worker runs the trial) rather than once in [run] *)
  Printexc.record_backtrace true;
  let seed = Prng.derive cfg.c_master_seed index in
  let family = family_of ~cfg index in
  let prng, t_origin, params, override =
    if not cfg.c_coverage then
      let prng, params = trial_params family seed in
      (prng, None, params, `None)
    else begin
      (* coverage mode: the mutate-or-fresh decision draws come first on the
         same trial PRNG, so the whole trial — including a fresh fallback —
         is a pure function of (master seed, index, block-start snapshot) *)
      let prng = Prng.create seed in
      match pick_mutation prng family snapshot with
      | Some (origin, params, override) -> (prng, Some origin, params, override)
      | None -> (prng, Some Corpus.Fresh, draw_params family prng, `None)
    end
  in
  let fallback = ref false in
  let finish (t_outcome, t_shrunk, t_faults, extra) =
    ( { t_index = index; t_seed = seed; t_params = params; t_origin; t_outcome; t_shrunk;
        t_faults; t_native_fallback = !fallback },
      extra )
  in
  (* Containment boundary: everything below — generation, simulation,
     shrinking, fault runs, the chaos hook — is folded into a structured
     outcome.  Budget exhaustion is its own class; any other exception is a
     crash record with the trial seed attached (the seed alone replays the
     trial). *)
  match
    (match cfg.c_hook with Some hook -> hook index | None -> ());
    match params with
    | Rmt_params { depth; width; bits; stateful; stateless } ->
      let mc_override = match override with `Rmt_mc mc -> Some mc | _ -> None in
      run_rmt_trial ~cfg ~seed ~prng ?mc_override ~depth ~width ~bits ~stateful_name:stateful
        ~stateless_name:stateless ()
    | Drmt_params { tables; processors; entries } ->
      let entries_override = match override with `Drmt_entries e -> Some e | _ -> None in
      run_drmt_trial ~cfg ~seed ~prng ~index ?entries_override ~tables ~processors
        ~n_entries:entries ()
    | Native_params { depth; width; bits; stateful; stateless } ->
      run_native_trial ~cfg ~seed ~prng ~fallback ~depth ~width ~bits ~stateful_name:stateful
        ~stateless_name:stateless ()
  with
  | result -> finish result
  | exception Budget.Exhausted ->
    finish (Timed_out { to_fuel = Option.value cfg.c_fuel ~default:0 }, None, None, None)
  | exception e ->
    let cr_backtrace = backtrace_text () in
    finish (Crashed { cr_exn = Printexc.to_string e; cr_backtrace }, None, None, None)

(* The overwhelmingly common trial — all configurations agree, no faults
   flagged — is fully determined by the campaign config and the trial
   index, so checkpoints do not store it; resume reconstructs it here. *)
let default_trial ~(cfg : config) index : trial =
  let seed = Prng.derive cfg.c_master_seed index in
  let family = family_of ~cfg index in
  let _, params = trial_params family seed in
  {
    t_index = index;
    t_seed = seed;
    t_params = params;
    t_origin = None;
    t_outcome = Finished (Oracle.Agree { configs = family_configs family; phvs = cfg.c_phvs });
    t_shrunk = None;
    t_faults =
      Option.map
        (fun fc ->
          { fs_runs = fc.fc_runs; fs_sensitive = 0; fs_substrate_mismatch = 0; fs_replay_ok = true })
        cfg.c_faults;
    t_native_fallback = false;
  }

(* A trial a checkpoint may omit: agreeing, unshrunk, natively built, and
   (in fault mode) with the quietest possible fault stats *except*
   sensitivity, which is program-dependent and must be persisted. *)
let is_default_trial ~(cfg : config) (t : trial) =
  (not t.t_native_fallback)
  && (match t.t_outcome with
     | Finished (Oracle.Agree { configs; phvs }) ->
       configs = family_configs (family_of ~cfg t.t_index) && phvs = cfg.c_phvs
     | _ -> false)
  && t.t_shrunk = None
  && (match (t.t_faults, cfg.c_faults) with
     | None, None -> true
     | Some fs, Some fc ->
       fs.fs_runs = fc.fc_runs && fs.fs_sensitive = 0 && fs.fs_substrate_mismatch = 0
       && fs.fs_replay_ok
     | _ -> false)

(* --- JSON report ------------------------------------------------------------

   Byte-deterministic for a fixed master seed: trials are emitted in index
   order and nothing environmental (job count, timing) appears.  Every
   constructor below is structured rather than pretty-printed, because the
   checkpoint decoder round-trips these records. *)

let json_of_violation (v : Machine_code.violation) : Report.json =
  match v with
  | Machine_code.Missing_pair name ->
    Report.Obj [ ("kind", Report.Str "missing_pair"); ("name", Report.Str name) ]
  | Machine_code.Out_of_range { vi_name; vi_value; vi_bound } ->
    Report.Obj
      [
        ("kind", Report.Str "out_of_range");
        ("name", Report.Str vi_name);
        ("value", Report.Int vi_value);
        ("bound", Report.Int vi_bound);
      ]

let json_of_outcome (o : outcome) : Report.json =
  match o with
  | Finished (Oracle.Agree { configs; phvs }) ->
    Report.Obj [ ("class", Report.Str "agree"); ("configs", Report.Int configs);
                 ("phvs", Report.Int phvs) ]
  | Finished (Oracle.Invalid_mc violations) ->
    Report.Obj
      [
        ("class", Report.Str "invalid_machine_code");
        ("violations", Report.List (List.map json_of_violation violations));
      ]
  | Finished (Oracle.Divergence d) ->
    let kind, where =
      match d.Oracle.dv_kind with
      | `Output (i, c) ->
        ("output", Report.Obj [ ("phv", Report.Int i); ("container", Report.Int c) ])
      | `State (alu, slot) ->
        ("state", Report.Obj [ ("alu", Report.Str alu); ("slot", Report.Int slot) ])
      | `Shape -> ("shape", Report.Null)
    in
    Report.Obj
      [
        ("class", Report.Str "backend_divergence");
        ("config", Report.Str d.Oracle.dv_config);
        ("kind", Report.Str kind);
        ("where", where);
        ("expected", Report.Int d.Oracle.dv_expected);
        ("actual", Report.Int d.Oracle.dv_actual);
      ]
  | Crashed { cr_exn; cr_backtrace } ->
    Report.Obj
      [
        ("class", Report.Str "crash");
        ("exn", Report.Str cr_exn);
        ("backtrace", Report.Str cr_backtrace);
      ]
  | Timed_out { to_fuel } ->
    Report.Obj [ ("class", Report.Str "timeout"); ("fuel", Report.Int to_fuel) ]

let json_of_shrunk (s : Shrink.result) : Report.json =
  Report.Obj
    [
      ("phvs", Report.List (List.map Report.phv s.Shrink.sh_inputs));
      ("essential_pairs", Report.List (List.map (fun n -> Report.Str n) s.Shrink.sh_essential));
      ( "machine_code",
        Report.Obj
          (List.map (fun (n, v) -> (n, Report.Int v)) (Machine_code.to_alist s.Shrink.sh_mc)) );
      ("probes", Report.Int s.Shrink.sh_probes);
    ]

let json_of_faults (fs : fault_stats) : Report.json =
  Report.Obj
    [
      ("runs", Report.Int fs.fs_runs);
      ("sensitive", Report.Int fs.fs_sensitive);
      ("substrate_mismatch", Report.Int fs.fs_substrate_mismatch);
      ("replay_ok", Report.Bool fs.fs_replay_ok);
    ]

let json_of_params = function
  | Rmt_params { depth; width; bits; stateful; stateless } ->
    [
      ("substrate", Report.Str "rmt");
      ("depth", Report.Int depth);
      ("width", Report.Int width);
      ("bits", Report.Int bits);
      ("stateful", Report.Str stateful);
      ("stateless", Report.Str stateless);
    ]
  | Drmt_params { tables; processors; entries } ->
    [
      ("substrate", Report.Str "drmt");
      ("tables", Report.Int tables);
      ("processors", Report.Int processors);
      ("entries", Report.Int entries);
    ]
  | Native_params { depth; width; bits; stateful; stateless } ->
    [
      ("substrate", Report.Str "native");
      ("depth", Report.Int depth);
      ("width", Report.Int width);
      ("bits", Report.Int bits);
      ("stateful", Report.Str stateful);
      ("stateless", Report.Str stateless);
    ]

let json_of_trial (t : trial) : Report.json =
  let origin =
    match t.t_origin with None -> [] | Some o -> [ ("origin", Corpus.origin_json o) ]
  in
  let base =
    [ ("index", Report.Int t.t_index); ("seed", Report.Int t.t_seed) ]
    @ json_of_params t.t_params @ origin
    @ [ ("outcome", json_of_outcome t.t_outcome) ]
  in
  let shrunk =
    match t.t_shrunk with None -> [] | Some s -> [ ("shrunk", json_of_shrunk s) ]
  in
  let faults =
    match t.t_faults with None -> [] | Some fs -> [ ("faults", json_of_faults fs) ]
  in
  Report.Obj (base @ shrunk @ faults)

(* --- Checkpoint decoding ----------------------------------------------------

   The inverse of the emitters above, for `--resume`.  Decode failures are
   [Resume_error] — a checkpoint that does not decode is an operator
   mistake (wrong file, wrong campaign), not a campaign failure. *)

exception Resume_error of string

let rfail fmt = Printf.ksprintf (fun s -> raise (Resume_error s)) fmt

let dfield j key conv =
  match Option.bind (Report.member key j) conv with
  | Some v -> v
  | None -> rfail "checkpoint record: field %S missing or mistyped" key

let dstr j key = dfield j key Report.to_str
let dint j key = dfield j key Report.to_int

let violation_of_json j : Machine_code.violation =
  match dstr j "kind" with
  | "missing_pair" -> Machine_code.Missing_pair (dstr j "name")
  | "out_of_range" ->
    Machine_code.Out_of_range
      { vi_name = dstr j "name"; vi_value = dint j "value"; vi_bound = dint j "bound" }
  | k -> rfail "unknown violation kind %S" k

let outcome_of_json j : outcome =
  match dstr j "class" with
  | "agree" -> Finished (Oracle.Agree { configs = dint j "configs"; phvs = dint j "phvs" })
  | "invalid_machine_code" ->
    Finished (Oracle.Invalid_mc (List.map violation_of_json (dfield j "violations" Report.to_list)))
  | "backend_divergence" ->
    let where = Report.member "where" j in
    let wfield key conv =
      match Option.bind where (fun w -> Option.bind (Report.member key w) conv) with
      | Some v -> v
      | None -> rfail "divergence record: field %S missing or mistyped" key
    in
    let dv_kind =
      match dstr j "kind" with
      | "output" -> `Output (wfield "phv" Report.to_int, wfield "container" Report.to_int)
      | "state" -> `State (wfield "alu" Report.to_str, wfield "slot" Report.to_int)
      | "shape" -> `Shape
      | k -> rfail "unknown divergence kind %S" k
    in
    Finished
      (Oracle.Divergence
         {
           dv_config = dstr j "config";
           dv_kind;
           dv_expected = dint j "expected";
           dv_actual = dint j "actual";
         })
  | "crash" -> Crashed { cr_exn = dstr j "exn"; cr_backtrace = dstr j "backtrace" }
  | "timeout" -> Timed_out { to_fuel = dint j "fuel" }
  | c -> rfail "unknown outcome class %S" c

let shrunk_of_json j : Shrink.result =
  let phv_of_json = function
    | Report.List vs ->
      Array.of_list
        (List.map (function Report.Int v -> v | _ -> rfail "shrunk record: non-integer PHV") vs)
    | _ -> rfail "shrunk record: malformed PHV"
  in
  let mc_pairs =
    match Report.member "machine_code" j with
    | Some (Report.Obj fields) ->
      List.map
        (fun (name, v) ->
          match Report.to_int v with
          | Some value -> (name, value)
          | None -> rfail "shrunk record: non-integer machine-code value")
        fields
    | _ -> rfail "shrunk record: machine_code missing"
  in
  {
    Shrink.sh_inputs = List.map phv_of_json (dfield j "phvs" Report.to_list);
    sh_mc = Machine_code.of_list mc_pairs;
    sh_essential =
      List.map
        (function Report.Str s -> s | _ -> rfail "shrunk record: non-string essential pair")
        (dfield j "essential_pairs" Report.to_list);
    sh_probes = dint j "probes";
  }

let faults_of_json j : fault_stats =
  {
    fs_runs = dint j "runs";
    fs_sensitive = dint j "sensitive";
    fs_substrate_mismatch = dint j "substrate_mismatch";
    fs_replay_ok = dfield j "replay_ok" Report.to_bool;
  }

let params_of_json j : params =
  match dstr j "substrate" with
  | "rmt" ->
    Rmt_params
      {
        depth = dint j "depth";
        width = dint j "width";
        bits = dint j "bits";
        stateful = dstr j "stateful";
        stateless = dstr j "stateless";
      }
  | "drmt" ->
    Drmt_params
      { tables = dint j "tables"; processors = dint j "processors"; entries = dint j "entries" }
  | "native" ->
    Native_params
      {
        depth = dint j "depth";
        width = dint j "width";
        bits = dint j "bits";
        stateful = dstr j "stateful";
        stateless = dstr j "stateless";
      }
  | s -> rfail "unknown trial substrate %S" s

let trial_of_json j : trial =
  {
    t_index = dint j "index";
    t_seed = dint j "seed";
    t_params = params_of_json j;
    (* coverage mode is incompatible with checkpoints, so a decoded trial
       never carries an origin *)
    t_origin = None;
    t_outcome = outcome_of_json (dfield j "outcome" Option.some);
    t_shrunk = Option.map shrunk_of_json (Report.member "shrunk" j);
    t_faults = Option.map faults_of_json (Report.member "faults" j);
    t_native_fallback = Option.bind (Report.member "native_fallback" j) Report.to_bool = Some true;
  }

(* --- Checkpoint plumbing ---------------------------------------------------- *)

let signature_of_config (cfg : config) : Checkpoint.signature =
  {
    Checkpoint.sg_substrate = cfg.c_substrate;
    sg_master_seed = cfg.c_master_seed;
    sg_trials = cfg.c_trials;
    sg_phvs = cfg.c_phvs;
    sg_shrink = cfg.c_shrink;
    sg_max_probes = cfg.c_max_probes;
    sg_fuel = Option.value cfg.c_fuel ~default:0;
    sg_max_failures = Option.value cfg.c_max_failures ~default:0;
    sg_fault_runs = (match cfg.c_faults with Some fc -> fc.fc_runs | None -> 0);
    sg_faults_per_run = (match cfg.c_faults with Some fc -> fc.fc_per_run | None -> 0);
  }

(* A checkpoint record is the report's trial record plus the native
   fallback flag, which the report only counts in its notes. *)
let checkpoint_record (t : trial) : Report.json =
  match json_of_trial t with
  | Report.Obj fields when t.t_native_fallback ->
    Report.Obj (fields @ [ ("native_fallback", Report.Bool true) ])
  | j -> j

(* Only non-default trials are persisted; [completed] is the length of the
   done prefix.  Records are emitted in index order so the file itself is
   byte-deterministic for a given (config, completed) pair. *)
let checkpoint_of ~(cfg : config) (results : trial option array) completed : Checkpoint.t =
  let records = ref [] in
  for i = completed - 1 downto 0 do
    match results.(i) with
    | Some t when not (is_default_trial ~cfg t) -> records := checkpoint_record t :: !records
    | _ -> ()
  done;
  {
    Checkpoint.ck_signature = signature_of_config cfg;
    ck_completed = (if completed > 0 then [ (0, completed - 1) ] else []);
    ck_records = !records;
  }

(* The report's coverage accounting as a {!Coverage.summary} — the shape
   shared by the druzhba-coverage/1 report section and the corpus manifest. *)
let coverage_summary (cv : coverage_stats) : Coverage.summary =
  {
    Coverage.sm_features = Coverage.cardinal cv.cv_coverage;
    sm_classes = Coverage.classes cv.cv_coverage;
    sm_novel_trials = cv.cv_novel_trials;
    sm_corpus_entries = cv.cv_corpus_entries;
    sm_corpus_fresh = cv.cv_corpus_fresh;
    sm_corpus_mutated = cv.cv_corpus_mutated;
  }

(* --- The campaign ----------------------------------------------------------- *)

(* [run_resumable] is the full-featured entry point: trials execute in
   blocks of [checkpoint_every] indices (parallel within a block), which
   fixes the granularity of checkpoints, the circuit breaker, and the
   [stop_after] test kill-switch at index boundaries — all independent of
   [--jobs], preserving byte-determinism.  Returns [None] only when
   [stop_after] aborted the run mid-campaign (simulating a kill) or
   [should_stop] asked for a graceful cut.

   [should_stop] is polled at every block boundary, *after* the block's
   checkpoint has been flushed: the CLI points it at a flag set by its
   SIGINT/SIGTERM handlers, so a supervisor-initiated stop always leaves a
   durable checkpoint behind and loses nothing — resuming produces a report
   byte-identical to an uninterrupted run.  The caller distinguishes a
   graceful cut from [stop_after] by its own flag. *)
let run_resumable ?checkpoint ?(resume = false) ?stop_after ?should_stop (cfg : config) :
    report option =
  (* Coverage and sabotage-pass modes are not part of the checkpoint
     signature, so a resumed run could silently change semantics mid-stream;
     refuse the combination outright. *)
  if cfg.c_coverage && (checkpoint <> None || resume) then
    invalid_arg "Campaign.run_resumable: coverage mode is incompatible with checkpoint/resume";
  if cfg.c_sabotage_pass && (checkpoint <> None || resume) then
    invalid_arg
      "Campaign.run_resumable: sabotage-pass mode is incompatible with checkpoint/resume";
  (* Native-family degradation is judged once, up front, on the main
     domain: a campaign may run degraded (closures standing in for the
     native artifact, with a note in the report), but a *checkpointed or
     resumed* campaign may not — records taken on a toolchain-equipped
     machine must never blend with degraded ones, so the combination is
     refused with a clear error instead. *)
  let selection = Option.value (families_of_name cfg.c_substrate) ~default:[] in
  let notes =
    if not (List.mem Native selection) then []
    else
      match Druzhba_dsim.Native_substrate.available () with
      | Ok () -> []
      | Error reason ->
        if checkpoint <> None || resume then
          raise
            (Resume_error
               (Printf.sprintf
                  "substrate %S cannot be checkpointed or resumed here: the native toolchain \
                   is unavailable (%s); run without --checkpoint/--resume to accept the \
                   interpreted fallback"
                  cfg.c_substrate reason))
        else
          [
            Printf.sprintf
              "native substrate unavailable (%s); native trials ran on the interpreted \
               fallback (native-fallback@scc-inline)"
              reason;
          ]
  in
  (* crash records carry backtraces; recording is per-process and cheap *)
  Printexc.record_backtrace true;
  (* the atom library is lazy and [Lazy] is not domain-safe: force it on
     the main domain before sharding *)
  Runner.force_atoms ();
  let n = cfg.c_trials in
  let results : trial option array = Array.make (max 1 n) None in
  let start =
    if not resume then 0
    else
      match checkpoint with
      | None -> invalid_arg "Campaign.run_resumable: resume requires a checkpoint path"
      | Some path -> (
        match Checkpoint.load path with
        | Error msg -> raise (Resume_error msg)
        | Ok ck ->
          if
            not
              (Checkpoint.signature_equal ck.Checkpoint.ck_signature (signature_of_config cfg))
          then
            rfail "%s: checkpoint signature does not match this campaign's configuration" path;
          List.iter
            (fun j ->
              let t = trial_of_json j in
              if t.t_index < 0 || t.t_index >= n then
                rfail "checkpoint record index %d out of range" t.t_index;
              results.(t.t_index) <- Some t)
            ck.Checkpoint.ck_records;
          (* the quiet majority is reconstructed, not stored *)
          List.iter
            (fun (lo, hi) ->
              for i = lo to min (n - 1) hi do
                if results.(i) = None then results.(i) <- Some (default_trial ~cfg i)
              done)
            ck.Checkpoint.ck_completed;
          min n (Checkpoint.completed_prefix ck))
  in
  let failures = ref 0 and stopped_after = ref None in
  (* Breaker accounting scans completed trials in index order — the Nth
     failure is the same trial whatever the job count or resume point. *)
  let note_failures lo hi =
    match cfg.c_max_failures with
    | None -> ()
    | Some maxf ->
      for i = lo to hi - 1 do
        if !stopped_after = None then
          match results.(i) with
          | Some t when trial_failed t ->
            incr failures;
            if !failures >= maxf then stopped_after := Some i
          | _ -> ()
      done
  in
  note_failures 0 start;
  (* Coverage-mode state, all owned by the main domain: the global coverage
     map, the corpus, and the frozen snapshot the *next* block's trials will
     mutate from.  Workers only ever read a snapshot; merging, novelty
     judgement and corpus admission happen here, at block boundaries, in
     trial-index order — the whole evolution is a fold over trial indices
     and therefore byte-identical across [--jobs]. *)
  let coverage = ref Coverage.empty in
  let corpus = Corpus.create () in
  let novel_trials = ref 0 in
  let snapshot = ref [||] in
  let i = ref start and killed = ref false in
  while !i < n && !stopped_after = None && not !killed do
    let base = !i in
    let hi = min n (base + cfg.c_checkpoint_every) in
    let snap = !snapshot in
    let chunk =
      Runner.parallel_init ~jobs:cfg.c_jobs (hi - base) (fun k ->
          run_trial ~snapshot:snap ~cfg (base + k))
    in
    Array.iteri (fun k (t, _) -> results.(base + k) <- Some t) chunk;
    if cfg.c_coverage then begin
      Array.iter
        (fun ((t : trial), extra) ->
          match extra with
          | None -> ()
          | Some x ->
            let nvl = Coverage.novel ~existing:!coverage x.x_coverage in
            if nvl > 0 then begin
              incr novel_trials;
              ignore
                (Corpus.add corpus ~trial:t.t_index
                   ~origin:(Option.value t.t_origin ~default:Corpus.Fresh)
                   ~material:x.x_material ~novel:nvl)
            end;
            coverage := Coverage.union !coverage x.x_coverage)
        chunk;
      snapshot := Corpus.snapshot corpus
    end;
    note_failures base hi;
    i := hi;
    (match checkpoint with
    | Some path ->
      let completed = match !stopped_after with Some c -> c + 1 | None -> !i in
      Checkpoint.save path (checkpoint_of ~cfg results completed)
    | None -> ());
    (match stop_after with
    | Some s when !i >= s && !i < n && !stopped_after = None -> killed := true
    | _ -> ());
    match should_stop with
    | Some f when !i < n && !stopped_after = None && f () -> killed := true
    | _ -> ()
  done;
  if !killed then None
  else begin
    let upto = match !stopped_after with Some c -> c + 1 | None -> n in
    let trials =
      List.init upto (fun i ->
          match results.(i) with Some t -> t | None -> assert false (* filled above *))
    in
    let count p = List.length (List.filter p trials) in
    (* with the toolchain available up front, a fallback trial is a
       program whose build failed: name how many and the first, in
       job-independent terms (no paths, pids or compiler output) *)
    let notes =
      match (notes, List.filter (fun t -> t.t_native_fallback) trials) with
      | [], (first :: _ as failed) ->
        [
          Printf.sprintf
            "native build failed for %d trial(s), first at trial %d; those trials ran on the \
             interpreted fallback (native-fallback@scc-inline)"
            (List.length failed) first.t_index;
        ]
      | _ -> notes
    in
    let r_coverage =
      if not cfg.c_coverage then None
      else begin
        let entries, fresh, mutated = Corpus.stats corpus in
        Some
          {
            cv_coverage = !coverage;
            cv_novel_trials = !novel_trials;
            cv_corpus_entries = entries;
            cv_corpus_fresh = fresh;
            cv_corpus_mutated = mutated;
          }
      end
    in
    (match (cfg.c_corpus_dir, r_coverage) with
    | Some dir, Some cv ->
      Corpus.save dir ~master_seed:cfg.c_master_seed ~coverage:cv.cv_coverage
        ~summary:(coverage_summary cv) corpus
    | _ -> ());
    Some
      {
        r_config = cfg;
        r_trials = trials;
        r_coverage;
        r_notes = notes;
        r_agree =
          count (fun t -> match t.t_outcome with Finished (Oracle.Agree _) -> true | _ -> false);
        r_divergent =
          count (fun t ->
              match t.t_outcome with Finished (Oracle.Divergence _) -> true | _ -> false);
        r_invalid =
          count (fun t ->
              match t.t_outcome with Finished (Oracle.Invalid_mc _) -> true | _ -> false);
        r_crashed = count (fun t -> match t.t_outcome with Crashed _ -> true | _ -> false);
        r_timeout = count (fun t -> match t.t_outcome with Timed_out _ -> true | _ -> false);
        r_fault_flagged = count (fun t -> fault_flagged t.t_faults);
        r_stopped_after = !stopped_after;
      }
  end

(* Simple entry point: no checkpointing, runs to completion (or to the
   circuit breaker).  [run_resumable] only returns [None] under
   [stop_after], which this path never passes. *)
let run (cfg : config) : report =
  match run_resumable cfg with Some r -> r | None -> assert false

(* --- Rendering ------------------------------------------------------------- *)

let pp_outcome ppf = function
  | Finished o -> Oracle.pp_outcome ppf o
  | Crashed { cr_exn; _ } -> Fmt.pf ppf "crashed: %s" cr_exn
  | Timed_out { to_fuel } -> Fmt.pf ppf "timed out (tick budget %d exhausted)" to_fuel

let pp_faults ppf (fs : fault_stats) =
  Fmt.pf ppf "faults: %d/%d sensitive, %d substrate mismatch, replay %s" fs.fs_sensitive
    fs.fs_runs fs.fs_substrate_mismatch
    (if fs.fs_replay_ok then "clean" else "CORRUPTED")

let pp_params ppf = function
  | Rmt_params { depth; width; bits; stateful; stateless } ->
    Fmt.pf ppf "rmt %dx%d @ %d bits, %s/%s" depth width bits stateful stateless
  | Drmt_params { tables; processors; entries } ->
    Fmt.pf ppf "drmt %d table(s), %d processor(s), %d entrie(s)" tables processors entries
  | Native_params { depth; width; bits; stateful; stateless } ->
    Fmt.pf ppf "native %dx%d @ %d bits, %s/%s" depth width bits stateful stateless

let pp_trial ppf (t : trial) =
  Fmt.pf ppf "trial %4d (seed %d, %a): %a" t.t_index t.t_seed pp_params t.t_params pp_outcome
    t.t_outcome;
  (match t.t_shrunk with None -> () | Some s -> Fmt.pf ppf "@,  %a" Shrink.pp s);
  match t.t_faults with
  | Some fs when fault_flagged t.t_faults -> Fmt.pf ppf "@,  %a" pp_faults fs
  | _ -> ()

let pp ppf (r : report) =
  Fmt.pf ppf "@[<v>campaign: %d trials, master seed %d, %d PHVs/trial@," r.r_config.c_trials
    r.r_config.c_master_seed r.r_config.c_phvs;
  Fmt.pf ppf "  agree:      %d@," r.r_agree;
  Fmt.pf ppf "  divergence: %d@," r.r_divergent;
  Fmt.pf ppf "  invalid mc: %d@," r.r_invalid;
  Fmt.pf ppf "  crashed:    %d@," r.r_crashed;
  Fmt.pf ppf "  timed out:  %d@," r.r_timeout;
  (match r.r_config.c_faults with
  | Some _ -> Fmt.pf ppf "  fault-flagged: %d@," r.r_fault_flagged
  | None -> ());
  (match r.r_coverage with
  | Some cv -> Fmt.pf ppf "  %a@," Coverage.pp_summary (coverage_summary cv)
  | None -> ());
  List.iter (fun note -> Fmt.pf ppf "  note: %s@," note) r.r_notes;
  (match r.r_stopped_after with
  | Some i ->
    Fmt.pf ppf "  stopped early: failure limit reached at trial %d (%d/%d trials ran)@," i
      (List.length r.r_trials) r.r_config.c_trials
  | None -> ());
  List.iter (fun t -> if trial_failed t then Fmt.pf ppf "  %a@," pp_trial t) r.r_trials;
  Fmt.pf ppf "@]"

let to_json (r : report) : string =
  let opt_int = function Some v -> Report.Int v | None -> Report.Null in
  Report.to_string
    (Report.Obj
       ([
         ("campaign", Report.Str "differential");
         ("substrate", Report.Str r.r_config.c_substrate);
         ("master_seed", Report.Int r.r_config.c_master_seed);
         ("trials", Report.Int r.r_config.c_trials);
         ("phvs_per_trial", Report.Int r.r_config.c_phvs);
         ("fuel", opt_int r.r_config.c_fuel);
         ("max_failures", opt_int r.r_config.c_max_failures);
         ( "faults",
           match r.r_config.c_faults with
           | Some fc ->
             Report.Obj
               [ ("runs", Report.Int fc.fc_runs); ("per_run", Report.Int fc.fc_per_run) ]
           | None -> Report.Null );
         ( "summary",
           Report.Obj
             [
               ("agree", Report.Int r.r_agree);
               ("backend_divergence", Report.Int r.r_divergent);
               ("invalid_machine_code", Report.Int r.r_invalid);
               ("crashes", Report.Int r.r_crashed);
               ("timeouts", Report.Int r.r_timeout);
               ("fault_flagged", Report.Int r.r_fault_flagged);
             ] );
       ]
       @ (match r.r_coverage with
         | Some cv -> [ ("coverage", Coverage.summary_json (coverage_summary cv)) ]
         | None -> [])
       (* emitted only when non-empty, so reports from the pre-registry
          era stay byte-identical *)
       @ (match r.r_notes with
         | [] -> []
         | notes -> [ ("notes", Report.List (List.map (fun n -> Report.Str n) notes)) ])
       @ [
           ("stopped_after", opt_int r.r_stopped_after);
           ("results", Report.List (List.map json_of_trial r.r_trials));
         ]))
