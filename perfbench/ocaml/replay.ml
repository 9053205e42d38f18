(* The traced pass: one campaign trial re-run phase by phase.

   [trial] calls the library's public functions in the order
   [Campaign.run_trial] calls them (draw parameters, dgen, random machine
   code, traffic, validation, optimizer per level, closure compile, lazy
   vectorisation, the differential runs, the diff) and charges each call's
   wall time to the layer that owns it.  It returns the oracle outcome it
   computed, which the caller compares with the untraced report's outcome
   for the same index: if they differ, the decomposition measured a
   different program.

   Phase sums are keys of a [(string, float) Hashtbl.t]:
   - seconds spent: "dgen", "random_mc", "validate", "optimizer", "compile",
     "vcompile", "engine.build", "oracle.diff", "drmt.schedule", "emit",
     "ocamlopt", "dynlink", and per executor "<layer>.s" run time;
   - counts: "<layer>.phvs", "ir_nodes", "optimizer.runs", "emit.bytes". *)

module Prng = Druzhba_util.Prng
module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Dgen = Druzhba_pipeline.Dgen
module Compile = Druzhba_pipeline.Compile
module Emit = Druzhba_pipeline.Emit
module Optimizer = Druzhba_optimizer.Optimizer
module Atoms = Druzhba_atoms.Atoms
module Fuzz = Druzhba_fuzz.Fuzz
module Traffic = Druzhba_dsim.Traffic
module Trace = Druzhba_dsim.Trace
module Substrate = Druzhba_dsim.Substrate
module Drmt_substrate = Druzhba_dsim.Drmt_substrate
module Native_substrate = Druzhba_dsim.Native_substrate
module Scheduler = Druzhba_drmt.Scheduler
module Campaign = Druzhba_campaign.Campaign
module Oracle = Druzhba_campaign.Oracle

open Common

let timed_into acc name f =
  let v, dt = timed f in
  bump acc name dt;
  v

(* [Oracle.diff_substrates] with every run and diff timed.  Each substrate
   is tagged with the executor layer its run time is charged to. *)
let diff_timed acc ~batch ~inputs (subs : (string * Substrate.packed) list) : Oracle.outcome =
  match subs with
  | [] | [ _ ] -> invalid_arg "Replay.diff_timed: need a reference and a candidate"
  | (ref_layer, reference) :: candidates ->
    let capacity = List.length inputs in
    let run layer sub buf =
      timed_into acc (layer ^ ".s") (fun () -> Substrate.run_batch_into ~batch sub ~inputs buf);
      bump acc (layer ^ ".phvs") (float_of_int capacity)
    in
    let ref_buf = Trace.Buffer.create ~width:(Substrate.width reference) ~capacity in
    run ref_layer reference ref_buf;
    let ref_state = Substrate.current_state reference in
    let act_buf = Trace.Buffer.create ~width:(Substrate.width reference) ~capacity in
    let rec judge = function
      | [] -> Oracle.Agree { configs = 1 + List.length candidates; phvs = capacity }
      | (layer, sub) :: rest -> (
        run layer sub act_buf;
        match
          timed_into acc "oracle.diff" (fun () ->
              Oracle.diff_runs ~ref_buf ~ref_state ~act_buf ~act_state:(Substrate.current_state sub))
        with
        | None -> judge rest
        | Some (dv_kind, dv_expected, dv_actual) ->
          Oracle.Divergence { dv_config = Substrate.name sub; dv_kind; dv_expected; dv_actual })
    in
    judge candidates

(* A closure substrate, with its lazy vectorisation (done by the first,
   empty batched run, as [Table1] does) charged to "vcompile". *)
let closures acc ~batch ~label optimized ~mc =
  let sub =
    timed_into acc "compile" (fun () -> Substrate.of_compiled ~label (Compile.compile optimized ~mc))
  in
  let buf = Trace.Buffer.create ~width:(Substrate.width sub) ~capacity:1 in
  timed_into acc "vcompile" (fun () -> Substrate.run_batch_into ~batch sub ~inputs:[] buf);
  sub

let engine acc ~label desc ~mc =
  timed_into acc "engine.build" (fun () -> Substrate.of_engine ~label desc ~mc)

let optimize acc ~level ~mc desc =
  let d = timed_into acc "optimizer" (fun () -> Optimizer.apply ~level ~mc desc) in
  bump acc "ir_nodes" (float_of_int (Ir.size d));
  bump acc "optimizer.runs" 1.;
  d

(* The shared front half of RMT and native trials. *)
let draw_program acc ~phvs ~prng ~depth ~width ~bits ~stateful ~stateless =
  let desc =
    timed_into acc "dgen" (fun () ->
        Dgen.generate
          (Dgen.config ~depth ~width ~bits ())
          ~stateful:(Atoms.find_exn stateful) ~stateless:(Atoms.find_exn stateless))
  in
  let mc = timed_into acc "random_mc" (fun () -> Fuzz.random_mc prng desc) in
  let traffic_seed = Prng.bits prng 30 in
  let inputs = Traffic.phvs (Traffic.create ~seed:traffic_seed ~width ~bits) phvs in
  let valid =
    timed_into acc "validate" (fun () -> Machine_code.validate ~domains:(Ir.control_domains desc) mc)
  in
  (desc, mc, inputs, valid)

let rmt acc ~batch ~phvs ~prng ~depth ~width ~bits ~stateful ~stateless =
  let desc, mc, inputs, valid = draw_program acc ~phvs ~prng ~depth ~width ~bits ~stateful ~stateless in
  match valid with
  | Error violations -> Oracle.Invalid_mc violations
  | Ok () ->
    let reference = ("engine", engine acc ~label:"interpreter@unoptimized" desc ~mc) in
    let candidates =
      List.concat_map
        (fun level ->
          let name = Optimizer.level_name level in
          let optimized = optimize acc ~level ~mc desc in
          let interp =
            if level = Optimizer.Unoptimized then []
            else [ ("engine", engine acc ~label:("interpreter@" ^ name) optimized ~mc) ]
          in
          interp @ [ ("compiled", closures acc ~batch ~label:("closures@" ^ name) optimized ~mc) ])
        Oracle.all_levels
    in
    diff_timed acc ~batch ~inputs (reference :: candidates)

(* The native trial, with the toolchain [tc] already probed.  ocamlopt is
   timed on its own ([compile_cmxs] into the empty cache the caller set
   up); the following [create] then hits that cache, so its time less a
   second emission is the Dynlink load. *)
let native acc ~tc ~batch ~phvs ~prng ~depth ~width ~bits ~stateful ~stateless =
  let desc, mc, inputs, valid = draw_program acc ~phvs ~prng ~depth ~width ~bits ~stateful ~stateless in
  match valid with
  | Error violations -> Oracle.Invalid_mc violations
  | Ok () ->
    let optimized = optimize acc ~level:Oracle.native_level ~mc desc in
    let source, emit_s = timed (fun () -> Emit.native_source optimized ~mc) in
    bump acc "emit" emit_s;
    bump acc "emit.bytes" (float_of_int (String.length source));
    let key = Native_substrate.content_key source in
    (match timed_into acc "ocamlopt" (fun () -> Native_substrate.compile_cmxs tc ~source ~key) with
    | Ok _ -> ()
    | Error e -> failwith e);
    let created, create_s =
      timed (fun () -> Native_substrate.create ~label:"native@scc-inline" optimized ~mc)
    in
    bump acc "dynlink" (Float.max 0. (create_s -. emit_s));
    let native = match created with Ok s -> s | Error e -> failwith e in
    diff_timed acc ~batch ~inputs
      [
        ("engine", engine acc ~label:"interpreter@unoptimized" desc ~mc);
        ("compiled", closures acc ~batch ~label:"closures@scc-inline" optimized ~mc);
        ("native", native);
      ]

let drmt acc ~batch ~phvs ~prng ~tables ~processors ~n_entries =
  let p = Campaign.drmt_program ~tables in
  let entries = Campaign.drmt_entries prng ~tables ~count:n_entries in
  let traffic_seed = Prng.bits prng 30 in
  let reference = Drmt_substrate.create ~mode:Drmt_substrate.Sequential ~entries p in
  let event =
    timed_into acc "drmt.schedule" (fun () ->
        Drmt_substrate.of_p4 ~cfg:(Scheduler.config ~processors ()) ~mode:Drmt_substrate.Event
          ~entries p)
  in
  let inputs = Drmt_substrate.traffic ~seed:traffic_seed reference phvs in
  diff_timed acc ~batch ~inputs
    [ ("drmt_sequential", Drmt_substrate.pack reference); ("drmt_event", event) ]

let outcome_json o = Druzhba_campaign.Report.to_string (Campaign.json_of_outcome o)

(* Re-runs trial [index] of [cfg] (uniform-random generation only).
   Returns the family name, the outcome in report JSON, and the trial's
   wall. *)
let trial acc ~tc ~(cfg : Campaign.config) index : string * string * float =
  let seed = Prng.derive cfg.Campaign.c_master_seed index in
  let family = Campaign.family_of ~cfg index in
  let prng, params = Campaign.trial_params family seed in
  let batch = cfg.Campaign.c_batch and phvs = cfg.Campaign.c_phvs in
  let outcome, wall =
    timed (fun () ->
        match params with
        | Campaign.Rmt_params { depth; width; bits; stateful; stateless } ->
          rmt acc ~batch ~phvs ~prng ~depth ~width ~bits ~stateful ~stateless
        | Campaign.Native_params { depth; width; bits; stateful; stateless } -> (
          match tc with
          | Some tc -> native acc ~tc ~batch ~phvs ~prng ~depth ~width ~bits ~stateful ~stateless
          | None -> failwith "native toolchain unavailable")
        | Campaign.Drmt_params { tables; processors; entries } ->
          drmt acc ~batch ~phvs ~prng ~tables ~processors ~n_entries:entries)
  in
  let name = match family with Campaign.Rmt -> "rmt" | Campaign.Drmt -> "drmt" | Campaign.Native -> "native" in
  (name, outcome_json (Campaign.Finished outcome), wall)
