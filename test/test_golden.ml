(* Golden-trace regression fixtures.

   For every Table-1 program we commit the expected output trace + final
   state (test/golden/<name>.trace) of a fixed-seed simulation.  The test
   replays each program and diffs against the fixture, so a semantic
   regression anywhere in the stack — frontend, codegen, optimizer, either
   execution backend — fails loudly with the program named.

   Two layers of checking per benchmark:
   1. the reference configuration (interpreter, unoptimized description)
      must render byte-identically to the committed fixture;
   2. all six (backend x optimization level) configurations must produce a
      trace equal to the reference — the committed fixture therefore pins
      every configuration.

   Three whole campaign reports (fault mode, tick budget; substrates
   "all", "drmt" and "native") are pinned the same way, byte for byte, and
   the dRMT simulator's cycle counts, crossbar peaks, table hits and
   registers on the router program are pinned at three processor counts.

   Regenerating after an *intended* semantic change:

     GOLDEN_UPDATE=$PWD/test/golden dune exec test/test_golden.exe

   which rewrites the fixtures in the source tree instead of checking. *)

module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Compile = Druzhba_pipeline.Compile
module Optimizer = Druzhba_optimizer.Optimizer
module Engine = Druzhba_dsim.Engine
module Compiled = Druzhba_dsim.Compiled
module Traffic = Druzhba_dsim.Traffic
module Trace = Druzhba_dsim.Trace
module Spec = Druzhba_spec.Spec
module Codegen = Druzhba_compiler.Codegen
module Oracle = Druzhba_campaign.Oracle
module Substrate = Druzhba_dsim.Substrate
module Drmt_substrate = Druzhba_dsim.Drmt_substrate
module Scheduler = Druzhba_drmt.Scheduler
module Sim = Druzhba_drmt.Sim
module Campaign = Druzhba_campaign.Campaign
module Report = Druzhba_campaign.Report
module Native_substrate = Druzhba_dsim.Native_substrate

let golden_seed = 0x601d
let golden_phvs = 10

let reference_trace (bm : Spec.benchmark) =
  let compiled = Spec.compile_exn bm in
  let desc = compiled.Codegen.c_desc in
  let mc = compiled.Codegen.c_mc in
  let init = compiled.Codegen.c_layout.Codegen.l_init in
  let inputs =
    Traffic.phvs (Traffic.create ~seed:golden_seed ~width:bm.Spec.bm_width ~bits:32) golden_phvs
  in
  (compiled, Engine.run ~init desc ~mc ~inputs, inputs)

let render (bm : Spec.benchmark) (trace : Trace.t) =
  Fmt.str "# golden trace: %s (%dx%d, seed %d, %d PHVs)@.%a@." bm.Spec.bm_name bm.Spec.bm_depth
    bm.Spec.bm_width golden_seed golden_phvs Trace.pp trace

let fixture_path bm = Filename.concat "golden" (bm.Spec.bm_name ^ ".trace")

(* --- dRMT fixture ---------------------------------------------------------------- *)

(* One committed fixture for the dRMT substrate: an exact + lpm + ternary
   pipeline with register side effects, replayed through both the sequential
   reference and the event-driven scheduler.  The fixture pins the sequential
   semantics; the event run must additionally equal the reference, so a
   regression in either the scheduler or the P4 interpreter fails loudly. *)

let drmt_name = Drmt_router.name

let drmt_substrate mode =
  Drmt_substrate.create ~mode ~entries:(Drmt_router.entries ()) (Drmt_router.program ())

let run_substrate packed ~inputs =
  let buf =
    Trace.Buffer.create ~width:(Substrate.width packed) ~capacity:(max 1 (List.length inputs))
  in
  Substrate.run_into packed ~inputs buf;
  {
    Trace.inputs;
    outputs = Trace.Buffer.contents buf;
    final_state = Substrate.current_state packed;
  }

let drmt_reference_trace () =
  let sub = drmt_substrate Drmt_substrate.Sequential in
  let inputs = Drmt_substrate.traffic ~seed:golden_seed sub golden_phvs in
  (run_substrate (Drmt_substrate.pack sub) ~inputs, inputs)

let drmt_render (trace : Trace.t) =
  Fmt.str "# golden trace: %s (dRMT, seed %d, %d PHVs)@.%a@." drmt_name golden_seed golden_phvs
    Trace.pp trace

let drmt_fixture_path = Filename.concat "golden" (drmt_name ^ ".trace")

(* The trace fixture pins packet fields; this one pins the timed side of
   the event-driven run — cycle count, crossbar peaks chip-wide and per
   processor — with table hits and registers, for [Sim.run] at 1, 2 and 4
   processors and for [Sim.run_sequential]. *)
let drmt_stats_packets = 200
let drmt_stats_path = Filename.concat "golden" (drmt_name ^ ".stats")

let drmt_render_stats () =
  let p = Drmt_router.program () and entries = Drmt_router.entries () in
  let b = Buffer.create 1024 in
  Printf.bprintf b "# golden stats: %s (dRMT, default seed, %d packets)\n" drmt_name
    drmt_stats_packets;
  let section title (r : Sim.result) =
    let s = r.Sim.r_stats in
    Printf.bprintf b "%s: %d packets in %d cycles (%d matches, %d actions)\n" title
      s.Sim.st_packets s.Sim.st_cycles s.Sim.st_matches s.Sim.st_actions;
    Printf.bprintf b "  peak per cycle: %d matches, %d actions\n" s.Sim.st_peak_match_per_cycle
      s.Sim.st_peak_action_per_cycle;
    Printf.bprintf b "  peak per processor: %d matches, %d actions\n"
      s.Sim.st_peak_match_per_processor s.Sim.st_peak_action_per_processor;
    List.iter (fun (t, n) -> Printf.bprintf b "  table %s: %d hits\n" t n) s.Sim.st_table_hits;
    List.iter (fun (r, v) -> Printf.bprintf b "  register %s = %d\n" r v) r.Sim.r_registers
  in
  List.iter
    (fun processors ->
      section
        (Printf.sprintf "event, %d processor(s)" processors)
        (Sim.run ~cfg:(Scheduler.config ~processors ()) ~entries ~packets:drmt_stats_packets p))
    [ 1; 2; 4 ];
  section "sequential" (Sim.run_sequential ~entries ~packets:drmt_stats_packets p);
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- Campaign report fixtures --------------------------------------------------

   Whole campaign reports in fault mode under a tick budget: substrate "all"
   (RMT and dRMT trials alternate), substrate "drmt" and substrate
   "native".  They pin what the execution paths underneath a campaign
   decide: each trial's class, the fault-run counts, and which trials run
   out of fuel.  In "all" and "native" the fuel sits between what a depth-1
   and a depth-2 RMT trial needs (six configurations in "all", three in
   "native"); in "drmt" it sits inside the range the generated 1- to
   4-table chains need, so each fixture holds agreeing trials with
   fault-sensitive runs and timed-out trials. *)

type campaign_fixture = { cf_file : string; cf_substrate : string; cf_fuel : int }

let campaign_fixtures =
  [
    { cf_file = "campaign_report.json"; cf_substrate = "all"; cf_fuel = 130 };
    { cf_file = "drmt_campaign_report.json"; cf_substrate = "drmt"; cf_fuel = 200 };
    { cf_file = "native_campaign_report.json"; cf_substrate = "native"; cf_fuel = 64 };
  ]

(* [Error reason] when the fixture cannot be produced on this host. *)
let campaign_fixture_report f =
  match (f.cf_substrate, Native_substrate.available ()) with
  | "native", Error reason -> Error reason
  | _ ->
    let cfg =
      Campaign.config ~trials:24 ~jobs:1 ~master_seed:7 ~substrate:f.cf_substrate ~phvs:20
        ~fuel:f.cf_fuel ~faults:(Campaign.fault_config ~runs:3 ()) ()
    in
    Ok (Campaign.to_json (Campaign.run cfg) ^ "\n")

(* Does some trial record of a parsed report satisfy [pred]? *)
let any_trial pred json =
  match Option.bind (Report.member "results" json) Report.to_list with
  | None -> Alcotest.fail "campaign report lacks a results list"
  | Some results -> List.exists pred results

let path keys t = List.fold_left (fun j k -> Option.bind j (Report.member k)) (Some t) keys

let test_campaign_fixture f () =
  match campaign_fixture_report f with
  | Error reason -> Printf.printf "skipped: native toolchain unavailable (%s)\n" reason
  | Ok got ->
    let want = read_file (Filename.concat "golden" f.cf_file) in
    if got <> want then
      Alcotest.failf "campaign report differs from golden/%s (GOLDEN_UPDATE to regenerate):@.%s"
        f.cf_file got;
    (* the fixture must keep covering both outcomes it exists for *)
    (match Report.parse want with
    | Error e -> Alcotest.failf "golden/%s does not parse: %s" f.cf_file e
    | Ok j ->
      Alcotest.(check bool) "holds a timed-out trial" true
        (any_trial (fun t -> path [ "outcome"; "class" ] t = Some (Report.Str "timeout")) j);
      Alcotest.(check bool) "holds a fault-sensitive trial" true
        (any_trial
           (fun t ->
             match path [ "faults"; "sensitive" ] t with Some (Report.Int n) -> n > 0 | _ -> false)
           j))

(* --- Regeneration mode --------------------------------------------------------- *)

let update_fixtures dir =
  List.iter
    (fun (bm : Spec.benchmark) ->
      let _, trace, _ = reference_trace bm in
      let path = Filename.concat dir (bm.Spec.bm_name ^ ".trace") in
      let oc = open_out_bin path in
      output_string oc (render bm trace);
      close_out oc;
      Printf.printf "wrote %s\n" path)
    Spec.all;
  let trace, _ = drmt_reference_trace () in
  let path = Filename.concat dir (drmt_name ^ ".trace") in
  let oc = open_out_bin path in
  output_string oc (drmt_render trace);
  close_out oc;
  Printf.printf "wrote %s\n" path;
  let path = Filename.concat dir (drmt_name ^ ".stats") in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (drmt_render_stats ()));
  Printf.printf "wrote %s\n" path;
  List.iter
    (fun f ->
      let path = Filename.concat dir f.cf_file in
      match campaign_fixture_report f with
      | Error reason -> Printf.printf "kept %s: native toolchain unavailable (%s)\n" path reason
      | Ok report ->
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc report);
        Printf.printf "wrote %s\n" path)
    campaign_fixtures

(* --- Checks ---------------------------------------------------------------------- *)

let test_fixture_matches (bm : Spec.benchmark) () =
  let _, trace, _ = reference_trace bm in
  let expected = read_file (fixture_path bm) in
  Alcotest.(check string) (bm.Spec.bm_name ^ " matches its golden trace") expected
    (render bm trace)

let test_all_configs_match (bm : Spec.benchmark) () =
  let compiled, reference, inputs = reference_trace bm in
  let desc = compiled.Codegen.c_desc in
  let mc = compiled.Codegen.c_mc in
  let init = compiled.Codegen.c_layout.Codegen.l_init in
  List.iter
    (fun level ->
      let optimized = Optimizer.apply ~level ~mc desc in
      let closure = Compile.compile optimized ~mc in
      List.iter
        (fun (backend_name, trace) ->
          if not (Trace.equal reference trace) then
            match Oracle.diff_traces ~reference ~actual:trace with
            | Some (kind, expected, actual) ->
              let where =
                match kind with
                | `Output (i, c) -> Printf.sprintf "output phv %d container %d" i c
                | `State (alu, slot) -> Printf.sprintf "state %s[%d]" alu slot
                | `Shape -> "trace shape"
              in
              Alcotest.failf "%s: %s@%s diverges from golden reference at %s (%d vs %d)"
                bm.Spec.bm_name backend_name (Optimizer.level_name level) where expected actual
            | None -> Alcotest.failf "%s: traces differ only in inputs?" bm.Spec.bm_name)
        [
          ("interpreter", Engine.run ~init optimized ~mc ~inputs);
          ("closures", Compiled.run_compiled ~init closure ~inputs);
        ])
    Oracle.all_levels

let test_drmt_fixture_matches () =
  let trace, _ = drmt_reference_trace () in
  let expected = read_file drmt_fixture_path in
  Alcotest.(check string) (drmt_name ^ " matches its golden trace") expected (drmt_render trace)

let test_drmt_stats_match () =
  Alcotest.(check string) (drmt_name ^ " matches its golden stats") (read_file drmt_stats_path)
    (drmt_render_stats ())

let test_drmt_event_matches_reference () =
  let reference, inputs = drmt_reference_trace () in
  let event = run_substrate (Drmt_substrate.pack (drmt_substrate Drmt_substrate.Event)) ~inputs in
  if not (Trace.equal reference event) then
    match Oracle.diff_traces ~reference ~actual:event with
    | Some (kind, expected, actual) ->
      let where =
        match kind with
        | `Output (i, c) -> Printf.sprintf "output phv %d container %d" i c
        | `State (reg, slot) -> Printf.sprintf "register %s[%d]" reg slot
        | `Shape -> "trace shape"
      in
      Alcotest.failf "%s: event substrate diverges from sequential reference at %s (%d vs %d)"
        drmt_name where expected actual
    | None -> Alcotest.failf "%s: traces differ only in inputs?" drmt_name

let () =
  match Sys.getenv_opt "GOLDEN_UPDATE" with
  | Some dir -> update_fixtures dir
  | None ->
    Alcotest.run "golden"
      [
        ( "fixtures",
          List.map
            (fun (bm : Spec.benchmark) ->
              Alcotest.test_case bm.Spec.bm_name `Quick (test_fixture_matches bm))
            Spec.all
          @ [
              Alcotest.test_case drmt_name `Quick test_drmt_fixture_matches;
              Alcotest.test_case (drmt_name ^ " stats") `Quick test_drmt_stats_match;
            ] );
        ( "all configurations",
          List.map
            (fun (bm : Spec.benchmark) ->
              Alcotest.test_case bm.Spec.bm_name `Quick (test_all_configs_match bm))
            Spec.all
          @ [
              Alcotest.test_case (drmt_name ^ " event=sequential") `Quick
                test_drmt_event_matches_reference;
            ] );
        ( "campaign reports",
          List.map
            (fun f -> Alcotest.test_case f.cf_file `Quick (test_campaign_fixture f))
            campaign_fixtures );
      ]
