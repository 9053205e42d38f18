(* The druzhba command-line tool.

   Subcommands mirror the paper's components:

     druzhba dgen       generate and print a pipeline description (Fig. 6)
     druzhba dsim       simulate machine code on a pipeline (RMT dsim)
     druzhba compile    compile a packet program to machine code
     druzhba lint       static checks on a pipeline + machine code
     druzhba vet        translation validation: prove the optimizer and backend correct
     druzhba fuzz       compiler-testing workflow of Fig. 5
     druzhba campaign   multicore differential fuzz campaign
     druzhba synth      synthesis backend + wide-width verification (§5.2)
     druzhba drmt       dRMT schedule + simulation (§4)
     druzhba table1     reproduce Table 1
     druzhba casestudy  reproduce the §5.2 case study
     druzhba benchmarks list the Table-1 programs *)

module Druzhba = Druzhba_core.Druzhba
open Druzhba
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- Shared arguments ---------------------------------------------------------- *)

let depth_arg =
  Arg.(value & opt int 2 & info [ "depth" ] ~docv:"N" ~doc:"Number of pipeline stages.")

let width_arg =
  Arg.(
    value & opt int 2
    & info [ "width" ] ~docv:"N" ~doc:"ALUs per stage and PHV containers.")

let bits_arg =
  Arg.(value & opt int 32 & info [ "bits" ] ~docv:"B" ~doc:"Datapath width in bits.")

let seed_arg = Arg.(value & opt int 0xD52ba & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")

let phvs_arg =
  Arg.(value & opt int 1000 & info [ "phvs" ] ~docv:"N" ~doc:"Number of random PHVs to simulate.")

let stateful_arg =
  Arg.(
    value & opt string "if_else_raw"
    & info [ "stateful-alu" ] ~docv:"ATOM|FILE"
        ~doc:"Stateful ALU: a built-in atom name or a .alu file in the ALU DSL.")

let stateless_arg =
  Arg.(
    value & opt string "stateless_full"
    & info [ "stateless-alu" ] ~docv:"ATOM|FILE"
        ~doc:"Stateless ALU: a built-in atom name or a .alu file in the ALU DSL.")

let level_arg =
  let levels =
    [ ("unoptimized", Optimizer.Unoptimized); ("scc", Optimizer.Scc); ("scc-inline", Optimizer.Scc_inline) ]
  in
  Arg.(
    value
    & opt (enum levels) Optimizer.Scc
    & info [ "optimize" ] ~docv:"LEVEL" ~doc:"Optimization level: unoptimized, scc, scc-inline.")

let atom_names = String.concat ", " Atoms.all_names

(* Exit-code discipline: 2 for usage errors (bad flags, unparseable
   inputs), 1 for genuine findings (divergences, lint errors, fuzz
   failures).  Everything user-supplied is parsed through the [Result]
   frontends so a malformed file is a diagnostic, not a backtrace. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("druzhba: " ^ msg);
      exit 2)
    fmt

let require_positive flag n = if n <= 0 then usage_error "%s must be positive (got %d)" flag n

let resolve_alu spec =
  match Atoms.find spec with
  | Some alu -> alu
  | None ->
    if Sys.file_exists spec then
      match
        Alu_dsl.Parser.parse_result
          ~name:(Filename.remove_extension (Filename.basename spec))
          (read_file spec)
      with
      | Ok alu -> alu
      | Error e -> usage_error "%s: %s" spec e
    else usage_error "unknown atom and no such file: %s (built-ins: %s)" spec atom_names

let parse_mc_file path =
  match Machine_code.parse (read_file path) with
  | Ok mc -> mc
  | Error e -> usage_error "%s: %s" path e

(* Machine code from [path] that lacks a pair [desc] requires is refused
   before anything reads it, naming every missing pair.  Out-of-range
   selectors are not refused: they run, taking a mux's default arm, and
   [lint] reports them. *)
let require_pairs path desc mc =
  let missing =
    match Machine_code.validate ~domains:(Ir.control_domains desc) mc with
    | Ok () -> []
    | Error violations ->
      List.filter_map
        (function Machine_code.Missing_pair name -> Some name | Machine_code.Out_of_range _ -> None)
        violations
  in
  if missing <> [] then
    usage_error "%s: missing machine-code pair%s: %s" path
      (if List.length missing = 1 then "" else "s")
      (String.concat ", " missing)

(* --- dgen ------------------------------------------------------------------------ *)

let dgen_cmd =
  let run depth width bits stateful stateless mc_file level seed =
    let stateful = resolve_alu stateful and stateless = resolve_alu stateless in
    let desc = Dgen.generate (Dgen.config ~depth ~width ~bits ()) ~stateful ~stateless in
    let optimized =
      match (mc_file, level) with
      | None, Optimizer.Unoptimized -> desc
      | None, _ ->
        (* no machine code given: optimize against a random program *)
        let mc = Fuzz.random_mc (Prng.create seed) desc in
        Optimizer.apply ~level ~mc desc
      | Some path, level ->
        let mc = parse_mc_file path in
        (* the unoptimized description reads no machine code *)
        if level <> Optimizer.Unoptimized then require_pairs path desc mc;
        Optimizer.apply ~level ~mc desc
    in
    print_string (Emit.to_string optimized);
    Printf.printf "\n(* %d IR nodes, %d helpers, %d machine-code controls *)\n"
      (Ir.size optimized) (Ir.helper_count optimized)
      (List.length (Ir.required_names optimized))
  in
  let doc = "Generate a pipeline description and print it (the Fig. 6 views)." in
  Cmd.v
    (Cmd.info "dgen" ~doc)
    Term.(
      const run $ depth_arg $ width_arg $ bits_arg $ stateful_arg $ stateless_arg
      $ Arg.(value & opt (some file) None & info [ "machine-code" ] ~docv:"FILE")
      $ level_arg $ seed_arg)

(* --- dsim ------------------------------------------------------------------------- *)

let dsim_cmd =
  let run depth width bits stateful stateless mc_file level seed phvs show_all =
    let stateful = resolve_alu stateful and stateless = resolve_alu stateless in
    let desc = Dgen.generate (Dgen.config ~depth ~width ~bits ()) ~stateful ~stateless in
    let mc =
      match mc_file with
      | Some path ->
        let mc = parse_mc_file path in
        require_pairs path desc mc;
        mc
      | None -> Fuzz.random_mc (Prng.create (seed + 1)) desc
    in
    let { sim_trace; _ } =
      simulate ~level ~bits ~seed ~depth ~width ~stateful ~stateless ~mc ~phvs ()
    in
    if show_all then Fmt.pr "%a@." Trace.pp sim_trace
    else begin
      let n = List.length sim_trace.Trace.outputs in
      List.iteri
        (fun i (input, output) ->
          if i < 10 || i >= n - 2 then
            Fmt.pr "phv %4d: in %a -> out %a@." i Phv.pp input Phv.pp output)
        (List.combine sim_trace.Trace.inputs sim_trace.Trace.outputs);
      if n > 12 then Fmt.pr "... (%d PHVs total)@." n;
      List.iter
        (fun (name, state) ->
          Fmt.pr "state %s = [%a]@." name Fmt.(array ~sep:(any "; ") int) state)
        sim_trace.Trace.final_state
    end
  in
  let doc = "Simulate random PHVs through a pipeline loaded with machine code (RMT dsim)." in
  Cmd.v
    (Cmd.info "dsim" ~doc)
    Term.(
      const run $ depth_arg $ width_arg $ bits_arg $ stateful_arg $ stateless_arg
      $ Arg.(value & opt (some file) None & info [ "machine-code" ] ~docv:"FILE")
      $ level_arg $ seed_arg $ phvs_arg
      $ Arg.(value & flag & info [ "full-trace" ] ~doc:"Print every PHV."))

(* --- compile ----------------------------------------------------------------------- *)

let program_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "program" ] ~docv:"FILE|BENCHMARK"
        ~doc:"Packet program: a .domino file or a Table-1 benchmark name.")

let load_program_and_target spec depth width bits stateful stateless =
  if bits < 1 || bits > Value.max_width then
    usage_error "--bits must be in 1..%d (got %d)" Value.max_width bits;
  match Spec.find spec with
  | Some bm -> (Spec.program bm, Spec.target ~bits bm)
  | None ->
    if Sys.file_exists spec then
      let program =
        match
          Compiler.Frontend.parse_result
            ~name:(Filename.remove_extension (Filename.basename spec))
            (read_file spec)
        with
        | Ok program -> program
        | Error e -> usage_error "%s: %s" spec e
      in
      ( program,
        Compiler.Codegen.target ~depth ~width ~bits ~stateful:(resolve_alu stateful)
          ~stateless:(resolve_alu stateless) () )
    else usage_error "no such benchmark or file: %s" spec

let compile_cmd =
  let run program depth width bits stateful stateless =
    let program, target = load_program_and_target program depth width bits stateful stateless in
    match Compiler.Codegen.compile ~target program with
    | Error e ->
      Printf.eprintf "compile error: %s\n" e;
      exit 1
    | Ok compiled ->
      print_string (Machine_code.to_string compiled.Compiler.Codegen.c_mc);
      let l = compiled.Compiler.Codegen.c_layout in
      List.iter (fun (f, c) -> Printf.printf "# input  pkt.%s -> container %d\n" f c)
        l.Compiler.Codegen.l_inputs;
      List.iter (fun (f, c) -> Printf.printf "# output pkt.%s -> container %d\n" f c)
        l.Compiler.Codegen.l_outputs;
      List.iter
        (fun (v, (alu, slot)) -> Printf.printf "# state  %s -> %s[%d]\n" v alu slot)
        l.Compiler.Codegen.l_state
  in
  let doc = "Compile a packet program to Druzhba machine code (rule-based backend)." in
  Cmd.v
    (Cmd.info "compile" ~doc)
    Term.(
      const run $ program_arg $ depth_arg $ width_arg $ bits_arg $ stateful_arg $ stateless_arg)

(* --- lint -------------------------------------------------------------------------- *)

let lint_cmd =
  let run depth width bits stateful stateless mc_file program p4_file processors match_cap
      action_cap benchmarks json strict =
    (* lint keeps duplicate pairs visible instead of rejecting them: the
       tolerant [parse_pairs] feeds the duplicate-pair rule, and the
       last-wins [of_list] view is what the semantic rules check *)
    let parse_mc path =
      match Machine_code.parse_pairs (read_file path) with
      | Ok pairs -> (Machine_code.of_list pairs, pairs)
      | Error e -> usage_error "%s: %s" path e
    in
    let targets =
      match p4_file with
      | Some path ->
        (* dRMT mode: lint the table-dependency DAG of a P4 program for
           cycles and line-rate schedulability under the given crossbar *)
        let p =
          match Drmt.P4.parse_result (read_file path) with
          | Ok p -> p
          | Error e -> usage_error "%s: %s" path e
        in
        let cfg =
          Drmt.Scheduler.config ~processors ~match_capacity:match_cap
            ~action_capacity:action_cap ()
        in
        [ (Filename.remove_extension (Filename.basename path), Lint.check_p4 ~cfg p) ]
      | None ->
      if benchmarks then
        (* every Table-1 program, compiled by the rule-based backend *)
        List.map
          (fun (bm : Spec.benchmark) ->
            let compiled = Spec.compile_exn bm in
            ( bm.Spec.bm_name,
              Lint.check ~mc:compiled.Compiler.Codegen.c_mc compiled.Compiler.Codegen.c_desc ))
          Spec.all
      else
        match program with
        | Some p -> (
          let program, target = load_program_and_target p depth width bits stateful stateless in
          match Compiler.Codegen.compile ~target program with
          | Error e ->
            Printf.eprintf "compile error: %s\n" e;
            exit 2
          | Ok compiled ->
            (* --machine-code replaces the compiler's own output, so a
               third-party program can be checked against this pipeline *)
            let mc, pairs =
              match mc_file with
              | Some path -> parse_mc path
              | None -> (compiled.Compiler.Codegen.c_mc, [])
            in
            [ (program.Compiler.Ast.name, Lint.check ~mc ~pairs compiled.Compiler.Codegen.c_desc) ])
        | None ->
          let stateful = resolve_alu stateful and stateless = resolve_alu stateless in
          let desc = Dgen.generate (Dgen.config ~depth ~width ~bits ()) ~stateful ~stateless in
          let findings =
            match mc_file with
            | Some path ->
              let mc, pairs = parse_mc path in
              Lint.check ~mc ~pairs desc
            | None -> Lint.check desc (* description-only rules *)
          in
          [ ("pipeline", findings) ]
    in
    if json then
      print_string
        (Lint.report_to_json ~tool:"lint"
           (List.map (fun (name, findings) -> Lint.target ~name findings) targets)
        ^ "\n")
    else
      List.iter (fun (name, findings) -> Fmt.pr "@[<v>%s:@,%a@]@." name Lint.pp findings) targets;
    let failed =
      List.exists (fun (_, fs) -> Lint.has_errors fs || (strict && fs <> [])) targets
    in
    if failed then exit 1
  in
  let doc =
    "Statically check a pipeline description and machine code: missing and out-of-range \
     machine-code pairs, dead ALUs, write-only state slots, unreachable branches, helper-call \
     defects, unused ALU-DSL declarations.  With --p4, check a dRMT program's table-dependency \
     DAG for cycles and line-rate schedulability instead.  Exits non-zero on errors."
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(
      const run $ depth_arg $ width_arg $ bits_arg $ stateful_arg $ stateless_arg
      $ Arg.(
          value
          & opt (some file) None
          & info [ "machine-code" ] ~docv:"FILE" ~doc:"Machine-code program to check.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "program" ] ~docv:"FILE|BENCHMARK"
              ~doc:"Compile this packet program and lint the result.")
      $ Arg.(
          value
          & opt (some file) None
          & info [ "p4" ] ~docv:"FILE"
              ~doc:
                "Lint a dRMT P4-subset program instead: flag cyclic and unschedulable \
                 table-dependency DAGs (offending tables named).")
      $ Arg.(
          value & opt int 4
          & info [ "processors" ] ~docv:"P" ~doc:"dRMT processors (with --p4).")
      $ Arg.(
          value & opt int 8
          & info [ "match-capacity" ] ~docv:"M"
              ~doc:"Crossbar match issues per cycle (with --p4).")
      $ Arg.(
          value & opt int 32
          & info [ "action-capacity" ] ~docv:"A"
              ~doc:"Crossbar action issues per cycle (with --p4).")
      $ Arg.(
          value & flag
          & info [ "benchmarks" ] ~doc:"Lint every Table-1 benchmark program (used by CI).")
      $ Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")
      $ Arg.(value & flag & info [ "strict" ] ~doc:"Treat warnings as failures."))

(* --- fuzz -------------------------------------------------------------------------- *)

(* On a divergence, backward-slice the provenance graph from the diverging
   observable so the report names the ALUs / controls involved.  A spec
   state index is mapped back to its (ALU, slot) through the layout. *)
let print_triage ~desc ~mc ~state_layout kind =
  let kind =
    match kind with
    | `Output c -> Some (`Output c)
    | `State idx -> (
      match List.find_opt (fun (_, _, i) -> i = idx) state_layout with
      | Some (alu, slot, _) -> Some (`State (alu, slot))
      | None -> None)
  in
  match kind with
  | None -> ()
  | Some kind -> Fmt.pr "%a@." Verify.pp_triage (Verify.triage ~desc ~mc kind)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"J"
        ~doc:
          "Shard trials across $(docv) OCaml domains.  0 means the runtime's recommended domain \
           count.  Results are independent of $(docv): per-trial seeds are derived from the \
           master seed and the trial index.")

let resolve_jobs jobs = if jobs = 0 then Campaign.Runner.default_jobs () else jobs

let fuzz_cmd =
  let run program depth width bits stateful stateless phvs seed level trials jobs =
    require_positive "--phvs" phvs;
    require_positive "--trials" trials;
    let program, target = load_program_and_target program depth width bits stateful stateless in
    match Compiler.Codegen.compile ~target program with
    | Error e ->
      Printf.eprintf "compile error: %s\n" e;
      exit 1
    | Ok compiled ->
      if trials = 1 then begin
        let outcome = Compiler.Testing.check ~level ~seed ~n:phvs compiled in
        Fmt.pr "%s: %a@." program.Compiler.Ast.name Fuzz.pp_outcome outcome;
        (match outcome with
        | Fuzz.Mismatch mm ->
          print_triage ~desc:compiled.Compiler.Codegen.c_desc ~mc:compiled.Compiler.Codegen.c_mc
            ~state_layout:(Compiler.Testing.state_layout compiled) mm.Fuzz.mm_kind
        | _ -> ());
        if not (Fuzz.outcome_is_pass outcome) then exit 1
      end
      else begin
        (* campaign mode: [trials] independent fuzz runs with seeds derived
           from the master seed, sharded over domains *)
        Campaign.Runner.force_atoms ();
        let jobs = resolve_jobs jobs in
        let outcomes =
          Campaign.Runner.parallel_init ~jobs trials (fun i ->
              let trial_seed = Prng.derive seed i in
              (i, trial_seed, Compiler.Testing.check ~level ~seed:trial_seed ~n:phvs compiled))
        in
        let failures =
          Array.to_list outcomes |> List.filter (fun (_, _, o) -> not (Fuzz.outcome_is_pass o))
        in
        Fmt.pr "%s: %d trials (%d PHVs each, master seed %d): %d passed, %d failed@."
          program.Compiler.Ast.name trials phvs seed
          (trials - List.length failures)
          (List.length failures);
        List.iter
          (fun (i, trial_seed, o) ->
            Fmt.pr "  trial %d (seed %d): %a@." i trial_seed Fuzz.pp_outcome o)
          failures;
        if failures <> [] then exit 1
      end
  in
  let doc = "Run the compiler-testing workflow of Fig. 5: compile, simulate, compare traces." in
  Cmd.v
    (Cmd.info "fuzz" ~doc)
    Term.(
      const run $ program_arg $ depth_arg $ width_arg $ bits_arg $ stateful_arg $ stateless_arg
      $ phvs_arg $ seed_arg $ level_arg
      $ Arg.(
          value & opt int 1
          & info [ "trials" ] ~docv:"N"
              ~doc:"Run $(docv) independent fuzz trials with derived seeds.")
      $ jobs_arg)

(* --- witness files -------------------------------------------------------------------

   [druzhba vet --witnesses FILE] exports refutation witnesses and
   undecided-obligation candidates; [druzhba campaign --directed FILE]
   replays them as directed trials (the candidate packet first, from reset,
   then random traffic).  Line format:

     druzhba-witnesses/1
     depth 2
     width 2
     bits 10
     stateful if_else_raw
     stateless stateless_full
     trial <program> <subject-id> <v0,v1,...>                              *)

let witness_schema = "druzhba-witnesses/1"

let parse_witness_file path =
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter_map (fun l ->
           let l = String.trim l in
           if l = "" || l.[0] = '#' then None else Some l)
  in
  match lines with
  | [] -> usage_error "%s: empty witness file" path
  | schema :: rest ->
    if schema <> witness_schema then
      usage_error "%s: expected '%s', got '%s'" path witness_schema schema;
    let header = Hashtbl.create 8 in
    let trials = ref [] in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "trial"; program; subject; vals ] ->
          let phv =
            List.map
              (fun v ->
                match int_of_string_opt v with
                | Some n -> n
                | None -> usage_error "%s: bad container value '%s'" path v)
              (String.split_on_char ',' vals)
          in
          trials := (program, subject, phv) :: !trials
        | [ key; value ] -> Hashtbl.replace header key value
        | _ -> usage_error "%s: malformed line '%s'" path line)
      rest;
    (header, List.rev !trials)

let run_directed path ~phvs ~seed ~report =
  let header, trials = parse_witness_file path in
  let get key default = Option.value (Hashtbl.find_opt header key) ~default in
  let geti key default =
    match int_of_string_opt (get key (string_of_int default)) with
    | Some n -> n
    | None -> usage_error "%s: bad header value for '%s'" path key
  in
  let depth = geti "depth" 2 and width = geti "width" 2 and bits = geti "bits" 32 in
  let stateful = get "stateful" "if_else_raw" and stateless = get "stateless" "stateless_full" in
  let programs =
    List.fold_left
      (fun acc (p, _, _) -> if List.mem p acc then acc else p :: acc)
      [] trials
    |> List.rev
  in
  let failures = ref 0 in
  let records = ref [] in
  List.iter
    (fun name ->
      let program, target = load_program_and_target name depth width bits stateful stateless in
      match Compiler.Codegen.compile ~target program with
      | Error e ->
        Printf.eprintf "compile error (%s): %s\n" name e;
        exit 2
      | Ok compiled ->
        let w = compiled.Compiler.Codegen.c_desc.Ir.d_width in
        List.iter
          (fun (p, subject, vals) ->
            if p = name then begin
              let phv = Array.make w 0 in
              List.iteri (fun i v -> if i < w then phv.(i) <- v) vals;
              (* maximal optimization level: directed trials exist to chase
                 what static validation could not prove about the optimizer *)
              let outcome =
                Compiler.Testing.check_directed ~level:Optimizer.Scc_inline ~seed
                  ~prefix:[ phv ] ~n:phvs compiled
              in
              Fmt.pr "directed %s %s: %a@." p subject Fuzz.pp_outcome outcome;
              let pass = Fuzz.outcome_is_pass outcome in
              if not pass then incr failures;
              records :=
                Campaign.Report.Obj
                  [
                    ("program", Campaign.Report.Str p);
                    ("subject", Campaign.Report.Str subject);
                    ("phv", Campaign.Report.phv phv);
                    ("pass", Campaign.Report.Bool pass);
                    ("outcome", Campaign.Report.Str (Fmt.str "%a" Fuzz.pp_outcome outcome));
                  ]
                :: !records
            end)
          trials)
    programs;
  Fmt.pr "%d directed trial(s), %d failure(s)@." (List.length trials) !failures;
  (* the directed report shares the campaign report's determinism contract:
     trials in witness-file order, nothing environmental, atomic write —
     so a restarted directed job reproduces the file byte-for-byte *)
  (match report with
  | None -> ()
  | Some path ->
    Druzhba_util.Atomic_file.atomic_write_string path
      (Campaign.Report.to_string
         (Campaign.Report.Obj
            [
              ("campaign", Campaign.Report.Str "directed");
              ("seed", Campaign.Report.Int seed);
              ("phvs", Campaign.Report.Int phvs);
              ("trials", Campaign.Report.Int (List.length trials));
              ("failures", Campaign.Report.Int !failures);
              ("results", Campaign.Report.List (List.rev !records));
            ])
      ^ "\n"));
  if !failures > 0 then exit Campaign.Exit_code.findings

(* --- campaign ----------------------------------------------------------------------- *)

let campaign_cmd =
  let run trials jobs seed substrate phvs no_shrink max_probes fuel timeout max_failures faults
      fault_runs faults_per_run checkpoint resume checkpoint_every stop_after coverage corpus_dir
      sabotage_pass json out directed chaos_kill_after chaos_kill_file =
    match directed with
    | Some path -> run_directed path ~phvs ~seed ~report:out
    | None ->
    (* --trial-fuel is exact ticks; --trial-timeout converts seconds at the
       fixed nominal tick rate so the watchdog stays deterministic *)
    let fuel =
      match (fuel, timeout) with
      | Some _, Some _ -> usage_error "--trial-fuel and --trial-timeout are mutually exclusive"
      | Some f, None -> Some f
      | None, Some secs -> Some (secs * Budget.nominal_ticks_per_second)
      | None, None -> None
    in
    (* chaos flags (testing aids for the service supervisor's fault-injection
       suite): at trial CHAOS_N the worker SIGKILLs itself — unconditionally
       (a poison job that dies on every attempt), or only when the arming
       file exists, consuming it first (a one-shot mid-run kill -9 whose
       restart then runs clean from the checkpoint). *)
    let chaos_hook =
      match chaos_kill_after with
      | None -> None
      | Some at ->
        Some
          (fun i ->
            if i = at then
              match chaos_kill_file with
              | None -> Unix.kill (Unix.getpid ()) Sys.sigkill
              | Some f ->
                if Sys.file_exists f then begin
                  Sys.remove f;
                  Unix.kill (Unix.getpid ()) Sys.sigkill
                end)
    in
    let cfg =
      try
        (* the fault counts are judged with --faults off too, as
           [Campaign.config_of_json] judges them *)
        let fc = Campaign.fault_config ~runs:fault_runs ~per_run:faults_per_run () in
        Campaign.config ~trials ~jobs:(resolve_jobs jobs) ~master_seed:seed ~substrate ~phvs
          ~shrink:(not no_shrink) ~max_probes ?fuel ?max_failures
          ?faults:(if faults then Some fc else None)
          ~checkpoint_every ~coverage ?corpus_dir ~sabotage_pass ()
      with Invalid_argument msg -> usage_error "%s" msg
    in
    (* Graceful shutdown: SIGINT/SIGTERM cut the campaign at the next block
       boundary after its checkpoint is flushed, then exit with the distinct
       "interrupted" code — a supervisor-initiated stop is never data loss. *)
    let interrupted = ref false in
    let graceful = Sys.Signal_handle (fun _ -> interrupted := true) in
    Sys.set_signal Sys.sigint graceful;
    Sys.set_signal Sys.sigterm graceful;
    match
      Campaign.run_resumable ?checkpoint ~resume ?stop_after
        ~should_stop:(fun () -> !interrupted)
        ?hook:chaos_hook cfg
    with
    | exception (Campaign.Resume_error msg | Invalid_argument msg) -> usage_error "%s" msg
    | None when !interrupted ->
      (match checkpoint with
      | Some path ->
        Fmt.pr "campaign interrupted; checkpoint flushed to %s — continue with --resume@." path
      | None ->
        Fmt.pr "campaign interrupted (no --checkpoint configured, progress not persisted)@.");
      exit Campaign.Exit_code.interrupted
    | None ->
      (* --stop-after simulated a kill; the checkpoint holds the progress *)
      Fmt.pr "campaign stopped by --stop-after; continue with --checkpoint %s --resume@."
        (Option.value checkpoint ~default:"FILE")
    | Some report ->
      (match out with
      | Some path ->
        Druzhba_util.Atomic_file.atomic_write_string path (Campaign.to_json report ^ "\n")
      | None -> ());
      if json then print_string (Campaign.to_json report ^ "\n")
      else Fmt.pr "%a@." Campaign.pp report;
      let code = Campaign.Exit_code.of_report report in
      if code <> Campaign.Exit_code.ok then exit code
  in
  let doc =
    "Run a multicore differential fuzz campaign.  --substrate rmt runs random machine code on \
     random small pipelines, executed on both simulation backends (interpreter and \
     closure-compiled) at all three optimization levels; --substrate drmt runs random P4 \
     programs and table entries on the event-driven dRMT model against the sequential P4 \
     reference semantics; --substrate all alternates; --substrate native emits real OCaml from \
     the pipeline IR, compiles and Dynlinks it, and diffs it against the interpreted \
     backends.  Cross-substrate divergences are shrunk \
     and reported.  Trials are crash-contained and watchdogged \
     (--trial-fuel/--trial-timeout); --max-failures stops early; --checkpoint/--resume survive \
     kills; --faults adds hardware fault injection.  The JSON report is byte-identical for a \
     fixed master seed regardless of --jobs."
  in
  (* the library's defaults: a flag left out means what a key left out of
     a `druzhba serve` submission means *)
  let d = Campaign.config () and fd = Campaign.fault_config () in
  Cmd.v
    (Cmd.info "campaign" ~doc)
    Term.(
      const run
      $ Arg.(value & opt int d.c_trials & info [ "trials" ] ~docv:"N" ~doc:"Number of trials.")
      $ jobs_arg $ seed_arg
      $ Arg.(
          value
          & opt
              (enum (List.map (fun n -> (n, n)) Campaign.substrate_names))
              d.c_substrate
          & info [ "substrate" ] ~docv:"FAMILY"
              ~doc:
                "Substrate selection from the registry: $(b,rmt) (interpreter vs closure \
                 compiler at all optimization levels), $(b,drmt) (event-driven dRMT vs \
                 sequential P4 reference semantics), $(b,all) (trials alternate between the \
                 two), or $(b,native) (interpreter and closures vs the Dynlinked native-codegen \
                 artifact; degrades to an interpreted fallback without the OCaml toolchain).")
      $ Arg.(value & opt int d.c_phvs & info [ "phvs" ] ~docv:"N" ~doc:"PHVs simulated per trial.")
      $ Arg.(value & flag & info [ "no-shrink" ] ~doc:"Skip counterexample shrinking.")
      $ Arg.(
          value & opt int d.c_max_probes
          & info [ "max-probes" ] ~docv:"N" ~doc:"Shrinking budget (oracle re-runs).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "trial-fuel" ] ~docv:"TICKS"
              ~doc:"Per-trial watchdog budget in simulation ticks (deterministic).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "trial-timeout" ] ~docv:"SECONDS"
              ~doc:
                "Per-trial watchdog as approximate seconds, converted to ticks at a fixed \
                 nominal rate (so reports stay machine-independent).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "max-failures" ] ~docv:"N"
              ~doc:"Circuit breaker: stop after the $(docv)th failing trial (partial report).")
      $ Arg.(
          value & flag
          & info [ "faults" ]
              ~doc:
                "Fault-injection mode: stress every agreeing trial under seeded bit flips, \
                 stuck-at state slots and dropped PHVs; both substrates must agree under faults \
                 and fault-free replays must stay pristine.")
      $ Arg.(
          value & opt int fd.fc_runs
          & info [ "fault-runs" ] ~docv:"N" ~doc:"Fault scenarios per trial (with --faults).")
      $ Arg.(
          value & opt int fd.fc_per_run
          & info [ "faults-per-run" ] ~docv:"N" ~doc:"Faults drawn per scenario (with --faults).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "checkpoint" ] ~docv:"FILE"
              ~doc:"Persist campaign progress to $(docv) after every block of trials.")
      $ Arg.(
          value & flag
          & info [ "resume" ]
              ~doc:"Continue a killed campaign from --checkpoint, under the same configuration \
                    flags; the final report is byte-identical to an uninterrupted run.")
      $ Arg.(
          value & opt int d.c_checkpoint_every
          & info [ "checkpoint-every" ] ~docv:"N"
              ~doc:"Trials per execution block (checkpoint granularity); a resume must use \
                    the same value.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "stop-after" ] ~docv:"N"
              ~doc:"Testing aid: abort the campaign after $(docv) trials as if killed.")
      $ Arg.(
          value & flag
          & info [ "coverage" ]
              ~doc:
                "Coverage-guided mode: track the structural coverage each trial exercises \
                 (ALU branch arms, output-mux selector arms, stateful latch paths, \
                 machine-code value classes, dRMT DAG shapes), keep coverage-novel programs \
                 in a corpus, and bias later trials toward structural mutations of corpus \
                 members.  Corpus evolution is deterministic and byte-identical across \
                 --jobs; the report gains a druzhba-coverage/1 section.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "corpus" ] ~docv:"DIR"
              ~doc:"Persist the evolved corpus to $(docv) (requires --coverage).")
      $ Arg.(
          value & flag
          & info [ "sabotage-pass" ]
              ~doc:
                "Testing aid: plant a buggy optimizer pass whose trigger needs a boundary \
                 immediate value that uniform-random generation cannot produce — the \
                 acceptance gate showing coverage-guided mode finds what random misses.")
      $ Arg.(value & flag & info [ "json" ] ~doc:"Print the JSON report to stdout.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "report" ] ~docv:"FILE" ~doc:"Write the JSON report to $(docv).")
      $ Arg.(
          value
          & opt (some file) None
          & info [ "directed" ] ~docv:"FILE"
              ~doc:
                "Replay the witness candidates in $(docv) (from $(b,druzhba vet --witnesses)) \
                 as directed trials instead of a random campaign: each candidate packet is fed \
                 first, from the reset state, followed by --phvs random PHVs.  Exits non-zero \
                 if any directed trial diverges.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "chaos-kill-after" ] ~docv:"N"
              ~doc:
                "Testing aid (service fault injection): SIGKILL this process at trial $(docv) — \
                 on every attempt, or once if --chaos-kill-file is armed.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "chaos-kill-file" ] ~docv:"FILE"
              ~doc:
                "Testing aid: with --chaos-kill-after, only die while $(docv) exists, removing \
                 it first — so a supervisor restart from the checkpoint runs clean."))

(* --- synth -------------------------------------------------------------------------- *)

let synth_cmd =
  let run program depth width bits stateful stateless synth_bits budget phvs =
    let program, target = load_program_and_target program depth width bits stateful stateless in
    match
      Compiler.Synth.synthesize
        {
          Compiler.Synth.p_program = program;
          p_target = target;
          p_synth_bits = synth_bits;
          p_examples = 16;
          p_budget = budget;
          p_seed = 42;
        }
    with
    | Compiler.Synth.Budget_exhausted { candidates } ->
      Printf.printf "synthesis failed: budget exhausted after %d candidates\n" candidates;
      exit 1
    | Compiler.Synth.Synthesized compiled ->
      Printf.printf "# synthesized at %d bits\n" synth_bits;
      print_string (Machine_code.to_string compiled.Compiler.Codegen.c_mc);
      let outcome = Compiler.Testing.check ~n:phvs compiled in
      Fmt.pr "# verification at %d bits: %a@." bits Fuzz.pp_outcome outcome
  in
  let doc = "Synthesize machine code (CEGIS, Chipmunk-style) and verify it by fuzzing." in
  Cmd.v
    (Cmd.info "synth" ~doc)
    Term.(
      const run $ program_arg
      $ Arg.(value & opt int 1 & info [ "depth" ] ~docv:"N")
      $ Arg.(value & opt int 1 & info [ "width" ] ~docv:"N")
      $ Arg.(value & opt int 10 & info [ "bits" ] ~docv:"B" ~doc:"Verification width.")
      $ Arg.(value & opt string "pair" & info [ "stateful-alu" ] ~docv:"ATOM|FILE")
      $ stateless_arg
      $ Arg.(value & opt int 4 & info [ "synth-bits" ] ~docv:"B" ~doc:"Synthesis width.")
      $ Arg.(value & opt int 150_000 & info [ "budget" ] ~docv:"N" ~doc:"Candidate budget.")
      $ phvs_arg)

(* --- verify ------------------------------------------------------------------------- *)

let verify_cmd =
  let run program depth width bits stateful stateless max_states =
    let program, target = load_program_and_target program depth width bits stateful stateless in
    match Compiler.Codegen.compile ~target program with
    | Error e ->
      Printf.eprintf "compile error: %s\n" e;
      exit 1
    | Ok compiled ->
      let result =
        Druzhba_fuzz.Verify.exhaustive_check ~max_states
          ~desc:compiled.Compiler.Codegen.c_desc ~mc:compiled.Compiler.Codegen.c_mc
          ~spec:(Compiler.Testing.spec_of compiled)
          ~observed:(Compiler.Testing.observed compiled)
          ~state_layout:(Compiler.Testing.state_layout compiled)
          ~init:compiled.Compiler.Codegen.c_layout.Compiler.Codegen.l_init ()
      in
      Fmt.pr "%s at %d bits: %a@." program.Compiler.Ast.name bits Druzhba_fuzz.Verify.pp_result
        result;
      (match result with
      | Druzhba_fuzz.Verify.Counterexample cx ->
        print_triage ~desc:compiled.Compiler.Codegen.c_desc ~mc:compiled.Compiler.Codegen.c_mc
          ~state_layout:(Compiler.Testing.state_layout compiled) cx.Druzhba_fuzz.Verify.cx_kind;
        exit 1
      | _ -> ())
  in
  let doc =
    "Exhaustively verify a compiled program against its specification at a small datapath width \
     (all inputs, all reachable states)."
  in
  Cmd.v
    (Cmd.info "verify" ~doc)
    Term.(
      const run $ program_arg $ depth_arg $ width_arg
      $ Arg.(value & opt int 3 & info [ "bits" ] ~docv:"B" ~doc:"Datapath width (keep small).")
      $ stateful_arg $ stateless_arg
      $ Arg.(value & opt int 500_000 & info [ "max-states" ] ~docv:"N" ~doc:"State budget."))

(* --- vet ---------------------------------------------------------------------------- *)

(* Translation validation (static, no PHV ever executed): prove each
   optimizer pass and the backend's machine code correct by symbolic
   equivalence, and emit what cannot be proved as directed-trial witness
   candidates for the fuzzing campaign. *)

(* A witness candidate's PHV part: the [Aphv] atoms of an assignment laid
   out as an input packet (unconstrained containers are 0). *)
let phv_of_assign ~width assign =
  let phv = Array.make width 0 in
  List.iter
    (function Symbolic.Aphv k, v when k < width -> phv.(k) <- v | _ -> ())
    assign;
  phv

let write_witness_file path ~bits ~depth ~width ~stateful ~stateless trials =
  let oc = open_out path in
  Printf.fprintf oc "%s\n" witness_schema;
  Printf.fprintf oc "depth %d\nwidth %d\nbits %d\nstateful %s\nstateless %s\n" depth width bits
    stateful stateless;
  let seen = Hashtbl.create 64 in
  let count = ref 0 in
  List.iter
    (fun (program, subject, phv) ->
      let key = (program, Array.to_list phv) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        incr count;
        Printf.fprintf oc "trial %s %s %s\n" program subject
          (String.concat "," (List.map string_of_int (Array.to_list phv)))
      end)
    trials;
  close_out oc;
  !count

let vet_cmd =
  let run program benchmarks depth width bits stateful stateless levels synth synth_bits budget
      json witnesses =
    let max_level =
      let names = String.split_on_char ',' levels in
      if List.mem "scc-inline" names then Optimizer.Scc_inline
      else if List.mem "scc" names then Optimizer.Scc
      else if names = [ "unoptimized" ] then Optimizer.Unoptimized
      else usage_error "--opt-levels: unknown level in '%s' (unoptimized, scc, scc-inline)" levels
    in
    let compile_target name =
      let program, target = load_program_and_target name depth width bits stateful stateless in
      if synth then
        match
          Compiler.Synth.synthesize
            {
              Compiler.Synth.p_program = program;
              p_target = target;
              p_synth_bits = synth_bits;
              p_examples = 16;
              p_budget = budget;
              p_seed = 42;
            }
        with
        | Compiler.Synth.Budget_exhausted { candidates } ->
          usage_error "%s: synthesis budget exhausted after %d candidates" name candidates
        | Compiler.Synth.Synthesized compiled -> (program.Compiler.Ast.name, compiled)
      else
        match Compiler.Codegen.compile ~target program with
        | Error e ->
          Printf.eprintf "compile error: %s\n" e;
          exit 2
        | Ok compiled -> (program.Compiler.Ast.name, compiled)
    in
    let names =
      if benchmarks then List.map (fun (bm : Spec.benchmark) -> bm.Spec.bm_name) Spec.all
      else
        match program with
        | Some p -> [ p ]
        | None -> usage_error "vet needs --program or --benchmarks"
    in
    let any_refuted = ref false in
    let witness_trials = ref [] in
    let vet_target spec_name =
      (* [spec_name] (the benchmark name or file path, reloadable by
         [campaign --directed]) identifies witness trials; the parsed
         program name labels the report *)
      let name, compiled = compile_target spec_name in
      let desc = compiled.Compiler.Codegen.c_desc and mc = compiled.Compiler.Codegen.c_mc in
      (* obligations, two families: consecutive optimizer passes against each
         other (per-pass IR snapshots from [apply_staged]), and the final
         artifact against the program's reference semantics at full width *)
      let chain =
        ("unoptimized", desc)
        :: List.map
             (fun st -> (st.Optimizer.st_pass, st.Optimizer.st_desc))
             (Optimizer.apply_staged ~level:max_level ~mc desc)
      in
      let pass_obs = Equiv.check_chain ~mc chain in
      let spec_obs = Compiler.Vet.check compiled in
      let statuses =
        List.map (fun ob -> ob.Equiv.ob_status) pass_obs
        @ List.map (fun ob -> ob.Compiler.Vet.vo_status) spec_obs
      in
      let counts =
        List.map
          (fun b ->
            (b, List.length (List.filter (fun st -> Equiv.taxonomy st = b) statuses)))
          Equiv.buckets
      in
      (* harvest witness candidates: refuted witnesses replay the bug,
         deferred candidates direct the fuzzer at what symbolic analysis
         could not decide *)
      let width = desc.Ir.d_width in
      let harvest subject = function
        | Equiv.Refuted (_, w) ->
          witness_trials :=
            (spec_name, subject, phv_of_assign ~width w.Equiv.w_assign) :: !witness_trials
        | Equiv.Deferred candidates ->
          List.iter
            (fun assign ->
              witness_trials :=
                (spec_name, subject, phv_of_assign ~width assign) :: !witness_trials)
            candidates
        | Equiv.Proved _ -> ()
      in
      List.iter (fun ob -> harvest (Equiv.subject_id ob.Equiv.ob_subject) ob.Equiv.ob_status)
        pass_obs;
      List.iter
        (fun ob -> harvest (Compiler.Vet.subject_id ob.Compiler.Vet.vo_subject) ob.Compiler.Vet.vo_status)
        spec_obs;
      let refuted_pass = List.filter Equiv.is_refuted pass_obs in
      let refuted_spec = List.filter Compiler.Vet.is_refuted spec_obs in
      if refuted_pass <> [] || refuted_spec <> [] then any_refuted := true;
      if not json then begin
        Fmt.pr "@[<v>%s: %d obligations (%s)@]@." name (List.length statuses)
          (String.concat ", "
             (List.filter_map
                (fun (b, n) -> if n > 0 then Some (Printf.sprintf "%d %s" n b) else None)
                counts));
        (* a refutation names the pass pair, the subject, the witness, and —
           via the provenance slice — the machine-code pairs that steer it *)
        List.iter
          (fun ob ->
            Fmt.pr "  REFUTED %a@." Equiv.pp_obligation ob;
            let kind =
              match ob.Equiv.ob_subject with
              | Equiv.Container (stage, c) -> `Container (stage, c)
              | Equiv.State_slot (alu, k) -> `State (alu, k)
            in
            Fmt.pr "  %a@." Verify.pp_triage (Verify.triage ~desc ~mc kind))
          refuted_pass;
        List.iter
          (fun ob ->
            Fmt.pr "  REFUTED %a@." Compiler.Vet.pp_obligation ob;
            let kind =
              match ob.Compiler.Vet.vo_subject with
              | Compiler.Vet.Output (_, c) -> `Output c
              | Compiler.Vet.State (_, alu, k) -> `State (alu, k)
            in
            Fmt.pr "  %a@." Verify.pp_triage (Verify.triage ~desc ~mc kind))
          refuted_spec;
        List.iter
          (fun ob ->
            match ob.Equiv.ob_status with
            | Equiv.Deferred _ -> Fmt.pr "  deferred %a@." Equiv.pp_obligation ob
            | _ -> ())
          pass_obs
      end;
      (* findings for the shared druzhba-report/1 schema *)
      let finding_of_status subject lhs rhs status =
        let message =
          Fmt.str "%s vs %s: %a" lhs rhs Equiv.pp_status status
        in
        match status with
        | Equiv.Refuted _ ->
          Some
            { Lint.f_rule = "refuted-obligation"; f_severity = Lint.Error; f_subject = subject;
              f_message = message }
        | Equiv.Deferred _ ->
          Some
            { Lint.f_rule = "deferred-obligation"; f_severity = Lint.Warning; f_subject = subject;
              f_message = message }
        | Equiv.Proved _ -> None
      in
      let findings =
        List.filter_map
          (fun ob ->
            finding_of_status (Equiv.subject_id ob.Equiv.ob_subject) ob.Equiv.ob_lhs_name
              ob.Equiv.ob_rhs_name ob.Equiv.ob_status)
          pass_obs
        @ List.filter_map
            (fun ob ->
              finding_of_status
                (Compiler.Vet.subject_id ob.Compiler.Vet.vo_subject)
                "spec" "pipeline" ob.Compiler.Vet.vo_status)
            spec_obs
      in
      let taxonomy_json =
        "{"
        ^ String.concat ","
            (List.map (fun (b, n) -> Printf.sprintf "\"%s\":%d" b n) counts)
        ^ "}"
      in
      Lint.target ~extra:[ ("taxonomy", taxonomy_json) ] ~name findings
    in
    let targets = List.map vet_target names in
    if json then print_string (Lint.report_to_json ~tool:"vet" targets ^ "\n");
    (match witnesses with
    | None -> ()
    | Some path ->
      let n =
        write_witness_file path ~bits ~depth ~width ~stateful ~stateless
          (List.rev !witness_trials)
      in
      if not json then Fmt.pr "%d witness candidate(s) written to %s@." n path);
    if !any_refuted then exit 1
  in
  let doc =
    "Translation validation: statically prove, per output container and state slot, that every \
     optimizer pass preserves the pipeline's symbolic transfer function, and that the compiled \
     (or synthesized) machine code implements the program's reference semantics at the full \
     datapath width — no PHV is ever executed.  Refutations come with replayable witness \
     packets and a provenance slice naming the pass, the container, and the machine-code pairs \
     involved; undecided obligations are exported with --witnesses as directed trials for \
     $(b,druzhba campaign --directed).  Exits non-zero if any obligation is refuted."
  in
  Cmd.v
    (Cmd.info "vet" ~doc)
    Term.(
      const run
      $ Arg.(
          value
          & opt (some string) None
          & info [ "program" ] ~docv:"FILE|BENCHMARK"
              ~doc:"Packet program: a .domino file or a Table-1 benchmark name.")
      $ Arg.(
          value & flag
          & info [ "benchmarks" ] ~doc:"Vet every Table-1 benchmark program (used by CI).")
      $ depth_arg $ width_arg $ bits_arg $ stateful_arg $ stateless_arg
      $ Arg.(
          value & opt string "scc,scc-inline"
          & info [ "opt-levels" ] ~docv:"LEVELS"
              ~doc:
                "Comma-separated optimization levels whose passes to validate (the maximal one \
                 determines the pass chain): unoptimized, scc, scc-inline.")
      $ Arg.(
          value & flag
          & info [ "synth" ]
              ~doc:"Vet the synthesis backend's output instead of the rule-based compiler's.")
      $ Arg.(
          value & opt int 4
          & info [ "synth-bits" ] ~docv:"B" ~doc:"Synthesis width (with --synth).")
      $ Arg.(
          value & opt int 150_000
          & info [ "budget" ] ~docv:"N" ~doc:"Synthesis candidate budget (with --synth).")
      $ Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable druzhba-report/1 JSON output.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "witnesses" ] ~docv:"FILE"
              ~doc:
                "Write refutation witnesses and undecided-obligation candidates to $(docv) as \
                 directed trials for the fuzzing campaign."))

(* --- drmt --------------------------------------------------------------------------- *)

let drmt_cmd =
  let run p4_file entries_file packets processors match_cap action_cap seed =
    require_positive "--packets" packets;
    require_positive "--processors" processors;
    let p =
      match Drmt.P4.parse_result (read_file p4_file) with
      | Ok p -> p
      | Error e -> usage_error "%s: %s" p4_file e
    in
    let entries =
      match entries_file with
      | None -> []
      | Some path -> (
        match Drmt.Entries.parse (read_file path) with
        | Ok e -> e
        | Error e -> usage_error "%s: %s" path e)
    in
    let dag = Drmt.Dag.build p in
    let cfg =
      Drmt.Scheduler.config ~processors ~match_capacity:match_cap ~action_capacity:action_cap ()
    in
    let sched =
      try Drmt.Scheduler.schedule cfg dag with Drmt.Scheduler.Infeasible msg -> usage_error "%s" msg
    in
    Fmt.pr "%a@." Drmt.Scheduler.pp sched;
    let r = Drmt.Sim.run ~seed ~cfg ~entries ~packets p in
    let s = r.Drmt.Sim.r_stats in
    Fmt.pr "simulated %d packets in %d cycles (%d matches, %d actions)@."
      s.Drmt.Sim.st_packets s.Drmt.Sim.st_cycles s.Drmt.Sim.st_matches s.Drmt.Sim.st_actions;
    Fmt.pr "peak crossbar usage per cycle: %d matches, %d actions@."
      s.Drmt.Sim.st_peak_match_per_cycle s.Drmt.Sim.st_peak_action_per_cycle;
    List.iter (fun (t, n) -> Fmt.pr "table %s: %d hits@." t n) s.Drmt.Sim.st_table_hits;
    List.iter (fun (r, v) -> Fmt.pr "register %s = %d@." r v) r.Drmt.Sim.r_registers
  in
  let doc = "Schedule and simulate a P4-subset program on the dRMT model." in
  Cmd.v
    (Cmd.info "drmt" ~doc)
    Term.(
      const run
      $ Arg.(required & opt (some file) None & info [ "p4" ] ~docv:"FILE")
      $ Arg.(value & opt (some file) None & info [ "entries" ] ~docv:"FILE")
      $ Arg.(value & opt int 1000 & info [ "packets" ] ~docv:"N")
      $ Arg.(value & opt int 4 & info [ "processors" ] ~docv:"P")
      $ Arg.(value & opt int 8 & info [ "match-capacity" ] ~docv:"M")
      $ Arg.(value & opt int 32 & info [ "action-capacity" ] ~docv:"A")
      $ seed_arg)

(* --- experiments ----------------------------------------------------------------------- *)

let table1_cmd =
  let run phvs interpreted backend =
    require_positive "--phvs" phvs;
    let mode =
      match backend with
      | Some name -> name
      | None -> if interpreted then "interpreter" else "compiled"
    in
    let rows =
      (* Table1 fails only when the backend cannot be built *)
      try Druzhba_experiments.Table1.run ~phvs ~mode () with Failure msg -> usage_error "%s" msg
    in
    Fmt.pr "%a@." Druzhba_experiments.Table1.pp rows;
    Fmt.pr "%a@." Druzhba_experiments.Table1.summary rows
  in
  let doc = "Reproduce Table 1: RMT runtimes with and without optimizations." in
  Cmd.v
    (Cmd.info "table1" ~doc)
    Term.(
      const run
      $ Arg.(value & opt int 50_000 & info [ "phvs" ] ~docv:"N" ~doc:"PHVs per run (paper: 50000).")
      $ Arg.(value & flag & info [ "interpreted" ] ~doc:"Interpret the description IR instead.")
      $ Arg.(
          value
          & opt (some (enum (List.map (fun n -> (n, n)) (Backends.names ())))) None
          & info [ "backend" ] ~docv:"NAME"
              ~doc:
                "Execution backend from the registry (interpreter, compiled, native); overrides \
                 --interpreted."))

let casestudy_cmd =
  let run phvs budget jobs =
    require_positive "--phvs" phvs;
    let report =
      Druzhba_experiments.Casestudy.run ~phvs ~synth_budget:budget ~jobs:(resolve_jobs jobs) ()
    in
    Fmt.pr "%a@." Druzhba_experiments.Casestudy.pp report
  in
  let doc = "Reproduce the case study of §5.2 (compiler testing at scale)." in
  Cmd.v
    (Cmd.info "casestudy" ~doc)
    Term.(
      const run
      $ Arg.(value & opt int 1000 & info [ "phvs" ] ~docv:"N")
      $ Arg.(value & opt int 120_000 & info [ "synth-budget" ] ~docv:"N")
      $ jobs_arg)

(* --- serve -------------------------------------------------------------------------- *)

let serve_cmd =
  let run root port workers max_queue retry_budget backoff_base backoff_cap heartbeat_timeout
      job_timeout request_timeout grace worker_jobs worker_exe =
    let worker_exe =
      let exe = match worker_exe with Some e -> e | None -> Sys.executable_name in
      (* workers chdir into their job directory before execv, so the path
         must survive that *)
      if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe
    in
    if not (Sys.file_exists worker_exe) then
      usage_error "worker executable %s does not exist" worker_exe;
    let root = if Filename.is_relative root then Filename.concat (Sys.getcwd ()) root else root in
    let cfg =
      {
        Druzhba_service.Server.s_root = root;
        s_port = port;
        s_max_queue = max_queue;
        s_request_timeout = request_timeout;
        s_grace = grace;
        s_sv =
          {
            Druzhba_service.Supervisor.sv_workers = workers;
            sv_retry_budget = retry_budget;
            sv_backoff_base = backoff_base;
            sv_backoff_cap = backoff_cap;
            sv_heartbeat_timeout = heartbeat_timeout;
            sv_job_timeout = job_timeout;
            sv_worker_exe = worker_exe;
            sv_worker_jobs = worker_jobs;
          };
      }
    in
    exit (Druzhba_service.Server.run cfg)
  in
  let doc =
    "Run the fuzzing-farm daemon: an HTTP API that schedules submitted campaigns across a \
     supervised pool of worker processes, with checkpoint-based crash recovery and a durable \
     job journal."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run
      $ Arg.(
          required
          & opt (some string) None
          & info [ "root" ] ~docv:"DIR"
              ~doc:"State directory: job journal, per-job workspaces, findings store.")
      $ Arg.(
          value & opt int 0
          & info [ "port" ] ~docv:"P"
              ~doc:"TCP port on 127.0.0.1 (0 = ephemeral; the bound port is written to \
                    $(b,DIR/port)).")
      $ Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc:"Worker pool size.")
      $ Arg.(
          value & opt int 16
          & info [ "max-queue" ] ~docv:"N"
              ~doc:"Queued-job bound; beyond it submissions are shed with 503.")
      $ Arg.(
          value & opt int 3
          & info [ "retry-budget" ] ~docv:"N"
              ~doc:"Worker launches per job before it is quarantined as poison.")
      $ Arg.(
          value & opt float 0.5
          & info [ "backoff-base" ] ~docv:"SECONDS" ~doc:"First retry delay.")
      $ Arg.(
          value & opt float 5.0
          & info [ "backoff-cap" ] ~docv:"SECONDS" ~doc:"Retry delay ceiling.")
      $ Arg.(
          value & opt float 60.
          & info [ "heartbeat-timeout" ] ~docv:"SECONDS"
              ~doc:"Kill a campaign worker whose checkpoint stops advancing for this long \
                    (0 disables).")
      $ Arg.(
          value & opt float 0.
          & info [ "job-timeout" ] ~docv:"SECONDS"
              ~doc:"Absolute deadline per worker attempt (0 disables).")
      $ Arg.(
          value & opt float 10.
          & info [ "request-timeout" ] ~docv:"SECONDS"
              ~doc:"Deadline for a client to deliver a complete HTTP request.")
      $ Arg.(
          value & opt float 10.
          & info [ "grace" ] ~docv:"SECONDS"
              ~doc:"Shutdown grace period before stragglers are SIGKILLed.")
      $ Arg.(
          value & opt int 1
          & info [ "worker-jobs" ] ~docv:"J" ~doc:"Domains per campaign worker (--jobs).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "worker-exe" ] ~docv:"FILE"
              ~doc:"Worker executable (default: this binary)."))

let benchmarks_cmd =
  let run () =
    Printf.printf "%-20s %-5s %-12s %s\n" "name" "d,w" "atom" "description";
    List.iter
      (fun (bm : Spec.benchmark) ->
        Printf.printf "%-20s %d,%-3d %-12s %s\n" bm.Spec.bm_name bm.Spec.bm_depth bm.Spec.bm_width
          bm.Spec.bm_stateful bm.Spec.bm_description)
      Spec.all;
    Printf.printf "\nbuilt-in ALUs: %s\n" atom_names
  in
  let doc = "List the Table-1 benchmark programs and built-in ALUs." in
  Cmd.v (Cmd.info "benchmarks" ~doc) Term.(const run $ const ())

let () =
  let doc = "Druzhba: switch hardware simulation for testing programmable-switch compilers" in
  let info = Cmd.info "druzhba" ~version:Druzhba.version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            dgen_cmd;
            dsim_cmd;
            compile_cmd;
            lint_cmd;
            vet_cmd;
            fuzz_cmd;
            campaign_cmd;
            serve_cmd;
            verify_cmd;
            synth_cmd;
            drmt_cmd;
            table1_cmd;
            casestudy_cmd;
            benchmarks_cmd;
          ]))
