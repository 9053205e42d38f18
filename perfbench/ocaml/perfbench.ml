(* Entry point of the measurement program.

     perfbench --workload W --seed N --seconds S --trace 0|1 --work DIR
               [--druzhba EXE]
     perfbench --setup-only W

   Prints one JSON object of raw samples (see {!Common.emit});
   perfbench/run.py builds this program, runs it and reduces the samples.
   [--work] is a scratch directory it may fill and must own; [--druzhba]
   is the CLI binary the serve workload starts as a daemon. *)

let workloads = [ "campaign-mixed"; "campaign-native"; "coverage-find"; "table1"; "serve" ]

(* What a fresh process does before its first timed operation;
   perfbench/run.py times it in fresh processes for the set-up metric. *)
let setup = function
  | "campaign-mixed" -> Campaign_wl.setup Campaign_wl.Mixed
  | "campaign-native" -> Campaign_wl.setup Campaign_wl.Native
  | "coverage-find" -> Coverage_wl.setup ()
  | "table1" -> ignore (Table1_wl.setup ())
  | w -> invalid_arg ("no set-up mode for workload " ^ w)

let run_workload run ~seed ~seconds ~trace ~work ~druzhba =
  match run.Common.workload with
  | "campaign-mixed" -> Campaign_wl.run run Campaign_wl.Mixed ~seed ~seconds ~trace ~work
  | "campaign-native" -> Campaign_wl.run run Campaign_wl.Native ~seed ~seconds ~trace ~work
  | "coverage-find" -> Coverage_wl.run run ~seed ~seconds ~trace ~work
  | "table1" -> Table1_wl.run run ~seed ~seconds ~trace ~work
  | _ -> Serve_wl.run run ~seed ~seconds ~trace ~work ~druzhba

(* A traced run reports every per-layer metric, each one measured.  A layer
   the workload never enters is measured on a probe instead: one traced
   operation (a call, a seed, a pass, a burst of jobs) of each other
   workload, whose samples fill only the metrics still empty.  The probes'
   output checks count like the workload's own. *)
let probe run ~seed ~work ~druzhba =
  List.iter
    (fun w ->
      if w <> run.Common.workload then begin
        let p = Common.make_run w in
        (match
           run_workload p ~seed ~seconds:0. ~trace:true ~druzhba
             ~work:(Filename.concat work ("probe-" ^ w))
         with
        | () -> ()
        | exception e -> Common.check p "probe ran" false (Printexc.to_string e));
        Common.fill_empty ~into:run.Common.layers p.Common.layers;
        Common.fill_empty ~into:run.Common.row p.Common.row;
        List.iter
          (fun (name, ok, detail) -> Common.check run (w ^ " probe: " ^ name) ok detail)
          (List.rev p.Common.checks);
        Common.check run (w ^ " probe: operations") (p.Common.failed = 0)
          (Printf.sprintf "%d of %d failed" p.Common.failed p.Common.attempted)
      end)
    workloads

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let work = ref "" and druzhba = ref "" and setup_only = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  workload to run");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  add the traced per-layer pass");
      ("--work", Arg.Set_string work, "DIR  scratch directory");
      ("--druzhba", Arg.Set_string druzhba, "EXE  druzhba CLI (serve workload)");
      ("--setup-only", Arg.Set_string setup_only, "W  run W's set-up and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1 --work DIR";
  if !setup_only <> "" then begin
    setup !setup_only;
    exit 0
  end;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !work = "" then begin
    prerr_endline "perfbench: --work is required";
    exit 2
  end;
  Common.mkdir_p !work;
  let run = Common.make_run !workload in
  let trace = !trace = 1 and seed = !seed and seconds = !seconds and work = !work in
  run_workload run ~seed ~seconds ~trace ~work ~druzhba:!druzhba;
  if trace then probe run ~seed ~work ~druzhba:!druzhba;
  Common.emit run
