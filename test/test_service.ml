(* Tests for the fuzzing-farm service stack: the HTTP/1.1 codec and
   submission schema, the supervisor's backoff and exit-code branching, the
   hardened checkpoint durability layer, journal persistence — and the
   headline fault-injection scenarios end to end against a real `druzhba
   serve` daemon driving real worker processes: a worker kill -9'ed mid-job
   resumes from its checkpoint to a byte-identical report, a daemon kill
   -9'ed mid-job replays its journal and finishes the work, and a poison
   job is quarantined without collateral damage. *)

module Report = Druzhba_campaign.Report
module Campaign = Druzhba_campaign.Campaign
module Checkpoint = Druzhba_campaign.Checkpoint
module Exit_code = Druzhba_campaign.Exit_code
module Protocol = Druzhba_service.Protocol
module Jobstore = Druzhba_service.Jobstore
module Supervisor = Druzhba_service.Supervisor

(* The real binary, as built by dune (declared as a test dep).  Under
   `dune runtest` the cwd is _build/default/test; under `dune exec` it is
   the project root.  The daemon needs the path absolute because workers
   chdir into their job directories. *)
let druzhba_exe =
  let candidates = [ "../bin/main.exe"; "_build/default/bin/main.exe" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some rel -> Filename.concat (Sys.getcwd ()) rel
  | None -> failwith "druzhba binary not found; build bin/main.exe first"

let contains ~affix s =
  let nl = String.length affix and hl = String.length s in
  let rec at i = i + nl <= hl && (String.sub s i nl = affix || at (i + 1)) in
  at 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let fresh_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let devnull flags = Unix.openfile "/dev/null" flags 0

(* Spawn the CLI, wait, return the process status.  [env] bindings
   ("NAME=value") take precedence over the inherited environment. *)
let run_cli ?dir ?(env = []) args : Unix.process_status =
  let null_in = devnull [ Unix.O_RDONLY ] and null_out = devnull [ Unix.O_WRONLY ] in
  let saved = Sys.getcwd () in
  (match dir with Some d -> Sys.chdir d | None -> ());
  let pid =
    Unix.create_process_env druzhba_exe
      (Array.of_list ("druzhba" :: args))
      (Array.append (Array.of_list env) (Unix.environment ()))
      null_in null_out null_out
  in
  (match dir with Some _ -> Sys.chdir saved | None -> ());
  Unix.close null_in;
  Unix.close null_out;
  snd (Unix.waitpid [] pid)

let spawn_cli ?dir args : int =
  let null_in = devnull [ Unix.O_RDONLY ] and null_out = devnull [ Unix.O_WRONLY ] in
  let saved = Sys.getcwd () in
  (match dir with Some d -> Sys.chdir d | None -> ());
  let pid =
    Unix.create_process druzhba_exe
      (Array.of_list ("druzhba" :: args))
      null_in null_out null_out
  in
  (match dir with Some _ -> Sys.chdir saved | None -> ());
  Unix.close null_in;
  Unix.close null_out;
  pid

let poll ?(timeout = 60.) ?(every = 0.05) msg f =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match f () with
    | Some v -> v
    | None ->
      if Unix.gettimeofday () > deadline then Alcotest.fail ("timed out waiting for " ^ msg);
      Unix.sleepf every;
      go ()
  in
  go ()

(* --- Protocol: HTTP request parsing ------------------------------------------ *)

let test_parse_request_complete () =
  let raw = "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Thing: 1\r\n\r\n" in
  match Protocol.parse_request raw with
  | `Ok (rq, used) ->
    Alcotest.(check string) "method" "GET" rq.Protocol.rq_method;
    Alcotest.(check string) "path" "/healthz" rq.Protocol.rq_path;
    Alcotest.(check int) "consumed" (String.length raw) used;
    Alcotest.(check (option string)) "header" (Some "1") (Protocol.header "x-thing" rq)
  | _ -> Alcotest.fail "expected `Ok"

let test_parse_request_body () =
  let body = "{\"kind\":\"campaign\"}" in
  let raw =
    Printf.sprintf "POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" (String.length body)
      body
  in
  (match Protocol.parse_request raw with
  | `Ok (rq, _) -> Alcotest.(check string) "body" body rq.Protocol.rq_body
  | _ -> Alcotest.fail "expected `Ok");
  (* any strict prefix is incomplete, never an error *)
  for cut = 0 to String.length raw - 1 do
    match Protocol.parse_request (String.sub raw 0 cut) with
    | `Incomplete -> ()
    | `Ok _ -> Alcotest.fail (Printf.sprintf "prefix of %d bytes parsed as complete" cut)
    | `Bad e -> Alcotest.fail (Printf.sprintf "prefix of %d bytes rejected: %s" cut e)
  done

let test_parse_request_bad () =
  (match Protocol.parse_request "NONSENSE\r\n\r\n" with
  | `Bad _ -> ()
  | _ -> Alcotest.fail "malformed request line accepted");
  match Protocol.parse_request "POST / HTTP/1.1\r\nContent-Length: -3\r\n\r\n" with
  | `Bad _ -> ()
  | _ -> Alcotest.fail "negative Content-Length accepted"

let test_dechunk_roundtrip () =
  let framed = Protocol.chunk "hello " ^ Protocol.chunk "world\n" ^ Protocol.chunk_end in
  Alcotest.(check string) "reassembled" "hello world\n" (Protocol.dechunk framed);
  (* a torn tail (stream cut mid-chunk) keeps the complete prefix *)
  let torn = Protocol.chunk "keep" ^ "1f\r\ncut-off-mid" in
  Alcotest.(check string) "torn tail dropped" "keep" (Protocol.dechunk torn)

(* --- Protocol: submission schema --------------------------------------------- *)

let parse_sub src =
  match Report.parse src with
  | Error e -> Alcotest.fail ("bad test JSON: " ^ e)
  | Ok j -> Protocol.parse_submission j

let test_submission_campaign () =
  match
    parse_sub
      {|{"kind":"campaign","trials":50,"seed":9,"phvs":25,"checkpoint_every":10,"shrink":false}|}
  with
  | Error e -> Alcotest.fail e
  | Ok sb ->
    Alcotest.(check int) "trials" 50 sb.Protocol.sb_trials;
    let args = String.concat " " sb.Protocol.sb_args in
    Alcotest.(check bool) "has trials flag" true
      (contains ~affix:"--trials 50" args);
    Alcotest.(check bool) "has seed" true (contains ~affix:"--seed 9" args);
    Alcotest.(check bool) "has no-shrink" true (contains ~affix:"--no-shrink" args)

let test_submission_rejects () =
  let bad src frag =
    match parse_sub src with
    | Ok _ -> Alcotest.fail ("accepted: " ^ src)
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions %s" frag)
        true
        (contains ~affix:frag e)
  in
  bad {|{"kind":"campaign","trails":3}|} "unknown field";
  bad {|{"kind":"campaign","trials":0}|} "positive";
  bad {|{"kind":"campaign","trials":"many"}|} "integer";
  bad {|{"kind":"campaign","substrate":"tofino"}|} "substrate";
  bad {|{"kind":"picnic"}|} "kind";
  bad {|[1,2,3]|} "object";
  bad {|{"kind":"campaign","files":{"../evil":"x"}}|} "unsafe file name";
  bad {|{"kind":"campaign","chaos_kill_after":0,"chaos_kill_file":"/home/someone/.ssh/authorized_keys"}|}
    "unsafe file name";
  bad {|{"kind":"campaign","chaos_kill_after":0,"chaos_kill_file":"../x"}|} "unsafe file name";
  bad {|{"kind":"directed"}|} "witnesses";
  bad {|{"kind":"directed","witnesses":"druzhba-witnesses/1","files":{"witnesses.txt":"x"}}|}
    "witnesses.txt"

let test_submission_directed () =
  match parse_sub {|{"kind":"directed","witnesses":"druzhba-witnesses/1\ntrial a b 1,2","phvs":5}|} with
  | Error e -> Alcotest.fail e
  | Ok sb ->
    Alcotest.(check bool) "witness file materialized" true
      (List.mem_assoc "witnesses.txt" sb.Protocol.sb_files);
    Alcotest.(check bool) "directed flag" true (List.mem "--directed" sb.Protocol.sb_args)

(* --- Supervisor: backoff ------------------------------------------------------ *)

let test_backoff () =
  let d attempt = Supervisor.backoff_delay ~base:0.5 ~cap:5.0 ~attempt in
  Alcotest.(check (float 1e-9)) "first" 0.5 (d 1);
  Alcotest.(check (float 1e-9)) "second" 1.0 (d 2);
  Alcotest.(check (float 1e-9)) "third" 2.0 (d 3);
  Alcotest.(check (float 1e-9)) "capped" 5.0 (d 7);
  Alcotest.(check (float 1e-9)) "zeroth" 0.0 (d 0)

(* --- Exit codes: the worker contract ------------------------------------------ *)

let test_exit_code_mapping () =
  let r = Campaign.run (Campaign.config ~trials:4 ~phvs:10 ()) in
  Alcotest.(check int) "clean campaign" Exit_code.ok (Exit_code.of_report r);
  Alcotest.(check int) "findings" Exit_code.findings
    (Exit_code.of_report { r with Campaign.r_divergent = 1 });
  Alcotest.(check int) "crashes are findings" Exit_code.findings
    (Exit_code.of_report { r with Campaign.r_crashed = 1 });
  Alcotest.(check int) "fuel" Exit_code.fuel_exhausted
    (Exit_code.of_report { r with Campaign.r_timeout = 2 });
  Alcotest.(check int) "breaker beats findings" Exit_code.breaker_tripped
    (Exit_code.of_report { r with Campaign.r_divergent = 1; r_stopped_after = Some 2 });
  Alcotest.(check int) "findings beat fuel" Exit_code.findings
    (Exit_code.of_report { r with Campaign.r_divergent = 1; r_timeout = 1 })

let test_exit_code_classify () =
  List.iter
    (fun (code, verdict) ->
      Alcotest.(check bool)
        (Printf.sprintf "code %d verdict" code)
        verdict
        (Exit_code.is_verdict (Exit_code.classify code)))
    [ (0, true); (1, true); (2, false); (3, true); (4, true); (5, false); (77, false) ];
  Alcotest.(check string) "describe roundtrip" "interrupted"
    (Exit_code.describe (Exit_code.classify Exit_code.interrupted))

(* The command line refuses what the daemon's submission schema refuses:
   each non-positive value below is a usage error (exit 2, never a crash or
   a findings verdict) and an [Error] from [Protocol.parse_submission] on
   the same field. *)
let test_cli_rejects_like_submissions () =
  List.iter
    (fun (field, value, args) ->
      let what = Printf.sprintf "%s = %d" field value in
      (match run_cli ("campaign" :: args) with
      | Unix.WEXITED code -> Alcotest.(check int) (what ^ ": CLI usage error") 2 code
      | _ -> Alcotest.failf "%s: CLI killed by a signal" what);
      match parse_sub (Printf.sprintf {|{"kind":"campaign",%S:%d}|} field value) with
      | Ok _ -> Alcotest.failf "%s: submission accepted" what
      | Error e ->
        Alcotest.(check bool) (what ^ ": submission refused") true (contains ~affix:"positive" e))
    [
      ("trials", -3, [ "--trials=-3" ]);
      ("trials", 0, [ "--trials=0" ]);
      ("phvs", -4, [ "--trials=2"; "--phvs=-4" ]);
      ("phvs", 0, [ "--trials=2"; "--phvs=0" ]);
      ("max_probes", -1, [ "--trials=2"; "--max-probes=-1" ]);
      ("fault_runs", 0, [ "--trials=2"; "--faults"; "--fault-runs=0" ]);
      ("faults_per_run", 0, [ "--trials=2"; "--faults"; "--faults-per-run=0" ]);
    ]

(* The other subcommands refuse bad input the same way: a usage error
   (exit 2), never an uncaught exception (exit 125) or a run over nothing. *)
let test_cli_rejects_bad_inputs () =
  let p4 = Filename.temp_file "druzhba-router" ".p4" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove p4 with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin p4 (fun oc -> Out_channel.output_string oc Drmt_router.source);
      List.iter
        (fun (env, args) ->
          let what = String.concat " " (env @ args) in
          match run_cli ~env args with
          | Unix.WEXITED code -> Alcotest.(check int) (what ^ ": usage error") 2 code
          | _ -> Alcotest.failf "%s: killed by a signal" what)
        [
          ([], [ "table1"; "--phvs=-5" ]);
          ([], [ "table1"; "--phvs=0" ]);
          ([ "DRUZHBA_NATIVE_DISABLE=1" ], [ "table1"; "--backend"; "native"; "--phvs=10" ]);
          ([], [ "fuzz"; "--program"; "rcp"; "--phvs=-1" ]);
          ([], [ "fuzz"; "--program"; "rcp"; "--phvs=0" ]);
          ([], [ "fuzz"; "--program"; "rcp"; "--trials=-2"; "--phvs=10" ]);
          ([], [ "casestudy"; "--phvs=-1" ]);
          ([], [ "verify"; "--program"; "sampling"; "--bits=-1" ]);
          ([], [ "drmt"; "--p4"; p4; "--packets=-5" ]);
          ([], [ "drmt"; "--p4"; p4; "--packets=0" ]);
          ([], [ "drmt"; "--p4"; p4; "--processors=0" ]);
          ([], [ "drmt"; "--p4"; p4; "--processors=-2" ]);
          ([], [ "drmt"; "--p4"; p4; "--match-capacity=0" ]);
          ([], [ "drmt"; "--p4"; p4; "--action-capacity=-1" ]);
        ])

(* --- Checkpoint durability ---------------------------------------------------- *)

let test_checkpoint_torn_write () =
  let tmp = Filename.temp_file "druzhba-torn" ".ck" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      (match
         Campaign.run_resumable ~checkpoint:tmp ~stop_after:4
           (Campaign.config ~trials:8 ~phvs:5 ~checkpoint_every:2 ())
       with
      | None -> ()
      | Some _ -> Alcotest.fail "stop_after did not stop");
      (match Checkpoint.load tmp with
      | Ok ck ->
        Alcotest.(check bool) "progress recorded" true (Checkpoint.completed_prefix ck >= 2)
      | Error e -> Alcotest.fail ("intact checkpoint rejected: " ^ e));
      (* tear it: a partial write must be rejected cleanly, not crash or
         silently resume from garbage *)
      let whole = read_file tmp in
      let torn = String.sub whole 0 (String.length whole / 2) in
      let oc = open_out_bin tmp in
      output_string oc torn;
      close_out oc;
      match Checkpoint.load tmp with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "torn checkpoint accepted")

let test_atomic_write_leaves_no_tmp () =
  let dir = fresh_dir "druzhba-atomic" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let path = Filename.concat dir "out.json" in
      Checkpoint.atomic_write_string path "payload";
      Checkpoint.atomic_write_string path "payload2";
      Alcotest.(check string) "last write wins" "payload2" (read_file path);
      Alcotest.(check (list string)) "no tmp droppings" [ "out.json" ]
        (Array.to_list (Sys.readdir dir)))

(* --- Jobstore: journal persistence -------------------------------------------- *)

let submission_of src =
  match parse_sub src with Ok sb -> sb | Error e -> Alcotest.fail e

let test_journal_roundtrip () =
  let root = fresh_dir "druzhba-journal" in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let store, orphans =
        match Jobstore.load root with Ok v -> v | Error e -> Alcotest.fail e
      in
      Alcotest.(check (list int)) "fresh farm" [] orphans;
      let j1 = Jobstore.submit store (submission_of {|{"kind":"campaign","trials":7}|}) in
      let j2 = Jobstore.submit store (submission_of {|{"kind":"campaign","trials":9,"seed":3}|}) in
      (* simulate a worker mid-flight when the daemon dies *)
      j1.Jobstore.j_state <- Jobstore.Running;
      j1.Jobstore.j_attempts <- 2;
      j1.Jobstore.j_pid <- Some 424242;
      j2.Jobstore.j_state <- Jobstore.Done;
      j2.Jobstore.j_verdict <- Some "clean";
      Jobstore.save store;
      let store', orphans' =
        match Jobstore.load root with Ok v -> v | Error e -> Alcotest.fail e
      in
      Alcotest.(check (list int)) "orphan reported" [ 424242 ] orphans';
      let j1' = Option.get (Jobstore.find store' j1.Jobstore.j_id) in
      let j2' = Option.get (Jobstore.find store' j2.Jobstore.j_id) in
      Alcotest.(check bool) "running replays as queued" true
        (j1'.Jobstore.j_state = Jobstore.Queued);
      Alcotest.(check int) "attempts preserved across replay" 2 j1'.Jobstore.j_attempts;
      Alcotest.(check bool) "done stays done" true (j2'.Jobstore.j_state = Jobstore.Done);
      Alcotest.(check (option string)) "verdict survives" (Some "clean") j2'.Jobstore.j_verdict;
      Alcotest.(check int) "seq continues" 2 store'.Jobstore.next_seq;
      (* a corrupt journal is an error, never silent job loss *)
      let oc = open_out_bin (Filename.concat root "journal.json") in
      output_string oc "{\"format\":\"druzhba-service-journal\",\"version\":1,\"jobs\":";
      close_out oc;
      match Jobstore.load root with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "corrupt journal accepted")

let divergent_trial ~config ~pair =
  Report.Obj
    [
      ("index", Report.Int 3);
      ("substrate", Report.Str "rmt");
      ("depth", Report.Int 2);
      ("width", Report.Int 2);
      ( "outcome",
        Report.Obj
          [
            ("class", Report.Str "backend_divergence");
            ("config", Report.Str config);
            ("kind", Report.Str "output");
            ("where", Report.Obj [ ("phv", Report.Int 0); ("container", Report.Int 1) ]);
          ] );
      ( "shrunk",
        Report.Obj [ ("essential_pairs", Report.List [ Report.Str pair ]) ] );
    ]

let test_findings_dedup () =
  let root = fresh_dir "druzhba-findings" in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let fd = Jobstore.load_findings root in
      let report keys =
        Report.Obj [ ("results", Report.List keys) ]
      in
      let a = divergent_trial ~config:"unoptimized,scc" ~pair:"alu_2_1_imm" in
      let fresh1 = Jobstore.fold_report root fd ~job_id:"j0000" (report [ a; a ]) in
      Alcotest.(check int) "same slice collapses" 1 fresh1;
      (* same provenance slice from a different job: already known *)
      let fresh2 = Jobstore.fold_report root fd ~job_id:"j0001" (report [ a ]) in
      Alcotest.(check int) "replay is a no-op" 0 fresh2;
      let b = divergent_trial ~config:"unoptimized,scc_inline" ~pair:"alu_2_1_imm" in
      let fresh3 = Jobstore.fold_report root fd ~job_id:"j0002" (report [ b ]) in
      Alcotest.(check int) "new slice counts" 1 fresh3;
      (* the store is durable *)
      let fd' = Jobstore.load_findings root in
      Alcotest.(check int) "persisted" 2 (List.length fd'.Jobstore.fd_keys))

(* --- Satellite 1: graceful SIGTERM on `druzhba campaign` ----------------------- *)

let campaign_args ~trials ~seed ~ck ~report =
  [
    "campaign"; "--trials"; string_of_int trials; "--seed"; string_of_int seed; "--phvs"; "20";
    "--checkpoint-every"; "10"; "--jobs"; "1"; "--checkpoint"; ck; "--report"; report;
  ]

let test_campaign_sigterm_graceful () =
  let dir = fresh_dir "druzhba-sigterm" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let ck = Filename.concat dir "ck" and out = Filename.concat dir "out.json" in
      let ref_out = Filename.concat dir "ref.json" in
      let pid = spawn_cli (campaign_args ~trials:3000 ~seed:5 ~ck ~report:out) in
      (* let it reach at least one block boundary, then interrupt *)
      ignore (poll ~timeout:30. "first checkpoint" (fun () ->
          if Sys.file_exists ck then Some () else None));
      Unix.kill pid Sys.sigterm;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED code ->
        Alcotest.(check int) "distinct interrupted exit code" Exit_code.interrupted code
      | _ -> Alcotest.fail "campaign did not exit cleanly on SIGTERM");
      Alcotest.(check bool) "no report from interrupted run" false (Sys.file_exists out);
      let ck_data =
        match Checkpoint.load ck with
        | Ok c -> c
        | Error e -> Alcotest.fail ("final checkpoint unreadable: " ^ e)
      in
      let completed = Checkpoint.completed_prefix ck_data in
      Alcotest.(check bool) "cut at a block boundary, work saved" true
        (completed > 0 && completed < 3000 && completed mod 10 = 0);
      (* resume to completion; the result must equal an uninterrupted run *)
      (match run_cli (campaign_args ~trials:3000 ~seed:5 ~ck ~report:out @ [ "--resume" ]) with
      | Unix.WEXITED 0 -> ()
      | s -> Alcotest.fail (Printf.sprintf "resume failed: %s" (Supervisor.describe_status s)));
      (match
         run_cli (campaign_args ~trials:3000 ~seed:5 ~ck:(ck ^ ".ref") ~report:ref_out)
       with
      | Unix.WEXITED 0 -> ()
      | s -> Alcotest.fail (Printf.sprintf "reference failed: %s" (Supervisor.describe_status s)));
      Alcotest.(check string) "byte-identical to uninterrupted run" (read_file ref_out)
        (read_file out))

(* --- The daemon end to end ----------------------------------------------------

   One farm, one daemon (then a second after kill -9), real workers.  The
   jobs are small enough to finish in seconds but big enough to leave a
   window for fault injection at a checkpoint boundary. *)

type daemon = { d_pid : int; d_root : string; d_port : int }

let start_daemon ?(workers = 2) ?(args = []) root : daemon =
  (* each daemon writes its port on bind; remove a stale one first *)
  (try Sys.remove (Filename.concat root "port") with Sys_error _ -> ());
  let pid =
    spawn_cli
      ([ "serve"; "--root"; root; "--workers"; string_of_int workers; "--retry-budget"; "3";
         "--backoff-base"; "0.05"; "--backoff-cap"; "0.2"; "--heartbeat-timeout"; "60" ]
      @ args)
  in
  let port =
    poll ~timeout:30. "daemon port file" (fun () ->
        match int_of_string_opt (String.trim (read_file (Filename.concat root "port"))) with
        | p -> p
        | exception _ -> None)
  in
  { d_pid = pid; d_root = root; d_port = port }

let http d ~meth ~path ?body () =
  match Protocol.http ~port:d.d_port ~meth ~path ?body () with
  | Ok (status, body) -> (status, body)
  | Error e -> Alcotest.fail (Printf.sprintf "%s %s: %s" meth path e)

let json_of body =
  match Report.parse body with
  | Ok j -> j
  | Error e -> Alcotest.fail (Printf.sprintf "bad JSON body %S: %s" body e)

let jstr j key =
  match Option.bind (Report.member key j) Report.to_str with
  | Some s -> s
  | None -> Alcotest.fail (Printf.sprintf "missing string field %s in %s" key (Report.to_string j))

let submit d spec =
  let status, body = http d ~meth:"POST" ~path:"/jobs" ~body:spec () in
  Alcotest.(check int) ("201 for " ^ spec) 201 status;
  jstr (json_of body) "id"

let wait_state ?(timeout = 120.) d id want =
  poll ~timeout ("job " ^ id ^ " to be " ^ want) (fun () ->
      match http d ~meth:"GET" ~path:("/jobs/" ^ id) () with
      | 200, body ->
        let j = json_of body in
        if jstr j "state" = want then Some j else None
      | _ -> None)

let reference_report ~dir ~trials ~seed =
  let out = Filename.concat dir (Printf.sprintf "ref-%d-%d.json" trials seed) in
  (match
     run_cli
       [
         "campaign"; "--trials"; string_of_int trials; "--seed"; string_of_int seed; "--phvs";
         "20"; "--checkpoint-every"; "10"; "--jobs"; "1"; "--report"; out;
       ]
   with
  | Unix.WEXITED 0 -> ()
  | s -> Alcotest.fail ("reference run failed: " ^ Supervisor.describe_status s));
  read_file out

let campaign_spec ?(extra = "") ~trials ~seed () =
  Printf.sprintf
    {|{"kind":"campaign","trials":%d,"seed":%d,"phvs":20,"checkpoint_every":10%s}|} trials seed
    extra

let test_daemon_end_to_end () =
  let root = fresh_dir "druzhba-farm" in
  let refs = fresh_dir "druzhba-refs" in
  let daemon = ref (start_daemon root) in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill !daemon.d_pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      (try ignore (Unix.waitpid [] !daemon.d_pid) with Unix.Unix_error (_, _, _) -> ());
      rm_rf root;
      rm_rf refs)
    (fun () ->
      let d = !daemon in
      (* -- basics ------------------------------------------------------- *)
      let status, body = http d ~meth:"GET" ~path:"/healthz" () in
      Alcotest.(check int) "healthz" 200 status;
      Alcotest.(check (option bool)) "healthz ok" (Some true)
        (Option.bind (Report.member "ok" (json_of body)) Report.to_bool);
      let status, _ = http d ~meth:"GET" ~path:"/jobs/j9999" () in
      Alcotest.(check int) "unknown job is 404" 404 status;
      let status, _ = http d ~meth:"POST" ~path:"/jobs" ~body:"{not json" () in
      Alcotest.(check int) "unparseable body is 400" 400 status;
      let status, body =
        http d ~meth:"POST" ~path:"/jobs" ~body:{|{"kind":"campaign","trails":3}|} ()
      in
      Alcotest.(check int) "typo is 400" 400 status;
      Alcotest.(check bool) "typo named" true
        (contains ~affix:"trails" body);

      (* -- two jobs; one worker kill -9'ed mid-job (armed chaos) --------- *)
      let healthy = submit d (campaign_spec ~trials:60 ~seed:7 ()) in
      let chaotic =
        submit d
          (campaign_spec ~trials:60 ~seed:7
             ~extra:
               {|,"chaos_kill_after":25,"chaos_kill_file":"chaos.arm","files":{"chaos.arm":"1"}|}
             ())
      in
      let healthy_j = wait_state d healthy "done" in
      let chaotic_j = wait_state d chaotic "done" in
      Alcotest.(check string) "healthy verdict" "clean" (jstr healthy_j "verdict");
      Alcotest.(check string) "chaotic verdict" "clean" (jstr chaotic_j "verdict");
      Alcotest.(check (option int)) "worker was killed once and restarted" (Some 2)
        (Option.bind (Report.member "attempts" chaotic_j) Report.to_int);
      let expected = reference_report ~dir:refs ~trials:60 ~seed:7 in
      let _, healthy_report = http d ~meth:"GET" ~path:("/jobs/" ^ healthy ^ "/report") () in
      let _, chaotic_report = http d ~meth:"GET" ~path:("/jobs/" ^ chaotic ^ "/report") () in
      Alcotest.(check string) "healthy report byte-identical to CLI" expected healthy_report;
      Alcotest.(check string) "killed+resumed report byte-identical" expected chaotic_report;

      (* -- poison job: quarantined after the retry budget; a bystander
            submitted alongside is untouched ------------------------------ *)
      let poison =
        submit d (campaign_spec ~trials:60 ~seed:7 ~extra:{|,"chaos_kill_after":25|} ())
      in
      let bystander = submit d (campaign_spec ~trials:40 ~seed:11 ()) in
      let poison_j = wait_state d poison "quarantined" in
      Alcotest.(check (option int)) "budget consumed" (Some 3)
        (Option.bind (Report.member "attempts" poison_j) Report.to_int);
      Alcotest.(check bool) "reason names the budget" true
        (contains ~affix:"retry budget" (jstr poison_j "reason"));
      let bystander_j = wait_state d bystander "done" in
      Alcotest.(check string) "bystander unaffected" "clean" (jstr bystander_j "verdict");

      (* -- events stream ------------------------------------------------- *)
      let _, events = http d ~meth:"GET" ~path:("/jobs/" ^ chaotic ^ "/events") () in
      Alcotest.(check bool) "events record the spawn" true
        (contains ~affix:{|"event":"spawn"|} events);
      Alcotest.(check bool) "events record the kill" true
        (contains ~affix:"SIGKILL" events);
      Alcotest.(check bool) "events record completion" true
        (contains ~affix:{|"event":"done"|} events);

      (* -- kill -9 the daemon mid-job; restart; journal replays ---------- *)
      let long = submit d (campaign_spec ~trials:3000 ~seed:33 ()) in
      ignore
        (poll ~timeout:60. "long job checkpoint progress" (fun () ->
             match http d ~meth:"GET" ~path:("/jobs/" ^ long) () with
             | 200, body -> (
               match Option.bind (Report.member "progress" (json_of body)) Report.to_int with
               | Some p when p > 0 -> Some p
               | _ -> None)
             | _ -> None));
      Unix.kill d.d_pid Sys.sigkill;
      ignore (Unix.waitpid [] d.d_pid);
      Alcotest.(check bool) "journal survives the daemon" true
        (contains ~affix:long (read_file (Filename.concat root "journal.json")));
      daemon := start_daemon root;
      let d = !daemon in
      let long_j = wait_state ~timeout:180. d long "done" in
      Alcotest.(check string) "resumed after daemon death" "clean" (jstr long_j "verdict");
      let expected_long = reference_report ~dir:refs ~trials:3000 ~seed:33 in
      let _, long_report = http d ~meth:"GET" ~path:("/jobs/" ^ long ^ "/report") () in
      Alcotest.(check string) "journal-replayed job byte-identical" expected_long long_report;
      (* finished work is re-served byte-identically by the new daemon *)
      let _, chaotic_again = http d ~meth:"GET" ~path:("/jobs/" ^ chaotic ^ "/report") () in
      Alcotest.(check string) "old report re-served byte-identically" expected chaotic_again;
      (* and the poison job's quarantine survived the restart *)
      let status, body = http d ~meth:"GET" ~path:("/jobs/" ^ poison) () in
      Alcotest.(check int) "poison still known" 200 status;
      Alcotest.(check string) "poison still quarantined" "quarantined"
        (jstr (json_of body) "state");

      (* -- graceful HTTP shutdown ---------------------------------------- *)
      let status, _ = http d ~meth:"POST" ~path:"/shutdown" () in
      Alcotest.(check int) "shutdown acknowledged" 200 status;
      match Unix.waitpid [] d.d_pid with
      | _, Unix.WEXITED 0 -> ()
      | _, s -> Alcotest.fail ("daemon shutdown not clean: " ^ Supervisor.describe_status s))

let test_daemon_load_shedding () =
  let root = fresh_dir "druzhba-shed" in
  let d = start_daemon ~workers:1 ~args:[ "--max-queue"; "1" ] root in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill d.d_pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      (try ignore (Unix.waitpid [] d.d_pid) with Unix.Unix_error (_, _, _) -> ());
      rm_rf root)
    (fun () ->
      (* big enough to keep the single worker busy for the whole test *)
      let running = submit d (campaign_spec ~trials:100000 ~seed:1 ()) in
      ignore
        (poll ~timeout:60. "first job running" (fun () ->
             match http d ~meth:"GET" ~path:("/jobs/" ^ running) () with
             | 200, body when jstr (json_of body) "state" = "running" -> Some ()
             | _ -> None));
      let _queued = submit d (campaign_spec ~trials:100000 ~seed:2 ()) in
      let status, body =
        http d ~meth:"POST" ~path:"/jobs" ~body:(campaign_spec ~trials:10 ~seed:3 ()) ()
      in
      Alcotest.(check int) "queue full sheds with 503" 503 status;
      Alcotest.(check bool) "shed names the queue" true
        (contains ~affix:"queue" body);
      (* SIGTERM: workers are interrupted at a block boundary and land back
         in Queued, uncharged, for the next daemon *)
      Unix.kill d.d_pid Sys.sigterm;
      (match Unix.waitpid [] d.d_pid with
      | _, Unix.WEXITED 0 -> ()
      | _, s -> Alcotest.fail ("SIGTERM shutdown not clean: " ^ Supervisor.describe_status s));
      let store, orphans =
        match Jobstore.load root with Ok v -> v | Error e -> Alcotest.fail e
      in
      Alcotest.(check (list int)) "no orphans after graceful shutdown" [] orphans;
      let j = Option.get (Jobstore.find store running) in
      Alcotest.(check bool) "interrupted job queued for the next daemon" true
        (j.Jobstore.j_state = Jobstore.Queued);
      Alcotest.(check int) "interruption not charged as an attempt" 0 j.Jobstore.j_attempts)

let test_daemon_directed_job () =
  let root = fresh_dir "druzhba-directed" in
  let d = start_daemon root in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill d.d_pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      (try ignore (Unix.waitpid [] d.d_pid) with Unix.Unix_error (_, _, _) -> ());
      rm_rf root)
    (fun () ->
      (* a machine-code + ALU + spec submission: the witness text carries
         container values and references a benchmark program by name *)
      let witnesses =
        "druzhba-witnesses/1\\ndepth 2\\nwidth 2\\nbits 10\\nstateful if_else_raw\\nstateless \
         stateless_full\\ntrial blue_increase w0 3,1\\ntrial blue_increase w1 7,0"
      in
      let id =
        submit d
          (Printf.sprintf {|{"kind":"directed","witnesses":"%s","phvs":10,"seed":5}|} witnesses)
      in
      let j = wait_state d id "done" in
      Alcotest.(check string) "directed verdict" "clean" (jstr j "verdict");
      let _, report = http d ~meth:"GET" ~path:("/jobs/" ^ id ^ "/report") () in
      let rj = json_of report in
      Alcotest.(check (option string)) "directed report kind" (Some "directed")
        (Option.bind (Report.member "campaign" rj) Report.to_str);
      Alcotest.(check (option int)) "both witnesses replayed" (Some 2)
        (Option.bind (Report.member "trials" rj) Report.to_int))

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "parses a complete request" `Quick test_parse_request_complete;
          Alcotest.test_case "prefixes are incomplete, never errors" `Quick
            test_parse_request_body;
          Alcotest.test_case "rejects malformed heads" `Quick test_parse_request_bad;
          Alcotest.test_case "chunked framing round-trips" `Quick test_dechunk_roundtrip;
        ] );
      ( "submissions",
        [
          Alcotest.test_case "campaign spec compiles to worker argv" `Quick
            test_submission_campaign;
          Alcotest.test_case "strict validation" `Quick test_submission_rejects;
          Alcotest.test_case "directed spec carries its witness file" `Quick
            test_submission_directed;
        ] );
      ( "supervisor",
        [ Alcotest.test_case "bounded exponential backoff" `Quick test_backoff ] );
      ( "exit codes",
        [
          Alcotest.test_case "report-to-code mapping" `Quick test_exit_code_mapping;
          Alcotest.test_case "verdict classification" `Quick test_exit_code_classify;
          Alcotest.test_case "CLI refuses what submissions refuse" `Quick
            test_cli_rejects_like_submissions;
          Alcotest.test_case "other subcommands refuse bad input" `Quick
            test_cli_rejects_bad_inputs;
        ] );
      ( "durability",
        [
          Alcotest.test_case "torn checkpoint rejected cleanly" `Quick
            test_checkpoint_torn_write;
          Alcotest.test_case "atomic writes leave no droppings" `Quick
            test_atomic_write_leaves_no_tmp;
          Alcotest.test_case "journal round-trips and replays" `Quick test_journal_roundtrip;
          Alcotest.test_case "findings dedup by provenance slice" `Quick test_findings_dedup;
        ] );
      ( "graceful interrupt",
        [
          Alcotest.test_case "SIGTERM cuts at a block boundary" `Slow
            test_campaign_sigterm_graceful;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "fault-injection end to end" `Slow test_daemon_end_to_end;
          Alcotest.test_case "load shedding and graceful shutdown" `Slow
            test_daemon_load_shedding;
          Alcotest.test_case "directed submissions" `Slow test_daemon_directed_job;
        ] );
    ]
