(* Tests for the native-codegen substrate: the {!Druzhba_pipeline.Emit} →
   `ocamlopt -shared` → Dynlink chain behind
   {!Druzhba_dsim.Native_substrate}.

   The load-bearing property is the cross-substrate one: for random
   programs at every optimization level, the Dynlinked emitted module is
   bit-identical to the interpreter and the closure compiler — sequential,
   batched, under fault overlays, and at the exact tick a budget runs dry.
   The rest covers the machinery around that property: the
   content-addressed build cache (memo hit, disk hit, corrupted-artifact
   recovery), concurrent builds from several domains (one compile per
   program, no leftover staging), a campaign block's programs built as a
   few group modules (accounting, warm and corrupted group artifacts,
   resume), emitted-source determinism (what makes the cache sound), and
   graceful degradation when the toolchain is absent, the cache directory
   is unusable, or a build fails.

   On a machine without ocamlopt/natdynlink the whole binary degrades to
   a single passing test that prints the probe's reason — the same
   structured skip the campaign and bench layers perform. *)

module Druzhba = Druzhba_core.Druzhba
open Druzhba
module Emit = Druzhba_pipeline.Emit
module Oracle = Druzhba_campaign.Oracle
module Campaign = Druzhba_campaign.Campaign

let stateful_pool = [| "raw"; "sub"; "pred_raw"; "if_else_raw"; "nested_ifs"; "pair" |]
let stateless_pool = [| "stateless_full"; "stateless_arith"; "stateless_rel"; "stateless_mux" |]

(* A small random program, same draw shape as the campaign generator. *)
let draw_program seed =
  let prng = Prng.create seed in
  let depth = 1 + Prng.int prng 2 in
  let width = 1 + Prng.int prng 2 in
  let bits = [| 8; 16; 32 |].(Prng.int prng 3) in
  let stateful = stateful_pool.(Prng.int prng (Array.length stateful_pool)) in
  let stateless = stateless_pool.(Prng.int prng (Array.length stateless_pool)) in
  let desc =
    Dgen.generate
      (Dgen.config ~depth ~width ~bits ())
      ~stateful:(Atoms.find_exn stateful) ~stateless:(Atoms.find_exn stateless)
  in
  let mc = Fuzz.random_mc prng desc in
  (desc, mc, width, bits)

let native_exn d ~mc =
  match Native_substrate.create d ~mc with
  | Ok packed -> packed
  | Error reason -> Alcotest.failf "native substrate creation failed: %s" reason

(* Runs [sub] and returns everything observable: the trace rows, the final
   state, and — when a budget is given — whether it exhausted, where the
   trace stopped, and the fuel left. *)
let observe ?faults ?fuel ~batched ~inputs ~width sub =
  let buf = Trace.Buffer.create ~width ~capacity:(List.length inputs) in
  let budget = Option.map Budget.ticks fuel in
  let exhausted =
    match
      if batched then Substrate.run_batch_into ?budget ?faults ~batch:16 sub ~inputs buf
      else Substrate.run_into ?budget ?faults sub ~inputs buf
    with
    | () -> false
    | exception Budget.Exhausted -> true
  in
  let rows = List.init (Trace.Buffer.length buf) (Trace.Buffer.row buf) in
  (rows, Substrate.current_state sub, exhausted, Option.map Budget.remaining budget)

let qcheck_cross_substrate =
  QCheck.Test.make ~name:"native is bit-identical to Engine and Compiled" ~count:6
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let desc, mc, width, bits = draw_program seed in
      let inputs = Traffic.phvs (Traffic.create ~seed:(Prng.derive seed 1) ~width ~bits) 40 in
      List.for_all
        (fun level ->
          let d = Optimizer.apply ~level ~mc desc in
          let faults =
            Faults.generate ~seed:(Prng.derive seed 2) ~desc:d ~n_inputs:40 ~count:3 ()
          in
          let fuel = 5 + Prng.int (Prng.create (Prng.derive seed 3)) 60 in
          List.for_all
            (fun (faults, fuel, batched) ->
              let run sub = observe ?faults ?fuel ~batched ~inputs ~width sub in
              let native = run (native_exn d ~mc) in
              let engine = run (Substrate.of_engine ~label:"interpreter" d ~mc) in
              let compiled = run (Substrate.of_compiled (Compile.compile d ~mc)) in
              if native = engine && native = compiled then true
              else
                QCheck.Test.fail_reportf
                  "seed %d, level %s, faults=%b fuel=%s batched=%b: native diverges" seed
                  (Optimizer.level_name level) (Option.is_some faults)
                  (match fuel with Some f -> string_of_int f | None -> "-")
                  batched)
            [
              (None, None, false);
              (None, None, true);
              (Some faults, None, false);
              (Some faults, None, true);
              (None, Some fuel, false);
              (Some faults, Some fuel, true);
            ])
        [ Optimizer.Unoptimized; Optimizer.Scc; Optimizer.Scc_inline ])

(* --- Build cache ------------------------------------------------------------- *)

let with_temp_cache_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "druzhba-native-test-%d" (Unix.getpid ()))
  in
  let rec remove_tree path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Sys.remove path with Sys_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  remove_tree dir;
  Unix.putenv "DRUZHBA_NATIVE_CACHE_DIR" dir;
  Native_substrate.clear_memo ();
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DRUZHBA_NATIVE_CACHE_DIR" "";
      Native_substrate.clear_memo ();
      remove_tree dir)
    (fun () -> f dir)

let rec find_cmxs dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun e ->
         let path = Filename.concat dir e in
         if Sys.is_directory path then find_cmxs path
         else if Filename.check_suffix path ".cmxs" then [ path ]
         else [])

let cache_fixture () =
  let desc =
    Dgen.generate
      (Dgen.config ~depth:1 ~width:1 ~bits:8 ())
      ~stateful:(Atoms.find_exn "raw") ~stateless:(Atoms.find_exn "stateless_mux")
  in
  (desc, Fuzz.random_mc (Prng.create 424242) desc)

let test_cache_hit_miss () =
  with_temp_cache_dir (fun _dir ->
      let desc, mc = cache_fixture () in
      let s0 = Native_substrate.stats () in
      ignore (native_exn desc ~mc);
      let s1 = Native_substrate.stats () in
      Alcotest.(check int) "fresh dir: one compile"
        (s0.Native_substrate.st_compiles + 1)
        s1.Native_substrate.st_compiles;
      ignore (native_exn desc ~mc);
      let s2 = Native_substrate.stats () in
      Alcotest.(check int) "second create: memo hit"
        (s1.Native_substrate.st_memo_hits + 1)
        s2.Native_substrate.st_memo_hits;
      Alcotest.(check int) "second create: no compile" s1.Native_substrate.st_compiles
        s2.Native_substrate.st_compiles;
      Native_substrate.clear_memo ();
      ignore (native_exn desc ~mc);
      let s3 = Native_substrate.stats () in
      Alcotest.(check int) "after clear_memo: disk cache hit"
        (s2.Native_substrate.st_cache_hits + 1)
        s3.Native_substrate.st_cache_hits;
      Alcotest.(check int) "after clear_memo: still no compile" s2.Native_substrate.st_compiles
        s3.Native_substrate.st_compiles)

(* The torn-write scenario: a killed process left a garbage `.cmxs` at the
   content-addressed path, and a fresh process must evict and rebuild it
   rather than propagate the Dynlink error.  The corrupt artifact is
   pre-seeded at {!Native_substrate.artifact_path} for a key this process
   has never loaded — corrupting an already-loaded path would be masked by
   the dynamic loader's handle cache (dlopen serves the old mapping for a
   known path), which is exactly not the scenario recovery exists for. *)
let test_corrupted_cmxs_recovery () =
  with_temp_cache_dir (fun dir ->
      let desc =
        Dgen.generate
          (Dgen.config ~depth:1 ~width:2 ~bits:16 ())
          ~stateful:(Atoms.find_exn "sub") ~stateless:(Atoms.find_exn "stateless_rel")
      in
      let mc = Fuzz.random_mc (Prng.create 777777) desc in
      Unix.mkdir dir 0o755;
      let cmxs = Native_substrate.artifact_path desc ~mc in
      let oc = open_out_bin cmxs in
      output_string oc "this is not a shared object";
      close_out oc;
      let s0 = Native_substrate.stats () in
      let packed = native_exn desc ~mc in
      let s1 = Native_substrate.stats () in
      Alcotest.(check int) "the corrupt artifact is found in the cache"
        (s0.Native_substrate.st_cache_hits + 1)
        s1.Native_substrate.st_cache_hits;
      Alcotest.(check int) "recovery recompiles once"
        (s0.Native_substrate.st_compiles + 1)
        s1.Native_substrate.st_compiles;
      (match find_cmxs dir with
      | [ rebuilt ] ->
        Alcotest.(check string) "rebuilt at the same content address" cmxs rebuilt
      | files -> Alcotest.failf "expected exactly one cached .cmxs, found %d" (List.length files));
      (* and the recovered module actually runs *)
      let inputs = Traffic.phvs (Traffic.create ~seed:5 ~width:2 ~bits:16) 8 in
      let buf = Trace.Buffer.create ~width:2 ~capacity:8 in
      Substrate.run_into packed ~inputs buf;
      Alcotest.(check int) "recovered module simulates" 8 (Trace.Buffer.length buf))

(* A cached artifact that Dynlink accepts but that registers no plugin (a
   foreign or stale module at the content address) is refused, evicted
   and rebuilt at the same path, which the loader has already opened: the
   rebuilt module must still load in this process, not only in the next
   one, and simulate as the interpreter does. *)
let test_refused_cmxs_recovery () =
  with_temp_cache_dir (fun dir ->
      let desc =
        Dgen.generate
          (Dgen.config ~depth:2 ~width:2 ~bits:8 ())
          ~stateful:(Atoms.find_exn "pair") ~stateless:(Atoms.find_exn "stateless_arith")
      in
      let mc = Fuzz.random_mc (Prng.create 515151) desc in
      let tc =
        match Native_substrate.probe () with
        | Ok tc -> tc
        | Error reason -> Alcotest.failf "toolchain vanished: %s" reason
      in
      let plant = dir ^ "-plant" in
      Unix.mkdir dir 0o755;
      Unix.mkdir plant 0o755;
      let ml = Filename.concat plant "no_plugin.ml"
      and planted = Filename.concat plant "no_plugin.cmxs" in
      Out_channel.with_open_bin ml (fun oc -> output_string oc "let loaded = ()\n");
      let status =
        Sys.command
          (Filename.quote_command tc.Native_substrate.tc_ocamlopt ~stdout:Filename.null
             ~stderr:Filename.null [ "-shared"; "-o"; planted; ml ])
      in
      Alcotest.(check int) "the planted module compiles" 0 status;
      let cmxs = Native_substrate.artifact_path desc ~mc in
      Out_channel.with_open_bin cmxs (fun oc ->
          output_string oc (In_channel.with_open_bin planted In_channel.input_all));
      Array.iter (fun e -> Sys.remove (Filename.concat plant e)) (Sys.readdir plant);
      Unix.rmdir plant;
      let native =
        match Native_substrate.create desc ~mc with
        | Ok packed -> packed
        | Error reason -> Alcotest.failf "create after a refused artifact: %s" reason
      in
      (match find_cmxs dir with
      | [ rebuilt ] -> Alcotest.(check string) "rebuilt at the content address" cmxs rebuilt
      | files -> Alcotest.failf "expected exactly one cached .cmxs, found %d" (List.length files));
      let inputs = Traffic.phvs (Traffic.create ~seed:9 ~width:2 ~bits:8) 30 in
      let run sub = observe ~batched:false ~inputs ~width:2 sub in
      Alcotest.(check bool) "the recovered module agrees with the interpreter" true
        (run native = run (Substrate.of_engine ~label:"interpreter" desc ~mc)))

(* --- Concurrent builds --------------------------------------------------------- *)

(* Runs each thunk on its own domain, released together, and returns their
   results in order.  Fails instead of hanging when they are not all done
   within [seconds]. *)
let on_domains ?(seconds = 120.) thunks =
  let n = List.length thunks in
  let arrived = Atomic.make 0 and running = Atomic.make n in
  let domains =
    List.map
      (fun f ->
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.decr running)
              (fun () ->
                Atomic.incr arrived;
                while Atomic.get arrived < n do
                  Domain.cpu_relax ()
                done;
                f ())))
      thunks
  in
  let deadline = Unix.gettimeofday () +. seconds in
  while Atomic.get running > 0 do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "%d of %d domains still running after %.0f s" (Atomic.get running) n seconds;
    Unix.sleepf 0.005
  done;
  List.map Domain.join domains

let stats_delta s0 s1 =
  ( s1.Native_substrate.st_compiles - s0.Native_substrate.st_compiles,
    s1.Native_substrate.st_memo_hits - s0.Native_substrate.st_memo_hits,
    s1.Native_substrate.st_cache_hits - s0.Native_substrate.st_cache_hits )

(* Domains asking for a program another domain is building wait for that
   build and take a memo hit: one compile, never a disk hit on the fresh
   artifact, and every domain simulates the same plugin. *)
let test_concurrent_same_program () =
  with_temp_cache_dir (fun _dir ->
      let desc, mc = cache_fixture () in
      let inputs = Traffic.phvs (Traffic.create ~seed:9 ~width:1 ~bits:8) 24 in
      let s0 = Native_substrate.stats () in
      let runs =
        on_domains
          (List.init 4 (fun _ () ->
               observe ~batched:false ~inputs ~width:1 (native_exn desc ~mc)))
      in
      let compiles, memo_hits, cache_hits = stats_delta s0 (Native_substrate.stats ()) in
      Alcotest.(check int) "one compile" 1 compiles;
      Alcotest.(check int) "three memo hits" 3 memo_hits;
      Alcotest.(check int) "no disk cache hit" 0 cache_hits;
      List.iter
        (fun run -> Alcotest.(check bool) "identical traces" true (run = List.hd runs))
        runs)

(* Different programs build side by side, each in its own staging dir, and
   nothing but the published artifacts is left in the cache. *)
let test_concurrent_two_programs () =
  with_temp_cache_dir (fun dir ->
      let fixture ~stateful ~seed =
        let desc =
          Dgen.generate
            (Dgen.config ~depth:2 ~width:1 ~bits:16 ())
            ~stateful:(Atoms.find_exn stateful) ~stateless:(Atoms.find_exn "stateless_arith")
        in
        (desc, Fuzz.random_mc (Prng.create seed) desc)
      in
      let programs = [ fixture ~stateful:"pair" ~seed:31; fixture ~stateful:"pred_raw" ~seed:32 ] in
      let s0 = Native_substrate.stats () in
      let created =
        on_domains (List.map (fun (desc, mc) () -> Native_substrate.create desc ~mc) programs)
      in
      let compiles, _, cache_hits = stats_delta s0 (Native_substrate.stats ()) in
      Alcotest.(check int) "two compiles" 2 compiles;
      Alcotest.(check int) "no disk cache hit" 0 cache_hits;
      List.iter
        (function
          | Ok _ -> ()
          | Error reason -> Alcotest.failf "plugin failed to load: %s" reason)
        created;
      Alcotest.(check int) "two published artifacts" 2 (List.length (find_cmxs dir));
      let staging =
        List.filter (String.starts_with ~prefix:"build.") (Array.to_list (Sys.readdir dir))
      in
      Alcotest.(check (list string)) "no staging dir left" [] staging)

(* --- Block builds ------------------------------------------------------------- *)

(* Eight native trials whose master seed draws one program twice: seven
   distinct programs, so a cold cache means seven compiles and one memo
   hit.  [Campaign.run_resumable] builds each block's programs as
   [jobs] group modules before the block's trials start. *)
let block_cfg ?(trials = 8) ?(checkpoint_every = 64) jobs =
  Campaign.config ~trials ~jobs ~master_seed:(Prng.derive 3 24) ~substrate:"native" ~phvs:20
    ~checkpoint_every ()

let use_cache dir =
  Unix.putenv "DRUZHBA_NATIVE_CACHE_DIR" dir;
  Native_substrate.clear_memo ()

(* The report bytes and the (compiles, memo hits, cache hits) it cost. *)
let counted_run cfg =
  let s0 = Native_substrate.stats () in
  let r = Campaign.run cfg in
  Alcotest.(check (list string)) "no notes" [] r.Campaign.r_notes;
  (Campaign.to_json r, stats_delta s0 (Native_substrate.stats ()))

let counts = Alcotest.(triple int int int)

let test_block_build () =
  with_temp_cache_dir (fun dir ->
      let report jobs =
        let cache = Filename.concat dir (Printf.sprintf "jobs-%d" jobs) in
        use_cache cache;
        let json, cost = counted_run (block_cfg jobs) in
        Alcotest.check counts
          (Printf.sprintf "jobs %d: (compiles, memo hits, cache hits)" jobs)
          (7, 1, 0) cost;
        Alcotest.(check int)
          (Printf.sprintf "jobs %d: one artifact per group" jobs)
          jobs
          (List.length (find_cmxs cache));
        json
      in
      let jobs1 = report 1 in
      let jobs2 = report 2 in
      Alcotest.(check string) "report bytes equal at jobs 1 and 2" jobs1 jobs2)

(* A rerun in the same process after [clear_memo] loads the group
   artifacts from disk: every first request counts a disk hit. *)
let test_block_warm_rerun () =
  with_temp_cache_dir (fun _dir ->
      let cold, _ = counted_run (block_cfg 2) in
      Native_substrate.clear_memo ();
      let warm, cost = counted_run (block_cfg 2) in
      Alcotest.check counts "(compiles, memo hits, cache hits)" (0, 1, 7) cost;
      Alcotest.(check string) "same report" cold warm)

(* Garbage at every group artifact's content address: the group loads
   fail, the artifacts are evicted, and each program builds alone.  The
   garbage goes into a second cache directory under the names the first
   run published, because this process has Dynlinked the first
   directory's files: the loader would serve them from its handle cache,
   and overwriting a mapped file in place can crash the process. *)
let test_block_corrupt_group () =
  with_temp_cache_dir (fun dir ->
      let built = Filename.concat dir "built" and corrupt = Filename.concat dir "corrupt" in
      use_cache built;
      let reference, _ = counted_run (block_cfg 2) in
      let groups = List.map Filename.basename (find_cmxs built) in
      Unix.mkdir corrupt 0o755;
      List.iter
        (fun name ->
          Out_channel.with_open_bin (Filename.concat corrupt name) (fun oc ->
              output_string oc "not a shared object"))
        groups;
      use_cache corrupt;
      let json, cost = counted_run (block_cfg 2) in
      Alcotest.(check string) "same report" reference json;
      Alcotest.check counts "(compiles, memo hits, cache hits)" (7, 1, 0) cost;
      Alcotest.(check (list string)) "group artifacts evicted" []
        (List.filter (fun name -> Sys.file_exists (Filename.concat corrupt name)) groups);
      Alcotest.(check int) "one artifact per program" 7 (List.length (find_cmxs corrupt)))

(* Each block builds its own programs, so a campaign cut after its first
   block and resumed at the other job count reports what an uninterrupted
   run reports. *)
let test_block_resume () =
  with_temp_cache_dir (fun dir ->
      let cfg jobs = block_cfg ~trials:16 ~checkpoint_every:8 jobs in
      let reference, _ = counted_run (cfg 1) in
      List.iter
        (fun (first, second) ->
          let ck = Filename.concat dir (Printf.sprintf "resume-%d.ck" first) in
          Native_substrate.clear_memo ();
          (match Campaign.run_resumable ~checkpoint:ck ~stop_after:8 (cfg first) with
          | None -> ()
          | Some _ -> Alcotest.fail "stop_after 8 must cut the campaign");
          Native_substrate.clear_memo ();
          match Campaign.run_resumable ~checkpoint:ck ~resume:true (cfg second) with
          | Some r ->
            Alcotest.(check string)
              (Printf.sprintf "jobs %d then %d: resumed report equals an uninterrupted run" first
                 second)
              reference (Campaign.to_json r)
          | None -> Alcotest.fail "the resumed campaign must finish")
        [ (1, 2); (2, 1) ])

(* A generator bug in the native draw (here, an atom name the library does
   not know) raises while the block's programs are planned, before any
   trial runs.  The plan leaves those programs to their trials, which
   report the crash as they would without block builds. *)
let test_block_plan_raises () =
  with_temp_cache_dir (fun _dir ->
      let pool = Campaign.stateful_pool in
      let saved = Array.copy pool in
      Array.fill pool 0 (Array.length pool) "no_such_atom";
      let r =
        Fun.protect
          ~finally:(fun () -> Array.blit saved 0 pool 0 (Array.length pool))
          (fun () -> Campaign.run (block_cfg ~trials:4 2))
      in
      Alcotest.(check int) "every trial crashed" 4 r.Campaign.r_crashed;
      let expected =
        Printexc.to_string (Invalid_argument "Atoms.find_exn: unknown ALU 'no_such_atom'")
      in
      List.iter
        (fun (t : Campaign.trial) ->
          match t.Campaign.t_outcome with
          | Campaign.Crashed { cr_exn; _ } -> Alcotest.(check string) "the draw's error" expected cr_exn
          | _ -> Alcotest.failf "trial %d did not crash" t.Campaign.t_index)
        r.Campaign.r_trials)

(* --- Emitted-source determinism ---------------------------------------------- *)

(* Non-overlapping occurrences of [sub] in [s]. *)
let count_occurrences s sub =
  let n = String.length sub and m = String.length s in
  let rec go i acc =
    if i + n > m then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* Byte-identical source for equal inputs is what makes the
   content-addressed cache sound: equal (description, machine code) must
   map to equal keys, including across independently reconstructed
   values.  The module's shape is pinned too: one [exec_stage_<s>] per
   stage over the flat register file, and no batched lane entry point. *)
let test_emitted_source_deterministic () =
  let source seed =
    let desc, mc, _, _ = draw_program seed in
    Emit.native_source desc ~mc
  in
  List.iter
    (fun seed ->
      let src = source seed in
      Alcotest.(check string)
        (Printf.sprintf "seed %d reproduces byte-identically" seed)
        src (source seed);
      let desc, _, _, _ = draw_program seed in
      let depth = desc.Ir.d_depth in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: one stage entry point per stage" seed)
        depth
        (count_occurrences src "let exec_stage_");
      for s = 0 to depth - 1 do
        Alcotest.(check int)
          (Printf.sprintf "seed %d: exec_stage_%d defined once" seed s)
          1
          (count_occurrences src (Printf.sprintf "let exec_stage_%d " s))
      done;
      Alcotest.(check int) "no lane dispatcher" 0 (count_occurrences src "exec_lanes");
      Alcotest.(check int) "no Bigarray" 0 (count_occurrences src "Bigarray"))
    [ 0; 17; 4242 ];
  Alcotest.(check bool) "different programs emit different source" true
    (source 0 <> source 17)

(* --- Degradation ------------------------------------------------------------- *)

let test_disable_env () =
  Unix.putenv "DRUZHBA_NATIVE_DISABLE" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "DRUZHBA_NATIVE_DISABLE" "")
    (fun () ->
      (match Native_substrate.available () with
      | Error reason ->
        Alcotest.(check bool) "reason names the switch" true
          (let sub = "DRUZHBA_NATIVE_DISABLE" in
           let n = String.length sub and m = String.length reason in
           let rec at i = i + n <= m && (String.sub reason i n = sub || at (i + 1)) in
           at 0)
      | Ok () -> Alcotest.fail "expected unavailability under DRUZHBA_NATIVE_DISABLE");
      let desc, mc = cache_fixture () in
      match Native_substrate.create desc ~mc with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "create must refuse, not Dynlink, when disabled")

(* The cache directory sits under a regular file, so it cannot be created:
   every domain that builds gets [Error] (no exception escapes), and one
   waiting on the failed build retries it and fails the same way instead
   of hanging. *)
let test_unusable_cache_dir () =
  with_temp_cache_dir (fun dir ->
      Out_channel.with_open_bin dir (fun oc -> output_string oc "a regular file");
      Unix.putenv "DRUZHBA_NATIVE_CACHE_DIR" (Filename.concat dir "cache");
      let desc, mc = cache_fixture () in
      let created = on_domains (List.init 2 (fun _ () -> Native_substrate.create desc ~mc)) in
      List.iter
        (function
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "create must return Error for an unusable cache dir")
        created)

(* Per-program build failures after a successful probe: compiled
   interfaces that exist but are garbage make every build fail — each
   block's group module first, then every program alone.  The trials
   degrade to the closures, and the report says so in one note that is
   byte-identical at jobs 1 and 2. *)
let test_build_failure_note () =
  with_temp_cache_dir (fun dir ->
      let include_dir = dir ^ "-cmi" in
      Unix.mkdir include_dir 0o755;
      List.iter
        (fun cmi ->
          Out_channel.with_open_bin (Filename.concat include_dir cmi) (fun oc ->
              output_string oc "not a compiled interface"))
        [ "druzhba_dsim.cmi"; "druzhba_dsim__Native_abi.cmi" ];
      Unix.putenv "DRUZHBA_NATIVE_INCLUDE" include_dir;
      Fun.protect
        ~finally:(fun () ->
          Unix.putenv "DRUZHBA_NATIVE_INCLUDE" "";
          Array.iter (fun e -> Sys.remove (Filename.concat include_dir e)) (Sys.readdir include_dir);
          Unix.rmdir include_dir)
        (fun () ->
          Alcotest.(check bool) "the probe still passes" true
            (Result.is_ok (Native_substrate.available ()));
          let report jobs =
            Campaign.run
              (Campaign.config ~trials:4 ~jobs ~master_seed:5 ~substrate:"native" ~phvs:20 ())
          in
          let r1 = report 1 and r2 = report 2 in
          Alcotest.(check int) "every trial still agrees" 4 r1.Campaign.r_agree;
          Alcotest.(check (list string))
            "one note with the count and the first trial"
            [
              "native build failed for 4 trial(s), first at trial 0; those trials ran on the \
               interpreted fallback (native-fallback@scc-inline)";
            ]
            r1.Campaign.r_notes;
          Alcotest.(check string) "report bytes equal at jobs 1 and 2" (Campaign.to_json r1)
            (Campaign.to_json r2)))

let available_suites =
  [
    ( "cross-substrate",
      [ QCheck_alcotest.to_alcotest ~long:false qcheck_cross_substrate ] );
    ( "build cache",
      [
        Alcotest.test_case "memo and disk hits" `Quick test_cache_hit_miss;
        Alcotest.test_case "corrupted cmxs recovery" `Quick test_corrupted_cmxs_recovery;
        Alcotest.test_case "refused cmxs recovers in process" `Quick test_refused_cmxs_recovery;
      ] );
    ( "concurrency",
      [
        Alcotest.test_case "four domains, one program" `Quick test_concurrent_same_program;
        Alcotest.test_case "two domains, two programs" `Quick test_concurrent_two_programs;
      ] );
    ( "block builds",
      [
        Alcotest.test_case "one group per job, cold" `Quick test_block_build;
        Alcotest.test_case "warm rerun reads the groups" `Quick test_block_warm_rerun;
        Alcotest.test_case "corrupt group artifacts" `Quick test_block_corrupt_group;
        Alcotest.test_case "resume at the other job count" `Quick test_block_resume;
        Alcotest.test_case "a raising draw crashes its trial" `Quick test_block_plan_raises;
      ] );
    ( "emitter",
      [ Alcotest.test_case "source determinism" `Quick test_emitted_source_deterministic ] );
    ( "degradation",
      [
        Alcotest.test_case "DRUZHBA_NATIVE_DISABLE refuses" `Quick test_disable_env;
        Alcotest.test_case "unusable cache dir is an Error" `Quick test_unusable_cache_dir;
        Alcotest.test_case "build failures are noted" `Quick test_build_failure_note;
      ] );
  ]

let () =
  match Native_substrate.available () with
  | Ok () -> Alcotest.run "native" available_suites
  | Error reason ->
    (* structured skip: the suite passes, the reason is visible in the log *)
    Alcotest.run "native"
      [
        ( "toolchain",
          [
            Alcotest.test_case
              (Printf.sprintf "skipped: native toolchain unavailable (%s)" reason)
              `Quick
              (fun () -> ());
          ] );
      ]
