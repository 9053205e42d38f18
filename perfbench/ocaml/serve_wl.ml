(* Workload serve: [druzhba serve --workers 2] fed small campaign jobs over
   HTTP, in two phases.

   - Paced (open loop): jobs are due at a fixed rate below capacity and
     are timed from when each was due, so a stall that delays later
     submissions counts against them; the generator's own lateness is
     reported.  Each job's events stream is held open: the first chunk
     carrying its "spawn" event gives the first-event time, and the stream
     closing (the job is terminal) gives its completion.
   - Bursts, until the measured seconds are up: each submits its jobs at
     once and lasts until the last one completes; throughput is all burst
     jobs over all burst time.

   One operation is one job; it fails on a refusal (503), a job that does
   not finish, or a served report that is not byte-identical to an
   in-process [Campaign.run] with the same configuration.  This is the only
   workload that exercises Protocol, Jobstore, Supervisor, Server, worker
   start-up and checkpoint writes. *)

module Prng = Druzhba_util.Prng
module Campaign = Druzhba_campaign.Campaign
module Report = Druzhba_campaign.Report
module Protocol = Druzhba_service.Protocol

open Common

let workers = 2
let job_trials = 24
let job_phvs = 20
let paced_rate = 5. (* jobs/s; about 40% of what two workers complete *)
let paced_share = 0.5 (* of the measured seconds; bursts fill the rest *)
let burst_jobs = 16
let job_deadline = 60.

let job_seed ~seed i = Prng.derive seed i land 0x3FFF_FFFF

let spec ~job_seed =
  Printf.sprintf {|{"kind": "campaign", "trials": %d, "seed": %d, "phvs": %d, "substrate": "rmt"}|}
    job_trials job_seed job_phvs

(* --- The daemon ---------------------------------------------------------------- *)

type daemon = { pid : int; port : int }

let rec waitpid_retry flags pid =
  match Unix.waitpid flags pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid
  | r -> r

(* Starts a daemon on a fresh root and waits until /healthz answers.
   perfbench/run.py times the same start-up for the set-up metric. *)
let start ~druzhba ~root =
  let t0 = now () in
  let log = Unix.openfile (Filename.concat root "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process druzhba
      [| druzhba; "serve"; "--root"; root; "--workers"; string_of_int workers; "--max-queue"; "64" |]
      Unix.stdin log log
  in
  Unix.close log;
  let port_file = Filename.concat root "port" in
  let rec wait_ready () =
    if now () -. t0 > 30. then failwith "daemon did not become ready";
    let port =
      match In_channel.with_open_text port_file In_channel.input_all with
      | s -> int_of_string_opt (String.trim s)
      | exception Sys_error _ -> None
    in
    match port with
    | Some port when (match Protocol.http ~timeout:5. ~port ~meth:"GET" ~path:"/healthz" () with
                     | Ok (200, _) -> true
                     | _ -> false) ->
      port
    | _ ->
      Unix.sleepf 0.002;
      wait_ready ()
  in
  { pid; port = wait_ready () }

let stop d =
  ignore (Protocol.http ~timeout:5. ~port:d.port ~meth:"POST" ~path:"/shutdown" ());
  let deadline = now () +. 20. in
  let rec wait () =
    match waitpid_retry [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if now () > deadline then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_retry [] d.pid)
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
    | _ -> ()
  in
  wait ()

(* --- Jobs ------------------------------------------------------------------------ *)

type job = {
  j_seed : int;
  due : float;
  mutable id : string;
  mutable submit_start : float;
  mutable submit_end : float;
  mutable first_event : float;
  mutable finished : float;
  mutable shed : bool;
  mutable fd : Unix.file_descr option;
  stream : Buffer.t;
}

let new_job ~seed ~due i =
  { j_seed = job_seed ~seed i; due; id = ""; submit_start = 0.; submit_end = 0.; first_event = 0.;
    finished = 0.; shed = false; fd = None; stream = Buffer.create 256 }

(* Opens the job's event stream: a raw request whose response we read as
   it arrives. *)
let open_stream d j =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, d.port));
  let rq = Printf.sprintf "GET /jobs/%s/events HTTP/1.1\r\nHost: localhost\r\n\r\n" j.id in
  ignore (Unix.write_substring fd rq 0 (String.length rq));
  j.fd <- Some fd

let submit d j =
  j.submit_start <- now ();
  (match Protocol.http ~timeout:10. ~port:d.port ~meth:"POST" ~path:"/jobs" ~body:(spec ~job_seed:j.j_seed) () with
  | Ok (201, body) -> (
    match Result.map (Report.member "id") (Report.parse body) with
    | Ok (Some (Report.Str id)) -> j.id <- id
    | _ -> j.shed <- true)
  | Ok _ | Error _ -> j.shed <- true);
  j.submit_end <- now ();
  if not j.shed then open_stream d j

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  at 0

(* Waits up to [timeout] for stream data and records what arrived. *)
let pump jobs ~timeout =
  let open_jobs = List.filter (fun j -> j.fd <> None) jobs in
  let fds = List.filter_map (fun j -> j.fd) open_jobs in
  if fds = [] then (if timeout > 0. then Unix.sleepf timeout)
  else
    let ready =
      match Unix.select fds [] [] (Float.max 0. timeout) with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    let t = now () in
    let chunk = Bytes.create 65536 in
    List.iter
      (fun j ->
        match j.fd with
        | Some fd when List.mem fd ready -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 | (exception Unix.Unix_error (_, _, _)) ->
            j.finished <- t;
            Unix.close fd;
            j.fd <- None
          | n ->
            Buffer.add_subbytes j.stream chunk 0 n;
            if j.first_event = 0. && contains (Buffer.contents j.stream) "\"spawn\"" then
              j.first_event <- t)
        | _ -> ())
      open_jobs

let drain jobs ~deadline =
  while List.exists (fun j -> j.fd <> None) jobs && now () < deadline do
    pump jobs ~timeout:0.05
  done;
  List.iter (fun j -> match j.fd with Some fd -> Unix.close fd; j.fd <- None | None -> ()) jobs

(* Open loop: job i is due at [t0 + i / rate]. *)
let paced d ~seed ~seconds =
  let n = max 1 (int_of_float (seconds *. paced_rate)) in
  let t0 = now () +. 0.05 in
  let jobs = List.init n (fun i -> new_job ~seed ~due:(t0 +. (float_of_int i /. paced_rate)) i) in
  List.iter
    (fun j ->
      let rec until_due () =
        let wait = j.due -. now () in
        if wait > 0. then begin
          pump jobs ~timeout:wait;
          until_due ()
        end
      in
      until_due ();
      submit d j)
    jobs;
  drain jobs ~deadline:(now () +. job_deadline);
  jobs

(* Returns the burst's jobs and how long it took until the last one was done. *)
let burst d ~seed ~first_index =
  let t0 = now () in
  let jobs = List.init burst_jobs (fun i -> new_job ~seed ~due:t0 (first_index + i)) in
  List.iter (submit d) jobs;
  drain jobs ~deadline:(now () +. job_deadline);
  (jobs, List.fold_left (fun a j -> Float.max a (j.finished -. t0)) 0. jobs)

(* --- The workload ------------------------------------------------------------------ *)

let expected_report ~job_seed =
  Campaign.to_json
    (Campaign.run
       (Campaign.config ~trials:job_trials ~jobs:1 ~master_seed:job_seed ~substrate:"rmt"
          ~phvs:job_phvs ()))
  ^ "\n"

let run run ~seed ~seconds ~trace ~work ~druzhba =
  if druzhba = "" then invalid_arg "serve workload needs --druzhba";
  let d = start ~druzhba ~root:(fresh_dir ~work "farm") in
  Fun.protect
    ~finally:(fun () -> stop d)
    (fun () ->
      let deadline = now () +. seconds in
      let paced_jobs = paced d ~seed ~seconds:(seconds *. paced_share) in
      let bursts = ref [] in
      while !bursts = [] || now () < deadline do
        let first_index = List.length paced_jobs + (burst_jobs * List.length !bursts) in
        bursts := burst d ~seed ~first_index :: !bursts;
        (* peak memory after a fixed amount of work: the paced phase and one burst *)
        if List.length !bursts = 1 then
          Catalog.add_e2e run "peak_rss_mb" (peak_rss_mb ~pid:(string_of_int d.pid) ())
      done;
      let bursts = List.rev !bursts in
      let burst_jobs = List.concat_map fst bursts in
      (* output check: every served report, byte for byte *)
      Druzhba_campaign.Runner.force_atoms ();
      let bad = ref [] in
      List.iter
        (fun j ->
          let served_ok =
            (not j.shed) && j.finished > 0.
            &&
            let r, dt =
              timed (fun () ->
                  Protocol.http ~timeout:10. ~port:d.port ~meth:"GET" ~path:(Printf.sprintf "/jobs/%s/report" j.id) ())
            in
            if trace then Catalog.add_layer run "service.report_ms" (ms dt);
            match r with
            | Ok (200, body) ->
              body = expected_report ~job_seed:j.j_seed
            | _ -> false
          in
          op run ~ok:served_ok;
          if not served_ok then
            bad := Printf.sprintf "%s (seed %d): %s" j.id j.j_seed (if j.shed then "refused" else "report differs or missing") :: !bad)
        (paced_jobs @ burst_jobs);
      check run "served reports equal in-process Campaign.run" (!bad = []) (String.concat "; " !bad);
      let done_jobs = List.filter (fun j -> j.finished > 0. && not j.shed) in
      let burst_s = List.fold_left (fun a (_, dt) -> a +. dt) 0. bursts in
      let jobs_per_s = float_of_int (List.length (done_jobs burst_jobs)) /. burst_s in
      Catalog.add_e2e run "ops_per_s" jobs_per_s;
      Catalog.add_view run "jobs_per_s" jobs_per_s;
      List.iter
        (fun j ->
          let latency = j.finished -. j.due in
          Catalog.add_e2e run "op_mean_ms" (ms latency);
          Catalog.add_e2e run "op_tail_ms" (ms latency);
          Catalog.add_view run "job_latency_p50_s" latency;
          Catalog.add_view run "job_latency_tail_s" latency;
          if j.first_event > 0. then Catalog.add_view run "first_event_p50_ms" (ms (j.first_event -. j.due)))
        (done_jobs paced_jobs);
      if trace then begin
        Catalog.declare_layers run;
        let all = paced_jobs @ burst_jobs in
        List.iter
          (fun j ->
            Catalog.add_layer run "service.submit_ms" (ms (j.submit_end -. j.submit_start));
            if j.first_event > 0. then begin
              Catalog.add_layer run "service.queue_wait_ms" (ms (j.first_event -. j.submit_end));
              Catalog.add_layer run "service.run_s" (j.finished -. j.first_event)
            end)
          (done_jobs all);
        List.iter
          (fun j -> Catalog.add_layer run "service.generator_lag_ms" (ms (Float.max 0. (j.submit_start -. j.due))))
          paced_jobs;
        Catalog.add_layer run "service.shed_share"
          (float_of_int (List.length (List.filter (fun j -> j.shed) all))
          /. float_of_int (List.length all))
      end)
