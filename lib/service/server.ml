(* The daemon: a single-threaded select(2) event loop.

   One thread, no domains, no async runtime — the daemon's own work per
   tick is tiny (parse a request, poke the supervisor, write a response);
   all the heavy lifting happens in worker *processes*.  Single-threaded
   also means the journal, the job list, and the findings store need no
   locking, which is most of how a durability story stays auditable.

   Robustness posture, end to end:
   - bounded queue: POST /jobs sheds load with 503 + Retry-After once the
     backlog is full, instead of accepting work it will serve badly;
   - request deadline: a client that dribbles half a request gets a 408,
     not a held buffer;
   - every accepted job is journaled synchronously *before* the 201 goes
     out — kill -9 of the daemon after the client sees 201 cannot lose it;
   - on restart the journal replays, orphaned workers are cleaned up, and
     interrupted jobs resume from their checkpoints; finished reports are
     re-served byte-identically because they are deterministic artifacts
     on disk, not rows the daemon recomputes. *)

module Report = Druzhba_campaign.Report
module Atomic_file = Druzhba_util.Atomic_file

type config = {
  s_root : string;
  s_port : int; (* 0 = ephemeral; the bound port lands in root/port *)
  s_max_queue : int; (* queued-job bound before load shedding *)
  s_request_timeout : float; (* seconds to receive a complete request *)
  s_grace : float; (* shutdown: seconds workers get to reach a boundary *)
  s_sv : Supervisor.config;
}

type conn = {
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;
  c_deadline : float;
  mutable c_stream : string option; (* job id whose events we stream *)
  mutable c_sent_events : int;
}

let log fmt = Printf.ksprintf (fun s -> Printf.eprintf "[druzhba-serve] %s\n%!" s) fmt

(* --- Plumbing ---------------------------------------------------------------- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

(* Synchronous response write.  The socket carries a send timeout, so a
   stalled client costs at most that; on any error the connection is
   simply dropped — the daemon never throws for a client's sake. *)
let send_and_close (c : conn) (payload : string) =
  (try
     Unix.clear_nonblock c.c_fd;
     Unix.setsockopt_float c.c_fd Unix.SO_SNDTIMEO 10.;
     Protocol.really_write c.c_fd (Bytes.of_string payload) 0 (String.length payload)
   with Unix.Unix_error (_, _, _) -> ());
  close_quietly c.c_fd

let send_keep (c : conn) (payload : string) =
  try
    Protocol.really_write c.c_fd (Bytes.of_string payload) 0 (String.length payload);
    true
  with Unix.Unix_error (_, _, _) ->
    close_quietly c.c_fd;
    false

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Best-effort cleanup of workers orphaned by a previous daemon's death.
   Only pids whose /proc cmdline still looks like a druzhba campaign are
   signalled — pid reuse must not kill an innocent process. *)
let kill_orphans (pids : int list) =
  List.iter
    (fun pid ->
      let cmdline = Printf.sprintf "/proc/%d/cmdline" pid in
      match read_file cmdline with
      | exception _ -> ()
      | raw ->
        if
          String.split_on_char '\000' raw
          |> List.exists (fun a -> a = "campaign")
        then begin
          log "killing orphaned worker pid %d" pid;
          try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ()
        end)
    pids

(* --- Routing ----------------------------------------------------------------- *)

type action =
  | Respond of string (* full response bytes; close after *)
  | Stream of string (* start streaming events of job id *)

let split_path path =
  (* "/jobs/j0001/report" -> ["jobs"; "j0001"; "report"], query strings
     are not part of this API *)
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

let not_found = Protocol.error_response ~status:404 "no such resource"

let route (sv : Supervisor.t) ~(quit : bool ref) ~(max_queue : int) (rq : Protocol.request) :
    action =
  let store = sv.Supervisor.store in
  match (rq.Protocol.rq_method, split_path rq.Protocol.rq_path) with
  | "GET", [ "healthz" ] ->
    Respond
      (Protocol.json_response ~status:200
         (Report.Obj
            [
              ("ok", Report.Bool true);
              ("workers", Report.Int sv.Supervisor.cfg.Supervisor.sv_workers);
              ("running", Report.Int (Supervisor.running_count sv));
              ("queued", Report.Int (Jobstore.count_state store Jobstore.Queued));
            ]))
  | "POST", [ "jobs" ] ->
    if !quit then
      Respond
        (Protocol.error_response ~headers:[ ("Retry-After", "30") ] ~status:503
           "daemon is shutting down")
    else if Jobstore.count_state store Jobstore.Queued >= max_queue then
      Respond
        (Protocol.error_response ~headers:[ ("Retry-After", "5") ] ~status:503
           "job queue is full")
    else (
      match Report.parse rq.Protocol.rq_body with
      | Error e -> Respond (Protocol.error_response ~status:400 ("bad JSON: " ^ e))
      | Ok spec -> (
        match Protocol.parse_submission spec with
        | Error e -> Respond (Protocol.error_response ~status:400 e)
        | Ok sb ->
          (* submit journals synchronously: after this line the job
             survives kill -9 of the daemon *)
          let j = Jobstore.submit store sb in
          log "accepted %s (%s)" j.Jobstore.j_id (Protocol.kind_name j.Jobstore.j_kind);
          Respond
            (Protocol.json_response ~status:201
               (Report.Obj [ ("id", Report.Str j.Jobstore.j_id) ]))))
  | "GET", [ "jobs" ] -> Respond (Protocol.json_response ~status:200 (Jobstore.status store))
  | "GET", [ "jobs"; id ] -> (
    match Jobstore.find store id with
    | Some j -> Respond (Protocol.json_response ~status:200 (Jobstore.job_status store j))
    | None -> Respond not_found)
  | "GET", [ "jobs"; id; "report" ] -> (
    match Jobstore.find store id with
    | None -> Respond not_found
    | Some j ->
      let path = Filename.concat (Jobstore.job_dir store j) "report.json" in
      if Sys.file_exists path then
        (* the report is served as the exact bytes the worker wrote:
           byte-identical across restarts, byte-identical to a CLI run
           with the same parameters *)
        Respond (Protocol.response ~status:200 (read_file path))
      else Respond (Protocol.error_response ~status:404 "report not ready"))
  | "GET", [ "jobs"; id; "log" ] -> (
    match Jobstore.find store id with
    | None -> Respond not_found
    | Some j ->
      let path = Filename.concat (Jobstore.job_dir store j) "worker.log" in
      if Sys.file_exists path then Respond (Protocol.response ~status:200 (read_file path))
      else Respond (Protocol.error_response ~status:404 "no log yet"))
  | "GET", [ "jobs"; id; "events" ] -> (
    match Jobstore.find store id with
    | Some j -> Stream j.Jobstore.j_id
    | None -> Respond not_found)
  | "GET", [ "findings" ] ->
    Respond (Protocol.json_response ~status:200 (Jobstore.findings_json sv.Supervisor.findings))
  | "POST", [ "shutdown" ] ->
    quit := true;
    Respond
      (Protocol.json_response ~status:200 (Report.Obj [ ("shutting_down", Report.Bool true) ]))
  | ("GET" | "POST"), _ -> Respond not_found
  | _ -> Respond (Protocol.error_response ~status:405 "method not allowed")

(* --- Event streaming ---------------------------------------------------------

   GET /jobs/ID/events holds the connection open and relays events.jsonl
   as chunked ndjson; the terminating zero-chunk goes out once the job is
   terminal.  The tail read is incremental by *count*, which is sound
   because events.jsonl is append-only. *)

let flush_stream (store : Jobstore.t) (c : conn) : bool (* keep connection *) =
  match c.c_stream with
  | None -> true
  | Some id -> (
    match Jobstore.find store id with
    | None ->
      send_and_close c Protocol.chunk_end;
      false
    | Some j ->
      let events = Jobstore.read_events store j in
      let fresh = List.filteri (fun i _ -> i >= c.c_sent_events) events in
      let alive =
        List.for_all (fun line -> send_keep c (Protocol.chunk (line ^ "\n"))) fresh
      in
      if not alive then false
      else begin
        c.c_sent_events <- c.c_sent_events + List.length fresh;
        match j.Jobstore.j_state with
        | Jobstore.Done | Jobstore.Quarantined ->
          let final =
            Report.to_string (Jobstore.job_status store j) ^ "\n"
          in
          let _ = send_keep c (Protocol.chunk final) in
          send_and_close c Protocol.chunk_end;
          false
        | Jobstore.Queued | Jobstore.Running -> true
      end)

(* --- The loop ----------------------------------------------------------------- *)

let run (cfg : config) : int =
  Jobstore.mkdir_p (Filename.concat cfg.s_root "jobs");
  match Jobstore.load cfg.s_root with
  | Error e ->
    log "cannot load journal: %s" e;
    1
  | Ok (store, orphans) ->
    kill_orphans orphans;
    let sv = Supervisor.create cfg.s_sv store in
    let replayed = List.length store.Jobstore.jobs in
    if replayed > 0 then
      log "journal replayed: %d job(s), %d queued for resume" replayed
        (Jobstore.count_state store Jobstore.Queued);
    (* replay itself is a durable state change (Running -> Queued) *)
    if replayed > 0 then Jobstore.save store;
    let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
    Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_loopback, cfg.s_port));
    Unix.listen listen_fd 64;
    let port =
      match Unix.getsockname listen_fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> cfg.s_port
    in
    (* the port file is how tests and scripts find an ephemeral daemon *)
    Atomic_file.atomic_write_string (Filename.concat cfg.s_root "port")
      (string_of_int port ^ "\n");
    let quit = ref false in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> quit := true));
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> quit := true));
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    log "listening on 127.0.0.1:%d (root %s, %d workers)" port cfg.s_root
      cfg.s_sv.Supervisor.sv_workers;
    let conns : conn list ref = ref [] in
    let drop c =
      close_quietly c.c_fd;
      conns := List.filter (fun c' -> c' != c) !conns
    in
    let handle_request c (rq : Protocol.request) =
      match route sv ~quit ~max_queue:cfg.s_max_queue rq with
      | Respond payload ->
        send_and_close c payload;
        conns := List.filter (fun c' -> c' != c) !conns
      | Stream id ->
        (* switch the connection to chunked streaming mode; it stays in
           [conns] but no longer reads *)
        if send_keep c Protocol.stream_head then c.c_stream <- Some id
        else conns := List.filter (fun c' -> c' != c) !conns
    in
    let service_readable c =
      let chunk = Bytes.create 65536 in
      match Unix.read c.c_fd chunk 0 (Bytes.length chunk) with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> drop c
      | 0 -> drop c
      | n -> (
        Buffer.add_subbytes c.c_buf chunk 0 n;
        match Protocol.parse_request (Buffer.contents c.c_buf) with
        | `Incomplete -> ()
        | `Bad msg ->
          send_and_close c (Protocol.error_response ~status:400 msg);
          conns := List.filter (fun c' -> c' != c) !conns
        | `Ok (rq, _consumed) -> handle_request c rq)
    in
    (* main loop: one select per ~100ms tick, or sooner when sockets are hot *)
    while not !quit do
      let now = Unix.gettimeofday () in
      let read_fds =
        listen_fd :: List.filter_map (fun c -> if c.c_stream = None then Some c.c_fd else None) !conns
      in
      let readable =
        match Unix.select read_fds [] [] 0.1 with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      if List.mem listen_fd readable then begin
        match Unix.accept listen_fd with
        | fd, _ ->
          Unix.set_nonblock fd;
          conns :=
            { c_fd = fd; c_buf = Buffer.create 1024; c_deadline = now +. cfg.s_request_timeout;
              c_stream = None; c_sent_events = 0 }
            :: !conns
        | exception Unix.Unix_error (_, _, _) -> ()
      end;
      List.iter
        (fun c -> if c.c_stream = None && List.mem c.c_fd readable then service_readable c)
        (List.filter (fun c -> c.c_fd != listen_fd) !conns);
      (* enforce the request deadline on half-received requests *)
      List.iter
        (fun c ->
          if c.c_stream = None && now > c.c_deadline then begin
            send_and_close c (Protocol.error_response ~status:408 "request timeout");
            conns := List.filter (fun c' -> c' != c) !conns
          end)
        !conns;
      Supervisor.tick sv ~now ~quitting:false;
      conns := List.filter (fun c -> c.c_stream = None || flush_stream store c) !conns;
      Jobstore.save_if_dirty store
    done;
    (* --- graceful shutdown -------------------------------------------------
       SIGTERM the workers (they cut at the next block boundary and flush a
       final checkpoint), give them [s_grace] seconds, SIGKILL stragglers.
       Either way every interrupted job lands back in Queued, uncharged,
       with its checkpoint intact for the next daemon. *)
    log "shutting down: signalling %d worker(s)" (Supervisor.running_count sv);
    Supervisor.signal_workers sv Sys.sigterm;
    let deadline = Unix.gettimeofday () +. cfg.s_grace in
    while Supervisor.running_count sv > 0 && Unix.gettimeofday () < deadline do
      Supervisor.tick sv ~now:(Unix.gettimeofday ()) ~quitting:true;
      if Supervisor.running_count sv > 0 then Unix.sleepf 0.05
    done;
    if Supervisor.running_count sv > 0 then begin
      log "grace expired: killing %d straggler(s)" (Supervisor.running_count sv);
      Supervisor.signal_workers sv Sys.sigkill;
      let hard_deadline = Unix.gettimeofday () +. 5. in
      while Supervisor.running_count sv > 0 && Unix.gettimeofday () < hard_deadline do
        Supervisor.tick sv ~now:(Unix.gettimeofday ()) ~quitting:true;
        if Supervisor.running_count sv > 0 then Unix.sleepf 0.05
      done
    end;
    (* close any streaming clients with a clean final chunk *)
    List.iter
      (fun c ->
        if c.c_stream <> None then send_and_close c Protocol.chunk_end else close_quietly c.c_fd)
      !conns;
    Jobstore.save store;
    close_quietly listen_fd;
    log "journal saved; goodbye";
    0
