(* Durable job state for the fuzzing-farm daemon.

   One [store] owns a root directory:

     root/journal.json        every job's control state (versioned, written
                              with the same atomic tmp+fsync+rename
                              discipline as campaign checkpoints — kill -9
                              of the daemon loses nothing)
     root/jobs/<id>/          per-job working directory, cwd of the worker
       spec.json              the submission verbatim
       <submitted files>      inline artifacts from the submission
       checkpoint.ck          worker-owned campaign checkpoint
       report.json            worker-owned final report (atomic rename, so
                              existence implies completeness)
       worker.log             worker stdout/stderr, appended across attempts
       events.jsonl           append-only lifecycle trace (a torn tail from
                              a crash is tolerated on read)
     root/findings.json       dedup store of confirmed divergences across
                              all jobs, keyed by provenance slice

   The journal records *control* state only.  Trial results live in the
   workers' own checkpoints and reports, which are byte-deterministic, so
   replaying the journal after a crash is idempotent: a Running job goes
   back to Queued and the supervisor re-runs it from its checkpoint,
   regenerating identical bytes. *)

module Report = Druzhba_campaign.Report
module Atomic_file = Druzhba_util.Atomic_file

let format_tag = "druzhba-service-journal"
let version = 1

type state = Queued | Running | Done | Quarantined

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Quarantined -> "quarantined"

let state_of_name = function
  | "queued" -> Some Queued
  | "running" -> Some Running
  | "done" -> Some Done
  | "quarantined" -> Some Quarantined
  | _ -> None

type job = {
  j_id : string;
  j_seq : int;
  j_kind : Protocol.kind;
  j_spec : Report.json;
  j_args : string list;
  j_trials : int;
  mutable j_state : state;
  mutable j_attempts : int; (* worker launches so far *)
  mutable j_verdict : string option; (* terminal classification *)
  mutable j_reason : string option; (* why quarantined / last failure *)
  mutable j_last_exit : string option; (* human description of last worker exit *)
  mutable j_pid : int option; (* live worker pid, daemon-local *)
  mutable j_progress : int; (* completed trials per last checkpoint *)
  mutable j_next_eligible : float; (* monotonic-ish deadline for backoff *)
  mutable j_started : float; (* when the current attempt launched *)
  mutable j_last_progress_t : float; (* last observed checkpoint advance *)
}

type t = {
  root : string;
  mutable jobs : job list; (* submission order, oldest first *)
  mutable next_seq : int;
  mutable dirty : bool; (* journal needs saving *)
}

let job_dir t (j : job) = Filename.concat (Filename.concat t.root "jobs") j.j_id
let journal_path root = Filename.concat root "journal.json"
let findings_path root = Filename.concat root "findings.json"

let find t id = List.find_opt (fun j -> j.j_id = id) t.jobs

let count_state t st =
  List.length (List.filter (fun j -> j.j_state = st) t.jobs)

(* --- Journal ----------------------------------------------------------------- *)

(* Only fields that survive a daemon restart are journaled; pid and the
   various timestamps are daemon-local and reset on replay. *)
let json_of_job (j : job) : Report.json =
  let opt_str = function Some s -> Report.Str s | None -> Report.Null in
  Report.Obj
    [
      ("id", Report.Str j.j_id);
      ("seq", Report.Int j.j_seq);
      ("kind", Report.Str (Protocol.kind_name j.j_kind));
      ("spec", j.j_spec);
      ("args", Report.List (List.map (fun a -> Report.Str a) j.j_args));
      ("trials", Report.Int j.j_trials);
      ("state", Report.Str (state_name j.j_state));
      ("attempts", Report.Int j.j_attempts);
      ("verdict", opt_str j.j_verdict);
      ("reason", opt_str j.j_reason);
      ("last_exit", opt_str j.j_last_exit);
      ("pid", match j.j_pid with Some p -> Report.Int p | None -> Report.Null);
    ]

let to_json (t : t) : Report.json =
  Report.Obj
    [
      ("format", Report.Str format_tag);
      ("version", Report.Int version);
      ("next_seq", Report.Int t.next_seq);
      ("jobs", Report.List (List.map json_of_job t.jobs));
    ]

exception Bad of string

let need msg = function Some v -> v | None -> raise (Bad msg)

let job_of_json (j : Report.json) : job * int option =
  let str key = need ("job field " ^ key) (Option.bind (Report.member key j) Report.to_str) in
  let int key = need ("job field " ^ key) (Option.bind (Report.member key j) Report.to_int) in
  let opt_str key =
    match Report.member key j with Some (Report.Str s) -> Some s | _ -> None
  in
  let kind = need "job kind" (Protocol.kind_of_name (str "kind")) in
  let state = need "job state" (state_of_name (str "state")) in
  let args =
    need "job args"
      (Option.bind (Report.member "args" j) Report.to_list)
    |> List.map (fun a -> need "job arg" (Report.to_str a))
  in
  let orphan = match Report.member "pid" j with Some (Report.Int p) -> Some p | _ -> None in
  ( {
      j_id = str "id";
      j_seq = int "seq";
      j_kind = kind;
      j_spec = need "job spec" (Report.member "spec" j);
      j_args = args;
      j_trials = int "trials";
      (* A job caught Running by a crash goes back to Queued: its worker is
         gone (or orphaned — the caller kills it) and its checkpoint carries
         the completed prefix.  Attempts are preserved so a poison job
         cannot dodge quarantine by crashing the daemon. *)
      j_state = (if state = Running then Queued else state);
      j_attempts = int "attempts";
      j_verdict = opt_str "verdict";
      j_reason = opt_str "reason";
      j_last_exit = opt_str "last_exit";
      j_pid = None;
      j_progress = 0;
      j_next_eligible = 0.;
      j_started = 0.;
      j_last_progress_t = 0.;
    },
    if state = Running then orphan else None )

let save (t : t) =
  Atomic_file.atomic_write_string (journal_path t.root) (Report.to_string (to_json t) ^ "\n");
  t.dirty <- false

let save_if_dirty t = if t.dirty then save t

(* [load root] returns the store plus the pids of workers that were alive
   when the previous daemon died (for best-effort cleanup).  A missing
   journal is a fresh farm; a corrupt one is an error the operator must
   resolve — silently discarding jobs is the one thing a durable queue
   must never do. *)
let load root : (t * int list, string) result =
  let path = journal_path root in
  if not (Sys.file_exists path) then Ok ({ root; jobs = []; next_seq = 0; dirty = false }, [])
  else
    let read_file p =
      let ic = open_in_bin p in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Report.parse (read_file path) with
    | Error e -> Error (Printf.sprintf "%s: %s" path e)
    | Ok j -> (
      try
        let tag = Option.bind (Report.member "format" j) Report.to_str in
        let ver = Option.bind (Report.member "version" j) Report.to_int in
        if tag <> Some format_tag then raise (Bad "not a service journal");
        if ver <> Some version then
          raise (Bad (Printf.sprintf "unsupported journal version %s"
                        (match ver with Some v -> string_of_int v | None -> "?")));
        let next_seq = need "next_seq" (Option.bind (Report.member "next_seq" j) Report.to_int) in
        let jobs_json = need "jobs" (Option.bind (Report.member "jobs" j) Report.to_list) in
        let decoded = List.map job_of_json jobs_json in
        let orphans = List.filter_map snd decoded in
        Ok ({ root; jobs = List.map fst decoded; next_seq; dirty = false }, orphans)
      with Bad msg -> Error (Printf.sprintf "%s: %s" path msg))

(* --- Job creation ------------------------------------------------------------ *)

let mkdir_p dir =
  let rec go d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(* Admits a parsed submission: assigns the id, materializes the job
   directory with spec + inline files, journals synchronously (the 201
   reply must never outlive the daemon's knowledge of the job). *)
let submit (t : t) (sb : Protocol.submission) : job =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let j =
    {
      j_id = Printf.sprintf "j%04d" seq;
      j_seq = seq;
      j_kind = sb.Protocol.sb_kind;
      j_spec = sb.Protocol.sb_spec;
      j_args = sb.Protocol.sb_args;
      j_trials = sb.Protocol.sb_trials;
      j_state = Queued;
      j_attempts = 0;
      j_verdict = None;
      j_reason = None;
      j_last_exit = None;
      j_pid = None;
      j_progress = 0;
      j_next_eligible = 0.;
      j_started = 0.;
      j_last_progress_t = 0.;
    }
  in
  let dir = job_dir t j in
  mkdir_p dir;
  Atomic_file.atomic_write_string (Filename.concat dir "spec.json")
    (Report.to_string sb.Protocol.sb_spec ^ "\n");
  List.iter
    (fun (name, contents) -> Atomic_file.atomic_write_string (Filename.concat dir name) contents)
    sb.Protocol.sb_files;
  t.jobs <- t.jobs @ [ j ];
  save t;
  j

(* --- Lifecycle events -------------------------------------------------------- *)

(* Append-only ndjson; losing the tail in a crash is fine (events are an
   audit trail, not control state). *)
let event (t : t) (j : job) ~(now : float) (kind : string) (fields : (string * Report.json) list) =
  let line =
    Report.to_string
      (Report.Obj
         ([ ("t", Report.Int (int_of_float now)); ("event", Report.Str kind) ] @ fields))
  in
  let path = Filename.concat (job_dir t j) "events.jsonl" in
  try
    let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (line ^ "\n"))
  with Sys_error _ -> ()

let read_events (t : t) (j : job) : string list =
  let path = Filename.concat (job_dir t j) "events.jsonl" in
  if not (Sys.file_exists path) then []
  else
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line ->
            (* drop a torn tail: only well-formed JSON lines count *)
            (match Report.parse line with
            | Ok _ -> go (line :: acc)
            | Error _ -> go acc)
          | exception End_of_file -> List.rev acc
        in
        go [])

(* --- Status JSON ------------------------------------------------------------- *)

let job_status (t : t) (j : job) : Report.json =
  let opt_str = function Some s -> Report.Str s | None -> Report.Null in
  Report.Obj
    ([
       ("id", Report.Str j.j_id);
       ("kind", Report.Str (Protocol.kind_name j.j_kind));
       ("state", Report.Str (state_name j.j_state));
       ("attempts", Report.Int j.j_attempts);
       ("progress", Report.Int j.j_progress);
       ("trials", Report.Int j.j_trials);
       ("verdict", opt_str j.j_verdict);
       ("reason", opt_str j.j_reason);
       ("last_exit", opt_str j.j_last_exit);
       ("pid", match j.j_pid with Some p -> Report.Int p | None -> Report.Null);
     ]
    @
    if Sys.file_exists (Filename.concat (job_dir t j) "report.json") then
      [ ("report", Report.Str (Printf.sprintf "/jobs/%s/report" j.j_id)) ]
    else [])

let status (t : t) : Report.json =
  Report.Obj
    [
      ("jobs", Report.List (List.map (job_status t) t.jobs));
      ("queued", Report.Int (count_state t Queued));
      ("running", Report.Int (count_state t Running));
      ("done", Report.Int (count_state t Done));
      ("quarantined", Report.Int (count_state t Quarantined));
    ]

(* --- Findings dedup store ----------------------------------------------------

   Keyed by provenance slice: the generation parameters, the diverging
   backend config, the divergence site, and the shrunk essential machine-
   code pairs.  Two trials that differ only in seed or PHV values but hit
   the same compiler bug through the same program slice collapse to one
   finding; re-running a job after a crash cannot double-count. *)

let findings_tag = "druzhba-service-findings"

(* Canonical key text for one divergent trial record (trial JSON as emitted
   by Campaign.json_of_trial). *)
let finding_key (trial : Report.json) : string option =
  match Report.member "outcome" trial with
  | Some outcome
    when Report.member "class" outcome = Some (Report.Str "backend_divergence") ->
    let param_keys =
      [ "substrate"; "depth"; "width"; "bits"; "stateful"; "stateless";
        "tables"; "processors"; "entries" ]
    in
    let params =
      List.filter_map
        (fun k -> Option.map (fun v -> k ^ "=" ^ Report.to_string v) (Report.member k trial))
        param_keys
    in
    let site =
      List.filter_map
        (fun k -> Option.map Report.to_string (Report.member k outcome))
        [ "config"; "kind"; "where" ]
    in
    let essential =
      match Option.bind (Report.member "shrunk" trial) (Report.member "essential_pairs") with
      | Some (Report.List pairs) ->
        [ String.concat "," (List.sort compare (List.filter_map Report.to_str pairs)) ]
      | _ -> []
    in
    Some (String.concat "|" (params @ site @ essential))
  | _ -> None

type findings = {
  mutable fd_keys : (string * string) list; (* key -> first witnessing job id *)
}

let load_findings root : findings =
  let path = findings_path root in
  if not (Sys.file_exists path) then { fd_keys = [] }
  else
    let ic = open_in_bin path in
    let raw =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Report.parse raw with
    | Ok j when Option.bind (Report.member "format" j) Report.to_str = Some findings_tag ->
      let entries =
        match Option.bind (Report.member "findings" j) Report.to_list with
        | Some l ->
          List.filter_map
            (fun e ->
              match
                ( Option.bind (Report.member "key" e) Report.to_str,
                  Option.bind (Report.member "job" e) Report.to_str )
              with
              | Some k, Some job -> Some (k, job)
              | _ -> None)
            l
        | None -> []
      in
      { fd_keys = entries }
    | _ -> { fd_keys = [] }

let save_findings root (f : findings) =
  Atomic_file.atomic_write_string (findings_path root)
    (Report.to_string
       (Report.Obj
          [
            ("format", Report.Str findings_tag);
            ("version", Report.Int 1);
            ( "findings",
              Report.List
                (List.map
                   (fun (k, job) ->
                     Report.Obj [ ("key", Report.Str k); ("job", Report.Str job) ])
                   (List.rev f.fd_keys)) );
          ])
    ^ "\n")

(* Folds a finished job's report into the store; returns how many findings
   were new.  Reports are byte-deterministic, so folding the same report
   twice (journal replay) is a no-op. *)
let fold_report root (f : findings) ~(job_id : string) (report : Report.json) : int =
  let trials =
    match Option.bind (Report.member "results" report) Report.to_list with
    | Some l -> l
    | None -> []
  in
  let fresh = ref 0 in
  List.iter
    (fun trial ->
      match finding_key trial with
      | Some key when not (List.mem_assoc key f.fd_keys) ->
        f.fd_keys <- f.fd_keys @ [ (key, job_id) ];
        incr fresh
      | _ -> ())
    trials;
  if !fresh > 0 then save_findings root f;
  !fresh

let findings_json (f : findings) : Report.json =
  Report.Obj
    [
      ("count", Report.Int (List.length f.fd_keys));
      ( "findings",
        Report.List
          (List.map
             (fun (k, job) -> Report.Obj [ ("key", Report.Str k); ("job", Report.Str job) ])
             f.fd_keys) );
    ]
