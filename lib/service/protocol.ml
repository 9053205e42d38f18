(* The wire protocol of `druzhba serve`.

   Two halves, both dependency-free by design (the container bakes in the
   OCaml toolchain and nothing else, so the daemon speaks HTTP/1.1 over
   plain [Unix] sockets with the repo's own JSON):

   - a minimal HTTP/1.1 codec: request parsing as a *restartable* function
     over the bytes received so far (the server feeds it after every read
     and gets [`Incomplete] until the head and the Content-Length body have
     fully arrived — no blocking parse, no thread per connection), response
     serialization, and the chunked-transfer framing used by the streamed
     progress endpoint;

   - the submission schema: what a client may POST to /jobs, validated
     strictly (unknown keys are a 400, not a silent ignore — a typoed
     "trails" must not quietly run a default campaign), and compiled down
     to the argv tail of the `druzhba campaign` worker the supervisor will
     fork for it.  A campaign's keys are {!Campaign.config_of_json}'s, and
     its argv is {!Campaign.config_to_argv}'s.

   Also carries the tiny blocking HTTP client the tests and examples use. *)

module Report = Druzhba_campaign.Report
module Campaign = Druzhba_campaign.Campaign

(* --- HTTP requests ----------------------------------------------------------- *)

type request = {
  rq_method : string;
  rq_path : string;
  rq_headers : (string * string) list; (* header names lowercased *)
  rq_body : string;
}

let header name (rq : request) = List.assoc_opt (String.lowercase_ascii name) rq.rq_headers

(* Maximum accepted body: a submission is a campaign spec plus perhaps a
   few inline ALU/program files; anything larger is a client bug. *)
let max_body = 8 * 1024 * 1024

(* Find "\r\n\r\n" in [s]; return the offset just past it. *)
let find_head_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then
      Some (i + 4)
    else go (i + 1)
  in
  go 0

(* [parse_request buf] over the bytes received so far.  [`Ok (rq, used)]
   reports how many bytes the request consumed (pipelining is not
   supported; the server closes after one response, so [used] only guards
   against trailing garbage). *)
let parse_request (s : string) : [ `Ok of request * int | `Incomplete | `Bad of string ] =
  match find_head_end s with
  | None ->
    (* refuse to buffer unbounded garbage that never finishes a head *)
    if String.length s > 64 * 1024 then `Bad "request head too large" else `Incomplete
  | Some head_end -> (
    let head = String.sub s 0 (head_end - 4) in
    match String.split_on_char '\n' head with
    | [] -> `Bad "empty request"
    | request_line :: header_lines -> (
      let request_line = String.trim request_line in
      match String.split_on_char ' ' request_line with
      | [ meth; path; version ]
        when (version = "HTTP/1.1" || version = "HTTP/1.0") && meth <> "" && path <> "" -> (
        let headers =
          List.filter_map
            (fun line ->
              let line = String.trim line in
              if line = "" then None
              else
                match String.index_opt line ':' with
                | None -> None
                | Some i ->
                  Some
                    ( String.lowercase_ascii (String.trim (String.sub line 0 i)),
                      String.trim (String.sub line (i + 1) (String.length line - i - 1)) ))
            header_lines
        in
        let content_length =
          match List.assoc_opt "content-length" headers with
          | None -> Ok 0
          | Some v -> (
            match int_of_string_opt v with
            | Some n when n >= 0 -> Ok n
            | _ -> Error "bad Content-Length")
        in
        match content_length with
        | Error e -> `Bad e
        | Ok len when len > max_body -> `Bad "request body too large"
        | Ok len ->
          if String.length s - head_end < len then `Incomplete
          else
            `Ok
              ( {
                  rq_method = meth;
                  rq_path = path;
                  rq_headers = headers;
                  rq_body = String.sub s head_end len;
                },
                head_end + len ))
      | _ -> `Bad (Printf.sprintf "malformed request line %S" request_line)))

(* --- HTTP responses ---------------------------------------------------------- *)

let status_text = function
  | 200 -> "OK"
  | 201 -> "Created"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 413 -> "Payload Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | c -> Printf.sprintf "Status %d" c

let response ?(headers = []) ~status body =
  let buf = Buffer.create (String.length body + 256) in
  Buffer.add_string buf (Printf.sprintf "HTTP/1.1 %d %s\r\n" status (status_text status));
  List.iter (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s: %s\r\n" k v)) headers;
  Buffer.add_string buf "Content-Type: application/json\r\n";
  Buffer.add_string buf (Printf.sprintf "Content-Length: %d\r\n" (String.length body));
  Buffer.add_string buf "Connection: close\r\n\r\n";
  Buffer.add_string buf body;
  Buffer.contents buf

let json_response ?headers ~status j = response ?headers ~status (Report.to_string j ^ "\n")

let error_response ?headers ~status msg =
  json_response ?headers ~status (Report.Obj [ ("error", Report.Str msg) ])

(* Chunked framing for the streamed progress endpoint: headers first, then
   one chunk per event line, then the terminating zero chunk. *)
let stream_head =
  "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\
   Connection: close\r\n\r\n"

let chunk payload = Printf.sprintf "%x\r\n%s\r\n" (String.length payload) payload
let chunk_end = "0\r\n\r\n"

(* Tolerant de-chunker for the client side: concatenates chunk payloads,
   ignoring a torn tail (the stream may have been cut mid-chunk). *)
let dechunk (s : string) : string =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    match String.index_from_opt s i '\r' with
    | None -> ()
    | Some j -> (
      match int_of_string_opt ("0x" ^ String.trim (String.sub s i (j - i))) with
      | None | Some 0 -> ()
      | Some len ->
        let start = j + 2 in
        if start + len <= n then begin
          Buffer.add_string buf (String.sub s start len);
          go (start + len + 2)
        end)
  in
  go 0;
  Buffer.contents buf

(* --- Submissions -------------------------------------------------------------

   POST /jobs accepts one JSON object.  Two kinds:

   {"kind": "campaign", ...}   a differential fuzz campaign: the keys of
                               the campaign config codec, plus "files",
                               "chaos_kill_after" and "chaos_kill_file"; a
                               config that cannot be checkpointed
                               (coverage mode, or the native family
                               without its toolchain) is refused
   {"kind": "directed",        replay a witness file (machine-code values +
    "witnesses": "...", ...}   ALU names + program specs in the established
                               druzhba-witnesses/1 format); deterministic,
                               so a restart is a clean rerun

   Either kind may carry {"files": {"name.alu": "...", ...}} — inline
   artifacts written into the job directory before the worker starts, so a
   submission can bring its own ALU DSL or .domino program and reference it
   by filename from the witness header. *)

type kind = Campaign | Directed

let kind_name = function Campaign -> "campaign" | Directed -> "directed"
let kind_of_name = function "campaign" -> Some Campaign | "directed" -> Some Directed | _ -> None

type submission = {
  sb_kind : kind;
  sb_spec : Report.json; (* the submission as received, persisted verbatim *)
  sb_args : string list; (* spec-derived argv tail for the worker *)
  sb_files : (string * string) list; (* written into the job dir *)
  sb_trials : int; (* total trials, for progress reporting *)
}

let obj_fields = function Report.Obj fields -> Ok fields | _ -> Error "submission must be a JSON object"

let ( let* ) = Result.bind

let get_int fields key =
  match List.assoc_opt key fields with
  | None -> Ok None
  | Some (Report.Int v) -> Ok (Some v)
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" key)

let get_str fields key =
  match List.assoc_opt key fields with
  | None -> Ok None
  | Some (Report.Str v) -> Ok (Some v)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" key)

let positive key = function
  | Some v when v <= 0 -> Error (Printf.sprintf "field %S must be positive" key)
  | v -> Ok v

(* A submitted filename lands in the job directory: a bare, sane basename
   or nothing.  Path traversal is not a feature. *)
let safe_filename name =
  name <> "" && name <> "." && name <> ".."
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
         || c = '.' || c = '-' || c = '_')
       name

(* A key that comes twice is refused, named, as an unknown one is: taking
   either value would run something its author may not have meant. *)
let no_repeat what fields =
  match Campaign.repeated_key fields with
  | Some k -> Error (Printf.sprintf "repeated %s %S" what k)
  | None -> Ok ()

let get_files fields =
  match List.assoc_opt "files" fields with
  | None -> Ok []
  | Some (Report.Obj files) ->
    let* () = no_repeat "file" files in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (name, Report.Str contents) :: rest ->
        if safe_filename name then go ((name, contents) :: acc) rest
        else Error (Printf.sprintf "unsafe file name %S" name)
      | (name, _) :: _ -> Error (Printf.sprintf "file %S must map to a string" name)
    in
    go [] files
  | Some _ -> Error "field \"files\" must be an object of name -> contents"

let reject_unknown fields allowed =
  match List.find_opt (fun (k, _) -> not (List.mem k allowed)) fields with
  | Some (k, _) ->
    Error
      (Printf.sprintf "unknown field %S (allowed: %s)" k
         (String.concat ", " (List.sort compare allowed)))
  | None -> Ok ()

(* A campaign submission's keys for the service itself; the rest are the
   campaign's config. *)
let service_keys = [ "kind"; "files"; "chaos_kill_after"; "chaos_kill_file" ]

let directed_allowed = [ "kind"; "witnesses"; "phvs"; "seed"; "files" ]

let opt_flag flag = function Some v -> [ flag; string_of_int v ] | None -> []

let parse_campaign spec fields =
  let service, config = List.partition (fun (k, _) -> List.mem k service_keys) fields in
  let* cfg = Campaign.config_of_json (Report.Obj config) in
  (* the supervisor always checkpoints *)
  let* () = Campaign.resumable cfg in
  let* chaos_kill_after = get_int service "chaos_kill_after" in
  let* chaos_kill_file = get_str service "chaos_kill_file" in
  (* the worker deletes this path from inside its job directory *)
  let* () =
    match chaos_kill_file with
    | Some name when not (safe_filename name) ->
      Error (Printf.sprintf "unsafe file name %S in \"chaos_kill_file\"" name)
    | _ -> Ok ()
  in
  let* files = get_files service in
  let args =
    ("campaign" :: Campaign.config_to_argv cfg)
    @ opt_flag "--chaos-kill-after" chaos_kill_after
    @ (match chaos_kill_file with Some f -> [ "--chaos-kill-file"; f ] | None -> [])
  in
  let sb_trials = cfg.Campaign.c_trials in
  Ok { sb_kind = Campaign; sb_spec = spec; sb_args = args; sb_files = files; sb_trials }

let parse_directed spec fields =
  let* () = reject_unknown fields directed_allowed in
  let* witnesses = get_str fields "witnesses" in
  let* witnesses =
    match witnesses with
    | Some w when String.trim w <> "" -> Ok w
    | _ -> Error "directed submission requires a non-empty \"witnesses\" string"
  in
  let* phvs = Result.bind (get_int fields "phvs") (positive "phvs") in
  let* seed = get_int fields "seed" in
  let* files = get_files fields in
  if List.mem_assoc "witnesses.txt" files then Error "\"witnesses.txt\" is written by the service"
  else
    let args =
      [ "campaign"; "--directed"; "witnesses.txt" ] @ opt_flag "--phvs" phvs @ opt_flag "--seed" seed
    in
    Ok
      {
        sb_kind = Directed;
        sb_spec = spec;
        sb_args = args;
        sb_files = ("witnesses.txt", witnesses) :: files;
        sb_trials = 0;
      }

let parse_submission (spec : Report.json) : (submission, string) result =
  let* fields = obj_fields spec in
  let* () = no_repeat "field" fields in
  let* kind = get_str fields "kind" in
  match Option.map kind_of_name kind with
  | None | Some None ->
    Error "submission requires \"kind\": \"campaign\" or \"directed\""
  | Some (Some Campaign) -> parse_campaign spec fields
  | Some (Some Directed) -> parse_directed spec fields

(* --- Blocking HTTP client (tests, examples, CLI probes) ---------------------- *)

let rec really_write fd bytes pos len =
  if len > 0 then begin
    let n =
      try Unix.write fd bytes pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    really_write fd bytes (pos + n) (len - n)
  end

let read_all ?(timeout = 60.) fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0. then Buffer.contents buf
    else
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> Buffer.contents buf
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents buf
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ())
  in
  go ()

(* One request, one response: connect, send, read until the server closes.
   Returns (status, body); the raw head is parsed just enough for that. *)
let http ?(timeout = 60.) ~port ~meth ~path ?(body = "") () : (int * string, string) result =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
      (fun () ->
        match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
        | () ->
          let request =
            Printf.sprintf "%s %s HTTP/1.1\r\nHost: localhost\r\nContent-Length: %d\r\n\r\n%s"
              meth path (String.length body) body
          in
          really_write fd (Bytes.of_string request) 0 (String.length request);
          let raw = read_all ~timeout fd in
          (match find_head_end raw with
          | None -> Error (Printf.sprintf "truncated response: %S" raw)
          | Some head_end -> (
            match String.split_on_char ' ' (String.sub raw 0 (min 64 (String.length raw))) with
            | _ :: code :: _ -> (
              match int_of_string_opt code with
              | Some status ->
                let body = String.sub raw head_end (String.length raw - head_end) in
                let body =
                  (* the events endpoint streams chunked; everything else is
                     Content-Length framed *)
                  let head = String.lowercase_ascii (String.sub raw 0 head_end) in
                  let is_sub needle hay =
                    let nl = String.length needle and hl = String.length hay in
                    let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
                    at 0
                  in
                  if is_sub "transfer-encoding: chunked" head then dechunk body else body
                in
                Ok (status, body)
              | None -> Error "unparseable status line")
            | _ -> Error "unparseable status line"))))
