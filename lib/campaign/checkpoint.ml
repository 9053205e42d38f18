(* Campaign checkpoint files.

   A long campaign must survive being killed: the runner periodically
   persists which trials are complete, the records of every non-default
   trial, and the configuration that makes those records meaningful.
   `--resume` then continues from the file and produces a report
   byte-identical to an uninterrupted run — possible because every trial is
   a pure function of (master seed, index), so only the *interesting*
   trials need to be stored; the plain agreeing majority is reconstructed
   from seeds on resume.

   Durability discipline: the file is written to a sibling `.tmp`, fsynced,
   and renamed into place ({!Druzhba_util.Atomic_file}).  A kill at any
   instant leaves either the old checkpoint or the new one, never a torn
   file.  The format is versioned JSON (the repo's own emitter/parser — no
   external dependency) and a resume validates both the version and the
   configuration, so a checkpoint from a different campaign is rejected
   rather than silently blended in. *)

let format_tag = "druzhba-campaign-checkpoint"
let version = 3

type t = {
  ck_config : Report.json;
      (* {!Campaign.config_to_json} of the campaign that wrote the file: a
         resume must present the same one *)
  ck_completed : (int * int) list; (* inclusive index ranges, ascending *)
  ck_records : Report.json list; (* non-default trials, in index order *)
}

(* Length of the contiguous completed prefix starting at trial 0 — the
   index the resumed run continues from. *)
let completed_prefix t =
  List.fold_left
    (fun prefix (lo, hi) -> if lo <= prefix && hi >= prefix then hi + 1 else prefix)
    0 t.ck_completed

(* --- Encoding --------------------------------------------------------------- *)

let to_json (t : t) : Report.json =
  Report.Obj
    [
      ("format", Report.Str format_tag);
      ("version", Report.Int version);
      ("config", t.ck_config);
      ( "completed",
        Report.List
          (List.map (fun (lo, hi) -> Report.List [ Report.Int lo; Report.Int hi ]) t.ck_completed)
      );
      ("records", Report.List t.ck_records);
    ]

let save path (t : t) =
  Druzhba_util.Atomic_file.atomic_write_string path (Report.to_string (to_json t) ^ "\n")

(* --- Decoding --------------------------------------------------------------- *)

exception Bad of string

let need msg = function Some v -> v | None -> raise (Bad msg)

let field obj key conv =
  need
    (Printf.sprintf "checkpoint field %S missing or mistyped" key)
    (Option.bind (Report.member key obj) conv)

let of_json (j : Report.json) : t =
  (match Report.member "format" j with
  | Some (Report.Str tag) when tag = format_tag -> ()
  | _ -> raise (Bad "not a druzhba campaign checkpoint"));
  (match Report.member "version" j with
  | Some (Report.Int v) when v = version -> ()
  | Some (Report.Int v) ->
    raise (Bad (Printf.sprintf "unsupported checkpoint version %d (expected %d)" v version))
  | _ -> raise (Bad "checkpoint version missing"));
  let config = need "checkpoint config missing" (Report.member "config" j) in
  let completed =
    field j "completed" Report.to_list
    |> List.map (function
         | Report.List [ Report.Int lo; Report.Int hi ] when 0 <= lo && lo <= hi -> (lo, hi)
         | _ -> raise (Bad "malformed completed range"))
  in
  let records = field j "records" Report.to_list in
  { ck_config = config; ck_completed = completed; ck_records = records }

let load path : (t, string) result =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | src -> (
    match Report.parse src with
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Ok j -> ( try Ok (of_json j) with Bad msg -> Error (Printf.sprintf "%s: %s" path msg)))
