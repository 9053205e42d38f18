(* Reader for the machine-readable benchmark reports (BENCH_pr*.json).

   The bench harness emits a "druzhba-bench" document per PR: schema /1
   (PR 5, sequential tick path), /2 (PR 8, batched tick path; adds
   "batch", "batch_sweep", "probe_overhead" and per-level batch-agreement
   bits) and /3 (PR 10; adds per-level "native_*" fields for the
   Dynlinked native-codegen substrate, or a top-level
   "native_unavailable" reason when the build toolchain is absent).
   Schema /4 is /3 without the batch fields: every executor has one tick
   path again, so "ns_per_phv" is the closures' only loop.
   This module parses any of those versions into one row shape so the
   perf-trajectory tooling and the tests can diff reports across PRs
   without caring which harness wrote them.

   The parser is a minimal recursive-descent JSON reader over the subset
   the harness emits (objects, arrays, strings, numbers, booleans, null) —
   the container ships no JSON library, and the bench format is ours, so a
   ~100-line reader is cheaper than a dependency. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse_error of string

(* --- Parser ------------------------------------------------------------------ *)

type cursor = { src : string; mutable pos : int }

let fail cur msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg cur.pos))
let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let skip_ws cur =
  while
    cur.pos < String.length cur.src
    && match cur.src.[cur.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    cur.pos <- cur.pos + 1
  done

let expect cur c =
  skip_ws cur;
  match peek cur with
  | Some d when d = c -> cur.pos <- cur.pos + 1
  | _ -> fail cur (Printf.sprintf "expected '%c'" c)

let literal cur word value =
  if
    cur.pos + String.length word <= String.length cur.src
    && String.sub cur.src cur.pos (String.length word) = word
  then begin
    cur.pos <- cur.pos + String.length word;
    value
  end
  else fail cur (Printf.sprintf "expected '%s'" word)

let parse_string cur =
  expect cur '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> cur.pos <- cur.pos + 1
    | Some '\\' -> (
      cur.pos <- cur.pos + 1;
      match peek cur with
      | Some (('"' | '\\' | '/') as c) ->
        Buffer.add_char b c;
        cur.pos <- cur.pos + 1;
        go ()
      | Some 'n' ->
        Buffer.add_char b '\n';
        cur.pos <- cur.pos + 1;
        go ()
      | Some 't' ->
        Buffer.add_char b '\t';
        cur.pos <- cur.pos + 1;
        go ()
      | _ -> fail cur "unsupported escape")
    | Some c ->
      Buffer.add_char b c;
      cur.pos <- cur.pos + 1;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number cur =
  let start = cur.pos in
  let numchar c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while cur.pos < String.length cur.src && numchar cur.src.[cur.pos] do
    cur.pos <- cur.pos + 1
  done;
  match float_of_string_opt (String.sub cur.src start (cur.pos - start)) with
  | Some f -> f
  | None -> fail cur "malformed number"

let rec parse_value cur =
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some '{' ->
    cur.pos <- cur.pos + 1;
    skip_ws cur;
    if peek cur = Some '}' then begin
      cur.pos <- cur.pos + 1;
      Obj []
    end
    else begin
      let rec members acc =
        let key = (skip_ws cur; parse_string cur) in
        expect cur ':';
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          cur.pos <- cur.pos + 1;
          members ((key, v) :: acc)
        | Some '}' ->
          cur.pos <- cur.pos + 1;
          Obj (List.rev ((key, v) :: acc))
        | _ -> fail cur "expected ',' or '}'"
      in
      members []
    end
  | Some '[' ->
    cur.pos <- cur.pos + 1;
    skip_ws cur;
    if peek cur = Some ']' then begin
      cur.pos <- cur.pos + 1;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value cur in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          cur.pos <- cur.pos + 1;
          elements (v :: acc)
        | Some ']' ->
          cur.pos <- cur.pos + 1;
          Arr (List.rev (v :: acc))
        | _ -> fail cur "expected ',' or ']'"
      in
      elements []
    end
  | Some '"' -> Str (parse_string cur)
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some 'n' -> literal cur "null" Null
  | Some _ -> Num (parse_number cur)

let parse (s : string) : (json, string) result =
  let cur = { src = s; pos = 0 } in
  match parse_value cur with
  | v ->
    skip_ws cur;
    if cur.pos = String.length s then Ok v else Error "trailing garbage after document"
  | exception Parse_error msg -> Error msg

(* --- Accessors --------------------------------------------------------------- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_float = function Num f -> Some f | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr l -> Some l | _ -> None

let float_field key j = Option.bind (member key j) to_float
let string_field key j = Option.bind (member key j) to_string
let bool_field key j = Option.bind (member key j) to_bool

(* --- Bench-report view -------------------------------------------------------- *)

type level_row = {
  br_program : string;
  br_level : string;
  br_ns_per_phv : float;
  br_seq_ns_per_phv : float option; (* schemas /2 and /3 *)
  br_agree : bool;
  br_native_ns_per_phv : float option; (* schema /3 onwards, toolchain present *)
  br_native_agree : bool option; (* schema /3 onwards, toolchain present *)
}

type t = {
  br_schema : string;
  br_pr : int;
  br_batch : int option; (* schemas /2 and /3 *)
  br_native_unavailable : string option; (* schema /3 onwards, toolchain absent *)
  br_rows : level_row list; (* program-major, level order as written *)
}

let supported_schemas =
  [ "druzhba-bench/1"; "druzhba-bench/2"; "druzhba-bench/3"; "druzhba-bench/4" ]

let of_json (j : json) : (t, string) result =
  match string_field "schema" j with
  | None -> Error "missing \"schema\""
  | Some schema when not (List.mem schema supported_schemas) ->
    Error (Printf.sprintf "unsupported schema %S" schema)
  | Some schema -> (
    let pr = match float_field "pr" j with Some f -> int_of_float f | None -> 0 in
    let batch = Option.map int_of_float (float_field "batch" j) in
    match Option.bind (member "programs" j) to_list with
    | None -> Error "missing \"programs\" array"
    | Some programs -> (
      let row_of_level program lj =
        match
          (string_field "level" lj, float_field "ns_per_phv" lj,
           bool_field "engine_compiled_agree" lj)
        with
        | Some level, Some ns, Some agree ->
          Some
            {
              br_program = program;
              br_level = level;
              br_ns_per_phv = ns;
              br_seq_ns_per_phv = float_field "seq_ns_per_phv" lj;
              br_agree = agree;
              br_native_ns_per_phv = float_field "native_ns_per_phv" lj;
              br_native_agree = bool_field "native_agree" lj;
            }
        | _ -> None
      in
      let rows =
        List.concat_map
          (fun pj ->
            match (string_field "program" pj, Option.bind (member "levels" pj) to_list) with
            | Some program, Some levels -> List.filter_map (row_of_level program) levels
            | _ -> [])
          programs
      in
      match rows with
      | [] -> Error "no level rows found under \"programs\""
      | _ ->
        Ok
          {
            br_schema = schema;
            br_pr = pr;
            br_batch = batch;
            br_native_unavailable = string_field "native_unavailable" j;
            br_rows = rows;
          }))

let of_string s = Result.bind (parse s) of_json

let of_file path =
  match
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | s -> of_string s
  | exception Sys_error msg -> Error msg

let find_row t ~program ~level =
  List.find_opt (fun r -> r.br_program = program && r.br_level = level) t.br_rows

(* Per-(program, level) speedup of [current] over [baseline]:
   baseline ns/PHV divided by current ns/PHV (higher is faster). *)
let speedups ~(baseline : t) ~(current : t) : (string * string * float) list =
  List.filter_map
    (fun r ->
      match find_row baseline ~program:r.br_program ~level:r.br_level with
      | Some b when r.br_ns_per_phv > 0. ->
        Some (r.br_program, r.br_level, b.br_ns_per_phv /. r.br_ns_per_phv)
      | _ -> None)
    current.br_rows

(* Within one schema /3 or /4 report: per-(program, level) speedup of the
   Dynlinked native substrate over the closure path (batched in /3) —
   closure ns/PHV divided by native ns/PHV (higher means native is faster).
   Rows without native measurements (older schemas, or a report written
   on a toolchain-less machine) are skipped, so the join is empty when
   [br_native_unavailable] is set. *)
let native_speedups (t : t) : (string * string * float) list =
  List.filter_map
    (fun r ->
      match r.br_native_ns_per_phv with
      | Some nns when nns > 0. -> Some (r.br_program, r.br_level, r.br_ns_per_phv /. nns)
      | _ -> None)
    t.br_rows
