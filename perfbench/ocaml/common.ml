(* Shared plumbing for the workloads: clocks, sample sinks, process memory,
   scratch directories and the raw-sample JSON the driver script reduces.

   The program never computes a median itself.  Every metric is a named
   series of raw samples plus the reducer perfbench/run.py applies
   ("median", "tail", "geomean", "sum" or "last"), so the statistics live
   in one tested place. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let ms s = s *. 1000.

(* Only for values the program itself needs mid-run; reported metrics are
   reduced by perfbench/stats.py. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* --- Sample sinks ------------------------------------------------------------- *)

type series = { s_unit : string; s_reduce : string; mutable s_samples : float list (* reversed *) }

type sink = { mutable order : string list (* reversed *); table : (string, series) Hashtbl.t }

let sink () = { order = []; table = Hashtbl.create 64 }

let series sink name ~unit_ ~reduce =
  match Hashtbl.find_opt sink.table name with
  | Some s -> s
  | None ->
    let s = { s_unit = unit_; s_reduce = reduce; s_samples = [] } in
    Hashtbl.replace sink.table name s;
    sink.order <- name :: sink.order;
    s

(* [declare] makes a metric present even when this workload never touches
   its layer: it then reports 0, the honest reading of "no time spent". *)
let declare sink name ~unit_ ~reduce = ignore (series sink name ~unit_ ~reduce)

let add sink name ~unit_ ~reduce v =
  let s = series sink name ~unit_ ~reduce in
  s.s_samples <- v :: s.s_samples

(* Copies [from]'s samples into each series of [into] that has none. *)
let fill_empty ~into from =
  List.iter
    (fun name ->
      let s = Hashtbl.find from.table name in
      let t = series into name ~unit_:s.s_unit ~reduce:s.s_reduce in
      if t.s_samples = [] then t.s_samples <- s.s_samples)
    from.order

(* A sink that sums into one slot per name: per-phase time inside a trial. *)
let bump (tbl : (string, float) Hashtbl.t) name v =
  Hashtbl.replace tbl name (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.)

let get (tbl : (string, float) Hashtbl.t) name = Option.value (Hashtbl.find_opt tbl name) ~default:0.

(* --- Run record ---------------------------------------------------------------- *)

type run = {
  workload : string;
  mutable attempted : int;
  mutable failed : int;
  mutable checks : (string * bool * string) list; (* reversed *)
  e2e : sink; (* the contract's end-to-end metrics *)
  row : sink; (* the workload's own named view of them (printed, not gated) *)
  layers : sink; (* per-layer metrics: traced pass only *)
}

let make_run workload =
  { workload; attempted = 0; failed = 0; checks = []; e2e = sink (); row = sink (); layers = sink () }

let check run name ok detail =
  run.checks <- (name, ok, detail) :: run.checks;
  if not ok then Printf.eprintf "perfbench: check %s FAILED: %s\n%!" name detail

let op run ~ok =
  run.attempted <- run.attempted + 1;
  if not ok then run.failed <- run.failed + 1

(* --- Process memory -------------------------------------------------------------- *)

(* A field of /proc/PID/status in kB ("VmHWM" is the peak resident set). *)
let proc_status_kb ?(pid = "self") field =
  match In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.sub line 0 i = field ->
             let rest = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
             (match String.split_on_char ' ' rest with
             | v :: _ -> float_of_string_opt v
             | [] -> None)
           | _ -> None)
    |> Option.value ~default:0.

(* Peak resident set in MB, read once after a fixed amount of work: a
   reading at the end of a timed run would grow with the number of
   operations a faster layer fits into the same seconds. *)
let peak_rss_mb ?pid () = proc_status_kb ?pid "VmHWM" /. 1024.

(* --- Scratch directories ------------------------------------------------------------ *)

let rec mkdir_p dir =
  if (not (Sys.file_exists dir)) && not (String.equal dir (Filename.dirname dir)) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* A fresh, empty directory under the run's work root. *)
let fresh_dir ~work name =
  let dir = Filename.concat work name in
  remove_tree dir;
  mkdir_p dir;
  dir

(* --- Raw-sample JSON ---------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let sink_json sink =
  List.rev sink.order
  |> List.map (fun name ->
         let s = Hashtbl.find sink.table name in
         Printf.sprintf "%s: {\"unit\": %s, \"reduce\": %s, \"samples\": [%s]}" (json_string name)
           (json_string s.s_unit) (json_string s.s_reduce)
           (String.concat ", " (List.rev_map json_float s.s_samples)))
  |> String.concat ", "
  |> Printf.sprintf "{%s}"

let emit run =
  let checks =
    List.rev run.checks
    |> List.map (fun (name, ok, detail) ->
           Printf.sprintf "{\"name\": %s, \"ok\": %b, \"detail\": %s}" (json_string name) ok
             (json_string detail))
    |> String.concat ", "
  in
  Printf.printf
    "{\"workload\": %s, \"attempted\": %d, \"failed\": %d, \"checks\": [%s], \"e2e\": %s, \"row\": \
     %s, \"layers\": %s}\n%!"
    (json_string run.workload) run.attempted run.failed checks (sink_json run.e2e)
    (sink_json run.row) (sink_json run.layers)
