(* Structural coverage for differential campaigns (ISSUE: coverage-guided
   generation; cf. Gauntlet's grammar-aware steering in PAPERS.md).

   Uniform-random trials sample machine-code space blindly; this module
   defines what a trial *exercised* so the campaign can steer toward
   programs that reach new structure.  Coverage is structural, not
   line-based — the domain is the set of features below, every one of which
   names a semantic edge of the simulated hardware:

   - [branch:*]   an ALU [If] arm taken (site ids are static pre-order over
                  the ALU body, see {!Druzhba_pipeline.Interp.probe})
   - [latch:*]    a stateful-ALU state slot actually latched by a [Store]
   - [alupath:*]  whether an ALU returned explicitly or fell through to its
                  default output
   - [mux:*]      an output-mux selector arm exercised, decoded through
                  {!Druzhba_analysis.Dataflow.mux_source_of_ctrl} (the same
                  decoding the liveness analysis uses)
   - [mcclass:*]  the value class of each machine-code pair: selectors by
                  exact value (their interval is [[0, n)] — small and worth
                  enumerating), immediates bucketed by the boundary classes
                  of the interval domain ([Dataflow.full bits] spans
                  [[0, 2^bits - 1]]; zero / one / all-ones / top-bit /
                  power-of-two / other)
   - [dagshape:*] a dRMT table-DAG shape scheduled (table count, processor
                  count, critical-path length)
   - [tablehit:*] a dRMT table that matched at least one installed entry
   - [entry:*]    a dRMT entry pattern value class installed per table

   Every RMT feature is namespaced by the trial's drawn pipeline shape and
   every dRMT feature by (tables, processors), so same-named ALUs from
   different shapes never conflate.

   A coverage value is a plain string set: [union] is the merge the block
   loop performs at checkpoint boundaries, and it is commutative,
   associative and idempotent by construction — which is what makes the
   campaign's coverage evolution independent of [--jobs] (the properties
   are pinned by QCheck in [test/test_coverage.ml]). *)

module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Interp = Druzhba_pipeline.Interp
module Dataflow = Druzhba_analysis.Dataflow
module Value = Druzhba_util.Value
module Engine = Druzhba_dsim.Engine
module Trace = Druzhba_dsim.Trace
module Substrate = Druzhba_dsim.Substrate
module Drmt_substrate = Druzhba_dsim.Drmt_substrate
module P4 = Druzhba_drmt.P4
module Dag = Druzhba_drmt.Dag
module Entries = Druzhba_drmt.Entries
module Phv = Druzhba_dsim.Phv

module S = Set.Make (String)

type t = S.t

let empty : t = S.empty
let cardinal = S.cardinal
let is_empty = S.is_empty
let union = S.union
let equal = S.equal
let add = S.add
let of_list = S.of_list
let features (t : t) = S.elements t

(* Number of features of [t] absent from [existing] — the novelty score
   that decides corpus admission. *)
let novel ~existing (t : t) = S.cardinal (S.diff t existing)

(* Feature class = the prefix before the first ':' (e.g. "branch"). *)
let class_of feature =
  match String.index_opt feature ':' with
  | Some i -> String.sub feature 0 i
  | None -> feature

(* Per-class feature counts, sorted by class name. *)
let classes (t : t) =
  let tbl = Hashtbl.create 8 in
  S.iter
    (fun f ->
      let c = class_of f in
      Hashtbl.replace tbl c (1 + Option.value (Hashtbl.find_opt tbl c) ~default:0))
    t;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- Shape namespaces --------------------------------------------------------- *)

let rmt_shape ~depth ~width ~bits ~stateful ~stateless =
  Printf.sprintf "d%dw%db%d:%s:%s" depth width bits stateful stateless

let drmt_shape ~tables ~processors = Printf.sprintf "t%dp%d" tables processors

(* --- Value classes ------------------------------------------------------------ *)

(* Boundary classes of the immediate interval [Dataflow.full bits] =
   [0, max_value bits]: the interval analysis says these are the values at
   which truncation, comparison and carry behaviour change, so they are the
   buckets worth distinguishing (and the values the corpus mutator nudges
   toward). *)
let imm_class bits v =
  let top = Value.max_value bits in
  if v = 0 then "zero"
  else if v = 1 then "one"
  else if v = top then "allones"
  else if v = 1 lsl (bits - 1) then "topbit"
  else if v > 0 && v land (v - 1) = 0 then "pow2"
  else "other"

let arm_name ~width ctrl =
  match Dataflow.mux_source_of_ctrl ~width ctrl with
  | Dataflow.Src_stateless j -> Printf.sprintf "stateless%d" j
  | Dataflow.Src_stateful j -> Printf.sprintf "stateful%d" j
  | Dataflow.Src_stateful_new j -> Printf.sprintf "newstate%d" j
  | Dataflow.Src_passthrough -> "pass"

(* --- Per-trial collection ------------------------------------------------------ *)

(* Collects the coverage of one RMT trial by replaying [inputs] on a fresh
   instrumented interpreter engine over the *unoptimized* description (the
   reference semantics; optimizer bugs must not shift what counts as
   covered).  The machine-code value classes are recorded statically from
   the control domains.  Runs outside the differential hot path — only
   coverage campaigns pay for it. *)
let of_rmt_trial ?budget ~shape ~(desc : Ir.t) ~mc ~inputs () : t =
  let acc = ref S.empty in
  let add fmt = Printf.ksprintf (fun f -> acc := S.add f !acc) fmt in
  List.iter
    (fun (name, domain) ->
      match Machine_code.find_opt mc name with
      | None -> ()
      | Some v -> (
        match (domain : Ir.control_domain) with
        | Ir.Selector _ -> add "mcclass:%s:%s:sel%d" shape name v
        | Ir.Immediate -> add "mcclass:%s:%s:%s" shape name (imm_class desc.Ir.d_bits v)))
    (Ir.control_domains desc);
  let width = desc.Ir.d_width in
  let probe =
    {
      Interp.pr_branch =
        (fun ~alu ~site ~taken -> add "branch:%s:%s:%d:%c" shape alu site (if taken then 't' else 'f'));
      pr_latch = (fun ~alu ~slot -> add "latch:%s:%s:%d" shape alu slot);
      pr_output =
        (fun ~alu ~returned -> add "alupath:%s:%s:%s" shape alu (if returned then "return" else "default"));
      pr_mux = (fun ~mux ~ctrl -> add "mux:%s:%s:%s" shape mux (arm_name ~width ctrl));
    }
  in
  let engine = Engine.create desc ~mc in
  Engine.instrument engine (Some probe);
  let buf = Trace.Buffer.create ~width ~capacity:(List.length inputs) in
  Engine.run_into ?budget engine ~inputs buf;
  !acc

(* Collects the coverage of one dRMT trial: the scheduled DAG shape
   (statically, via {!Dag.critical_path}), the installed entries' pattern
   value classes, and — from a replay on the sequential reference substrate
   with a table-hit observer installed — which tables actually matched an
   installed entry. *)
let of_drmt_trial ?budget ~shape ~(p : P4.t) ~(entries : Entries.entry list)
    ~(inputs : Phv.t list) () : t =
  let acc = ref S.empty in
  let add fmt = Printf.ksprintf (fun f -> acc := S.add f !acc) fmt in
  add "dagshape:%s:cp%d" shape (Dag.critical_path (Dag.build p));
  List.iter
    (fun (e : Entries.entry) ->
      match e.Entries.en_pattern with
      | Entries.Pexact v -> add "entry:%s:%s:%s" shape e.Entries.en_table (imm_class 8 v)
      | _ -> add "entry:%s:%s:other-pattern" shape e.Entries.en_table)
    entries;
  let sub = Drmt_substrate.create ~mode:Drmt_substrate.Sequential ~entries p in
  Drmt_substrate.observe sub
    (Some (List.iter (fun (table, _hits) -> add "tablehit:%s:%s" shape table)));
  let packed = Drmt_substrate.pack sub in
  let buf = Trace.Buffer.create ~width:(Substrate.width packed) ~capacity:(List.length inputs) in
  Substrate.run_into ?budget packed ~inputs buf;
  !acc

(* --- Report section (druzhba-coverage/1) --------------------------------------

   The campaign report embeds one coverage object; the corpus manifest
   embeds the same object plus the full feature list.  Both carry their own
   schema tag so consumers can reject a future incompatible layout instead
   of misreading it. *)

let schema = "druzhba-coverage/1"

type summary = {
  sm_features : int;
  sm_classes : (string * int) list; (* sorted by class *)
  sm_novel_trials : int;
  sm_corpus_entries : int;
  sm_corpus_fresh : int;
  sm_corpus_mutated : int;
}

let summary_json (s : summary) : Report.json =
  Report.Obj
    [
      ("schema", Report.Str schema);
      ("features", Report.Int s.sm_features);
      ("classes", Report.Obj (List.map (fun (k, v) -> (k, Report.Int v)) s.sm_classes));
      ("novel_trials", Report.Int s.sm_novel_trials);
      ( "corpus",
        Report.Obj
          [
            ("entries", Report.Int s.sm_corpus_entries);
            ("fresh", Report.Int s.sm_corpus_fresh);
            ("mutated", Report.Int s.sm_corpus_mutated);
          ] );
    ]

(* Total decoder for the coverage section.  An unknown schema is an [Error]
   naming both schemas — consumers must refuse rather than guess at a
   layout they were not written for. *)
let summary_of_json (j : Report.json) : (summary, string) result =
  let ( let* ) = Result.bind in
  let field key conv =
    match Option.bind (Report.member key j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "coverage section: field %S missing or mistyped" key)
  in
  let* got_schema = field "schema" Report.to_str in
  if got_schema <> schema then
    Error
      (Printf.sprintf "unsupported coverage schema %S (this reader understands %S)" got_schema
         schema)
  else
    let* features = field "features" Report.to_int in
    let* novel_trials = field "novel_trials" Report.to_int in
    let* classes =
      match Report.member "classes" j with
      | Some (Report.Obj fields) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match Report.to_int v with
            | Some n -> Ok ((k, n) :: acc)
            | None -> Error (Printf.sprintf "coverage section: class %S count mistyped" k))
          (Ok []) fields
        |> Result.map List.rev
      | _ -> Error "coverage section: classes missing"
    in
    let corpus key =
      match Option.bind (Report.member "corpus" j) (Report.member key) with
      | Some (Report.Int n) -> Ok n
      | _ -> Error (Printf.sprintf "coverage section: corpus.%s missing or mistyped" key)
    in
    let* entries = corpus "entries" in
    let* fresh = corpus "fresh" in
    let* mutated = corpus "mutated" in
    Ok
      {
        sm_features = features;
        sm_classes = classes;
        sm_novel_trials = novel_trials;
        sm_corpus_entries = entries;
        sm_corpus_fresh = fresh;
        sm_corpus_mutated = mutated;
      }

let pp_summary ppf (s : summary) =
  Fmt.pf ppf "coverage: %d features (%a), %d novel trials, corpus %d (%d fresh, %d mutated)"
    s.sm_features
    Fmt.(list ~sep:(any ", ") (fun ppf (k, v) -> pf ppf "%s %d" k v))
    s.sm_classes s.sm_novel_trials s.sm_corpus_entries s.sm_corpus_fresh s.sm_corpus_mutated
