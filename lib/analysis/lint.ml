(* Rule-based lint over pipeline descriptions and machine code.

   Trace-diff testing (paper §3.3) only catches a mis-compilation when a
   random PHV happens to exercise it; the rules here catch whole defect
   classes statically, before any simulation runs — the approach Gauntlet
   applies to P4 compilers.  Each rule produces {!finding}s with a stable
   rule identifier so output is scriptable ([druzhba lint --json]).

   Severity encodes actionability:

   - [Error]: the machine code cannot mean what its author intended —
     a required pair is missing, a selector is outside its domain (it
     silently falls through to the mux's default arm), or the description
     itself is malformed (helper arity).  [druzhba lint] exits non-zero.

   - [Warning]: legal but suspicious — dead ALUs, write-only state slots,
     unreachable branches, machine-code pairs nothing consumes, unused DSL
     declarations.  Rule-based compilers routinely leave unused ALUs
     behind (every Table-1 benchmark does), so warnings do not fail the
     lint unless the caller opts in ([--strict]). *)

module Value = Druzhba_util.Value
module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Alu_analysis = Druzhba_alu_dsl.Analysis

type severity = Error | Warning

type finding = {
  f_rule : string;  (* stable kebab-case rule id *)
  f_severity : severity;
  f_subject : string;  (* machine-code name, ALU name, or spec name *)
  f_message : string;
}

let severity_name = function Error -> "error" | Warning -> "warning"

let pp_finding ppf f =
  Fmt.pf ppf "%s[%s] %s: %s" (severity_name f.f_severity) f.f_rule f.f_subject f.f_message

let has_errors findings = List.exists (fun f -> f.f_severity = Error) findings

let summary findings =
  let count s = List.length (List.filter (fun f -> f.f_severity = s) findings) in
  (count Error, count Warning)

(* --- Rules ----------------------------------------------------------------- *)

(* missing-pair / selector-out-of-range: Machine_code.validate against the
   description's control domains. *)
let check_machine_code ~domains mc =
  match Machine_code.validate ~domains mc with
  | Ok () -> []
  | Error violations ->
    List.map
      (function
        | Machine_code.Missing_pair name ->
          {
            f_rule = "missing-pair";
            f_severity = Error;
            f_subject = name;
            f_message = "required machine-code pair is missing";
          }
        | Machine_code.Out_of_range { vi_name; vi_value; vi_bound } ->
          {
            f_rule = "selector-out-of-range";
            f_severity = Error;
            f_subject = vi_name;
            f_message =
              Printf.sprintf
                "selector value %d is outside its domain [0, %d); it falls through to the mux's \
                 default arm"
                vi_value vi_bound;
          })
      violations

(* duplicate-pair: a machine-code file binding the same name twice.  Only
   detectable from the raw pair list (the hash-table representation has
   already collapsed the duplicates), so the CLI parses with
   [Machine_code.parse_pairs] and hands the pairs through [?pairs]. *)
let check_duplicate_pairs pairs =
  List.map
    (fun name ->
      {
        f_rule = "duplicate-pair";
        f_severity = Error;
        f_subject = name;
        f_message =
          "machine-code pair is bound more than once; only the last binding takes effect";
      })
    (Machine_code.duplicates pairs)

(* unknown-pair: pairs in the program that no control of the description
   consumes — usually a misspelled name or machine code generated for a
   different pipeline geometry. *)
let check_unknown_pairs ~domains mc =
  List.filter_map
    (fun (name, _) ->
      if List.mem_assoc name domains then None
      else
        Some
          {
            f_rule = "unknown-pair";
            f_severity = Warning;
            f_subject = name;
            f_message = "machine-code pair matches no control of this pipeline";
          })
    (Machine_code.to_alist mc)

(* truncated-immediate: a machine-code immediate whose high bits the
   datapath silently drops.  Every immediate enters the IR as [Trunc (Mc _)]
   (the generators mask all constants onto the datapath), so on the
   known-bits domain the pair's value contributes at most the low [d_bits]
   bits — any bit above that is unrepresentable and vanishes without a
   diagnostic.  This is the paper's §5.2 representability class: a compiler
   that believes it installed [100] while the 4-bit hardware computes with
   [4].  The program still simulates deterministically, hence a warning. *)
let check_truncated_immediates ~mc (d : Ir.t) =
  let bits = d.Ir.d_bits in
  let keep = Value.max_value bits in
  let seen = Hashtbl.create 16 in
  let findings = ref [] in
  let mc_names acc e = match e with Ir.Mc name -> name :: acc | _ -> acc in
  let visit () e =
    match e with
    | Ir.Trunc sub ->
      List.iter
        (fun name ->
          if not (Hashtbl.mem seen name) then begin
            Hashtbl.add seen name ();
            match Machine_code.find_opt mc name with
            | Some v when v land lnot keep <> 0 ->
              findings :=
                {
                  f_rule = "truncated-immediate";
                  f_severity = Warning;
                  f_subject = name;
                  f_message =
                    Printf.sprintf
                      "immediate %d does not fit the %d-bit datapath: Trunc keeps %d and \
                       silently drops high bits 0x%x"
                      v bits (Value.mask bits v) (v land lnot keep);
                }
                :: !findings
            | _ -> ()
          end)
        (Ir.fold_expr mc_names [] sub)
    | _ -> ()
  in
  let visit_alu (a : Ir.alu) =
    List.iter (fun s -> Ir.fold_stmt visit () s) a.Ir.a_body;
    Ir.fold_expr visit () a.Ir.a_default_output
  in
  Array.iter
    (fun (st : Ir.stage) ->
      Array.iter visit_alu st.Ir.s_stateless;
      Array.iter visit_alu st.Ir.s_stateful)
    d.Ir.d_stages;
  Ir.iter_helpers d (fun h -> Ir.fold_expr visit () h.Ir.h_body);
  List.rev !findings

(* dead-alu: with machine code in hand each output mux selects exactly one
   arm, so an ALU whose output (and, for stateful ALUs, new state) no mux in
   its stage selects cannot influence any output PHV. *)
let check_dead_alus (an : Dataflow.analysis) =
  let findings = ref [] in
  Array.iteri
    (fun s (st : Ir.stage) ->
      Array.iteri
        (fun j (a : Ir.alu) ->
          if not an.Dataflow.an_liveness.Dataflow.lv_stateless.(s).(j) then
            findings :=
              {
                f_rule = "dead-alu";
                f_severity = Warning;
                f_subject = a.Ir.a_name;
                f_message =
                  Printf.sprintf "dead ALU: no output mux of stage %d selects its output" s;
              }
              :: !findings)
        st.Ir.s_stateless;
      Array.iteri
        (fun j (a : Ir.alu) ->
          if not an.Dataflow.an_liveness.Dataflow.lv_stateful.(s).(j) then
            findings :=
              {
                f_rule = "dead-alu";
                f_severity = Warning;
                f_subject = a.Ir.a_name;
                f_message =
                  Printf.sprintf
                    "dead ALU: no output mux of stage %d selects its output or new state (its \
                     state updates remain observable only in the final-state dump)"
                    s;
              }
              :: !findings)
        st.Ir.s_stateful)
    an.Dataflow.an_desc.Ir.d_stages;
  List.rev !findings

(* write-only-state: a state slot with a reachable [Store] that no
   expression of the same ALU ever reads.  Slot 0 is exempt — the output
   muxes can observe it directly through the new-state arm, and stateful
   ALUs output it by default (Banzai read-modify-write convention). *)
let check_write_only_state (an : Dataflow.analysis) =
  let findings = ref [] in
  Array.iteri
    (fun s (st : Ir.stage) ->
      Array.iteri
        (fun j (a : Ir.alu) ->
          let f = an.Dataflow.an_stateful.(s).(j) in
          List.iter
            (fun (slot, _) ->
              if slot <> 0 && not (List.mem slot f.Dataflow.fa_state_reads) then
                findings :=
                  {
                    f_rule = "write-only-state";
                    f_severity = Warning;
                    f_subject = a.Ir.a_name;
                    f_message =
                      Printf.sprintf "state slot %d is written but never read" slot;
                  }
                  :: !findings)
            f.Dataflow.fa_stores)
        st.Ir.s_stateful)
    an.Dataflow.an_desc.Ir.d_stages;
  List.rev !findings

(* unreachable-branch: an [If] arm the abstract interpreter proves can never
   execute under the analysed machine code. *)
let check_unreachable_branches (an : Dataflow.analysis) =
  let findings = ref [] in
  let one (facts : Dataflow.facts array) (alus : Ir.alu array) =
    Array.iteri
      (fun j (a : Ir.alu) ->
        List.iter
          (fun (db : Dataflow.dead_branch) ->
            let arm =
              match db.Dataflow.db_dead with
              | Dataflow.Then_branch -> "then"
              | Dataflow.Else_branch -> "else"
            in
            findings :=
              {
                f_rule = "unreachable-branch";
                f_severity = Warning;
                f_subject = a.Ir.a_name;
                f_message =
                  Printf.sprintf "the %s-branch of if #%d can never execute" arm
                    db.Dataflow.db_if_index;
              }
              :: !findings)
          facts.(j).Dataflow.fa_dead_branches)
      alus
  in
  Array.iteri
    (fun s (st : Ir.stage) ->
      one an.Dataflow.an_stateless.(s) st.Ir.s_stateless;
      one an.Dataflow.an_stateful.(s) st.Ir.s_stateful)
    an.Dataflow.an_desc.Ir.d_stages;
  List.rev !findings

(* helper-arity / unknown-helper: every call site must name a registered
   helper and pass exactly its parameter count.  A violation makes the
   interpreter raise mid-simulation, so it is an error. *)
let check_helper_calls (d : Ir.t) =
  let findings = ref [] in
  let seen = Hashtbl.create 32 in
  let check_call subject name args =
    let key = (subject, name) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      match Hashtbl.find_opt d.Ir.d_helpers name with
      | None ->
        findings :=
          {
            f_rule = "unknown-helper";
            f_severity = Error;
            f_subject = subject;
            f_message = Printf.sprintf "call to unknown helper '%s'" name;
          }
          :: !findings
      | Some h ->
        let expected = List.length h.Ir.h_params and got = List.length args in
        if expected <> got then
          findings :=
            {
              f_rule = "helper-arity";
              f_severity = Error;
              f_subject = subject;
              f_message =
                Printf.sprintf "call to helper '%s' passes %d argument(s), expected %d" name got
                  expected;
            }
            :: !findings
    end
  in
  let collect subject () e =
    match e with Ir.Call (name, args) -> check_call subject name args | _ -> ()
  in
  let check_alu (a : Ir.alu) =
    List.iter (fun s -> Ir.fold_stmt (collect a.Ir.a_name) () s) a.Ir.a_body;
    Ir.fold_expr (collect a.Ir.a_name) () a.Ir.a_default_output
  in
  Array.iter
    (fun (st : Ir.stage) ->
      Array.iter check_alu st.Ir.s_stateless;
      Array.iter check_alu st.Ir.s_stateful)
    d.Ir.d_stages;
  Ir.iter_helpers d (fun h -> Ir.fold_expr (collect h.Ir.h_name) () h.Ir.h_body);
  List.rev !findings

(* emitted-module-size: the native-codegen emitter ({!Druzhba_pipeline.Emit})
   lowers [If]/[Return] statements by continuation duplication, which is
   exponential in nested-If depth in the worst case.  A stage whose emitted
   function blows past this threshold produces a source file flambda (and
   plain ocamlopt) chews on for a long time — the simulation is still
   correct, the interpreted and closure substrates are unaffected, so this
   is a warning naming the offending stage, not an error.  The threshold
   sits ~17x above the largest Table-1 stage (conga unoptimized, ~2.9k
   nodes) while firing well before compile times become minutes. *)
let emitted_size_threshold = 50_000

let check_emitted_module_size (d : Ir.t) =
  let costs = Druzhba_pipeline.Emit.stage_costs d in
  let findings = ref [] in
  Array.iteri
    (fun s cost ->
      if cost > emitted_size_threshold then
        findings :=
          {
            f_rule = "emitted-module-size";
            f_severity = Warning;
            f_subject = Printf.sprintf "stage %d" s;
            f_message =
              Printf.sprintf
                "native codegen would emit ~%d expression nodes for this stage (threshold %d): \
                 continuation duplication across nested ifs makes the emitted module \
                 flambda-hostile; the native substrate will be slow to build"
                cost emitted_size_threshold;
          }
          :: !findings)
    costs;
  List.rev !findings

(* unused-decl: DSL-level declarations the ALU body never mentions (each one
   still costs input muxes or machine-code pairs at every instance). *)
let check_unused_decls (d : Ir.t) =
  List.concat_map
    (fun (spec : Druzhba_alu_dsl.Ast.t) ->
      List.map
        (fun v ->
          {
            f_rule = "unused-decl";
            f_severity = Warning;
            f_subject = spec.Druzhba_alu_dsl.Ast.name;
            f_message = Printf.sprintf "declared variable '%s' is never used" v;
          })
        (Alu_analysis.unused_decls spec))
    [ d.Ir.d_stateful_spec; d.Ir.d_stateless_spec ]

(* --- dRMT table-dependency rules --------------------------------------------

   The dRMT pipeline has its own statically-checkable defect classes: a
   table-dependency graph with a cycle cannot be topologically scheduled at
   all, and an acyclic program can still exceed the crossbar's per-cycle
   match/action issue capacity (the scheduler's all-or-nothing line-rate
   property).  Both are program-level errors a compiler should reject before
   any packet is simulated, so [druzhba lint --p4] surfaces them with the
   offending tables named. *)

module Dag = Druzhba_drmt.Dag
module Scheduler = Druzhba_drmt.Scheduler
module P4 = Druzhba_drmt.P4

let table_of_node = function Dag.Match t | Dag.Action t -> t

(* cyclic-dag: Kahn's peel left nodes behind — the table-dependency graph
   cannot be scheduled in any order. *)
let check_cyclic_dag (dag : Dag.t) =
  match Dag.find_cycle dag with
  | None -> []
  | Some nodes ->
    let tables = List.sort_uniq compare (List.map table_of_node nodes) in
    [
      {
        f_rule = "cyclic-dag";
        f_severity = Error;
        f_subject = String.concat ", " tables;
        f_message =
          Printf.sprintf
            "table-dependency graph is cyclic: %d node(s) among tables [%s] can never be \
             scheduled"
            (List.length nodes) (String.concat "; " tables);
      };
    ]

(* unschedulable-dag: the program is acyclic but cannot run at line rate
   under [cfg] — more match (or action) nodes than the processors' residue
   classes can issue.  The finding names the tables past the capacity
   horizon (in control order): dropping or merging those would make the
   program feasible again. *)
let check_unschedulable_dag ~(cfg : Scheduler.config) (dag : Dag.t) =
  match Scheduler.schedule cfg dag with
  | _ -> []
  | exception Scheduler.Infeasible msg ->
    let beyond cap keep =
      let tables = List.filter_map keep dag.Dag.nodes in
      if List.length tables > cap then List.filteri (fun i _ -> i >= cap) tables else []
    in
    let over_match =
      beyond
        (cfg.Scheduler.processors * cfg.Scheduler.match_capacity)
        (function Dag.Match t -> Some t | Dag.Action _ -> None)
    in
    let over_action =
      beyond
        (cfg.Scheduler.processors * cfg.Scheduler.action_capacity)
        (function Dag.Action t -> Some t | Dag.Match _ -> None)
    in
    let offenders = List.sort_uniq compare (over_match @ over_action) in
    [
      {
        f_rule = "unschedulable-dag";
        f_severity = Error;
        f_subject =
          (match offenders with [] -> "schedule" | _ -> String.concat ", " offenders);
        f_message = msg;
      };
    ]

(* Lints a dRMT P4 program: extracts the table-dependency graph (or takes a
   pre-built [dag], which hand-assembled graphs and future extractors can
   pass directly) and checks it for cycles and line-rate schedulability
   under [cfg].  A cyclic graph is not handed to the scheduler — greedy list
   scheduling assumes a topological node order. *)
let check_p4 ?dag ?(cfg = Scheduler.config ()) (p : P4.t) : finding list =
  let dag = match dag with Some d -> d | None -> Dag.build p in
  match check_cyclic_dag dag with
  | _ :: _ as cyclic -> cyclic
  | [] -> check_unschedulable_dag ~cfg dag

(* --- Entry point ----------------------------------------------------------- *)

(* Runs every rule; machine-code rules are skipped when no program is given
   (and liveness degrades to "everything live", so dead-alu stays silent).
   Errors sort before warnings; relative order within a severity is the rule
   order above. *)
let check ?mc ?(pairs = []) (d : Ir.t) : finding list =
  let domains = Ir.control_domains d in
  let an = Dataflow.analyse ?mc d in
  let mc_findings =
    match mc with
    | None -> []
    | Some mc ->
      check_machine_code ~domains mc
      @ check_unknown_pairs ~domains mc
      @ check_truncated_immediates ~mc d
  in
  let findings =
    check_duplicate_pairs pairs
    @ mc_findings
    @ check_dead_alus an
    @ check_write_only_state an
    @ check_unreachable_branches an
    @ check_helper_calls d
    @ check_unused_decls d
    @ check_emitted_module_size d
  in
  let errors, warnings = List.partition (fun f -> f.f_severity = Error) findings in
  errors @ warnings

(* --- Rendering ------------------------------------------------------------- *)

let pp ppf findings =
  let errors, warnings = summary findings in
  Fmt.pf ppf "@[<v>";
  List.iter (fun f -> Fmt.pf ppf "%a@," pp_finding f) findings;
  Fmt.pf ppf "%d error(s), %d warning(s)@]" errors warnings

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let finding_to_json f =
  Printf.sprintf "{\"rule\":\"%s\",\"severity\":\"%s\",\"subject\":\"%s\",\"message\":\"%s\"}"
    (json_escape f.f_rule) (severity_name f.f_severity) (json_escape f.f_subject)
    (json_escape f.f_message)

let to_json findings =
  let errors, warnings = summary findings in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"findings\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (finding_to_json f))
    findings;
  Buffer.add_string b (Printf.sprintf "],\"errors\":%d,\"warnings\":%d}" errors warnings);
  Buffer.contents b

(* --- Versioned report envelope ---------------------------------------------

   [druzhba lint --json] and [druzhba vet --json] share one schema,
   [druzhba-report/1], so CI can gate and diff both with the same tooling:

     {"schema":"druzhba-report/1","tool":<tool>,
      "targets":[{"name":...,"findings":[...],"errors":N,"warnings":N,...}]}

   Ordering is deterministic: targets sort by name, findings keep the
   rule-order-within-severity produced by {!check} (vet emits obligations in
   pipeline order), so reports for unchanged inputs are byte-identical. *)

let report_schema = "druzhba-report/1"

type target = {
  t_name : string;
  t_findings : finding list;
  t_extra : (string * string) list;  (* extra JSON fields: key -> rendered value *)
}

let target ?(extra = []) ~name findings = { t_name = name; t_findings = findings; t_extra = extra }

let target_to_json t =
  let errors, warnings = summary t.t_findings in
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "{\"name\":\"%s\",\"findings\":[" (json_escape t.t_name));
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (finding_to_json f))
    t.t_findings;
  Buffer.add_string b (Printf.sprintf "],\"errors\":%d,\"warnings\":%d" errors warnings);
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf ",\"%s\":%s" (json_escape k) v))
    t.t_extra;
  Buffer.add_char b '}';
  Buffer.contents b

let report_to_json ~tool targets =
  let targets = List.sort (fun a b -> String.compare a.t_name b.t_name) targets in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":\"%s\",\"tool\":\"%s\",\"targets\":[" report_schema
       (json_escape tool));
  List.iteri
    (fun i t ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (target_to_json t))
    targets;
  Buffer.add_string b "]}";
  Buffer.contents b
