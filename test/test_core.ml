(* Tests for the Druzhba facade and the experiments library: the public
   workflows a downstream user calls, and smoke coverage of the Table 1 /
   case study / Fig. 6 harnesses. *)

module Druzhba = Druzhba_core.Druzhba
open Druzhba
module Table1 = Druzhba_experiments.Table1
module Casestudy = Druzhba_experiments.Casestudy
module Fig6 = Druzhba_experiments.Fig6

(* --- simulate ------------------------------------------------------------------- *)

let test_simulate_end_to_end () =
  let desc_gen () =
    Dgen.generate
      (Dgen.config ~depth:2 ~width:2 ())
      ~stateful:(Atoms.find_exn "pred_raw") ~stateless:(Atoms.find_exn "stateless_full")
  in
  let mc = Fuzz.random_mc (Prng.create 9) (desc_gen ()) in
  let { sim_trace; sim_description } =
    simulate ~depth:2 ~width:2 ~stateful:(Atoms.find_exn "pred_raw")
      ~stateless:(Atoms.find_exn "stateless_full") ~mc ~phvs:100 ()
  in
  Alcotest.(check int) "100 outputs" 100 (List.length sim_trace.Trace.outputs);
  (* default level is SCC: no machine-code names remain *)
  Alcotest.(check (list string)) "optimized" [] (Ir.required_names sim_description)

let test_simulate_levels_agree () =
  let stateful = Atoms.find_exn "pair" and stateless = Atoms.find_exn "stateless_full" in
  let desc = Dgen.generate (Dgen.config ~depth:2 ~width:2 ()) ~stateful ~stateless in
  let mc = Fuzz.random_mc (Prng.create 4) desc in
  let run level =
    (simulate ~level ~depth:2 ~width:2 ~stateful ~stateless ~mc ~phvs:50 ()).sim_trace
  in
  let a = run Optimizer.Unoptimized and b = run Optimizer.Scc and c = run Optimizer.Scc_inline in
  Alcotest.(check bool) "unopt = scc" true (a.Trace.outputs = b.Trace.outputs);
  Alcotest.(check bool) "scc = inline" true (b.Trace.outputs = c.Trace.outputs)

(* --- Workflow -------------------------------------------------------------------- *)

let sampling_target () = Spec.target (Spec.find_exn "sampling")

let test_workflow_test_program () =
  match
    Druzhba.Workflow.test_program ~phvs:300 ~target:(sampling_target ())
      (Spec.find_exn "sampling").Spec.bm_source
  with
  | Ok report ->
    Alcotest.(check string) "program name" "sampling" report.Druzhba.Workflow.program;
    Alcotest.(check bool) "passes" true (Fuzz.outcome_is_pass report.Druzhba.Workflow.outcome);
    Alcotest.(check bool) "has pairs" true (report.Druzhba.Workflow.machine_code_pairs > 10)
  | Error e -> Alcotest.fail e

let test_workflow_rejects_unfit () =
  match
    Druzhba.Workflow.test_program ~phvs:10
      ~target:
        (Compiler.Codegen.target ~depth:1 ~width:1 ~stateful:(Atoms.find_exn "raw")
           ~stateless:(Atoms.find_exn "stateless_full") ())
      "state s = 0; transaction t { s = s + 1; pkt.out = s == 3; }"
  with
  | Ok _ -> Alcotest.fail "expected a compile error"
  | Error _ -> ()

let test_workflow_test_machine_code_catches_bug () =
  let compiled = Spec.compile_exn (Spec.find_exn "sampling") in
  let mc = Machine_code.copy compiled.Compiler.Codegen.c_mc in
  (* corrupt the reset constant: the counter never resets to 0 *)
  let alu, _ = List.assoc "count" compiled.Compiler.Codegen.c_layout.Compiler.Codegen.l_state in
  Machine_code.set mc (Names.slot ~alu_prefix:alu ~slot_name:"const_1") 3;
  let report = Druzhba.Workflow.test_machine_code ~phvs:200 compiled ~mc in
  match report.Druzhba.Workflow.outcome with
  | Fuzz.Mismatch _ -> ()
  | o -> Alcotest.failf "expected mismatch, got %a" Fuzz.pp_outcome o

let test_workflow_report_pp () =
  let compiled = Spec.compile_exn (Spec.find_exn "spam_detection") in
  let report =
    Druzhba.Workflow.test_machine_code ~phvs:50 compiled ~mc:compiled.Compiler.Codegen.c_mc
  in
  let s = Fmt.str "%a" Druzhba.Workflow.pp_report report in
  Alcotest.(check bool) "mentions the program" true
    (String.length s > 10 && String.sub s 0 4 = "spam")

(* --- Experiments ----------------------------------------------------------------- *)

(* Table 1 on the closures, three times.  [best i f] reads field [f] of row
   [i] as the best of its three runs: load on the host only ever adds time,
   and on a 1x1 program one stall outweighs a whole 500-PHV cell. *)
let table1_best_of_three ~phvs =
  let runs = List.init 3 (fun _ -> Array.of_list (Table1.run ~phvs ~mode:"compiled" ())) in
  let best i f = List.fold_left (fun m rows -> Float.min m (f rows.(i))) infinity runs in
  (List.hd runs, best)

let test_table1_smoke () =
  let rows, best = table1_best_of_three ~phvs:500 in
  Alcotest.(check int) "12 rows" 12 (Array.length rows);
  Array.iteri
    (fun i (r : Table1.row) ->
      Alcotest.(check bool)
        (r.Table1.row_program ^ ": optimization helps")
        true
        (best i (fun r -> r.Table1.row_scc_ms) < best i (fun r -> r.Table1.row_unopt_ms)))
    rows

let test_table1_interpreted_inlining_helps () =
  let rows = Table1.run ~phvs:500 ~mode:"interpreter" () in
  let mean_ratio =
    List.fold_left (fun a (r : Table1.row) -> a +. (r.Table1.row_inline_ms /. r.Table1.row_scc_ms)) 0. rows
    /. 12.
  in
  Alcotest.(check bool) "inlining pays without a compiling backend" true (mean_ratio < 0.95)

(* The paper's Table-1 shape (§5.1): on a compiling backend, inlining adds
   nothing on top of SCC propagation, because the compiler already inlines
   the small generated helpers.  Scc+inline may not come out much faster
   than scc alone.  Each cell is the best of three runs: a stalled scc run
   would fake an inlining win. *)
let test_table1_compiled_inlining_adds_nothing () =
  let _, best = table1_best_of_three ~phvs:2_000 in
  let mean_ratio =
    List.fold_left
      (fun a i -> a +. (best i (fun r -> r.Table1.row_inline_ms) /. best i (fun r -> r.Table1.row_scc_ms)))
      0. (List.init 12 Fun.id)
    /. 12.
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean inline/scc ratio %.2f >= 0.8" mean_ratio)
    true (mean_ratio >= 0.8)

let test_casestudy_shape () =
  (* tiny workloads: the counts still land exactly on the paper's shape *)
  let report = Casestudy.run ~phvs:60 ~synth_budget:60_000 () in
  Alcotest.(check int) "programs" 132 (List.length report.Casestudy.entries);
  Alcotest.(check int) "correct" 124 report.Casestudy.correct;
  Alcotest.(check int) "missing pairs" 2 report.Casestudy.missing_pairs;
  Alcotest.(check int) "range failures" 6 report.Casestudy.range_failures;
  Alcotest.(check int) "no other mismatches" 0 report.Casestudy.other

let test_fig6_shape () =
  let v = Fig6.render () in
  Alcotest.(check bool) "v2 smaller than v1" true (v.Fig6.v2_size < v.Fig6.v1_size);
  Alcotest.(check bool) "v3 no larger than v2" true (v.Fig6.v3_size <= v.Fig6.v2_size);
  Alcotest.(check bool) "helpers drop" true (v.Fig6.v3_helpers < v.Fig6.v1_helpers);
  (* rendered sources carry the signature features *)
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  Alcotest.(check bool) "v1 has runtime lookups" true (contains ~sub:"values[" v.Fig6.v1);
  Alcotest.(check bool) "v2 has none" false (contains ~sub:"values[" v.Fig6.v2)

let () =
  Alcotest.run "core"
    [
      ( "simulate",
        [
          Alcotest.test_case "end to end" `Quick test_simulate_end_to_end;
          Alcotest.test_case "levels agree" `Quick test_simulate_levels_agree;
        ] );
      ( "workflow",
        [
          Alcotest.test_case "test_program passes" `Quick test_workflow_test_program;
          Alcotest.test_case "unfit program rejected" `Quick test_workflow_rejects_unfit;
          Alcotest.test_case "bad machine code caught" `Quick
            test_workflow_test_machine_code_catches_bug;
          Alcotest.test_case "report rendering" `Quick test_workflow_report_pp;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table1 smoke" `Quick test_table1_smoke;
          Alcotest.test_case "interpreted inlining ablation" `Quick
            test_table1_interpreted_inlining_helps;
          Alcotest.test_case "compiled inlining adds nothing" `Quick
            test_table1_compiled_inlining_adds_nothing;
          Alcotest.test_case "case study shape" `Slow test_casestudy_shape;
          Alcotest.test_case "fig6 shape" `Quick test_fig6_shape;
        ] );
    ]
