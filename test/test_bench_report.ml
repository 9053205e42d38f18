(* Tests for the benchmark-report reader: the minimal JSON parser and the
   schema-tolerant bench view over it.  The reader must accept all report
   generations — druzhba-bench/1 (PR 5, sequential tick path), /2 (PR 8,
   batched path) and /3 (PR 10, native-codegen substrate columns) — since
   the perf-trajectory tooling diffs one against the other; it must also
   reject malformed or unknown-schema documents loudly rather than
   returning partial rows.  Schema /4 is /3 without the batch fields. *)

module Bench_report = Druzhba_experiments.Bench_report

let sample_v1 =
  {|{
  "schema": "druzhba-bench/1",
  "pr": 5,
  "phvs": 5000,
  "programs": [
    {
      "program": "spam_detection", "depth": 1, "width": 1, "alu": "raw",
      "levels": [
        {"level": "unopt", "ns_per_phv": 1714.6, "phvs_per_sec": 583223, "bytes_per_phv": 0.11, "engine_compiled_agree": true},
        {"level": "scc+inline", "ns_per_phv": 207.0, "phvs_per_sec": 4830918, "bytes_per_phv": 0.11, "engine_compiled_agree": true}
      ]
    }
  ]
}|}

let sample_v2 =
  {|{
  "schema": "druzhba-bench/2",
  "pr": 8,
  "phvs": 50000,
  "batch": 64,
  "programs": [
    {
      "program": "spam_detection", "depth": 1, "width": 1, "alu": "raw",
      "levels": [
        {"level": "scc+inline", "ns_per_phv": 41.4, "seq_ns_per_phv": 199.8, "phvs_per_sec": 24154589, "bytes_per_phv": 0.11, "engine_compiled_agree": true, "batch_agree": true}
      ]
    }
  ],
  "batch_sweep": [
    {"program": "spam_detection", "level": "scc+inline", "points": [{"batch": 1, "ns_per_phv": 64.4}, {"batch": 64, "ns_per_phv": 27.8}]}
  ]
}|}

let sample_v3 =
  {|{
  "schema": "druzhba-bench/3",
  "pr": 10,
  "phvs": 50000,
  "batch": 64,
  "programs": [
    {
      "program": "spam_detection", "depth": 1, "width": 1, "alu": "raw",
      "levels": [
        {"level": "unopt", "ns_per_phv": 120.0, "seq_ns_per_phv": 400.0, "phvs_per_sec": 8333333, "bytes_per_phv": 0.11, "engine_compiled_agree": true, "batch_agree": true},
        {"level": "scc+inline", "ns_per_phv": 40.0, "seq_ns_per_phv": 199.8, "phvs_per_sec": 25000000, "bytes_per_phv": 0.11, "engine_compiled_agree": true, "batch_agree": true, "native_ns_per_phv": 10.0, "native_seq_ns_per_phv": 25.0, "native_phvs_per_sec": 100000000, "native_agree": true}
      ]
    }
  ]
}|}

(* The same schema written on a machine without the build toolchain:
   native fields absent, top-level reason present. *)
let sample_v3_degraded =
  {|{
  "schema": "druzhba-bench/3",
  "pr": 10,
  "phvs": 5000,
  "batch": 64,
  "native_unavailable": "ocamlfind not found on PATH",
  "programs": [
    {
      "program": "spam_detection", "depth": 1, "width": 1, "alu": "raw",
      "levels": [
        {"level": "scc+inline", "ns_per_phv": 40.0, "seq_ns_per_phv": 199.8, "phvs_per_sec": 25000000, "bytes_per_phv": 0.11, "engine_compiled_agree": true, "batch_agree": true}
      ]
    }
  ]
}|}

(* Schema /4: one tick path per executor, so no "batch", "seq_ns_per_phv",
   "native_seq_ns_per_phv", "batch_agree" or "batch_sweep". *)
let sample_v4 =
  {|{
  "schema": "druzhba-bench/4",
  "pr": 15,
  "quick": false,
  "phvs": 50000,
  "timed_reps": 3,
  "check_phvs": 64,
  "programs": [
    {
      "program": "spam_detection", "depth": 1, "width": 1, "alu": "raw",
      "levels": [
        {"level": "unopt", "ns_per_phv": 400.0, "phvs_per_sec": 2500000, "bytes_per_phv": 0.01, "engine_compiled_agree": true},
        {"level": "scc+inline", "ns_per_phv": 199.8, "phvs_per_sec": 5005005, "bytes_per_phv": 0.01, "engine_compiled_agree": true, "native_ns_per_phv": 25.0, "native_phvs_per_sec": 40000000, "native_agree": true}
      ]
    }
  ],
  "probe_overhead": {
    "program": "sampling", "phvs": 10000,
    "baseline_ns_per_phv": 900.0, "on_ns_per_phv": 1400.0, "off_ns_per_phv": 910.0,
    "off_ratio": 1.011, "off_ratio_bound": 1.5, "within_bound": true
  },
  "drmt": {
    "program": "l2l3", "tables": 3, "phvs": 20000,
    "modes": [
      {"mode": "sequential", "ns_per_phv": 2000.0, "phvs_per_sec": 500000},
      {"mode": "event", "ns_per_phv": 5000.0, "phvs_per_sec": 200000}
    ],
    "event_sequential_agree": true
  },
  "all_agree": true
}|}

let check_ok = function
  | Ok r -> r
  | Error msg -> Alcotest.failf "expected successful parse, got: %s" msg

let test_reads_v1 () =
  let r = check_ok (Bench_report.of_string sample_v1) in
  Alcotest.(check string) "schema" "druzhba-bench/1" r.Bench_report.br_schema;
  Alcotest.(check int) "pr" 5 r.Bench_report.br_pr;
  Alcotest.(check bool) "no batch field in v1" true (r.Bench_report.br_batch = None);
  Alcotest.(check int) "rows" 2 (List.length r.Bench_report.br_rows);
  match Bench_report.find_row r ~program:"spam_detection" ~level:"scc+inline" with
  | None -> Alcotest.fail "missing scc+inline row"
  | Some row ->
    Alcotest.(check (float 0.001)) "ns/PHV" 207.0 row.Bench_report.br_ns_per_phv;
    Alcotest.(check bool) "agree" true row.Bench_report.br_agree

let test_reads_v2 () =
  let r = check_ok (Bench_report.of_string sample_v2) in
  Alcotest.(check string) "schema" "druzhba-bench/2" r.Bench_report.br_schema;
  Alcotest.(check bool) "batch field" true (r.Bench_report.br_batch = Some 64);
  Alcotest.(check int) "rows" 1 (List.length r.Bench_report.br_rows)

let test_reads_v3 () =
  let r = check_ok (Bench_report.of_string sample_v3) in
  Alcotest.(check string) "schema" "druzhba-bench/3" r.Bench_report.br_schema;
  Alcotest.(check int) "pr" 10 r.Bench_report.br_pr;
  Alcotest.(check bool) "toolchain present" true (r.Bench_report.br_native_unavailable = None);
  Alcotest.(check int) "rows" 2 (List.length r.Bench_report.br_rows);
  (match Bench_report.find_row r ~program:"spam_detection" ~level:"scc+inline" with
  | None -> Alcotest.fail "missing scc+inline row"
  | Some row ->
    Alcotest.(check bool) "native ns parsed" true
      (row.Bench_report.br_native_ns_per_phv = Some 10.0);
    Alcotest.(check bool) "native agree parsed" true
      (row.Bench_report.br_native_agree = Some true);
    Alcotest.(check bool) "seq ns parsed" true
      (row.Bench_report.br_seq_ns_per_phv = Some 199.8));
  match Bench_report.find_row r ~program:"spam_detection" ~level:"unopt" with
  | None -> Alcotest.fail "missing unopt row"
  | Some row ->
    Alcotest.(check bool) "native fields optional per level" true
      (row.Bench_report.br_native_ns_per_phv = None)

let test_reads_v4 () =
  let r = check_ok (Bench_report.of_string sample_v4) in
  Alcotest.(check string) "schema" "druzhba-bench/4" r.Bench_report.br_schema;
  Alcotest.(check int) "pr" 15 r.Bench_report.br_pr;
  Alcotest.(check bool) "no batch field in v4" true (r.Bench_report.br_batch = None);
  Alcotest.(check int) "rows" 2 (List.length r.Bench_report.br_rows);
  (match Bench_report.find_row r ~program:"spam_detection" ~level:"scc+inline" with
  | None -> Alcotest.fail "missing scc+inline row"
  | Some row ->
    Alcotest.(check (float 0.001)) "ns/PHV" 199.8 row.Bench_report.br_ns_per_phv;
    Alcotest.(check bool) "no seq ns in v4" true (row.Bench_report.br_seq_ns_per_phv = None);
    Alcotest.(check bool) "native ns parsed" true
      (row.Bench_report.br_native_ns_per_phv = Some 25.0));
  match Bench_report.native_speedups r with
  | [ ("spam_detection", "scc+inline", s) ] -> Alcotest.(check (float 0.001)) "199.8 / 25" 7.992 s
  | rows -> Alcotest.failf "expected one native row, got %d" (List.length rows)

let test_native_speedup_join () =
  let r = check_ok (Bench_report.of_string sample_v3) in
  (match Bench_report.native_speedups r with
  | [ ("spam_detection", "scc+inline", s) ] -> Alcotest.(check (float 0.001)) "40 / 10" 4.0 s
  | rows -> Alcotest.failf "expected one native row, got %d" (List.length rows));
  (* degraded reports join to nothing, not to an error *)
  let d = check_ok (Bench_report.of_string sample_v3_degraded) in
  Alcotest.(check bool) "degradation reason surfaced" true
    (d.Bench_report.br_native_unavailable = Some "ocamlfind not found on PATH");
  Alcotest.(check int) "no native rows when degraded" 0
    (List.length (Bench_report.native_speedups d));
  (* older schemas never produce native rows either *)
  let v2 = check_ok (Bench_report.of_string sample_v2) in
  Alcotest.(check int) "no native rows in /2" 0 (List.length (Bench_report.native_speedups v2))

let test_speedups_across_schemas () =
  let v1 = check_ok (Bench_report.of_string sample_v1) in
  let v2 = check_ok (Bench_report.of_string sample_v2) in
  match Bench_report.speedups ~baseline:v1 ~current:v2 with
  | [ ("spam_detection", "scc+inline", s) ] ->
    Alcotest.(check (float 0.001)) "207.0 / 41.4" 5.0 s
  | rows -> Alcotest.failf "expected one joined row, got %d" (List.length rows)

let test_rejects_malformed () =
  let expect_error label s =
    match Bench_report.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: expected parse error" label
  in
  expect_error "empty" "";
  expect_error "truncated" {|{"schema": "druzhba-bench/1", "programs": [|};
  expect_error "unknown schema" {|{"schema": "druzhba-bench/99", "programs": []}|};
  expect_error "missing schema" {|{"pr": 5, "programs": []}|};
  expect_error "no rows" {|{"schema": "druzhba-bench/1", "pr": 5, "programs": []}|};
  expect_error "trailing garbage" {|{"schema": "druzhba-bench/1", "programs": []} x|}

(* The committed trajectory files must stay readable: CI regenerates the
   current report, but the PR 5 baseline is a repository fixture the
   speedup table joins against. *)
let test_reads_committed_reports () =
  List.iter
    (fun (path, expect_pr) ->
      if Sys.file_exists path then begin
        let r = check_ok (Bench_report.of_file path) in
        Alcotest.(check int) (path ^ " pr") expect_pr r.Bench_report.br_pr;
        Alcotest.(check int) (path ^ " rows") 36 (List.length r.Bench_report.br_rows);
        List.iter
          (fun (row : Bench_report.level_row) ->
            if row.Bench_report.br_ns_per_phv <= 0. then
              Alcotest.failf "%s: non-positive ns/PHV for %s/%s" path row.Bench_report.br_program
                row.Bench_report.br_level)
          r.Bench_report.br_rows
      end)
    [ ("../BENCH_pr5.json", 5); ("../BENCH_pr8.json", 8); ("../BENCH_pr10.json", 10) ]

let () =
  Alcotest.run "bench_report"
    [
      ( "parser",
        [
          Alcotest.test_case "reads schema /1" `Quick test_reads_v1;
          Alcotest.test_case "reads schema /2" `Quick test_reads_v2;
          Alcotest.test_case "reads schema /3" `Quick test_reads_v3;
          Alcotest.test_case "reads schema /4" `Quick test_reads_v4;
          Alcotest.test_case "native-vs-batched speedup join" `Quick test_native_speedup_join;
          Alcotest.test_case "speedups join across schemas" `Quick test_speedups_across_schemas;
          Alcotest.test_case "rejects malformed input" `Quick test_rejects_malformed;
          Alcotest.test_case "reads committed reports" `Quick test_reads_committed_reports;
        ] );
    ]
