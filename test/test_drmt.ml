(* Tests for the dRMT model: P4-subset parsing, dependency-DAG extraction,
   the cyclic scheduler's invariants, table-entry lookup semantics, and
   differential testing of the scheduled simulator against sequential P4
   semantics. *)

module P4 = Druzhba_drmt.P4
module Dag = Druzhba_drmt.Dag
module Scheduler = Druzhba_drmt.Scheduler
module Entries = Druzhba_drmt.Entries
module Sim = Druzhba_drmt.Sim

let l2l3_src =
  {|
header ethernet {
  dst : 48;
  etype : 16;
}
header ipv4 {
  ttl : 8;
  dst : 32;
}

action set_port(port) {
  meta.out_port = port;
}
action route(port) {
  meta.out_port = port;
  ipv4.ttl = ipv4.ttl - 1;
  reg.routed = reg.routed + 1;
}
action drop_packet() {
  drop;
  reg.dropped = reg.dropped + 1;
}

table l2_forward {
  key : ethernet.dst;
  match : exact;
  actions : { set_port };
  default : set_port 0;
}
table ipv4_route {
  key : ipv4.dst;
  match : lpm;
  actions : { route, drop_packet };
  default : drop_packet;
}

control {
  apply l2_forward;
  apply ipv4_route;
}
|}

let l2l3 () = P4.parse l2l3_src

let entries_src =
  {|
entry l2_forward exact 170 set_port 3
entry ipv4_route lpm 3232235520/16 route 7
entry ipv4_route lpm 3232235520/8  route 9
|}

let entries () = match Entries.parse entries_src with Ok e -> e | Error e -> failwith e

(* --- P4 parsing ---------------------------------------------------------------- *)

let test_parse_structure () =
  let p = l2l3 () in
  Alcotest.(check int) "headers" 2 (List.length p.P4.headers);
  Alcotest.(check int) "actions" 3 (List.length p.P4.actions);
  Alcotest.(check int) "tables" 2 (List.length p.P4.tables);
  Alcotest.(check (list string)) "control" [ "l2_forward"; "ipv4_route" ] p.P4.control;
  Alcotest.(check (option int)) "field width" (Some 8) (P4.field_width p (P4.Header ("ipv4", "ttl")));
  Alcotest.(check (option int)) "meta width" (Some 32) (P4.field_width p (P4.Meta "out_port"))

let test_parse_errors () =
  let expect_error src =
    match P4.parse_result src with
    | Ok _ -> Alcotest.fail ("expected parse error: " ^ src)
    | Error _ -> ()
  in
  expect_error "header h { f : 8; }"; (* no control *)
  expect_error "control { apply missing_table; }";
  expect_error "table t { key : h.f; match : exact; default : a; } control { }";
  expect_error "bogus { }"

let test_read_write_sets () =
  let p = l2l3 () in
  let route = Option.get (P4.find_action p "route") in
  Alcotest.(check bool) "route writes ttl" true
    (List.mem (P4.Header ("ipv4", "ttl")) (P4.action_writes route));
  Alcotest.(check bool) "route reads ttl" true
    (List.mem (P4.Header ("ipv4", "ttl")) (P4.action_reads route));
  Alcotest.(check bool) "route writes register" true
    (List.mem (P4.Reg "routed") (P4.action_writes route))

(* --- DAG ------------------------------------------------------------------------- *)

let test_dag_shape () =
  let dag = Dag.build (l2l3 ()) in
  Alcotest.(check int) "nodes" 4 (List.length dag.Dag.nodes);
  (* both tables' actions write meta.out_port => action dependency edge *)
  Alcotest.(check bool) "action dep present" true
    (List.exists
       (fun (e : Dag.edge) ->
         Dag.equal_node e.Dag.e_from (Dag.Action "l2_forward")
         && Dag.equal_node e.Dag.e_to (Dag.Action "ipv4_route"))
       dag.Dag.edges);
  Alcotest.(check int) "critical path is match+action chain" 24 (Dag.critical_path dag)

let test_dag_match_dependency () =
  let src =
    {|
header h { f : 16; g : 16; }
action set_f(v) { h.f = v; }
action noop_a() { noop; }
table writer { key : h.g; match : exact; actions : { set_f }; default : set_f 0; }
table reader { key : h.f; match : exact; actions : { noop_a }; default : noop_a; }
control { apply writer; apply reader; }
|}
  in
  let dag = Dag.build (P4.parse src) in
  Alcotest.(check bool) "match dependency" true
    (List.exists
       (fun (e : Dag.edge) ->
         Dag.equal_node e.Dag.e_from (Dag.Action "writer")
         && Dag.equal_node e.Dag.e_to (Dag.Match "reader"))
       dag.Dag.edges)

let test_dag_independent_tables () =
  let src =
    {|
header h { f : 16; g : 16; }
action inc_f() { h.f = h.f + 1; }
action inc_g() { h.g = h.g + 1; }
table tf { key : h.f; match : exact; actions : { inc_f }; default : inc_f; }
table tg { key : h.g; match : exact; actions : { inc_g }; default : inc_g; }
control { apply tf; apply tg; }
|}
  in
  let dag = Dag.build (P4.parse src) in
  (* only the successor edge links them: both matches can issue at cycle 0 *)
  let sched = Scheduler.schedule (Scheduler.config ~processors:2 ~match_capacity:4 ()) dag in
  Alcotest.(check int) "tf match at 0" 0 (Scheduler.time_of sched (Dag.Match "tf"));
  Alcotest.(check int) "tg match at 0" 0 (Scheduler.time_of sched (Dag.Match "tg"))

let test_dag_find_cycle () =
  (* [Dag.build] only emits forward edges, so its output is always acyclic *)
  Alcotest.(check bool) "built DAGs acyclic" true (Dag.find_cycle (Dag.build (l2l3 ())) = None);
  (* hand-assembled back edge: Action t -> Match t closes a cycle *)
  let cyclic =
    {
      Dag.nodes = [ Dag.Match "t"; Dag.Action "t"; Dag.Match "u"; Dag.Action "u" ];
      edges =
        [
          { Dag.e_from = Dag.Match "t"; e_to = Dag.Action "t"; e_latency = 22 };
          { Dag.e_from = Dag.Action "t"; e_to = Dag.Match "t"; e_latency = 2 };
          { Dag.e_from = Dag.Match "u"; e_to = Dag.Action "u"; e_latency = 22 };
        ];
      delta_match = 22;
      delta_action = 2;
    }
  in
  match Dag.find_cycle cyclic with
  | None -> Alcotest.fail "cycle not detected"
  | Some witness ->
    (* the witness set is exactly the strongly-connected remainder *)
    Alcotest.(check bool) "Match t in witness" true (List.mem (Dag.Match "t") witness);
    Alcotest.(check bool) "Action t in witness" true (List.mem (Dag.Action "t") witness);
    Alcotest.(check bool) "acyclic u not in witness" false (List.mem (Dag.Match "u") witness)

(* --- Scheduler -------------------------------------------------------------------- *)

let test_schedule_valid_l2l3 () =
  let dag = Dag.build (l2l3 ()) in
  (* 2 match and 2 action nodes: infeasible at line rate iff P * cap < 2 *)
  List.iter
    (fun processors ->
      List.iter
        (fun caps ->
          let cfg = Scheduler.config ~processors ~match_capacity:caps ~action_capacity:caps () in
          match Scheduler.schedule cfg dag with
          | sched ->
            Alcotest.(check bool)
              (Printf.sprintf "feasible (P=%d, cap=%d)" processors caps)
              true
              (processors * caps >= 2);
            Alcotest.(check int)
              (Printf.sprintf "valid (P=%d, cap=%d)" processors caps)
              0
              (List.length (Scheduler.validate dag sched))
          | exception Scheduler.Infeasible _ ->
            Alcotest.(check bool)
              (Printf.sprintf "infeasible only when undersized (P=%d, cap=%d)" processors caps)
              true
              (processors * caps < 2))
        [ 1; 2; 8 ])
    [ 1; 2; 4; 7 ]

let test_capacity_forces_stagger () =
  (* two independent matches, capacity 1, P=2: they cannot share a residue *)
  let src =
    {|
header h { f : 16; g : 16; }
action inc_f() { h.f = h.f + 1; }
action inc_g() { h.g = h.g + 1; }
table tf { key : h.f; match : exact; actions : { inc_f }; default : inc_f; }
table tg { key : h.g; match : exact; actions : { inc_g }; default : inc_g; }
control { apply tf; apply tg; }
|}
  in
  let dag = Dag.build (P4.parse src) in
  let cfg = Scheduler.config ~processors:2 ~match_capacity:1 ~action_capacity:1 () in
  let sched = Scheduler.schedule cfg dag in
  Alcotest.(check int) "no violations" 0 (List.length (Scheduler.validate dag sched));
  let t_tf = Scheduler.time_of sched (Dag.Match "tf") in
  let t_tg = Scheduler.time_of sched (Dag.Match "tg") in
  Alcotest.(check bool) "different residues" true (t_tf mod 2 <> t_tg mod 2)

let test_schedule_empty_dag () =
  (* a program with no applied tables schedules trivially: makespan 0 *)
  let p = P4.parse {| header h { f : 8; } control { } |} in
  let dag = Dag.build p in
  Alcotest.(check int) "no nodes" 0 (List.length dag.Dag.nodes);
  let sched = Scheduler.schedule (Scheduler.config ()) dag in
  Alcotest.(check int) "makespan 0" 0 sched.Scheduler.makespan;
  Alcotest.(check int) "valid" 0 (List.length (Scheduler.validate dag sched))

let test_schedule_single_processor () =
  (* P=1: every node lands on processor 0 and the schedule is still valid,
     provided the per-cycle capacity can hold the whole program *)
  let dag = Dag.build (l2l3 ()) in
  let cfg = Scheduler.config ~processors:1 ~match_capacity:2 ~action_capacity:2 () in
  let sched = Scheduler.schedule cfg dag in
  Alcotest.(check int) "valid" 0 (List.length (Scheduler.validate dag sched));
  Alcotest.(check bool)
    "makespan covers the critical path" true
    (sched.Scheduler.makespan >= Dag.critical_path dag)

let test_schedule_infeasible () =
  (* 2 match nodes but P * match_capacity = 1: no line-rate schedule exists *)
  let dag = Dag.build (l2l3 ()) in
  let cfg = Scheduler.config ~processors:1 ~match_capacity:1 ~action_capacity:1 () in
  (match Scheduler.schedule cfg dag with
  | _ -> Alcotest.fail "expected Infeasible"
  | exception Scheduler.Infeasible msg ->
    Alcotest.(check bool) "message names the bottleneck" true (String.length msg > 0));
  (* check_feasible is the only source of Infeasible: a big-enough config passes *)
  Scheduler.check_feasible (Scheduler.config ()) dag

(* random chain programs: the greedy schedule is always valid *)
let gen_chain_program : P4.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* n = int_range 1 6 in
  let* share = bool in
  let headers = [ { P4.h_name = "h"; h_fields = List.init n (fun i -> ("f" ^ string_of_int i, 16)) } ] in
  let actions =
    List.init n (fun i ->
        {
          P4.a_name = Printf.sprintf "act%d" i;
          a_params = [];
          a_body =
            [
              P4.Assign
                ( P4.Header ("h", Printf.sprintf "f%d" (if share then 0 else i)),
                  P4.Binop (P4.Add, P4.Ref (P4.Header ("h", Printf.sprintf "f%d" (if share then 0 else i))), P4.Int 1) );
            ];
        })
  in
  let tables =
    List.init n (fun i ->
        {
          P4.t_name = Printf.sprintf "t%d" i;
          t_key = P4.Header ("h", Printf.sprintf "f%d" (if share then 0 else i));
          t_match = P4.Exact;
          t_actions = [ Printf.sprintf "act%d" i ];
          t_default = (Printf.sprintf "act%d" i, []);
        })
  in
  return { P4.headers; actions; tables; control = List.init n (Printf.sprintf "t%d") }

let prop_scheduler_always_valid =
  QCheck.Test.make ~name:"greedy schedules satisfy all constraints" ~count:60
    (QCheck.make
       QCheck.Gen.(
         triple gen_chain_program (int_range 1 6) (int_range 1 4)))
    (fun (p, processors, cap) ->
      let dag = Dag.build p in
      let cfg = Scheduler.config ~processors ~match_capacity:cap ~action_capacity:cap () in
      let tables = List.length p.P4.tables in
      match Scheduler.schedule cfg dag with
      | sched -> Scheduler.validate dag sched = []
      | exception Scheduler.Infeasible _ -> tables > processors * cap)

let prop_schedule_respects_critical_path =
  QCheck.Test.make ~name:"makespan >= critical path" ~count:40
    (QCheck.make gen_chain_program)
    (fun p ->
      let dag = Dag.build p in
      let sched = Scheduler.schedule (Scheduler.config ()) dag in
      sched.Scheduler.makespan >= Dag.critical_path dag)

(* --- Entries ------------------------------------------------------------------------ *)

let test_entries_parse () =
  match Entries.parse entries_src with
  | Error e -> Alcotest.fail e
  | Ok es ->
    Alcotest.(check int) "entries" 3 (List.length es);
    (match List.hd es with
    | { Entries.en_table = "l2_forward"; en_pattern = Entries.Pexact 170; en_action = "set_port"; en_args = [ 3 ] }
      -> ()
    | _ -> Alcotest.fail "unexpected first entry")

let test_entries_parse_errors () =
  (match Entries.parse "entry t exact notanumber act" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ());
  (match Entries.parse "entry t lpm 10 act" with
  | Ok _ -> Alcotest.fail "expected error (lpm needs /prefix)"
  | Error _ -> ());
  match Entries.parse "something else" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

let test_lpm_longest_prefix () =
  let es = entries () in
  (* 192.168.x.x = 3232235520 + ...; /16 beats /8 *)
  match Entries.lookup es ~table:"ipv4_route" ~key_width:32 3232235777 with
  | Some e -> Alcotest.(check (list int)) "longest prefix wins" [ 7 ] e.Entries.en_args
  | None -> Alcotest.fail "expected lpm hit"

let test_lpm_fallback_shorter_prefix () =
  let es = entries () in
  (* 192.169.0.0: matches 192.0.0.0/8 but not 192.168.0.0/16 *)
  match Entries.lookup es ~table:"ipv4_route" ~key_width:32 3232301056 with
  | Some e -> Alcotest.(check (list int)) "/8 entry" [ 9 ] e.Entries.en_args
  | None -> Alcotest.fail "expected /8 hit"

let test_ternary_priority () =
  let src = "entry t ternary 8&8 first\nentry t ternary 0&0 second" in
  match Entries.parse src with
  | Error e -> Alcotest.fail e
  | Ok es -> (
    match Entries.lookup es ~table:"t" ~key_width:16 12 with
    | Some e -> Alcotest.(check string) "file order priority" "first" e.Entries.en_action
    | None -> Alcotest.fail "expected ternary hit")

let test_exact_miss () =
  let es = entries () in
  Alcotest.(check bool) "miss" true
    (Entries.lookup es ~table:"l2_forward" ~key_width:48 9999 = None)

let test_entries_roundtrip () =
  let es = entries () in
  let printed = Fmt.str "%a" Fmt.(list ~sep:(any "\n") Entries.pp_entry) es in
  match Entries.parse printed with
  | Ok es' -> Alcotest.(check int) "roundtrip count" (List.length es) (List.length es')
  | Error e -> Alcotest.fail e

(* --- Simulation ----------------------------------------------------------------------- *)

let test_sim_matches_sequential () =
  let p = l2l3 () in
  let es = entries () in
  List.iter
    (fun seed ->
      let r = Sim.run ~seed ~cfg:(Scheduler.config ()) ~entries:es ~packets:150 p in
      let s = Sim.run_sequential ~seed ~entries:es ~packets:150 p in
      Alcotest.(check bool) "packets agree" true (Sim.packets_agree r s);
      (* counters commute, so registers agree too *)
      Alcotest.(check (list (pair string int))) "registers" s.Sim.r_registers r.Sim.r_registers)
    [ 1; 2; 3; 42 ]

let test_sim_respects_capacity () =
  (* the schedule's residue constraint bounds each processor's per-cycle
     crossbar usage by the configured capacity *)
  let p = l2l3 () in
  List.iter
    (fun (processors, cap) ->
      let cfg = Scheduler.config ~processors ~match_capacity:cap ~action_capacity:cap () in
      let r = Sim.run ~cfg ~entries:(entries ()) ~packets:300 p in
      Alcotest.(check bool) "per-processor match peak within cap" true
        (r.Sim.r_stats.Sim.st_peak_match_per_processor <= cap);
      Alcotest.(check bool) "per-processor action peak within cap" true
        (r.Sim.r_stats.Sim.st_peak_action_per_processor <= cap);
      (* chip-wide concurrency is bounded by processors x cap *)
      Alcotest.(check bool) "chip-wide peak bounded" true
        (r.Sim.r_stats.Sim.st_peak_match_per_cycle <= processors * cap))
    [ (4, 2); (2, 1); (7, 2) ]

let test_sim_throughput () =
  (* steady state absorbs one packet per cycle: total cycles = packets +
     per-packet latency (makespan) *)
  let p = l2l3 () in
  let cfg = Scheduler.config () in
  let dag = Dag.build p in
  let sched = Scheduler.schedule cfg dag in
  let packets = 500 in
  let r = Sim.run ~cfg ~entries:(entries ()) ~packets p in
  Alcotest.(check int) "cycles = packets + makespan"
    (packets + sched.Scheduler.makespan)
    r.Sim.r_stats.Sim.st_cycles

let test_sim_register_effects () =
  let p = l2l3 () in
  let r = Sim.run ~cfg:(Scheduler.config ()) ~entries:(entries ()) ~packets:100 p in
  let routed = try List.assoc "routed" r.Sim.r_registers with Not_found -> 0 in
  let dropped = try List.assoc "dropped" r.Sim.r_registers with Not_found -> 0 in
  Alcotest.(check int) "every packet routed or dropped" 100 (routed + dropped)

let test_sim_ttl_decrement () =
  (* a packet that hits the /8 route must have its TTL decremented *)
  let src = "entry ipv4_route lpm 0/0 route 1" in
  let es = match Entries.parse src with Ok e -> e | Error e -> failwith e in
  let p = l2l3 () in
  let seed = 7 in
  let r = Sim.run ~seed ~cfg:(Scheduler.config ()) ~entries:es ~packets:20 p in
  let s = Sim.run_sequential ~seed ~entries:es ~packets:20 p in
  Alcotest.(check bool) "agree" true (Sim.packets_agree r s);
  List.iter
    (fun (pk : Sim.packet) ->
      match List.assoc_opt (P4.Meta "out_port") pk.Sim.fields with
      | Some port -> Alcotest.(check int) "routed out port 1" 1 port
      | None -> Alcotest.fail "missing out_port")
    r.Sim.r_packets

let prop_sim_differential =
  QCheck.Test.make ~name:"scheduled execution = sequential semantics (fields)" ~count:25
    (QCheck.make QCheck.Gen.(triple gen_chain_program (int_range 1 5) small_nat))
    (fun (p, processors, seed) ->
      let cfg = Scheduler.config ~processors () in
      let r = Sim.run ~seed ~cfg ~entries:[] ~packets:60 p in
      let s = Sim.run_sequential ~seed ~entries:[] ~packets:60 p in
      Sim.packets_agree r s)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "drmt"
    [
      ( "p4",
        [
          Alcotest.test_case "structure" `Quick test_parse_structure;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "read/write sets" `Quick test_read_write_sets;
        ] );
      ( "dag",
        [
          Alcotest.test_case "shape" `Quick test_dag_shape;
          Alcotest.test_case "match dependency" `Quick test_dag_match_dependency;
          Alcotest.test_case "independent tables" `Quick test_dag_independent_tables;
          Alcotest.test_case "find cycle" `Quick test_dag_find_cycle;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "valid across configs" `Quick test_schedule_valid_l2l3;
          Alcotest.test_case "capacity forces stagger" `Quick test_capacity_forces_stagger;
          Alcotest.test_case "empty dag" `Quick test_schedule_empty_dag;
          Alcotest.test_case "single processor" `Quick test_schedule_single_processor;
          Alcotest.test_case "infeasible" `Quick test_schedule_infeasible;
        ]
        @ qsuite [ prop_scheduler_always_valid; prop_schedule_respects_critical_path ] );
      ( "entries",
        [
          Alcotest.test_case "parse" `Quick test_entries_parse;
          Alcotest.test_case "parse errors" `Quick test_entries_parse_errors;
          Alcotest.test_case "lpm longest prefix" `Quick test_lpm_longest_prefix;
          Alcotest.test_case "lpm shorter fallback" `Quick test_lpm_fallback_shorter_prefix;
          Alcotest.test_case "ternary priority" `Quick test_ternary_priority;
          Alcotest.test_case "exact miss" `Quick test_exact_miss;
          Alcotest.test_case "print/parse roundtrip" `Quick test_entries_roundtrip;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "matches sequential" `Quick test_sim_matches_sequential;
          Alcotest.test_case "respects capacity" `Quick test_sim_respects_capacity;
          Alcotest.test_case "throughput" `Quick test_sim_throughput;
          Alcotest.test_case "register effects" `Quick test_sim_register_effects;
          Alcotest.test_case "ttl decrement via lpm" `Quick test_sim_ttl_decrement;
        ]
        @ qsuite [ prop_sim_differential ] );
    ]
