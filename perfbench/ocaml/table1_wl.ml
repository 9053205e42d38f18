(* Workload table1: the paper's Table 1 through [Table1.run] on the default
   backend (closures, batched): 12 programs x 3 optimisation levels, long
   PHV streams, a steady-state tick loop with no per-operation set-up — the
   opposite of campaign-mixed.  One operation is one (program, level) row
   simulation; one pass is all 36. *)

module Prng = Druzhba_util.Prng
module Ir = Druzhba_pipeline.Ir
module Compile = Druzhba_pipeline.Compile
module Optimizer = Druzhba_optimizer.Optimizer
module Spec = Druzhba_spec.Spec
module Codegen = Druzhba_compiler.Codegen
module Substrate = Druzhba_dsim.Substrate
module Native_substrate = Druzhba_dsim.Native_substrate
module Trace = Druzhba_dsim.Trace
module Traffic = Druzhba_dsim.Traffic
module Oracle = Druzhba_campaign.Oracle
module Table1 = Druzhba_experiments.Table1

open Common

let phvs = 5_000 (* per row, untraced *)
let traced_phvs = 4_000
let check_phvs = 256

type fixture = {
  name : string;
  width : int;
  mc : Druzhba_machine_code.Machine_code.t;
  init : (string * int array) list;
  descs : (string * Ir.t) list; (* per level, in Catalog.levels order *)
}

let fixture (bm : Spec.benchmark) =
  let c = Spec.compile_exn bm in
  let mc = c.Codegen.c_mc and desc = c.Codegen.c_desc in
  let scc = Optimizer.scc_propagate ~mc desc in
  {
    name = bm.Spec.bm_name;
    width = bm.Spec.bm_width;
    mc;
    init = c.Codegen.c_layout.Codegen.l_init;
    descs = [ ("unopt", desc); ("scc", scc); ("scc_inline", Optimizer.inline_functions scc) ];
  }

(* What [Table1.run] does before its timers start: compile every program,
   optimise it, and build and vectorise the default backend per level. *)
let setup () =
  let fixtures = List.map fixture Spec.all in
  List.iter
    (fun f ->
      List.iter
        (fun (_, d) ->
          let sub = Substrate.of_compiled ~init:f.init (Compile.compile d ~mc:f.mc) in
          let buf = Trace.Buffer.create ~width:f.width ~capacity:1 in
          Substrate.run_batch_into sub ~inputs:[] buf)
        f.descs)
    fixtures;
  fixtures

let inputs f ~seed n = Traffic.phvs (Traffic.create ~seed ~width:f.width ~bits:32) n

(* The interpreter's trace of [inputs] on the unoptimised description: the
   reference every tier and level is diffed against. *)
let reference f ~inputs =
  let sub = Substrate.of_engine ~init:f.init (List.assoc "unopt" f.descs) ~mc:f.mc in
  let buf = Trace.Buffer.create ~width:f.width ~capacity:(List.length inputs) in
  Substrate.run_into sub ~inputs buf;
  (buf, Substrate.current_state sub)

let agrees (ref_buf, ref_state) sub act_buf =
  Oracle.diff_runs ~ref_buf ~ref_state ~act_buf ~act_state:(Substrate.current_state sub) = None

(* The traced pass: every executor tier on every row, each build and run
   timed on its own; the default path is closures_batch. *)
let traced run fixtures ~seed ~work =
  Unix.putenv "DRUZHBA_NATIVE_CACHE_DIR" (fresh_dir ~work "native-table1");
  Native_substrate.clear_memo ();
  let builds = Hashtbl.create 4 and disagreements = ref [] in
  let alloc = ref 0. and alloc_phvs = ref 0 in
  List.iter
    (fun f ->
      let inputs = inputs f ~seed traced_phvs in
      let expected = reference f ~inputs in
      List.iter
        (fun (level, d) ->
          let build backend make =
            let sub, dt = timed make in
            bump builds backend dt;
            sub
          in
          let interp = build "interpreter" (fun () -> Substrate.of_engine ~init:f.init d ~mc:f.mc) in
          let closures =
            build "compiled" (fun () ->
                let sub = Substrate.of_compiled ~init:f.init (Compile.compile d ~mc:f.mc) in
                Substrate.run_batch_into sub ~inputs:[]
                  (Trace.Buffer.create ~width:f.width ~capacity:1);
                sub)
          in
          let native =
            build "native" (fun () ->
                match Native_substrate.create ~init:f.init d ~mc:f.mc with
                | Ok sub -> sub
                | Error e -> failwith e)
          in
          let buf = Trace.Buffer.create ~width:f.width ~capacity:traced_phvs in
          let tier name sub ~batched =
            let a0 = Gc.allocated_bytes () in
            let (), dt =
              timed (fun () ->
                  if batched then Substrate.run_batch_into sub ~inputs buf
                  else Substrate.run_into sub ~inputs buf)
            in
            (* allocation of the default path's steady state *)
            if name = "closures_batch" then begin
              alloc := !alloc +. (Gc.allocated_bytes () -. a0);
              alloc_phvs := !alloc_phvs + traced_phvs
            end;
            Catalog.add_layer run
              (Printf.sprintf "dsim.%s.%s.ns_per_phv" name level)
              (dt *. 1e9 /. float_of_int traced_phvs);
            if not (agrees expected sub buf) then
              disagreements := Printf.sprintf "%s %s %s" f.name level name :: !disagreements
          in
          tier "interpreter" interp ~batched:false;
          tier "closures_seq" closures ~batched:false;
          tier "closures_batch" closures ~batched:true;
          tier "native_seq" native ~batched:false;
          tier "native_batch" native ~batched:true)
        f.descs)
    fixtures;
  check run "every executor tier agrees with the interpreter" (!disagreements = [])
    (String.concat ", " !disagreements);
  Catalog.add_layer run "dsim.bytes_per_phv" (!alloc /. float_of_int !alloc_phvs);
  List.iter
    (fun backend ->
      Catalog.add_layer run ("table1.build_ms." ^ backend) (ms (get builds backend)))
    [ "interpreter"; "compiled"; "native" ]

let run run ~seed ~seconds ~trace ~work =
  let fixtures = setup () in
  (* output check: every row on the default backend agrees with the
     interpreter trace on a check input *)
  List.iter
    (fun f ->
      let inputs = inputs f ~seed:(Prng.derive seed 0) check_phvs in
      let expected = reference f ~inputs in
      List.iter
        (fun (level, d) ->
          let sub = Substrate.of_compiled ~init:f.init (Compile.compile d ~mc:f.mc) in
          let buf = Trace.Buffer.create ~width:f.width ~capacity:check_phvs in
          Substrate.run_batch_into sub ~inputs buf;
          check run (Printf.sprintf "%s %s agrees with the interpreter" f.name level)
            (agrees expected sub buf) "output trace differs")
        f.descs)
    fixtures;
  let deadline = now () +. seconds in
  let pass = ref 0 and all_phvs = ref 0 and all_ms = ref 0. in
  while !pass = 0 || now () < deadline do
    let rows = Table1.run ~phvs ~seed:(Prng.derive seed (!pass + 1)) ~mode:"compiled" () in
    let total = ref 0. in
    List.iter
      (fun (r : Table1.row) ->
        List.iter
          (fun (view, row_ms) ->
            op run ~ok:(Float.is_finite row_ms && row_ms > 0.);
            total := !total +. row_ms;
            Catalog.add_e2e run "op_mean_ms" row_ms;
            Catalog.add_e2e run "op_tail_ms" row_ms;
            Catalog.add_view run view (row_ms *. 1e6 /. float_of_int phvs))
          [
            ("table1.unopt_ns_per_phv", r.Table1.row_unopt_ms);
            ("table1.scc_ns_per_phv", r.Table1.row_scc_ms);
            ("table1.scc_inline_ns_per_phv", r.Table1.row_inline_ms);
          ])
      rows;
    all_phvs := !all_phvs + (phvs * 3 * List.length rows);
    all_ms := !all_ms +. !total;
    if !pass = 0 then Catalog.add_e2e run "peak_rss_mb" (peak_rss_mb ());
    incr pass
  done;
  Catalog.add_e2e run "ops_per_s" (float_of_int !all_phvs /. (!all_ms /. 1000.));
  if trace then begin
    Catalog.declare_layers run;
    traced run fixtures ~seed ~work
  end
