(* Quickstart: the machine model by hand.

   This example builds the smallest interesting Druzhba pipeline — one stage,
   one ALU column, using the paper's Fig. 4 If-Else-RAW atom — writes the
   machine code by hand, and watches PHVs flow through it.  It exercises the
   public API end to end without the compiler: dgen (pipeline generation from
   the ALU DSL), machine code, the optimizer, and dsim.

   Run with:  dune exec examples/quickstart.exe *)

module Druzhba = Druzhba_core.Druzhba
open Druzhba

let () =
  (* 1. The hardware specification: the Fig. 4 atom, parsed from ALU DSL
     source; one pipeline stage; one PHV container. *)
  let stateful = Atoms.find_exn "if_else_raw" in
  let stateless = Atoms.find_exn "stateless_full" in
  Fmt.pr "--- the If-Else-RAW atom (paper Fig. 4), pretty-printed ---@.%s@."
    (Alu_dsl.Printer.to_string stateful);
  let desc = Dgen.generate (Dgen.config ~depth:1 ~width:1 ()) ~stateful ~stateless in
  Fmt.pr "pipeline: depth 1, width 1 -> %d machine-code controls@.@."
    (List.length (Ir.required_names desc));

  (* 2. Machine code, written by hand.  We program the atom as the sampling
     counter: if (state == 9) state = 0 else state = state + 1, and route the
     post-update state to the output. *)
  let mc = Machine_code.empty () in
  List.iter (fun (name, _) -> Machine_code.set mc name 0) (Ir.control_domains desc);
  let sf = Names.stateful_alu ~stage:0 ~alu:0 in
  let set slot v = Machine_code.set mc (Names.slot ~alu_prefix:sf ~slot_name:slot) v in
  set "rel_op_0" 2 (* == *);
  set "opt_0" 0 (* condition LHS: state_0 *);
  set "mux3_0" 2 (* condition RHS: C() *);
  set "const_0" 9;
  set "opt_1" 1 (* then-arm: 0 + ... *);
  set "mux3_1" 2;
  set "const_1" 0 (* ... + 0 = reset *);
  set "opt_2" 0 (* else-arm: state_0 + ... *);
  set "mux3_2" 2;
  set "const_2" 1 (* ... + 1 = increment *);
  Machine_code.set mc
    (Names.output_mux ~stage:0 ~container:0)
    (Names.Select.stateful_new_state ~width:1 0);

  (* 3. Optimize: SCC propagation folds the machine code into the pipeline
     description (the paper's Fig. 6 version 1 -> version 2). *)
  let optimized = Optimizer.scc_propagate ~mc desc in
  Fmt.pr "description size: %d IR nodes unoptimized, %d after SCC propagation@.@." (Ir.size desc)
    (Ir.size optimized);

  (* 4. Simulate 25 PHVs and watch the counter wrap around. *)
  let inputs = Traffic.phvs (Traffic.create ~seed:7 ~width:1 ~bits:32) 25 in
  let trace = Substrate.run (Substrate.of_engine optimized ~mc) ~inputs in
  Fmt.pr "counter values leaving the pipeline:@.";
  List.iteri (fun i out -> Fmt.pr "%s%d" (if i = 0 then "  " else " ") out.(0)) trace.Trace.outputs;
  Fmt.pr "@.";
  List.iter
    (fun (name, state) ->
      Fmt.pr "final state of %s = [%a]@." name Fmt.(array ~sep:(any "; ") int) state)
    trace.Trace.final_state;

  (* 5. The same trace on the unoptimized description: identical behaviour,
     the optimization only changes how fast dsim gets there. *)
  let trace_v1 = Substrate.run (Substrate.of_engine desc ~mc) ~inputs in
  Fmt.pr "unoptimized description produces the same trace: %b@."
    (trace_v1.Trace.outputs = trace.Trace.outputs)
