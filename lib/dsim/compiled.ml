(* RMT dsim over closure-compiled pipeline descriptions (see
   {!Druzhba_pipeline.Compile}).  Semantics are identical to {!Engine}; only
   the stage executor differs — the configuration the benchmarks use,
   mirroring the paper's rustc-compiled pipeline descriptions.

   The closures supply the {!Driver} with a stage function and with each
   compiled stateful ALU's own state vector; the driver owns the tick
   semantics.  Every stage owns a preallocated output-mux argument scratch
   buffer, and the ALU bodies and muxes are compiled closures over int
   arrays, so the steady-state tick path allocates nothing at all: Table 1
   throughput is bounded by the ALU arithmetic, not the GC. *)

module Compile = Druzhba_pipeline.Compile

(* Points [alu] at this executor's stage-input scratch.  After the first
   tick the binding already holds, and the physical-equality test skips the
   store, with its write barrier, that would otherwise run for every ALU on
   every tick; another executor over the same [Compile.t] still rebinds. *)
let bind_phv (alu : Compile.compiled_alu) phv =
  if alu.Compile.ca_env.Compile.phv != phv then alu.Compile.ca_env.Compile.phv <- phv

(* Executes stage [cs] on the PHV in row s of [cur], writing the outgoing
   PHV into row s+1 of [nxt]; [phv] is the stage-input view handed to the
   compiled ALUs and [args] the stage's output-mux argument scratch,
   [stateless outs; stateful outs; new state_0s; old container value]. *)
let exec_stage (cs : Compile.compiled_stage) ~phv ~args s cur nxt =
  let width = Array.length phv in
  let src = s * width in
  (* a loop, not [Array.blit]: copying 1-5 containers costs less than the C call *)
  for c = 0 to width - 1 do
    phv.(c) <- cur.(src + c)
  done;
  let stateless = cs.Compile.cs_stateless and stateful = cs.Compile.cs_stateful in
  let nsl = Array.length stateless and nsf = Array.length stateful in
  for i = 0 to nsl - 1 do
    let alu = Array.unsafe_get stateless i in
    bind_phv alu phv;
    args.(i) <- alu.Compile.ca_run ()
  done;
  for j = 0 to nsf - 1 do
    let alu = Array.unsafe_get stateful j in
    bind_phv alu phv;
    args.(nsl + j) <- alu.Compile.ca_run ()
  done;
  (* post-execution state_0 ("write half"), selectable by the muxes *)
  for j = 0 to nsf - 1 do
    args.(nsl + nsf + j) <- (Array.unsafe_get stateful j).Compile.ca_env.Compile.state.(0)
  done;
  let n = nsl + (2 * nsf) + 1 in
  let muxes = cs.Compile.cs_output_muxes in
  let dst = (s + 1) * width in
  for c = 0 to width - 1 do
    args.(n - 1) <- phv.(c);
    nxt.(dst + c) <- (Array.unsafe_get muxes c) args
  done

(* A driver over [compiled], starting from all-zero (or [init]-preloaded)
   state.  The state lives in the compiled ALUs, so two drivers over one
   [Compile.t] share it. *)
let create ?(label = "compiled") ?init (compiled : Compile.t) =
  let stages = compiled.Compile.c_stages in
  let args =
    Array.map
      (fun (cs : Compile.compiled_stage) ->
        Array.make
          (Array.length cs.Compile.cs_stateless + (2 * Array.length cs.Compile.cs_stateful) + 1)
          0)
      stages
  in
  let phv = Array.make compiled.Compile.c_width 0 in
  let exec s cur nxt =
    exec_stage (Array.unsafe_get stages s) ~phv ~args:(Array.unsafe_get args s) s cur nxt
  in
  let named =
    Array.map
      (fun (cs : Compile.compiled_stage) ->
        Array.map
          (fun (alu : Compile.compiled_alu) ->
            (alu.Compile.ca_name, alu.Compile.ca_env.Compile.state))
          cs.Compile.cs_stateful)
      stages
  in
  Driver.create ~label ?init ~width:compiled.Compile.c_width ~exec named
