(* RMT dsim on the reference interpreter (§3.3).

   The interpreter executor: it resolves the pipeline description once,
   against its machine code, into an {!Interp} context, and supplies the
   {!Driver} with a stage function over that context and with its state
   vectors.  The driver owns the tick semantics (register file, occupancy,
   budget, preload, fault overlay); this module only executes one stage.

   A stage allocates nothing: each stage owns a preallocated output-mux
   argument scratch buffer, each stateful ALU a latched read-half scratch,
   and the interpreter's frames live on its context's preallocated stack. *)

module Ir = Druzhba_pipeline.Ir
module Interp = Druzhba_pipeline.Interp

type t = { ctx : Interp.ctx; driver : Driver.t }

let no_state : int array = [||]

(* Executes stage [rs] on the PHV in row s of [cur], writing the outgoing
   PHV into row s+1 of [nxt]: run all stateless and stateful ALUs on the
   read half (copied into [phv], so the ALUs see a plain width-sized PHV),
   then let each output mux pick the value written to its container.  Fills
   the stage's scratch [args] buffer by index — no lists, no intermediate
   arrays.  Copies are loops: a row of a few containers costs less than an
   [Array.blit] call. *)
let exec_stage ctx (rs : Interp.stage) ~phv ~args ~state ~snapshots s cur nxt =
  let width = Array.length phv in
  let src = s * width in
  for c = 0 to width - 1 do
    Array.unsafe_set phv c cur.(src + c)
  done;
  let stateless = rs.Interp.st_stateless and stateful = rs.Interp.st_stateful in
  let nsl = Array.length stateless and nsf = Array.length stateful in
  for i = 0 to nsl - 1 do
    args.(i) <- Interp.run_alu_into ctx stateless.(i) ~phv ~state:no_state ~snapshot:no_state
  done;
  for j = 0 to nsf - 1 do
    args.(nsl + j) <- Interp.run_alu_into ctx stateful.(j) ~phv ~state:state.(j) ~snapshot:snapshots.(j)
  done;
  (* Post-execution state_0 of each stateful ALU ("write half" of the state
     datapath), also selectable by the output muxes. *)
  for j = 0 to nsf - 1 do
    args.(nsl + nsf + j) <- state.(j).(0)
  done;
  let n = nsl + (2 * nsf) + 1 in
  let dst = (s + 1) * width in
  for c = 0 to width - 1 do
    args.(n - 1) <- phv.(c);
    nxt.(dst + c) <- Interp.run_mux ctx rs.Interp.st_muxes.(c) ~args ~n_args:n
  done

(* [init] optionally preloads stateful-ALU state vectors (keyed by ALU
   name), modelling control-plane register initialization.  The description
   is resolved here, once; its errors (unknown helpers, unbound variables,
   missing machine-code pairs) still raise at the tick that evaluates them. *)
let create ?(label = "interpreter") ?init (desc : Ir.t) ~mc =
  let ctx = Interp.ctx_of desc ~mc in
  let stages = Array.map (Interp.resolve_stage ctx) desc.Ir.d_stages in
  (* state.(s).(j) = persistent state vector of stateful ALU j in stage s;
     snapshots.(s).(j) is its preallocated latched read-half scratch *)
  let state =
    Array.map
      (fun (st : Ir.stage) ->
        Array.map (fun (a : Ir.alu) -> Array.make (max 1 a.Ir.a_state_size) 0) st.Ir.s_stateful)
      desc.Ir.d_stages
  in
  let snapshots = Array.map (Array.map (fun v -> Array.make (Array.length v) 0)) state in
  (* args.(s): stage s's output-mux argument scratch,
     [stateless outs; stateful outs; new state_0s; old container value] *)
  let args =
    Array.map
      (fun (st : Ir.stage) ->
        Array.make (Array.length st.Ir.s_stateless + (2 * Array.length st.Ir.s_stateful) + 1) 0)
      desc.Ir.d_stages
  in
  let phv = Array.make desc.Ir.d_width 0 in
  let exec s cur nxt =
    exec_stage ctx stages.(s) ~phv ~args:args.(s) ~state:state.(s) ~snapshots:snapshots.(s) s cur
      nxt
  in
  let named =
    Array.mapi
      (fun s (st : Ir.stage) ->
        Array.mapi (fun j (a : Ir.alu) -> (a.Ir.a_name, state.(s).(j))) st.Ir.s_stateful)
      desc.Ir.d_stages
  in
  { ctx; driver = Driver.create ~label ?init ~width:desc.Ir.d_width ~exec named }

(* Installs (or clears) a structural-coverage probe on the engine's
   interpreter context.  The campaign's coverage replay creates a fresh
   engine on the unoptimized description, instruments it, and runs the
   trial's inputs once more — the differential hot path never sees a
   probe. *)
let instrument t probe = Interp.set_probe t.ctx probe
