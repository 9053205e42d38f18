(* RMT dsim: the feed-forward tick engine (§3.3).

   At every tick one PHV enters stage 0 and the PHVs occupying later stages
   advance exactly one stage.  The paper models each PHV as a read half and
   a write half so a stage cannot read a PHV in the same tick it was
   written; we obtain the same semantics with a double-buffered register
   file: every stage reads its input row from the buffer as it stood at the
   beginning of the tick ([cur]) and writes its output row into the other
   buffer ([nxt]), which becomes [cur] when the tick commits.  No stage can
   therefore observe a value written during its own tick, regardless of the
   order stages execute in.

   The register file is allocation-free in steady state: both buffers are
   flat preallocated (depth+1) x width int arrays, row occupancy is a
   bitmask (bit s = a live PHV sits at the input of stage s; bit depth = a
   PHV exited on the last tick), and each stage owns a preallocated
   output-mux argument scratch buffer.  A tick allocates nothing. *)

module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Interp = Druzhba_pipeline.Interp

type t = {
  desc : Ir.t;
  ctx : Interp.ctx;
  (* stages.(s): stage s of [desc] resolved against [ctx] at {!create} *)
  stages : Interp.stage array;
  depth : int;
  width : int;
  (* Ping-pong register file: row s of [cur] = PHV waiting at the input of
     stage s as of the start of the tick (the "read half"); row depth = PHV
     that exited the pipeline on the last tick. *)
  mutable cur : int array;
  mutable nxt : int array;
  mutable occ : int; (* occupancy bitmask over the rows of [cur] *)
  (* Stage-input view handed to the ALUs: row s of [cur] blitted here so
     interpreters see a plain width-sized PHV. *)
  phv_scratch : int array;
  (* args.(s): per-stage output-mux argument scratch,
     [stateless outs; stateful outs; new state_0s; old container value]. *)
  args : int array array;
  (* state.(s).(j) = persistent state vector of stateful ALU j in stage s;
     snapshots.(s).(j) is its preallocated latched read-half scratch. *)
  state : int array array array;
  snapshots : int array array array;
  mutable tick : int;
}

let init_table init =
  let tbl = Hashtbl.create (max 16 (List.length init)) in
  (* first binding wins, like List.assoc on the original init list *)
  List.iter
    (fun (name, values) -> if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name values)
    init;
  tbl

let load_init state (desc : Ir.t) init =
  match init with
  | [] -> ()
  | _ ->
    let tbl = init_table init in
    Array.iteri
      (fun s (st : Ir.stage) ->
        Array.iteri
          (fun j (a : Ir.alu) ->
            match Hashtbl.find_opt tbl a.Ir.a_name with
            | Some values ->
              let vec = state.(s).(j) in
              Array.blit values 0 vec 0 (min (Array.length values) (Array.length vec))
            | None -> ())
          st.Ir.s_stateful)
      desc.Ir.d_stages

(* [init] optionally preloads stateful-ALU state vectors (keyed by ALU
   name), modelling control-plane register initialization.  The description
   is resolved here, once; its errors (unknown helpers, unbound variables,
   missing machine-code pairs) still raise at the tick that evaluates them. *)
let create ?(init = []) (desc : Ir.t) ~mc =
  let depth = desc.Ir.d_depth in
  let width = desc.Ir.d_width in
  if depth + 1 >= Sys.int_size then
    invalid_arg "Engine.create: pipeline depth exceeds the occupancy bitmask";
  let state =
    Array.map
      (fun (st : Ir.stage) ->
        Array.map (fun (a : Ir.alu) -> Array.make (max 1 a.Ir.a_state_size) 0) st.Ir.s_stateful)
      desc.Ir.d_stages
  in
  load_init state desc init;
  let snapshots = Array.map (Array.map (fun v -> Array.make (Array.length v) 0)) state in
  let args =
    Array.map
      (fun (st : Ir.stage) ->
        Array.make
          (Array.length st.Ir.s_stateless + (2 * Array.length st.Ir.s_stateful) + 1)
          0)
      desc.Ir.d_stages
  in
  let ctx = Interp.ctx_of desc ~mc in
  {
    desc;
    ctx;
    stages = Array.map (Interp.resolve_stage ctx) desc.Ir.d_stages;
    depth;
    width;
    cur = Array.make ((depth + 1) * width) 0;
    nxt = Array.make ((depth + 1) * width) 0;
    occ = 0;
    phv_scratch = Array.make width 0;
    args;
    state;
    snapshots;
    tick = 0;
  }

(* Installs (or clears) a structural-coverage probe on the engine's
   interpreter context.  The campaign's coverage replay creates a fresh
   engine on the unoptimized description, instruments it, and runs the
   trial's inputs once more — the differential hot path never sees a
   probe. *)
let instrument t probe = Interp.set_probe t.ctx probe

(* Re-arms an engine for an independent simulation: zeroes all persistent
   ALU state (then reapplies [init]), empties the register file and resets
   the tick counter.  Lets benchmark harnesses reuse one engine across
   iterations without reallocating. *)
let reset ?(init = []) t =
  Array.iter (Array.iter (fun vec -> Array.fill vec 0 (Array.length vec) 0)) t.state;
  load_init t.state t.desc init;
  t.occ <- 0;
  t.tick <- 0

let no_state : int array = [||]

(* Executes stage [s] on the PHV in row s of [cur], writing the outgoing PHV
   into row s+1 of [nxt]: run all stateless and stateful ALUs on the read
   half, then let each output mux pick the value written to its container.
   Fills the stage's scratch [args] buffer by index — no lists, no
   intermediate arrays. *)
let exec_stage t (st : Ir.stage) s =
  let ctx = t.ctx in
  let width = t.width in
  Array.blit t.cur (s * width) t.phv_scratch 0 width;
  let phv = t.phv_scratch in
  let args = t.args.(s) in
  let rs = t.stages.(s) in
  let stateless = rs.Interp.st_stateless and stateful = rs.Interp.st_stateful in
  let nsl = Array.length stateless and nsf = Array.length stateful in
  let state = t.state.(st.Ir.s_index) and snapshots = t.snapshots.(st.Ir.s_index) in
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
    t.nxt.(dst + c) <- Interp.run_mux ctx rs.Interp.st_muxes.(c) ~args ~n_args:n
  done

(* Advances the pipeline by one tick.  The caller has already placed the
   incoming PHV (if any) in row 0 of [cur] and set/cleared occupancy bit 0.
   Returns [true] when a PHV exits this tick (readable in row [depth] of the
   post-swap [cur]). *)
let tick_once t =
  let depth = t.depth and width = t.width in
  let occ = t.occ in
  let new_occ = ref 0 in
  for s = 0 to depth - 1 do
    if occ land (1 lsl s) <> 0 then begin
      exec_stage t t.desc.Ir.d_stages.(s) s;
      new_occ := !new_occ lor (1 lsl (s + 1))
    end
  done;
  (* Carry this tick's stage-0 input across the swap so inspection (the
     debugger's register view) still sees it; the next injection point
     overwrites or clears bit 0 before any stage runs, so it is never
     executed twice. *)
  if occ land 1 <> 0 then begin
    Array.blit t.cur 0 t.nxt 0 width;
    new_occ := !new_occ lor 1
  end;
  let swapped = t.cur in
  t.cur <- t.nxt;
  t.nxt <- swapped;
  t.occ <- !new_occ;
  t.tick <- t.tick + 1;
  !new_occ land (1 lsl depth) <> 0

let inject t (phv : Phv.t) =
  Array.blit phv 0 t.cur 0 t.width;
  t.occ <- t.occ lor 1

let no_inject t = t.occ <- t.occ land lnot 1

(* Advances the pipeline by one tick.  [input] (if any) enters stage 0 and
   is executed by it this very tick (§3.3); every in-flight PHV advances
   exactly one stage.  The result is a fresh copy of the PHV exiting the
   last stage on this tick. *)
let step t ~input =
  (match input with Some phv -> inject t phv | None -> no_inject t);
  if tick_once t then Some (Array.sub t.cur (t.depth * t.width) t.width) else None

(* The PHV at each stage boundary (fresh copies): index s = input of stage
   s, index depth = the PHV that exited on the last tick.  This is the
   register-file view the time-travel debugger snapshots. *)
let boundaries t : Phv.t option array =
  Array.init (t.depth + 1) (fun s ->
      if t.occ land (1 lsl s) <> 0 then Some (Array.sub t.cur (s * t.width) t.width) else None)

let current_state t =
  let acc = ref [] in
  Array.iteri
    (fun s per_stage ->
      Array.iteri
        (fun j st ->
          let name = t.desc.Ir.d_stages.(s).Ir.s_stateful.(j).Ir.a_name in
          acc := (name, Array.copy st) :: !acc)
        per_stage)
    t.state;
  List.rev !acc

(* Feeds [inputs] one per tick, then drains the pipeline, blitting each
   exiting PHV into [buf] (cleared first).  This is the steady-state hot
   path: with a presized buffer no per-PHV allocation happens (the
   interpreter's frames live on its context's preallocated stack).  The
   engine must be fresh or [reset].  Final state is read separately via
   {!current_state}.

   [budget] (if any) is spent one unit per tick; {!Budget.Exhausted}
   escapes to the caller mid-run — the per-trial watchdog of the campaign
   runner.  The option is resolved to a closure once, outside the tick
   loop, so the unbudgeted hot path pays nothing. *)
let run_into ?budget t ~inputs (buf : Trace.Buffer.t) =
  Trace.Buffer.clear buf;
  let spend =
    match budget with None -> ignore | Some b -> fun () -> Budget.spend b
  in
  let out_off = t.depth * t.width in
  List.iter
    (fun phv ->
      spend ();
      inject t phv;
      if tick_once t then Trace.Buffer.push buf t.cur ~off:out_off)
    inputs;
  for _ = 1 to t.depth do
    spend ();
    no_inject t;
    if tick_once t then Trace.Buffer.push buf t.cur ~off:out_off
  done

(* Runs a complete simulation: feeds [inputs] one per tick, then drains the
   pipeline, returning the output trace.

   @raise Machine_code.Missing if the machine code lacks a required pair
   (only possible on the unoptimized description; optimized descriptions
   have the machine code compiled in). *)
let run ?init (desc : Ir.t) ~mc ~inputs : Trace.t =
  let t = create ?init desc ~mc in
  let buf = Trace.Buffer.create ~width:t.width ~capacity:(List.length inputs) in
  run_into t ~inputs buf;
  { Trace.inputs; outputs = Trace.Buffer.contents buf; final_state = current_state t }
