(* dsim over closure-compiled pipeline descriptions (see
   {!Druzhba_pipeline.Compile}).  Semantics are identical to {!Engine}; only
   the execution substrate differs — this is the configuration the
   benchmarks use, mirroring the paper's rustc-compiled pipeline
   descriptions.

   Like {!Engine}, the register file is a double-buffered flat
   (depth+1) x width int array with an occupancy bitmask, and every stage
   owns a preallocated output-mux argument scratch buffer.  Because the ALU
   bodies and muxes are compiled closures over int arrays, the steady-state
   tick path allocates nothing at all: Table 1 throughput is bounded by the
   ALU arithmetic, not the GC. *)

module Ir = Druzhba_pipeline.Ir
module Compile = Druzhba_pipeline.Compile
module Machine_code = Druzhba_machine_code.Machine_code

type t = {
  compiled : Compile.t;
  depth : int;
  width : int;
  (* Ping-pong register file: row s of [cur] = PHV at the input of stage s
     as of the start of the tick; row depth = PHV that exited last tick. *)
  mutable cur : int array;
  mutable nxt : int array;
  mutable occ : int; (* occupancy bitmask over the rows of [cur] *)
  phv_scratch : int array; (* stage-input view handed to the compiled ALUs *)
  (* args.(s): per-stage output-mux argument scratch,
     [stateless outs; stateful outs; new state_0s; old container value]. *)
  args : int array array;
  mutable tick : int;
}

let create (compiled : Compile.t) =
  let depth = compiled.Compile.c_depth and width = compiled.Compile.c_width in
  if depth + 1 >= Sys.int_size then
    invalid_arg "Compiled.create: pipeline depth exceeds the occupancy bitmask";
  let args =
    Array.map
      (fun (cs : Compile.compiled_stage) ->
        Array.make
          (Array.length cs.Compile.cs_stateless + (2 * Array.length cs.Compile.cs_stateful) + 1)
          0)
      compiled.Compile.c_stages
  in
  {
    compiled;
    depth;
    width;
    cur = Array.make ((depth + 1) * width) 0;
    nxt = Array.make ((depth + 1) * width) 0;
    occ = 0;
    phv_scratch = Array.make width 0;
    args;
    tick = 0;
  }

(* Executes stage [s] on the PHV in row s of [cur], writing the outgoing PHV
   into row s+1 of [nxt]. *)
let exec_stage t (cs : Compile.compiled_stage) s =
  let width = t.width in
  Array.blit t.cur (s * width) t.phv_scratch 0 width;
  let phv = t.phv_scratch in
  let args = t.args.(s) in
  let stateless = cs.Compile.cs_stateless and stateful = cs.Compile.cs_stateful in
  let nsl = Array.length stateless and nsf = Array.length stateful in
  for i = 0 to nsl - 1 do
    let alu = Array.unsafe_get stateless i in
    alu.Compile.ca_env.Compile.phv <- phv;
    args.(i) <- alu.Compile.ca_run ()
  done;
  for j = 0 to nsf - 1 do
    let alu = Array.unsafe_get stateful j in
    alu.Compile.ca_env.Compile.phv <- phv;
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
    t.nxt.(dst + c) <- (Array.unsafe_get muxes c) args
  done

(* Advances the pipeline by one tick; see {!Engine.tick_once} for the
   ping-pong/occupancy scheme (identical here). *)
let tick_once t =
  let depth = t.depth and width = t.width in
  let occ = t.occ in
  let new_occ = ref 0 in
  let stages = t.compiled.Compile.c_stages in
  for s = 0 to depth - 1 do
    if occ land (1 lsl s) <> 0 then begin
      exec_stage t (Array.unsafe_get stages s) s;
      new_occ := !new_occ lor (1 lsl (s + 1))
    end
  done;
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

let step t ~input =
  (match input with Some phv -> inject t phv | None -> no_inject t);
  if tick_once t then Some (Array.sub t.cur (t.depth * t.width) t.width) else None

(* The PHV at each stage boundary (fresh copies); see {!Engine.boundaries}.
   Index s = input of stage s, index depth = the PHV that exited on the last
   tick — the register-file view the time-travel debugger snapshots. *)
let boundaries t : Phv.t option array =
  Array.init (t.depth + 1) (fun s ->
      if t.occ land (1 lsl s) <> 0 then Some (Array.sub t.cur (s * t.width) t.width) else None)

let current_state t =
  Array.to_list t.compiled.Compile.c_stages
  |> List.concat_map (fun (cs : Compile.compiled_stage) ->
         Array.to_list cs.Compile.cs_stateful
         |> List.map (fun (alu : Compile.compiled_alu) ->
                (alu.Compile.ca_name, Array.copy alu.Compile.ca_env.Compile.state)))

(* Zeroes all persistent ALU state, so a compiled pipeline can be reused for
   independent simulations (e.g. benchmark iterations). *)
let reset (compiled : Compile.t) =
  Array.iter
    (fun (cs : Compile.compiled_stage) ->
      Array.iter
        (fun (alu : Compile.compiled_alu) ->
          Array.fill alu.Compile.ca_env.Compile.state 0
            (Array.length alu.Compile.ca_env.Compile.state)
            0)
        cs.Compile.cs_stateful)
    compiled.Compile.c_stages

(* Preloads stateful-ALU state vectors (keyed by ALU name), modelling
   control-plane register initialization.  The init list is indexed into a
   hash table once instead of an assoc scan per ALU. *)
let load_state (compiled : Compile.t) init =
  match init with
  | [] -> ()
  | _ ->
    let tbl = Hashtbl.create (max 16 (List.length init)) in
    (* first binding wins, like List.assoc on the original init list *)
    List.iter
      (fun (name, values) -> if not (Hashtbl.mem tbl name) then Hashtbl.add tbl name values)
      init;
    Array.iter
      (fun (cs : Compile.compiled_stage) ->
        Array.iter
          (fun (alu : Compile.compiled_alu) ->
            match Hashtbl.find_opt tbl alu.Compile.ca_name with
            | Some values ->
              let vec = alu.Compile.ca_env.Compile.state in
              Array.blit values 0 vec 0 (min (Array.length values) (Array.length vec))
            | None -> ())
          cs.Compile.cs_stateful)
      compiled.Compile.c_stages

(* The steady-state hot path: re-arms the engine (zeroed or [init]-preloaded
   state, empty register file), feeds [inputs] one per tick, drains, and
   blits each exiting PHV into [buf] (cleared first).  With a presized
   buffer, nothing is allocated per PHV.  Final state is read separately via
   {!current_state}. *)
let run_into ?(init = []) ?budget t ~inputs (buf : Trace.Buffer.t) =
  reset t.compiled;
  load_state t.compiled init;
  t.occ <- 0;
  t.tick <- 0;
  Trace.Buffer.clear buf;
  (* one unit of fuel per tick; see {!Engine.run_into} *)
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

(* Runs a complete simulation on a pre-compiled pipeline, starting from
   all-zero (or [init]-preloaded) state. *)
let run_compiled ?(init = []) (compiled : Compile.t) ~inputs : Trace.t =
  let t = create compiled in
  let buf = Trace.Buffer.create ~width:t.width ~capacity:(List.length inputs) in
  run_into ~init t ~inputs buf;
  { Trace.inputs; outputs = Trace.Buffer.contents buf; final_state = current_state t }

(* Convenience: compile then run. *)
let run ?init (desc : Ir.t) ~mc ~inputs : Trace.t =
  run_compiled ?init (Compile.compile desc ~mc) ~inputs
