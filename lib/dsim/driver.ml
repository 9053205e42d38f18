(* RMT dsim: the one tick driver (§3.3).

   At every tick one PHV enters stage 0 and the PHVs occupying later stages
   advance exactly one stage.  The paper models each PHV as a read half and
   a write half so a stage cannot read a PHV in the same tick it was
   written; we obtain the same semantics with a double-buffered register
   file: every stage reads its input row from the buffer as it stood at the
   beginning of the tick ([cur]) and writes its output row into the other
   buffer ([nxt]), which becomes [cur] when the tick commits.  No stage can
   therefore observe a value written during its own tick, regardless of the
   order stages execute in.

   Every RMT executor — the interpreter ({!Engine}), the compiled closures
   ({!Compiled}) and a Dynlinked native module ({!Native_substrate}) —
   supplies only what {!Native_abi.plugin} describes: its persistent state
   rows, grouped by stage, and a stage function [exec s cur nxt] that runs
   stage [s] on row s of [cur] and writes row s+1 of [nxt].  This module
   owns everything else, once: the register file and its occupancy bitmask,
   the tick loop and its budget, the state preload, the fault overlay, and
   the {!Substrate.S} contract, of which it is the only RMT implementation.

   The register file is allocation-free in steady state: both buffers are
   flat preallocated (depth+1) x width int arrays, and row occupancy is a
   bitmask (bit s = a live PHV sits at the input of stage s; bit depth = a
   PHV exited on the last tick).  A tick allocates nothing as long as the
   stage function does not. *)

type t = {
  label : string;
  depth : int;
  width : int;
  exec : int -> int array -> int array -> unit;
  (* rows.(g): the executor's own state vector of stateful ALU g, counted
     stage-major; names.(g) is that ALU's name, and armed.(g) the vector
     every run starts from (zeros, or the preload of [load_state]) *)
  rows : int array array;
  names : string array;
  armed : int array array;
  (* row of (stage s, ALU j) = bases.(s) + j *)
  bases : int array;
  (* Ping-pong register file: row s of [cur] = PHV waiting at the input of
     stage s as of the start of the tick (the "read half"); row depth = PHV
     that exited the pipeline on the last tick. *)
  mutable cur : int array;
  mutable nxt : int array;
  mutable occ : int; (* occupancy bitmask over the rows of [cur] *)
}

let name t = t.label
let width t = t.width

(* Zeroes the live state, or restores the preload, and empties the
   register file. *)
let arm t =
  Array.iteri (fun g row -> Array.blit t.armed.(g) 0 row 0 (Array.length row)) t.rows;
  t.occ <- 0

(* Resolves the preload (keyed by ALU name; the first binding wins, like
   [List.assoc]) into the vectors every later run starts from, and arms the
   pipeline with it: the live state holds the preload and the register
   file is empty, so [current_state] and [step] see it at once. *)
let load_state t init =
  Array.iteri
    (fun g vec ->
      Array.fill vec 0 (Array.length vec) 0;
      match List.assoc_opt t.names.(g) init with
      | Some values -> Array.blit values 0 vec 0 (min (Array.length values) (Array.length vec))
      | None -> ())
    t.armed;
  arm t

(* [create ~label ~width ~exec stages]: [stages.(s)] lists the (name, state
   vector) of each stateful ALU of stage s; the vectors are the executor's
   own, read and written in place by [exec].  The depth is the number of
   stages. *)
let create ~label ?(init = []) ~width ~exec (stages : (string * int array) array array) =
  let depth = Array.length stages in
  if depth + 1 >= Sys.int_size then
    invalid_arg "Driver.create: pipeline depth exceeds the occupancy bitmask";
  let all = Array.concat (Array.to_list stages) in
  let bases = Array.make depth 0 in
  for s = 1 to depth - 1 do
    bases.(s) <- bases.(s - 1) + Array.length stages.(s - 1)
  done;
  let rows = Array.map snd all in
  let t =
    {
      label;
      depth;
      width;
      exec;
      rows;
      names = Array.map fst all;
      armed = Array.map (fun row -> Array.make (Array.length row) 0) rows;
      bases;
      cur = Array.make ((depth + 1) * width) 0;
      nxt = Array.make ((depth + 1) * width) 0;
      occ = 0;
    }
  in
  load_state t init;
  t

(* Advances the pipeline by one tick.  The caller has already placed the
   incoming PHV (if any) in row 0 of [cur] and set/cleared occupancy bit 0.
   Returns [true] when a PHV exits this tick (readable in row [depth] of the
   post-swap [cur]). *)
let tick_once t =
  let depth = t.depth in
  let occ = t.occ in
  let new_occ = ref 0 in
  for s = 0 to depth - 1 do
    if occ land (1 lsl s) <> 0 then begin
      t.exec s t.cur t.nxt;
      new_occ := !new_occ lor (1 lsl (s + 1))
    end
  done;
  (* Carry this tick's stage-0 input across the swap so inspection (the
     debugger's register view) still sees it; the next injection point
     overwrites or clears bit 0 before any stage runs, so it is never
     executed twice. *)
  if occ land 1 <> 0 then begin
    Array.blit t.cur 0 t.nxt 0 t.width;
    new_occ := !new_occ lor 1
  end;
  let swapped = t.cur in
  t.cur <- t.nxt;
  t.nxt <- swapped;
  t.occ <- !new_occ;
  !new_occ land (1 lsl depth) <> 0

let inject t (phv : Phv.t) =
  Array.blit phv 0 t.cur 0 t.width;
  t.occ <- t.occ lor 1

let no_inject t = t.occ <- t.occ land lnot 1

(* Forces each stuck-at slot, a (state row, slot, value) triple. *)
let hold stuck = List.iter (fun (row, slot, value) -> row.(slot) <- value) stuck

(* The steady-state hot path: re-arms the pipeline, feeds [inputs] one per
   tick, drains it, and blits each exiting PHV into [buf] (cleared first).
   With a presized buffer nothing is allocated per PHV.  Final state is
   read separately via {!current_state}.

   [budget] (if any) is spent one unit per tick; {!Budget.Exhausted}
   escapes to the caller mid-run — the per-trial watchdog of the campaign
   runner.

   [faults] overlays a {!Faults} plan: a dropped slot injects nothing,
   planned bits flip in row 0 right after injection (the caller's PHV is
   never mutated), and stuck-at slots are asserted before the first tick
   and again after every commit, so ALU writes during a tick proceed and
   are overwritten.  A run re-arms from the preload whatever ran before, so
   a fault-free run after a faulted one shows no residue. *)
let run_into ?budget ?faults t ~inputs (buf : Trace.Buffer.t) =
  arm t;
  Trace.Buffer.clear buf;
  let spend = match budget with None -> ignore | Some b -> fun () -> Budget.spend b in
  let stuck =
    match faults with
    | None -> []
    | Some plan ->
      List.map
        (fun (s : Faults.stuck) ->
          let row = t.rows.(t.bases.(s.Faults.sk_stage) + s.Faults.sk_alu) in
          (row, s.Faults.sk_slot, s.Faults.sk_value))
        plan.Faults.fp_stuck
  in
  hold stuck;
  let out_off = t.depth * t.width in
  List.iteri
    (fun i phv ->
      spend ();
      (match faults with
      | None -> inject t phv
      | Some plan when Faults.dropped plan i -> no_inject t
      | Some plan ->
        inject t phv;
        Faults.apply_flips plan t.cur i);
      if tick_once t then Trace.Buffer.push buf t.cur ~off:out_off;
      hold stuck)
    inputs;
  for _ = 1 to t.depth do
    spend ();
    no_inject t;
    if tick_once t then Trace.Buffer.push buf t.cur ~off:out_off;
    hold stuck
  done

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

let current_state t = Array.to_list (Array.mapi (fun g row -> (t.names.(g), Array.copy row)) t.rows)
