(* dRMT execution substrates (paper §4).

   Adapts the event-driven dRMT model ({!Druzhba_drmt.Sim.replay_event})
   and its sequential P4 reference semantics ({!Sim.replay_sequential}) to
   the {!Substrate} trace contract, so the differential machinery built for
   the RMT engines — oracle, campaigns, fault injection, budgets, golden
   traces — drives the match-action side of the paper too.

   A substrate prepares its program once ({!Sim.prepare}: slots, register
   indices, per-table entries and, in event mode, the validated schedule)
   and owns one {!Sim.machine}: the packet rows, table selections and
   register file every run re-arms, so a steady-state run allocates nothing
   per packet.

   The trace mapping: a PHV container per packet field, laid out as

     [header fields (declaration order) ; meta fields (sorted) ; drop flag]

   which is also the head of the packet's row in the machine.  An input PHV
   initializes one packet's fields (values masked to each field's declared
   width); the output row is the packet's final fields plus its drop flag.
   Registers — dRMT's global stateful tables — surface through
   [current_state]/[load_state] as single-slot vectors, keyed by register
   name; a register preloaded twice keeps its first binding.

   Determinism: [traffic] derives a per-packet PRNG stream from
   (seed, packet id) via {!Prng.derive}, exactly like {!Sim.run}, so one
   campaign seed replays any single packet of a dRMT trial.

   Faults: this substrate has no per-stage stateful-ALU geometry, so the
   stuck-at class does not apply; fault plans act on the input path only
   ({!Faults.overlay_inputs}: bit flips at injection, dropped slots).

   Budget: one unit of fuel per scheduled (packet, node) event in event
   mode, one per (packet, table) step in sequential mode. *)

module P4 = Druzhba_drmt.P4
module Scheduler = Druzhba_drmt.Scheduler
module Sim = Druzhba_drmt.Sim
module Prng = Druzhba_util.Prng
module Value = Druzhba_util.Value

type mode = Event | Sequential

type t = {
  label : string;
  mode : mode;
  prog : Sim.program;
  machine : Sim.machine;
  mutable preload : int array; (* register file installed by load_state *)
  state : int array; (* register file after the last run/step *)
  mutable last_in : Phv.t option; (* debugger boundaries *)
  mutable last_out : Phv.t option;
  mutable on_hits : ((string * int) list -> unit) option;
      (* coverage observer: sees the table hits of every [run_into] *)
}

let mode_name = function Event -> "event" | Sequential -> "sequential"

(* @raise Scheduler.Infeasible in event mode when no valid schedule exists
   for [cfg]: an unschedulable program surfaces at construction, not at
   the first run. *)
let create ?label ?(cfg = Scheduler.config ()) ~mode ~entries (p : P4.t) : t =
  let prog =
    match mode with
    | Event -> Sim.prepare ~cfg ~entries p
    | Sequential -> Sim.prepare ~entries p
  in
  let label = match label with Some l -> l | None -> "drmt@" ^ mode_name mode in
  let regs = Array.length prog.Sim.registers in
  {
    label;
    mode;
    prog;
    machine = Sim.machine prog;
    preload = Array.make regs 0;
    state = Array.make regs 0;
    last_in = None;
    last_out = None;
    on_hits = None;
  }

(* Installs (or clears) a table-hit observer; the campaign's coverage replay
   uses it to read which tables matched an installed entry. *)
let observe t on_hits = t.on_hits <- on_hits

let width t = Sim.drop_slot t.prog + 1

(* Writes one input PHV into a packet row: each container's field, masked
   to its width; containers past the PHV's end read 0. *)
let fill t row (phv : Phv.t) =
  let prog = t.prog in
  for c = 0 to Array.length prog.Sim.layout - 1 do
    row.(prog.Sim.slots.(c)) <-
      (if c < Array.length phv then Value.mask prog.Sim.widths.(c) phv.(c) else 0)
  done

(* --- Substrate implementation ------------------------------------------------ *)

module M = struct
  type nonrec t = t

  let name t = t.label
  let width = width

  let load_state t init =
    t.preload <-
      Sim.register_file t.prog
        (List.map (fun (n, vec) -> (n, if Array.length vec > 0 then vec.(0) else 0)) init);
    Array.blit t.preload 0 t.state 0 (Array.length t.state)

  let run_into ?budget ?faults t ~inputs (buf : Trace.Buffer.t) =
    let inputs =
      match faults with None -> inputs | Some plan -> Faults.overlay_inputs plan inputs
    in
    let m = t.machine in
    Sim.arm m ~packets:(List.length inputs) ~registers:t.preload;
    List.iteri (fun i phv -> fill t m.Sim.rows.(i) phv) inputs;
    let spend = Option.map (fun b () -> Budget.spend b) budget in
    (match t.mode with
    | Event -> Sim.replay_event ?spend m
    | Sequential -> Sim.replay_sequential ?spend m);
    (match t.on_hits with Some f -> f (Sim.table_hits m) | None -> ());
    Array.blit m.Sim.regs 0 t.state 0 (Array.length t.state);
    Trace.Buffer.clear buf;
    for i = 0 to m.Sim.n - 1 do
      Trace.Buffer.push buf m.Sim.rows.(i) ~off:0
    done

  let current_state t =
    Array.to_list (Array.mapi (fun k name -> (name, [| t.state.(k) |])) t.prog.Sim.registers)

  (* Debugger-grade stepping: one packet per tick, run to completion under
     the sequential reference semantics, registers persisting across steps.
     (Event-mode interleaving has no per-tick PHV boundary to expose — a
     packet's nodes spread over many cycles — so stepping is defined on the
     reference semantics for both modes.) *)
  let step t ~input =
    match input with
    | None ->
      t.last_in <- None;
      t.last_out <- None;
      None
    | Some phv ->
      let m = t.machine in
      Sim.arm m ~packets:1 ~registers:t.state;
      fill t m.Sim.rows.(0) phv;
      Sim.replay_sequential m;
      Array.blit m.Sim.regs 0 t.state 0 (Array.length t.state);
      let row = Array.sub m.Sim.rows.(0) 0 (width t) in
      t.last_in <- Some (Array.copy phv);
      t.last_out <- Some row;
      Some (Array.copy row)

  (* Two boundaries: the last injected PHV and the last completed packet. *)
  let boundaries t = [| t.last_in; t.last_out |]
end

let pack (t : t) : Substrate.packed = Substrate.Packed ((module M), t)

(* [of_p4 ?label ?cfg ~mode ~entries p] builds and packs a dRMT substrate.
   @raise Scheduler.Infeasible in event mode when no valid schedule exists
   for [cfg]. *)
let of_p4 ?label ?cfg ~mode ~entries p : Substrate.packed =
  pack (create ?label ?cfg ~mode ~entries p)

(* --- Traffic ------------------------------------------------------------------ *)

(* [traffic ~seed t n] draws [n] input PHVs, packet [k] from the derived
   stream (seed, k) — byte-for-byte the field values {!Sim.run} draws, so
   substrate-fed runs replay [Sim.run ~seed] exactly.  Meta fields and the
   drop flag start at 0. *)
let traffic ~seed t n : Phv.t list =
  let prog = t.prog in
  List.init n (fun k ->
      let prng = Prng.create (Prng.derive seed k) in
      Array.init (width t) (fun c ->
          if c < prog.Sim.headers then Prng.bits prng prog.Sim.widths.(c) else 0))
