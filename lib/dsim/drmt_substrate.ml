(* dRMT execution substrates (paper §4).

   Adapts the event-driven dRMT model ({!Druzhba_drmt.Sim.run_packets}) and
   its sequential P4 reference semantics ({!Sim.run_sequential_packets}) to
   the {!Substrate} trace contract, so the differential machinery built for
   the RMT engines — oracle, campaigns, fault injection, budgets, golden
   traces — drives the match-action side of the paper too.

   The trace mapping: a PHV container per packet field, laid out as

     [header fields (declaration order) ; meta fields (sorted) ; drop flag]

   An input PHV initializes one packet's fields (values masked to each
   field's declared width); the output row is the packet's final fields
   plus its drop flag.  Registers — dRMT's global stateful tables — surface
   through [current_state]/[load_state] as single-slot vectors, keyed by
   register name.

   Determinism: [traffic] derives a per-packet PRNG stream from
   (seed, packet id) via {!Prng.derive}, exactly like {!Sim.random_packet},
   so one campaign seed replays any single packet of a dRMT trial.

   Faults: this substrate has no per-stage stateful-ALU geometry, so the
   stuck-at class does not apply; fault plans act on the input path only
   ({!Faults.overlay_inputs}: bit flips at injection, dropped slots).

   Budget: one unit of fuel per scheduled (packet, node) event in event
   mode, one per (packet, table) step in sequential mode. *)

module P4 = Druzhba_drmt.P4
module Dag = Druzhba_drmt.Dag
module Scheduler = Druzhba_drmt.Scheduler
module Entries = Druzhba_drmt.Entries
module Sim = Druzhba_drmt.Sim
module Prng = Druzhba_util.Prng
module Value = Druzhba_util.Value

type mode = Event | Sequential

type t = {
  label : string;
  p4 : P4.t;
  entries : Entries.entry list;
  cfg : Scheduler.config;
  mode : mode;
  layout : P4.field_ref array; (* container c < n_fields -> field; container n_fields = drop flag *)
  widths : int array; (* declared bit width per layout slot *)
  mutable init : (string * int) list; (* register preload installed by load_state *)
  mutable regs : (string * int) list; (* register file after the last run/step *)
  mutable last_in : Phv.t option; (* debugger boundaries *)
  mutable last_out : Phv.t option;
  mutable on_result : (Sim.result -> unit) option;
      (* coverage observer: sees the raw simulator result (per-table hit
         stats included) of every [run_into] before it is folded to a trace *)
}

let field_refs (p : P4.t) =
  let acc = ref [] in
  let note r = acc := r :: !acc in
  List.iter
    (fun (a : P4.action) ->
      List.iter note (P4.action_reads a);
      List.iter note (P4.action_writes a))
    p.P4.actions;
  List.iter (fun (tbl : P4.table) -> note tbl.P4.t_key) p.P4.tables;
  !acc

let meta_fields p =
  field_refs p
  |> List.filter_map (function P4.Meta m -> Some m | _ -> None)
  |> List.sort_uniq String.compare
  |> List.map (fun m -> P4.Meta m)

let register_names p =
  field_refs p
  |> List.filter_map (function P4.Reg r -> Some r | _ -> None)
  |> List.sort_uniq String.compare

let mode_name = function Event -> "event" | Sequential -> "sequential"

let create ?label ?(cfg = Scheduler.config ()) ~mode ~entries (p : P4.t) : t =
  (* surface an unschedulable program at construction time, not first run *)
  (match mode with
  | Event -> ignore (Scheduler.schedule cfg (Dag.build p))
  | Sequential -> ());
  let layout =
    Array.of_list (List.map fst (P4.packet_fields p.P4.headers) @ meta_fields p)
  in
  let widths =
    Array.map (fun r -> match P4.field_width p r with Some w -> min w 62 | None -> 32) layout
  in
  let label = match label with Some l -> l | None -> "drmt@" ^ mode_name mode in
  {
    label;
    p4 = p;
    entries;
    cfg;
    mode;
    layout;
    widths;
    init = [];
    regs = [];
    last_in = None;
    last_out = None;
    on_result = None;
  }

(* Installs (or clears) a result observer; the campaign's coverage replay
   uses it to read table-hit statistics off the sequential reference run. *)
let observe t on_result = t.on_result <- on_result

let width t = Array.length t.layout + 1

(* Container names of the trace row, for rendering golden fixtures and
   divergence reports: ["ethernet.dst"; ...; "meta.out_port"; "dropped"]. *)
let container_names t =
  Array.append
    (Array.map
       (function
         | P4.Header (h, f) -> h ^ "." ^ f
         | P4.Meta m -> "meta." ^ m
         | P4.Reg r -> "reg." ^ r)
       t.layout)
    [| "dropped" |]

let regs_of_state init =
  List.map (fun (n, vec) -> (n, if Array.length vec > 0 then vec.(0) else 0)) init

(* --- Packet <-> PHV mapping -------------------------------------------------- *)

let packet_of_phv t ~id ~arrival ~processor (phv : Phv.t) =
  let n = Array.length t.layout in
  let assignments = ref [] in
  for c = n - 1 downto 0 do
    let v = if c < Array.length phv then phv.(c) else 0 in
    assignments := (t.layout.(c), Value.mask t.widths.(c) v) :: !assignments
  done;
  Sim.packet_of_fields ~id ~arrival ~processor !assignments

let row_of_packet t (row : int array) (pk : Sim.packet) =
  Array.iteri
    (fun c r -> row.(c) <- (match Hashtbl.find_opt pk.Sim.fields r with Some v -> v | None -> 0))
    t.layout;
  row.(Array.length t.layout) <- (if pk.Sim.dropped then 1 else 0)

let run_result ?spend t (inputs : Phv.t list) : Sim.result =
  let processors = match t.mode with Event -> t.cfg.Scheduler.processors | Sequential -> 1 in
  let pks =
    List.mapi
      (fun i phv -> packet_of_phv t ~id:i ~arrival:i ~processor:(i mod processors) phv)
      inputs
  in
  match t.mode with
  | Event -> Sim.run_packets ?spend ~registers:t.init ~cfg:t.cfg ~entries:t.entries pks t.p4
  | Sequential -> Sim.run_sequential_packets ?spend ~registers:t.init ~entries:t.entries pks t.p4

(* --- Substrate implementation ------------------------------------------------ *)

module M = struct
  type nonrec t = t

  let name t = t.label
  let width = width

  let load_state t init =
    t.init <- regs_of_state init;
    t.regs <- t.init

  let run_into ?budget ?faults t ~inputs (buf : Trace.Buffer.t) =
    let inputs =
      match faults with None -> inputs | Some plan -> Faults.overlay_inputs plan inputs
    in
    let spend = match budget with None -> None | Some b -> Some (fun () -> Budget.spend b) in
    let result = run_result ?spend t inputs in
    (match t.on_result with Some f -> f result | None -> ());
    t.regs <- result.Sim.r_registers;
    Trace.Buffer.clear buf;
    let row = Array.make (width t) 0 in
    List.iter
      (fun pk ->
        row_of_packet t row pk;
        Trace.Buffer.push buf row ~off:0)
      result.Sim.r_packets

  let current_state t =
    List.map
      (fun name ->
        let v = match List.assoc_opt name t.regs with Some v -> v | None -> 0 in
        (name, [| v |]))
      (register_names t.p4)

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
      let pk = packet_of_phv t ~id:0 ~arrival:0 ~processor:0 phv in
      let result =
        Sim.run_sequential_packets ~registers:t.regs ~entries:t.entries [ pk ] t.p4
      in
      t.regs <- result.Sim.r_registers;
      let row = Array.make (width t) 0 in
      row_of_packet t row pk;
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
   stream (seed, k) — byte-for-byte the field values {!Sim.random_packet}
   would draw, so substrate-fed runs replay [Sim.run ~seed] exactly.  Meta
   fields and the drop flag start at 0. *)
let traffic ~seed t n : Phv.t list =
  let n_headers = List.length (P4.packet_fields t.p4.P4.headers) in
  List.init n (fun k ->
      let prng = Prng.create (Prng.derive seed k) in
      Array.init (width t) (fun c ->
          if c < n_headers then Prng.bits prng t.widths.(c) else 0))
