(* dRMT dsim (paper §4.2).

   The disaggregated model: a set of match+action processors share
   centralized match+action tables through a crossbar.  At every tick the
   traffic generator emits a packet with randomly initialized fields (per the
   P4 program's header declarations); packets go to processors round robin;
   each processor runs the program to completion following the static
   schedule produced by {!Scheduler}; matches consult the table entries
   loaded from the {!Entries} configuration and actions mutate packet fields
   and the global stateful registers.

   A program is resolved once ({!prepare}) before it runs: every field
   reference becomes a slot of a packet's int row, registers become indices
   into an int register file, each table holds its own entries with argument
   arrays, and actions become primitive arrays whose parameters are indices.
   For the event-driven mode, preparation also builds and validates the
   static schedule and buckets its nodes by start time.  A {!machine} holds
   the rows a run works in, so a caller that replays one program re-arms
   them instead of allocating per packet.

   Event-driven execution ({!replay_event}): packet i arrives at cycle i on
   processor i mod P, and node n of its schedule runs at cycle
   i + time n.  The runner walks cycles in order; within a cycle it visits
   packets in id order and runs each one's nodes at that packet-relative
   time in schedule order — the order of every (packet, node) event sorted
   by (cycle, packet id) — so register accesses from overlapping packets
   interleave exactly as the hardware's timing dictates.
   {!replay_sequential} provides the P4 sequential reference semantics (one
   packet at a time) used for differential testing. *)

module Value = Druzhba_util.Value
module Prng = Druzhba_util.Prng

(* --- Prepared programs ----------------------------------------------------------- *)

(* Expressions over a packet row, the register file and the selected call's
   argument array. *)
type expr =
  | Const of int
  | Field of int * int (* row slot, bit width *)
  | Register of int (* register index *)
  | Arg of int (* action parameter index *)
  | Unbound of string (* a parameter the action does not declare: raises when read *)
  | Binop of P4.binop * expr * expr
  | Unop of P4.unop * expr

type prim =
  | Set_field of int * int * int * expr
      (* row slot, bit width, the slot's written mark (-1 for a header field), value *)
  | Set_register of int * expr
  | Drop
  | Fail of string (* a call that cannot run: unknown action or arity mismatch *)

(* What an entry (or a table's default) runs when selected. *)
type call = { body : prim array; args : int array }

type table = {
  tb_index : int; (* position in the program's table list *)
  tb_name : string;
  tb_key : expr;
  tb_key_width : int;
  tb_patterns : Entries.pattern array; (* the table's own entries, file order *)
  tb_calls : call array; (* entry k's call at k; the default at [Array.length tb_patterns] *)
}

type node = Match of table | Action of table

type schedule = {
  makespan : int;
  processors : int;
  times : int array; (* distinct packet-relative start times, latest first *)
  nodes : node array array; (* nodes starting at [times.(k)], in schedule order *)
}

(* A packet row is

     [containers ; drop flag ; others ; written marks]

   Its first [drop_slot + 1] ints are the packet's trace row.  Header
   fields are always present; a metadata or undeclared field is present
   once written, which the mark after [others] records (see {!result}). *)
type program = {
  layout : P4.field_ref array;
      (* trace containers: header fields (declaration order), then meta fields (sorted) *)
  widths : int array; (* bit width per container *)
  headers : int; (* containers [0, headers) are header fields *)
  slots : int array; (* container -> row slot; differs only for a field declared twice *)
  aliased : bool; (* some container's slot differs from its index *)
  others : P4.field_ref array; (* referenced fields outside the layout, from slot [drop_slot + 1] *)
  registers : string array; (* sorted *)
  tables : table array;
  control : table option array; (* control order; [None] for an undeclared table *)
  schedule : schedule option; (* event mode only *)
}

let drop_slot prog = Array.length prog.layout

(* Slots [0, values) hold the containers, the drop flag and [others]; the
   marks of slots [headers, values) follow them. *)
let values prog = Array.length prog.layout + 1 + Array.length prog.others
let row_length prog = (2 * values prog) - prog.headers
let mark_slot ~headers ~values slot = values + slot - headers

let field_bits (p : P4.t) r = match P4.field_width p r with Some w -> min w 62 | None -> 32

(* Every field reference an action or a table key makes. *)
let field_refs (p : P4.t) =
  List.concat_map (fun (a : P4.action) -> P4.action_reads a @ P4.action_writes a) p.P4.actions
  @ List.map (fun (t : P4.table) -> t.P4.t_key) p.P4.tables

let index_of arr x =
  let rec go k = if k = Array.length arr then -1 else if arr.(k) = x then k else go (k + 1) in
  go 0

let schedule_of cfg (p : P4.t) tables =
  let dag = Dag.build p in
  let sched = Scheduler.schedule cfg dag in
  (match Scheduler.validate dag sched with
  | [] -> ()
  | violations ->
    invalid_arg
      (Fmt.str "Drmt.Sim: scheduler produced an invalid schedule: %a"
         Fmt.(list ~sep:(any "; ") Scheduler.pp_violation)
         violations));
  (* [Dag.build] keeps only the declared control tables *)
  let table name = Option.get (Array.find_opt (fun tb -> tb.tb_name = name) tables) in
  let times =
    List.sort_uniq (fun a b -> compare b a) (List.map snd sched.Scheduler.times) |> Array.of_list
  in
  let nodes =
    Array.map
      (fun time ->
        List.filter_map
          (fun (node, t) ->
            if t <> time then None
            else
              Some
                (match node with
                | Dag.Match name -> Match (table name)
                | Dag.Action name -> Action (table name)))
          sched.Scheduler.times
        |> Array.of_list)
      times
  in
  { makespan = sched.Scheduler.makespan; processors = cfg.Scheduler.processors; times; nodes }

(* [prepare ?cfg ~entries p] resolves [p] against [entries]; with [cfg] it
   also schedules the program for the event-driven mode.  A call that
   cannot run (unknown action, arity mismatch) or an undeclared parameter
   still raises only when a packet executes it.
   @raise Scheduler.Infeasible when [cfg] admits no valid schedule. *)
let prepare ?cfg ~(entries : Entries.t) (p : P4.t) : program =
  let refs = field_refs p in
  let metas =
    List.filter_map (function P4.Meta m -> Some m | _ -> None) refs
    |> List.sort_uniq String.compare
    |> List.map (fun m -> P4.Meta m)
  in
  let header_fields = List.map fst (P4.packet_fields p.P4.headers) in
  let layout = Array.of_list (header_fields @ metas) in
  let others =
    List.filter (function P4.Header _ as r -> index_of layout r < 0 | _ -> false) refs
    |> List.sort_uniq compare |> Array.of_list
  in
  let registers =
    List.filter_map (function P4.Reg r -> Some r | _ -> None) refs
    |> List.sort_uniq String.compare |> Array.of_list
  in
  let slot r =
    match index_of layout r with
    | -1 -> Array.length layout + 1 + index_of others r
    | c -> c
  in
  let slots = Array.map slot layout in
  let headers = List.length header_fields in
  let values = Array.length layout + 1 + Array.length others in
  let rec expr params = function
    | P4.Int n -> Const (Value.mask 32 n)
    | P4.Ref (P4.Reg name) -> Register (index_of registers name)
    | P4.Ref r -> Field (slot r, field_bits p r)
    | P4.Param name -> ( match index_of params name with -1 -> Unbound name | k -> Arg k)
    | P4.Binop (op, a, b) -> Binop (op, expr params a, expr params b)
    | P4.Unop (op, a) -> Unop (op, expr params a)
  in
  let body (a : P4.action) =
    let params = Array.of_list a.P4.a_params in
    List.filter_map
      (function
        | P4.Assign (P4.Reg name, e) -> Some (Set_register (index_of registers name, expr params e))
        | P4.Assign (r, e) ->
          let s = slot r in
          let mark = if s < headers then -1 else mark_slot ~headers ~values s in
          Some (Set_field (s, field_bits p r, mark, expr params e))
        | P4.Drop -> Some Drop
        | P4.Noop -> None)
      a.P4.a_body
    |> Array.of_list
  in
  let bodies = List.map (fun a -> (a, body a)) p.P4.actions in
  let call (name, args) =
    let fail msg = { body = [| Fail msg |]; args = [||] } in
    match List.find_opt (fun ((a : P4.action), _) -> a.P4.a_name = name) bodies with
    | None -> fail (Printf.sprintf "Drmt.Sim: unknown action '%s'" name)
    | Some (a, _) when List.compare_lengths a.P4.a_params args <> 0 ->
      fail (Printf.sprintf "Drmt.Sim: action '%s' arity mismatch" name)
    | Some (_, body) -> { body; args = Array.of_list args }
  in
  let tables =
    List.mapi
      (fun tb_index (t : P4.table) ->
        let own =
          List.filter (fun (e : Entries.entry) -> e.Entries.en_table = t.P4.t_name) entries
        in
        {
          tb_index;
          tb_name = t.P4.t_name;
          tb_key = expr [||] (P4.Ref t.P4.t_key);
          tb_key_width = field_bits p t.P4.t_key;
          tb_patterns = Array.of_list (List.map (fun e -> e.Entries.en_pattern) own);
          tb_calls =
            Array.of_list
              (List.map (fun e -> call (e.Entries.en_action, e.Entries.en_args)) own
              @ [ call t.P4.t_default ]);
        })
      p.P4.tables
    |> Array.of_list
  in
  {
    layout;
    widths = Array.map (field_bits p) layout;
    headers;
    slots;
    aliased = slots <> Array.init (Array.length layout) Fun.id;
    others;
    registers;
    tables;
    control =
      Array.of_list
        (List.map (fun name -> Array.find_opt (fun tb -> tb.tb_name = name) tables) p.P4.control);
    schedule = Option.map (fun cfg -> schedule_of cfg p tables) cfg;
  }

(* The register file a preload list describes: registers the program does
   not use are ignored, unlisted ones start at 0, and a register listed
   twice keeps its first binding, as [List.assoc] reads the list. *)
let register_file prog (bindings : (string * int) list) =
  let file = Array.make (Array.length prog.registers) 0 in
  let bound = Array.make (Array.length prog.registers) false in
  List.iter
    (fun (name, v) ->
      match index_of prog.registers name with
      | k when k >= 0 && not bound.(k) ->
        bound.(k) <- true;
        file.(k) <- v
      | _ -> ())
    bindings;
  file

(* --- Machines ------------------------------------------------------------------ *)

type machine = {
  prog : program;
  mutable rows : int array array; (* packet i's row *)
  mutable sels : int array array; (* packet i's selected call per table; -1 before its match *)
  mutable n : int; (* packets armed *)
  regs : int array;
  written : bool array; (* registers written since [arm] *)
  hits : int array; (* per table: matches that hit an entry *)
  mutable matches : int;
  mutable actions : int;
  mutable cycles : int;
  mutable peak_match_per_cycle : int;
  mutable peak_action_per_cycle : int;
  mutable peak_match_per_processor : int;
  mutable peak_action_per_processor : int;
  proc_matches : int array; (* per processor: issues in the current cycle *)
  proc_actions : int array;
}

let machine prog =
  let processors = match prog.schedule with Some s -> s.processors | None -> 1 in
  let n_regs = Array.length prog.registers in
  {
    prog;
    rows = [||];
    sels = [||];
    n = 0;
    regs = Array.make n_regs 0;
    written = Array.make n_regs false;
    hits = Array.make (Array.length prog.tables) 0;
    matches = 0;
    actions = 0;
    cycles = 0;
    peak_match_per_cycle = 0;
    peak_action_per_cycle = 0;
    peak_match_per_processor = 0;
    peak_action_per_processor = 0;
    proc_matches = Array.make processors 0;
    proc_actions = Array.make processors 0;
  }

(* Re-arms [m] for a run over [packets] packets: rows zeroed (grown when
   too few), no table selected, the register file [registers] loaded,
   counters cleared.  The caller then writes each packet's fields into
   [m.rows]. *)
let arm m ~packets ~registers =
  if packets < 0 then invalid_arg "Drmt.Sim.arm: negative packet count";
  let len = row_length m.prog and n_tables = Array.length m.prog.tables in
  let have = Array.length m.rows in
  if packets > have then begin
    let grown = max packets (2 * have) in
    m.rows <- Array.init grown (fun i -> if i < have then m.rows.(i) else Array.make len 0);
    m.sels <- Array.init grown (fun i -> if i < have then m.sels.(i) else Array.make n_tables (-1))
  end;
  for i = 0 to packets - 1 do
    Array.fill m.rows.(i) 0 len 0;
    Array.fill m.sels.(i) 0 n_tables (-1)
  done;
  m.n <- packets;
  Array.blit registers 0 m.regs 0 (Array.length m.regs);
  Array.fill m.written 0 (Array.length m.written) false;
  Array.fill m.hits 0 (Array.length m.hits) 0;
  m.matches <- 0;
  m.actions <- 0;
  m.cycles <- 0;
  m.peak_match_per_cycle <- 0;
  m.peak_action_per_cycle <- 0;
  m.peak_match_per_processor <- 0;
  m.peak_action_per_processor <- 0

(* --- Evaluation ------------------------------------------------------------------ *)

(* A field read masks to the field's width; a register reads as stored,
   so a preloaded value wider than 32 bits is seen whole. *)
let rec eval row regs args = function
  | Const v -> v
  | Field (slot, bits) -> Value.mask bits row.(slot)
  | Register k -> regs.(k)
  | Arg k -> args.(k)
  | Unbound name -> invalid_arg (Printf.sprintf "Drmt.Sim: unbound action parameter '%s'" name)
  | Binop (op, a, b) -> (
    let bits = 32 in
    let x = eval row regs args a and y = eval row regs args b in
    match op with
    | P4.Add -> Value.add bits x y
    | P4.Sub -> Value.sub bits x y
    | P4.Mul -> Value.mul bits x y
    | P4.Div -> Value.div bits x y
    | P4.Mod -> Value.rem bits x y
    | P4.Eq -> Value.eq x y
    | P4.Neq -> Value.neq x y
    | P4.Lt -> Value.lt x y
    | P4.Gt -> Value.gt x y
    | P4.Le -> Value.le x y
    | P4.Ge -> Value.ge x y
    | P4.And -> Value.logical_and x y
    | P4.Or -> Value.logical_or x y)
  | Unop (P4.Neg, a) -> Value.neg 32 (eval row regs args a)
  | Unop (P4.Not, a) -> Value.logical_not (eval row regs args a)

let exec m row (c : call) =
  for k = 0 to Array.length c.body - 1 do
    match c.body.(k) with
    | Set_field (slot, bits, mark, e) ->
      row.(slot) <- Value.mask bits (eval row m.regs c.args e);
      if mark >= 0 then row.(mark) <- 1
    | Set_register (r, e) ->
      m.regs.(r) <- Value.mask 32 (eval row m.regs c.args e);
      m.written.(r) <- true
    | Drop -> row.(drop_slot m.prog) <- 1
    | Fail msg -> invalid_arg msg
  done

(* Match phase of [tb] for packet [i]: select the call the entry (or the
   default) dictates.  A later match of the same table replaces it. *)
let do_match m i tb =
  m.matches <- m.matches + 1;
  let key = eval m.rows.(i) m.regs [||] tb.tb_key in
  let sel = Entries.select tb.tb_patterns ~key_width:tb.tb_key_width key in
  m.sels.(i).(tb.tb_index) <- sel;
  if sel < Array.length tb.tb_patterns then m.hits.(tb.tb_index) <- m.hits.(tb.tb_index) + 1

let do_action m i tb =
  m.actions <- m.actions + 1;
  match m.sels.(i).(tb.tb_index) with
  | -1 -> invalid_arg (Printf.sprintf "Drmt.Sim: action before match for table '%s'" tb.tb_name)
  | sel -> exec m m.rows.(i) tb.tb_calls.(sel)

(* A field declared twice lives in its first container; copy it into the
   others so every row is a complete trace row. *)
let settle_aliases m =
  let prog = m.prog in
  if prog.aliased then
    for i = 0 to m.n - 1 do
      let row = m.rows.(i) in
      for c = 0 to Array.length prog.slots - 1 do
        row.(c) <- row.(prog.slots.(c))
      done
    done

(* --- Scheduled (dRMT) execution ------------------------------------------------- *)

(* Runs the armed packets on the static schedule.  [spend] is a fuel hook
   invoked once per (packet, node) event — callers with a tick budget
   thread [Budget.spend] through it without this library depending on the
   budget module. *)
let replay_event ?(spend = ignore) m =
  let s =
    match m.prog.schedule with
    | Some s -> s
    | None -> invalid_arg "Drmt.Sim.replay_event: program prepared without a schedule"
  in
  let n = m.n in
  for c = 0 to n - 1 + s.makespan do
    let cycle_matches = ref 0 and cycle_actions = ref 0 in
    Array.fill m.proc_matches 0 s.processors 0;
    Array.fill m.proc_actions 0 s.processors 0;
    (* latest start time first: packets in id order *)
    for k = 0 to Array.length s.times - 1 do
      let i = c - s.times.(k) in
      if i >= 0 && i < n then begin
        let q = i mod s.processors in
        let nodes = s.nodes.(k) in
        for j = 0 to Array.length nodes - 1 do
          spend ();
          match nodes.(j) with
          | Match tb ->
            incr cycle_matches;
            m.proc_matches.(q) <- m.proc_matches.(q) + 1;
            do_match m i tb
          | Action tb ->
            incr cycle_actions;
            m.proc_actions.(q) <- m.proc_actions.(q) + 1;
            do_action m i tb
        done;
        if m.proc_matches.(q) > m.peak_match_per_processor then
          m.peak_match_per_processor <- m.proc_matches.(q);
        if m.proc_actions.(q) > m.peak_action_per_processor then
          m.peak_action_per_processor <- m.proc_actions.(q)
      end
    done;
    if !cycle_matches > m.peak_match_per_cycle then m.peak_match_per_cycle <- !cycle_matches;
    if !cycle_actions > m.peak_action_per_cycle then m.peak_action_per_cycle <- !cycle_actions
  done;
  (* the last event's cycle + 1 *)
  m.cycles <- (if n = 0 || Array.length s.times = 0 then 1 else n + s.makespan);
  settle_aliases m

(* --- Sequential reference semantics ---------------------------------------------- *)

(* Runs the armed packets one at a time, tables in control order — standard
   P4 semantics, used as the golden model for differential testing of the
   scheduled execution.  [spend] fires once per (packet, table) step. *)
let replay_sequential ?(spend = ignore) m =
  let control = m.prog.control in
  for i = 0 to m.n - 1 do
    for k = 0 to Array.length control - 1 do
      spend ();
      (* the event mode's DAG skips an undeclared control table; the
         reference semantics raises on it *)
      let tb = Option.get control.(k) in
      do_match m i tb;
      do_action m i tb
    done
  done;
  m.cycles <- m.n;
  settle_aliases m

(* --- Results ------------------------------------------------------------------- *)

type packet = {
  pk_id : int;
  fields : (P4.field_ref * int) list;
      (* every header field, then the metadata and undeclared fields the run wrote *)
  dropped : bool;
}

type stats = {
  st_packets : int;
  st_cycles : int; (* last event cycle + 1 *)
  st_matches : int;
  st_actions : int;
  st_table_hits : (string * int) list;
  (* chip-wide concurrency (all processors summed) *)
  st_peak_match_per_cycle : int;
  st_peak_action_per_cycle : int;
  (* per-processor peaks: the scheduler guarantees these stay within the
     configured per-processor crossbar capacities *)
  st_peak_match_per_processor : int;
  st_peak_action_per_processor : int;
}

type result = {
  r_packets : packet list; (* in arrival order *)
  r_registers : (string * int) list; (* registers the run wrote, by name *)
  r_stats : stats;
}

(* Tables whose matches hit an entry in the last run, with their hit
   counts, by name. *)
let table_hits m =
  Array.to_list m.prog.tables
  |> List.filter_map (fun tb ->
         if m.hits.(tb.tb_index) > 0 then Some (tb.tb_name, m.hits.(tb.tb_index)) else None)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let packet prog i row =
  let fields = ref [] in
  let add slot r =
    if slot < prog.headers || row.(mark_slot ~headers:prog.headers ~values:(values prog) slot) = 1
    then fields := (r, row.(slot)) :: !fields
  in
  Array.iteri (fun c r -> if prog.slots.(c) = c then add c r) prog.layout;
  Array.iteri (fun k r -> add (drop_slot prog + 1 + k) r) prog.others;
  { pk_id = i; fields = List.rev !fields; dropped = row.(drop_slot prog) = 1 }

let result m =
  let prog = m.prog in
  {
    r_packets = List.init m.n (fun i -> packet prog i m.rows.(i));
    r_registers =
      List.filter_map
        (fun k -> if m.written.(k) then Some (prog.registers.(k), m.regs.(k)) else None)
        (List.init (Array.length prog.registers) Fun.id);
    r_stats =
      {
        st_packets = m.n;
        st_cycles = m.cycles;
        st_matches = m.matches;
        st_actions = m.actions;
        st_table_hits = table_hits m;
        st_peak_match_per_cycle = m.peak_match_per_cycle;
        st_peak_action_per_cycle = m.peak_action_per_cycle;
        st_peak_match_per_processor = m.peak_match_per_processor;
        st_peak_action_per_processor = m.peak_action_per_processor;
      };
  }

(* --- Random traffic ------------------------------------------------------------ *)

(* Arms a fresh machine with [packets] random packets.  Each packet draws
   its header fields from its own PRNG stream, derived from the run seed
   and the packet id ([Prng.derive]).  Packet [k] of seed [s] is therefore
   reproducible in isolation — a campaign can replay any single packet of a
   trial from the trial seed alone, matching the RMT determinism
   contract. *)
let random_machine ~seed ~packets (p : P4.t) prog =
  let m = machine prog in
  arm m ~packets ~registers:(Array.make (Array.length prog.registers) 0);
  (* a field declared twice draws both widths; the last draw stands *)
  let widths = Array.of_list (List.map (fun (_, w) -> min w 62) (P4.packet_fields p.P4.headers)) in
  for i = 0 to packets - 1 do
    let prng = Prng.create (Prng.derive seed i) in
    for c = 0 to Array.length widths - 1 do
      m.rows.(i).(prog.slots.(c)) <- Prng.bits prng widths.(c)
    done
  done;
  m

let run ?(seed = 0xD52ba) ?spend ~(cfg : Scheduler.config) ~entries ~packets (p : P4.t) : result =
  let m = random_machine ~seed ~packets p (prepare ~cfg ~entries p) in
  replay_event ?spend m;
  result m

let run_sequential ?(seed = 0xD52ba) ?spend ~entries ~packets (p : P4.t) : result =
  let m = random_machine ~seed ~packets p (prepare ~entries p) in
  replay_sequential ?spend m;
  result m

(* Compares packet-local outcomes of two runs of one program (register
   interleavings may differ when packets overlap; packet fields must not):
   every field present in [a]'s packet holds the same value in [b]'s. *)
let packets_agree (a : result) (b : result) =
  List.length a.r_packets = List.length b.r_packets
  && List.for_all2
       (fun (x : packet) (y : packet) ->
         x.dropped = y.dropped
         && List.for_all (fun (r, v) -> List.assoc_opt r y.fields = Some v) x.fields)
       a.r_packets b.r_packets
