(* First-class execution substrates.

   Four PRs of differential-testing machinery (oracle, campaigns, fault
   injection, tick budgets, golden traces, bench) were hardwired to the two
   RMT engines.  This module names the contract they actually relied on, so
   any backend that can (a) replay a list of input PHVs into a
   {!Trace.Buffer} and (b) expose its persistent state as named int vectors
   plugs into all of that machinery unchanged.

   The contract:
   - [run_into] is an {e independent run}: the substrate re-arms itself
     (state reset to whatever [load_state] installed) before executing, so
     the same value can be replayed any number of times and a fault run can
     be followed by a fault-free run with no leakage.  One output row is
     pushed per surviving input, in input order.
   - [budget] is spent deterministically (one unit per tick or per
     scheduled event); {!Budget.Exhausted} escapes to the caller mid-run.
   - [faults] applies the seeded overlay of {!Faults}; substrates without a
     stuck-at geometry apply the input-path subset ({!Faults.overlay_inputs}).
   - [current_state] after [run_into] is the final persistent state of that
     run, deterministic in (loaded state, inputs).
   - [step]/[boundaries] are the debugger surface: advance one tick with an
     optional injected PHV, and snapshot the PHV at each pipeline boundary.

   Values are packed existentially ([packed]) so heterogeneous substrate
   lists — interpreter at three optimization levels, compiled closures,
   event-driven dRMT, sequential dRMT — flow through one oracle. *)

module type S = sig
  type t

  val name : t -> string
  (** Configuration label, e.g. ["interpreter@scc"] or ["drmt@event"] —
      stable across runs; campaign reports key divergences on it. *)

  val width : t -> int
  (** Containers per output row; the trace-buffer row width. *)

  val load_state : t -> (string * int array) list -> unit
  (** Installs the persistent-state preload that every subsequent
      [run_into] starts from (control-plane register initialization). *)

  val run_into : ?budget:Budget.t -> ?faults:Faults.t -> t -> inputs:Phv.t list -> Trace.Buffer.t -> unit

  val run_batch_into :
    ?budget:Budget.t -> ?faults:Faults.t -> batch:int -> t -> inputs:Phv.t list -> Trace.Buffer.t -> unit
  (** As [run_into] — same independent-run contract, bit-identical trace,
      final state and budget accounting — but licensed to execute up to
      [batch] PHVs per dispatch over a structure-of-arrays register file.
      Only the closure backend has such a path; every other substrate
      (interpreter, native, dRMT) satisfies it with its sequential
      [run_into], and callers may not observe the difference. *)

  val current_state : t -> (string * int array) list

  val step : t -> input:Phv.t option -> Phv.t option

  val boundaries : t -> Phv.t option array
end

type packed = Packed : (module S with type t = 'a) * 'a -> packed

let name (Packed ((module M), t)) = M.name t
let width (Packed ((module M), t)) = M.width t
let load_state (Packed ((module M), t)) init = M.load_state t init

let run_into ?budget ?faults (Packed ((module M), t)) ~inputs buf =
  M.run_into ?budget ?faults t ~inputs buf

(* Default batch capacity for the batched differential paths: large enough
   to amortize per-stage dispatch, small enough that a whole lane file
   (every (stage, container) slot plus ALU outputs at 8 bytes per slot per
   lane) stays L1/L2-resident on the Table-1 geometries. *)
let default_batch = 64

let run_batch_into ?budget ?faults ?(batch = default_batch) (Packed ((module M), t)) ~inputs buf =
  M.run_batch_into ?budget ?faults ~batch t ~inputs buf

let current_state (Packed ((module M), t)) = M.current_state t
let step (Packed ((module M), t)) ~input = M.step t ~input
let boundaries (Packed ((module M), t)) = M.boundaries t

(* --- RMT adapters ----------------------------------------------------------- *)

module Engine_substrate = struct
  type t = {
    label : string;
    engine : Engine.t;
    mutable init : (string * int array) list;
  }

  let name t = t.label
  let width t = t.engine.Engine.width
  let load_state t init = t.init <- init

  let run_into ?budget ?faults t ~inputs buf =
    match faults with
    | None ->
      Engine.reset ~init:t.init t.engine;
      Engine.run_into ?budget t.engine ~inputs buf
    | Some plan -> Faults.run_engine ~init:t.init ?budget plan t.engine ~inputs buf

  (* the reference semantics keeps one path: the batched contract is its
     sequential run *)
  let run_batch_into ?budget ?faults ~batch:_ t ~inputs buf =
    run_into ?budget ?faults t ~inputs buf

  let current_state t = Engine.current_state t.engine
  let step t ~input = Engine.step t.engine ~input
  let boundaries t = Engine.boundaries t.engine
end

module Compiled_substrate = struct
  type t = {
    label : string;
    compiled : Compiled.t;
    mutable init : (string * int array) list;
  }

  let name t = t.label
  let width t = t.compiled.Compiled.width

  let load_state t init =
    t.init <- init;
    (* also arm the live state so step-based use sees the preload *)
    Compiled.reset t.compiled.Compiled.compiled;
    Compiled.load_state t.compiled.Compiled.compiled init

  let run_into ?budget ?faults t ~inputs buf =
    match faults with
    | None -> Compiled.run_into ~init:t.init ?budget t.compiled ~inputs buf
    | Some plan -> Faults.run_compiled ~init:t.init ?budget plan t.compiled ~inputs buf

  let run_batch_into ?budget ?faults ~batch t ~inputs buf =
    match faults with
    | None -> Compiled.run_batch_into ~init:t.init ?budget ~batch t.compiled ~inputs buf
    | Some plan -> Faults.run_compiled_batched ~init:t.init ?budget ~batch plan t.compiled ~inputs buf

  let current_state t = Compiled.current_state t.compiled
  let step t ~input = Compiled.step t.compiled ~input
  let boundaries t = Compiled.boundaries t.compiled
end

(* [of_engine ?label ?init desc ~mc] packs the interpreter engine; [label]
   defaults to ["interpreter"].  @raise like {!Engine.create}. *)
let of_engine ?(label = "interpreter") ?(init = []) desc ~mc : packed =
  Packed
    ( (module Engine_substrate),
      { Engine_substrate.label; engine = Engine.create ~init desc ~mc; init } )

let of_compiled ?(label = "compiled") ?(init = []) compiled : packed =
  let c = Compiled.create compiled in
  Compiled.reset compiled;
  Compiled.load_state compiled init;
  Packed ((module Compiled_substrate), { Compiled_substrate.label; compiled = c; init })
