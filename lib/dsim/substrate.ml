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

   Every substrate has exactly one tick loop, [run_into]: the oracle,
   campaigns, fault runs, Table 1 and the bench all time and diff it.

   Values are packed existentially ([packed]) so heterogeneous substrate
   lists — interpreter at three optimization levels, compiled closures,
   native modules, event-driven dRMT, sequential dRMT — flow through one
   oracle. *)

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

(* [run_into] under its old batched name; [batch] is ignored.  It stays
   only because the benchmark's own sources (perfbench/) still call it, and
   only a change to the benchmark may edit them; delete it with that change. *)
let run_batch_into ?budget ?faults ?batch:_ p ~inputs buf = run_into ?budget ?faults p ~inputs buf

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
