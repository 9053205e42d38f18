(* First-class execution substrates.

   Four PRs of differential-testing machinery (oracle, campaigns, fault
   injection, tick budgets, golden traces, bench) were hardwired to the two
   RMT engines.  This module names the contract they actually relied on, so
   any backend that can (a) replay a list of input PHVs into a
   {!Trace.Buffer} and (b) expose its persistent state as named int vectors
   plugs into all of that machinery unchanged.

   The contract:
   - [load_state] installs the persistent-state preload (keyed by name; a
     name bound twice keeps its first binding) and arms the live state
     with it: [current_state] and [step] see it at once.
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

   Every substrate has exactly one run loop, [run_into]: the oracle,
   campaigns, fault runs, Table 1 and the bench all time and diff it.  The
   three RMT executors (interpreter, closures, native module) share one
   implementation of the contract, {!Driver}; each supplies only its stage
   function and state vectors.

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
      [run_into] starts from (control-plane register initialization), and
      arms the live state with it. *)

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

(* Freezes one run into a {!Trace.t}: the outputs of [run_into] and the
   final state. *)
let run p ~inputs : Trace.t =
  let buf = Trace.Buffer.create ~width:(width p) ~capacity:(List.length inputs) in
  run_into p ~inputs buf;
  { Trace.inputs; outputs = Trace.Buffer.contents buf; final_state = current_state p }

(* --- RMT executors -------------------------------------------------------------

   Every RMT executor is a {!Driver}, which implements [S] once. *)

let of_driver (d : Driver.t) : packed = Packed ((module Driver), d)

(* [of_engine ?label ?init desc ~mc] packs the interpreter engine; [label]
   defaults to ["interpreter"]. *)
let of_engine ?label ?init desc ~mc : packed =
  of_driver (Engine.create ?label ?init desc ~mc).Engine.driver

let of_compiled ?label ?init compiled : packed = of_driver (Compiled.create ?label ?init compiled)
