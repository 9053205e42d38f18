(* The registration ABI between the host and Dynlinked native pipeline
   modules.

   A module emitted by {!Druzhba_pipeline.Emit.native_source} is compiled
   out-of-process into a `.cmxs` and loaded with [Dynlink.loadfile_private];
   its only side effect is one call to {!register} with the plugin record
   below.  A group module wraps several emitted modules as submodules, so
   loading it registers one plugin per program, in source order.  The host
   ({!Native_substrate}) performs the load under a global mutex and
   immediately {!take_all}s the registrations, so concurrent domains never
   observe each other's.

   The record is deliberately first-order — int arrays and plain functions
   — so the only thing the plugin and the host must agree on is this one
   module's cmi.  Bump {!version} whenever that cmi changes (the record
   layout or the registration functions): it is folded into the build-cache
   content address, so stale `.cmxs` artifacts from an older ABI are never
   loaded. *)

let version = 3

type plugin = {
  np_depth : int;
  np_width : int;
  np_state_names : string array;
      (* stateful-ALU names, stage-major — one per state row of [np_alloc] *)
  np_stage_bases : int array;
      (* base state-row index per stage: row of (stage s, alu j) =
         np_stage_bases.(s) + j *)
  np_alloc : unit -> int array array;
      (* fresh zeroed state rows, one per stateful ALU, stage-major; row
         length = max 1 state_size *)
  np_exec_stage : int array array -> int -> int array -> int array -> unit;
      (* [exec_stage state s cur nxt]: run stage [s] on row s of the flat
         (depth+1) x width register file [cur], writing row s+1 of [nxt] *)
}

(* newest first; {!take_all} restores registration order *)
let registered : plugin list ref = ref []
let register p = registered := p :: !registered

let take_all () =
  let ps = List.rev !registered in
  registered := [];
  ps
