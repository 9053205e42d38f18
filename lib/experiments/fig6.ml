(* Reproduction of the paper's Fig. 6: the same pipeline description at the
   three optimization levels — version 1 (unoptimized: machine-code values
   are read at run time from the values map and every construct is a
   helper-function call), version 2 (after SCC propagation), version 3 (after function
   inlining).  Renders the generated code and reports the size reduction. *)

module Druzhba = Druzhba_core.Druzhba
open Druzhba

type versions = {
  v1 : string;
  v2 : string;
  v3 : string;
  v1_size : int; (* IR nodes *)
  v2_size : int;
  v3_size : int;
  v1_helpers : int;
  v3_helpers : int;
}

(* Renders the description of a [depth] x [width] pipeline of
   [stateful]/[stateless] ALUs under [mc] (defaults: the Fig. 6 setting — a
   small pipeline with machine code baked in). *)
let render ?(depth = 1) ?(width = 1) ?(stateful = "if_else_raw") ?(stateless = "stateless_full")
    ?(seed = 1) () =
  let desc =
    Dgen.generate
      (Dgen.config ~depth ~width ())
      ~stateful:(Atoms.find_exn stateful) ~stateless:(Atoms.find_exn stateless)
  in
  let mc = Fuzz.random_mc (Prng.create seed) desc in
  let v2d = Optimizer.scc_propagate ~mc desc in
  let v3d = Optimizer.inline_functions v2d in
  {
    v1 = Emit.to_string desc;
    v2 = Emit.to_string v2d;
    v3 = Emit.to_string v3d;
    v1_size = Ir.size desc;
    v2_size = Ir.size v2d;
    v3_size = Ir.size v3d;
    v1_helpers = Ir.helper_count desc;
    v3_helpers = Ir.helper_count v3d;
  }

let pp_summary ppf v =
  Fmt.pf ppf
    "description size: v1 = %d nodes (%d helpers), v2 = %d nodes, v3 = %d nodes (%d helpers)"
    v.v1_size v.v1_helpers v.v2_size v.v3_size v.v3_helpers
