(* BLUE active queue management: both halves of the algorithm, plus a
   look at what the optimizations do to simulation time (a single-program
   slice of the paper's Table 1).

   BLUE (Feng et al.) maintains a marking probability: increased when the
   queue overflows (rate limited by a freeze window) and decreased when the
   link goes idle.  Table 1 runs the two transactions on 4x2 pipelines — the
   increase on `pair` atoms (two state variables: probability and the last
   update time), the decrease on `sub` atoms.

   Run with:  dune exec examples/blue_aqm.exe *)

module Druzhba = Druzhba_core.Druzhba
open Druzhba

let time_ms f =
  let t0 = Sys.time () in
  let _ = f () in
  (Sys.time () -. t0) *. 1000.

let () =
  List.iter
    (fun name ->
      let bm = Spec.find_exn name in
      Fmt.pr "=== %s (%s atom, %dx%d pipeline) ===%s@." bm.Spec.bm_name bm.Spec.bm_stateful
        bm.Spec.bm_depth bm.Spec.bm_width bm.Spec.bm_source;
      let compiled = Spec.compile_exn bm in
      (match Compiler.Testing.check ~n:5000 compiled with
      | Fuzz.Pass { phvs } -> Fmt.pr "fuzzing: PASS on %d PHVs@." phvs
      | o -> Fmt.pr "fuzzing: %a@." Fuzz.pp_outcome o);
      (* Table-1-style measurement for this program: 50 000 PHVs through the
         three description versions, closure-compiled like the paper's
         rustc-compiled descriptions *)
      let mc = compiled.Compiler.Codegen.c_mc in
      let desc = compiled.Compiler.Codegen.c_desc in
      let init = compiled.Compiler.Codegen.c_layout.Compiler.Codegen.l_init in
      let inputs = Traffic.phvs (Traffic.create ~seed:3 ~width:bm.Spec.bm_width ~bits:32) 50_000 in
      let v2 = Optimizer.scc_propagate ~mc desc in
      let v3 = Optimizer.inline_functions v2 in
      let measure d =
        let c = Compile.compile d ~mc in
        time_ms (fun () -> Substrate.run (Substrate.of_compiled ~init c) ~inputs)
      in
      Fmt.pr "50000 PHVs: unoptimized %.0f ms | scc %.0f ms | scc+inline %.0f ms@.@."
        (measure desc) (measure v2) (measure v3))
    [ "blue_increase"; "blue_decrease" ]
