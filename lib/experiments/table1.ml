(* Reproduction of the paper's Table 1: RMT simulation runtimes for the 12
   packet programs, unoptimized vs SCC propagation vs SCC + function
   inlining, 50 000 PHVs each (§5.1).

   Each program is compiled by the rule-based backend at the pipeline
   dimensions Table 1 lists; its machine code then drives three simulations
   of the same random PHV trace, one per optimization level of the pipeline
   description.  The execution backend is any {!Druzhba_dsim.Backends}
   registry name:

   - ["compiled"]: the description is compiled to closures beforehand (the
     analogue of the paper's rustc-compiled description; compilation time is
     excluded, as the paper excludes rustc time).  This is the configuration
     Table 1 corresponds to.
   - ["interpreter"]: the description IR is interpreted directly.  This is an
     ablation unavailable in the original system: it shows what inlining is
     worth when no compiler cleans up the call structure.
   - ["native"]: the description is emitted as real OCaml, compiled
     out-of-process and Dynlinked — the closest analogue of the paper's
     dgen + rustc methodology.  {!run} builds every row's modules together
     ({!Native_substrate.build_all}) before it times any row.  @raise
     Failure when the toolchain is unavailable (the bench driver degrades
     instead of crashing). *)

module Druzhba = Druzhba_core.Druzhba
open Druzhba

type mode = string (* a {!Druzhba_dsim.Backends} registry name *)

type row = {
  row_program : string;
  row_depth : int;
  row_width : int;
  row_alu : string;
  row_unopt_ms : float;
  row_scc_ms : float;
  row_inline_ms : float;
}

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let _ = f () in
  (Unix.gettimeofday () -. t0) *. 1000.

(* A program as its row runs it: the rule-based backend's machine code and
   initial state, and the description unoptimized, after SCC propagation
   and after inlining. *)
let prepare (bm : Spec.benchmark) =
  let compiled = Spec.compile_exn bm in
  let mc = compiled.Compiler.Codegen.c_mc in
  let desc = compiled.Compiler.Codegen.c_desc in
  let v2 = Optimizer.scc_propagate ~mc desc in
  ( mc,
    compiled.Compiler.Codegen.c_layout.Compiler.Codegen.l_init,
    desc,
    v2,
    Optimizer.inline_functions v2 )

let run_benchmark ?(phvs = 50_000) ?(seed = 0xD52ba) ~(mode : mode) (bm : Spec.benchmark) : row =
  let mc, init, desc, v2, v3 = prepare bm in
  let inputs = Traffic.phvs (Traffic.create ~seed ~width:bm.Spec.bm_width ~bits:32) phvs in
  (* Substrate construction, output buffer and trace freeze sit outside the
     timer: the measurement is the steady-state tick path (the paper's
     Table 1 likewise excludes rustc compilation time).  Both modes run
     through the uniform {!Substrate} interface. *)
  let buf = Trace.Buffer.create ~width:bm.Spec.bm_width ~capacity:phvs in
  let measure d =
    let backend =
      match Backends.find mode with
      | Some be -> be
      | None ->
        invalid_arg
          (Printf.sprintf "Table1.run_benchmark: unknown backend %S (expected one of %s)" mode
             (String.concat ", " (Backends.names ())))
    in
    let substrate =
      match backend.Backends.be_create ~init d ~mc with
      | Ok s -> s
      | Error reason -> failwith (Printf.sprintf "backend %S unavailable: %s" mode reason)
    in
    time_ms (fun () -> Substrate.run_into substrate ~inputs buf)
  in
  {
    row_program = bm.Spec.bm_name;
    row_depth = bm.Spec.bm_depth;
    row_width = bm.Spec.bm_width;
    row_alu = bm.Spec.bm_stateful;
    row_unopt_ms = measure desc;
    row_scc_ms = measure v2;
    row_inline_ms = measure v3;
  }

let run ?phvs ?seed ?(mode = "compiled") () : row list =
  (* one compiler run builds every row's module before any row is timed *)
  if String.equal mode Backends.native.Backends.be_name then
    Native_substrate.build_all ~jobs:1
      (List.concat_map
         (fun bm ->
           let mc, _, desc, v2, v3 = prepare bm in
           [ (desc, mc); (v2, mc); (v3, mc) ])
         Spec.all);
  List.map (fun bm -> run_benchmark ?phvs ?seed ~mode bm) Spec.all

let pp_row ppf r =
  Fmt.pf ppf "%-18s %d,%-2d %-12s %10.0f %16.0f %21.0f" r.row_program r.row_depth r.row_width
    r.row_alu r.row_unopt_ms r.row_scc_ms r.row_inline_ms

let pp ppf rows =
  Fmt.pf ppf "@[<v>%-18s %-4s %-12s %10s %16s %21s@," "Program" "d,w" "ALU" "Unopt (ms)"
    "SCC prop (ms)" "+ Func inlining (ms)";
  List.iter (fun r -> Fmt.pf ppf "%a@," pp_row r) rows;
  Fmt.pf ppf "@]"

(* Shape checks corresponding to the paper's observations: optimization
   helps everywhere, inlining adds (almost) nothing on the compiled
   substrate, and the biggest pipelines gain the most. *)
let speedup r = r.row_unopt_ms /. r.row_scc_ms

let summary ppf rows =
  let avg f = List.fold_left (fun a r -> a +. f r) 0. rows /. float_of_int (List.length rows) in
  Fmt.pf ppf "mean speedup (unopt/scc): %.2fx; mean inline/scc ratio: %.2f@." (avg speedup)
    (avg (fun r -> r.row_inline_ms /. r.row_scc_ms))
