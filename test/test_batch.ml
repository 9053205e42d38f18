(* Cross-path equivalence property for the batched entry point.

   {!Substrate.run_batch_into} is kept, as an alias of [run_into] that
   ignores its batch size, for the benchmark's sources.  Its contract is
   bit-identity with the tick loop: same output rows, same final state, same
   budget accounting, same {!Budget.Exhausted} behaviour — under any batch
   size, fault overlay, and mid-run fuel exhaustion.  The property below
   drives random programs (depth x width x atom pool, random machine code)
   through both entry points on both RMT substrates at two optimization
   levels and requires every observable to match exactly. *)

module Prng = Druzhba_util.Prng
module Ir = Druzhba_pipeline.Ir
module Dgen = Druzhba_pipeline.Dgen
module Compile = Druzhba_pipeline.Compile
module Optimizer = Druzhba_optimizer.Optimizer
module Atoms = Druzhba_atoms.Atoms
module Fuzz = Druzhba_fuzz.Fuzz
module Traffic = Druzhba_dsim.Traffic
module Trace = Druzhba_dsim.Trace
module Budget = Druzhba_dsim.Budget
module Faults = Druzhba_dsim.Faults
module Substrate = Druzhba_dsim.Substrate

let stateful_pool = [| "raw"; "sub"; "pred_raw"; "if_else_raw"; "nested_ifs"; "pair" |]
let stateless_pool = [| "stateless_full"; "stateless_arith"; "stateless_rel"; "stateless_mux" |]
let batch_pool = [| 1; 2; 3; 5; 8; 64 |]

(* Everything the sequential and batched paths must agree on. *)
type observation = {
  ob_raised : bool; (* Budget.Exhausted escaped *)
  ob_fuel : int option; (* Budget.remaining afterwards *)
  ob_rows : int array list; (* output trace rows, in order *)
  ob_state : (string * int array) list;
}

let observe ~how ~budget_limit ~faults ~width ~inputs (packed : Substrate.packed) : observation
    =
  let buf = Trace.Buffer.create ~width ~capacity:(max 1 (List.length inputs)) in
  let budget = Option.map Budget.ticks budget_limit in
  let ob_raised =
    match
      match how with
      | `Seq -> Substrate.run_into ?budget ?faults packed ~inputs buf
      | `Batch b -> Substrate.run_batch_into ?budget ?faults ~batch:b packed ~inputs buf
    with
    | () -> false
    | exception Budget.Exhausted -> true
  in
  {
    ob_raised;
    ob_fuel = Option.map Budget.remaining budget;
    ob_rows =
      List.init (Trace.Buffer.length buf) (fun i -> Array.copy (Trace.Buffer.row buf i));
    ob_state = Substrate.current_state packed;
  }

let qcheck_batched_equals_sequential =
  QCheck.Test.make ~name:"run_batch_into = run_into (traces, state, fuel, Exhausted)" ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun case_seed ->
      let prng = Prng.create (0xBA7C4 lxor case_seed) in
      let depth = 1 + Prng.int prng 3 in
      let width = 1 + Prng.int prng 3 in
      let bits = [| 8; 16; 32 |].(Prng.int prng 3) in
      let stateful = stateful_pool.(Prng.int prng (Array.length stateful_pool)) in
      let stateless = stateless_pool.(Prng.int prng (Array.length stateless_pool)) in
      let desc =
        Dgen.generate
          (Dgen.config ~depth ~width ~bits ())
          ~stateful:(Atoms.find_exn stateful) ~stateless:(Atoms.find_exn stateless)
      in
      let mc = Fuzz.random_mc prng desc in
      let n = Prng.int prng 21 in
      let inputs = Traffic.phvs (Traffic.create ~seed:(Prng.bits prng 30) ~width ~bits) n in
      let batch = batch_pool.(Prng.int prng (Array.length batch_pool)) in
      let faults =
        if Prng.int prng 2 = 0 then None
        else
          Some
            (Faults.generate ~seed:(Prng.bits prng 30) ~desc ~n_inputs:n
               ~count:(1 + Prng.int prng 4) ())
      in
      (* [Some small] exhausts the budget mid-run often (including mid-batch
         for batch > 1); [None] is the unbudgeted path *)
      let budget_limit =
        match Prng.int prng 3 with 0 -> None | _ -> Some (1 + Prng.int prng (n + depth + 2))
      in
      List.for_all
        (fun level ->
          let d = Optimizer.apply ~level ~mc desc in
          List.for_all
            (fun (label, fresh_packed) ->
              let seq =
                observe ~how:`Seq ~budget_limit ~faults ~width ~inputs (fresh_packed ())
              in
              let bat =
                observe ~how:(`Batch batch) ~budget_limit ~faults ~width ~inputs
                  (fresh_packed ())
              in
              if seq = bat then true
              else
                QCheck.Test.fail_reportf
                  "%s/%s diverges at case %d (batch %d, n %d, faults %s, fuel %s): seq \
                   {raised %b, fuel %s, %d rows} vs batch {raised %b, fuel %s, %d rows}"
                  label (Optimizer.level_name level) case_seed batch n
                  (match faults with Some f -> Fmt.str "%a" Faults.pp f | None -> "none")
                  (match budget_limit with Some l -> string_of_int l | None -> "inf")
                  seq.ob_raised
                  (match seq.ob_fuel with Some f -> string_of_int f | None -> "-")
                  (List.length seq.ob_rows) bat.ob_raised
                  (match bat.ob_fuel with Some f -> string_of_int f | None -> "-")
                  (List.length bat.ob_rows))
            [
              ("engine", fun () -> Substrate.of_engine d ~mc);
              ("compiled", fun () -> Substrate.of_compiled (Compile.compile d ~mc));
            ])
        [ Optimizer.Unoptimized; Optimizer.Scc_inline ])

let () =
  Alcotest.run "batch"
    [
      ( "cross-path equivalence",
        [ QCheck_alcotest.to_alcotest qcheck_batched_equals_sequential ] );
    ]
