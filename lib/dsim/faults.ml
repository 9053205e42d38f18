(* Hardware fault injection (deterministic seeded overlay).

   The paper's pitch is that a software model of the switch can explore "as
   many scenarios as you can imagine"; this module adds the scenarios real
   hardware adds on its own: single-event upsets and stuck-at defects.  A
   fault *plan* is a pure function of its seed and the pipeline geometry —
   the same plan replays identically on every RMT executor, since the one
   tick driver ({!Driver.run_into}) applies it, so fault runs are
   themselves differential-testable (the interpreter under faults must
   equal the closures and the native module under faults), and a campaign
   report stays byte-deterministic.

   Three fault classes are modelled:

   - {b bit flips}: one bit of one container of one incoming PHV is inverted
     at injection time (an SEU in the parser/deparser path);
   - {b stuck-at state slots}: a stateful ALU's register slot is forced to a
     fixed value between ticks (a stuck memory cell) — ALU writes during a
     tick proceed normally and are overwritten when the tick commits;
   - {b dropped PHVs}: an injection slot is skipped entirely (an input-queue
     drop), shortening the output trace.

   This module holds plans only; the driver applies them.  The overlay
   never touches the executors' stage code: a fault-free run executes the
   same stages with or without a plan, which is what lets the campaign
   oracle assert that a fault-free replay after a fault run is still
   byte-identical to the pristine reference. *)

module Prng = Druzhba_util.Prng
module Ir = Druzhba_pipeline.Ir

type flip = { bf_phv : int; bf_container : int; bf_bit : int }
type stuck = { sk_stage : int; sk_alu : int; sk_slot : int; sk_value : int }

type t = {
  fp_seed : int;
  fp_flips : flip list;
  fp_stuck : stuck list;
  fp_dropped : bool array; (* index = injection slot *)
}

let seed t = t.fp_seed
let n_flips t = List.length t.fp_flips
let n_stuck t = List.length t.fp_stuck
let n_dropped t = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 t.fp_dropped

let is_empty t = t.fp_flips = [] && t.fp_stuck = [] && n_dropped t = 0

let pp ppf t =
  Fmt.pf ppf "faults(seed %d): %d bit flip(s), %d stuck slot(s), %d drop(s)" t.fp_seed
    (n_flips t) (n_stuck t) (n_dropped t)

(* [generate ~seed ~desc ~n_inputs ~count ()] draws [count] faults for a
   simulation of [n_inputs] PHVs on [desc].  Pure in its arguments. *)
let generate ~seed ~(desc : Ir.t) ~n_inputs ~count () : t =
  let prng = Prng.create seed in
  let width = desc.Ir.d_width and bits = desc.Ir.d_bits in
  let flips = ref [] and stuck = ref [] in
  let dropped = Array.make (max 1 n_inputs) false in
  let stuck_sites =
    Array.to_list desc.Ir.d_stages
    |> List.concat_map (fun (st : Ir.stage) ->
           Array.to_list st.Ir.s_stateful
           |> List.mapi (fun j (a : Ir.alu) -> (st.Ir.s_index, j, max 1 a.Ir.a_state_size)))
    |> Array.of_list
  in
  for _ = 1 to count do
    match Prng.int prng 3 with
    | 0 when n_inputs > 0 ->
      flips :=
        {
          bf_phv = Prng.int prng n_inputs;
          bf_container = Prng.int prng width;
          bf_bit = Prng.int prng bits;
        }
        :: !flips
    | 1 when Array.length stuck_sites > 0 ->
      let sk_stage, sk_alu, slots = stuck_sites.(Prng.int prng (Array.length stuck_sites)) in
      stuck :=
        { sk_stage; sk_alu; sk_slot = Prng.int prng slots; sk_value = Prng.bits prng bits }
        :: !stuck
    | 2 when n_inputs > 0 -> dropped.(Prng.int prng n_inputs) <- true
    | _ -> () (* fault class infeasible on this geometry; draw is consumed *)
  done;
  { fp_seed = seed; fp_flips = List.rev !flips; fp_stuck = List.rev !stuck; fp_dropped = dropped }

(* [generate_io] draws an input-path-only plan (bit flips + drops, no
   stuck-at sites) for substrates without a stateful-ALU geometry — the dRMT
   adapter, whose registers live behind the match-action tables rather than
   in per-stage ALUs.  Pure in (seed, width, bits, n_inputs, count). *)
let generate_io ~seed ~width ~bits ~n_inputs ~count () : t =
  let prng = Prng.create seed in
  let flips = ref [] in
  let dropped = Array.make (max 1 n_inputs) false in
  for _ = 1 to count do
    match Prng.int prng 2 with
    | 0 when n_inputs > 0 ->
      flips :=
        {
          bf_phv = Prng.int prng n_inputs;
          bf_container = Prng.int prng width;
          bf_bit = Prng.int prng bits;
        }
        :: !flips
    | 1 when n_inputs > 0 -> dropped.(Prng.int prng n_inputs) <- true
    | _ -> ()
  done;
  { fp_seed = seed; fp_flips = List.rev !flips; fp_stuck = []; fp_dropped = dropped }

(* Whether injection slot [i] is dropped. *)
let dropped t i = i < Array.length t.fp_dropped && t.fp_dropped.(i)

(* Applies the input-path faults of [plan] to an input list without touching
   any engine: flipped PHVs are replaced by fresh copies with the planned
   bits inverted, dropped injection slots are removed.  Substrates that run
   whole input batches at once (the dRMT adapter) inject faults by
   transforming their inputs through this and running normally — the
   stuck-at overlay does not apply to them. *)
let overlay_inputs plan (inputs : Phv.t list) : Phv.t list =
  List.filteri
    (fun i _ -> not (dropped plan i))
    (List.mapi
       (fun i phv ->
         let flips = List.filter (fun f -> f.bf_phv = i) plan.fp_flips in
         if flips = [] then phv
         else begin
           let phv = Array.copy phv in
           List.iter
             (fun f ->
               if f.bf_container < Array.length phv then
                 phv.(f.bf_container) <- phv.(f.bf_container) lxor (1 lsl f.bf_bit))
             flips;
           phv
         end)
       inputs)

(* Flips the planned bits of injection slot [i] directly in row 0 of the
   register file (the PHV was just blitted there); the caller's input array
   is never mutated. *)
let apply_flips t (cur : int array) i =
  List.iter
    (fun f -> if f.bf_phv = i then cur.(f.bf_container) <- cur.(f.bf_container) lxor (1 lsl f.bf_bit))
    t.fp_flips
