(* Batched simulation driver: structure-of-arrays runs over lane chunks.

   The closure backend's vectorized pipeline ({!Druzhba_pipeline.Vcompile})
   executes one stage over a prefix of its lane rows; this module owns
   everything around that stage executor: chunking the input stream into
   batches of at most [cap] PHVs,
   gathering PHVs into row-0 lanes (with bit-flip overlays applied per
   injection slot), deriving the per-stage live lane count from the tick
   budget, scattering row-depth lanes into the trace buffer, and the final
   bulk budget settlement.

   Equivalence with the sequential tick loop (the cross-path property test
   enforces this bit-for-bit):

   - the pipeline is feed-forward and ALU state is private per ALU, so
     sweeping stage [s] over a whole batch before stage [s+1] performs the
     same per-ALU state-mutation sequence as interleaved ticks, in the same
     (injection slot) order;
   - with [R] fuel remaining, [n] inputs and depth [d], a sequential run
     executes exactly [T = min R (n + d)] ticks: injection slot [j] reaches
     stage [s] iff [j + s <= T - 1] and produces an output iff
     [j <= T - d].  The driver gathers only slots [< T], executes stage [s]
     over the slot-ordered prefix satisfying the bound, scatters the output
     prefix, then settles the budget in bulk ([remaining <- R - (n + d)],
     or 0 + {!Budget.Exhausted} when [R < n + d]);
   - dropped injection slots keep their slot index (a bubble consumes a
     tick of fuel but occupies no lane), and bit flips land at gather time
     against the original slot index, both exactly as
     {!Faults.run_compiled} does sequentially. *)

module Vcompile = Druzhba_pipeline.Vcompile

type lane = Vcompile.lane

let lane_get = Vcompile.lane_get
let lane_set = Vcompile.lane_set

(* Fault-overlay primitives, decomposed from a {!Faults.t} plan by the
   substrate wrappers (this module must not depend on {!Faults}, which
   depends on the engines).  [pv_stuck.(s)] lists (stateful-ALU index,
   slot, forced value) for stage [s], in plan order. *)
type primitives = {
  pv_dropped : bool array; (* index = injection slot *)
  pv_flips : (int * int * int) list; (* slot, container, bit *)
  pv_stuck : (int * int * int) list array; (* per stage *)
}

let no_faults = { pv_dropped = [||]; pv_flips = []; pv_stuck = [||] }

(* Column sweeps at the batch boundary.  Top-level functions with concrete
   lane parameters so the Bigarray accesses compile to raw loads/stores — a
   local closure would go through the generic access path (measured ~40x
   slower per element). *)
let gather_column (phvs : Phv.t array) (l : lane) (c : int) (k : int) =
  for b = 0 to k - 1 do
    lane_set l b (Array.unsafe_get (Array.unsafe_get phvs b) c)
  done

let scatter_column (rows : int array array) (base : int) (l : lane) (c : int) (ko : int) =
  for b = 0 to ko - 1 do
    Array.unsafe_set (Array.unsafe_get rows (base + b)) c (lane_get l b)
  done

let run ?budget ?(overlays = no_faults) (v : Vcompile.t) ~inputs (buf : Trace.Buffer.t) =
  Trace.Buffer.clear buf;
  let cap = v.Vcompile.v_cap and depth = v.Vcompile.v_depth and width = v.Vcompile.v_width in
  let n = List.length inputs in
  let needed = n + depth in
  let remaining0 = match budget with None -> max_int | Some b -> Budget.remaining b in
  (* number of ticks the sequential loop would execute *)
  let t_limit = if remaining0 < needed then remaining0 else max_int in
  let rows = Vcompile.rows v in
  let row0 = rows.(0) and out_row = rows.(depth) in
  let slots = Array.make cap 0 in
  let phv_scratch : Phv.t array = Array.make cap [||] in
  let dropped = overlays.pv_dropped in
  let n_dropped = Array.length dropped in
  let flips = overlays.pv_flips in
  let stuck_of s =
    if s < Array.length overlays.pv_stuck then overlays.pv_stuck.(s) else []
  in
  (* Gathers the next chunk: records the non-dropped PHVs of slots [slot..]
     into [phv_scratch]/[slots], stopping at [cap] lanes, end of input, or
     the tick limit.  Returns (live lane count, next slot, rest of input).
     The lane stores happen afterwards as contiguous column sweeps. *)
  let rec gather b slot rest =
    if b >= cap || slot >= t_limit then (b, slot, rest)
    else
      match rest with
      | [] -> (b, slot, rest)
      | (phv : Phv.t) :: tl ->
        if slot < n_dropped && Array.unsafe_get dropped slot then gather b (slot + 1) tl
        else begin
          slots.(b) <- slot;
          phv_scratch.(b) <- phv;
          gather (b + 1) (slot + 1) tl
        end
  in
  let rec chunks slot rest =
    match rest with
    | [] -> ()
    | _ :: _ when slot >= t_limit -> ()
    | _ ->
      let kc, slot', rest' = gather 0 slot rest in
      if kc > 0 then begin
        for c = 0 to width - 1 do
          gather_column phv_scratch row0.(c) c kc
        done;
        (match flips with
        | [] -> ()
        | fl ->
          (* flips land against the original injection slot, as the
             sequential fault runner applies them *)
          List.iter
            (fun (fs, fc, fb) ->
              let rec find b =
                if b < kc then
                  if slots.(b) = fs then
                    lane_set row0.(fc) b (lane_get row0.(fc) b lxor (1 lsl fb))
                  else find (b + 1)
              in
              find 0)
            fl);
        for s = 0 to depth - 1 do
          (* slot j reaches stage s iff j + s <= t_limit - 1; slots are
             ascending, so the live lanes are a prefix *)
          let lim = t_limit - 1 - s in
          let ks = ref kc in
          while !ks > 0 && slots.(!ks - 1) > lim do
            decr ks
          done;
          if !ks > 0 then Vcompile.exec_stage v ~s ~k:!ks ~stuck:(stuck_of s)
        done;
        (* output-eligible slots (<= t_limit - depth) are an ascending
           prefix too: reserve their rows in bulk and scatter by column *)
        let out_lim = t_limit - depth in
        let ko = ref kc in
        while !ko > 0 && slots.(!ko - 1) > out_lim do
          decr ko
        done;
        if !ko > 0 then begin
          let base = Trace.Buffer.extend buf !ko in
          let out_rows = Trace.Buffer.raw_rows buf in
          for c = 0 to width - 1 do
            scatter_column out_rows base out_row.(c) c !ko
          done
        end
      end;
      chunks slot' rest'
  in
  chunks 0 inputs;
  match budget with None -> () | Some b -> Budget.spend_bulk b ~ticks:needed
