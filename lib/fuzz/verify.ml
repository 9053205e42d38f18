(* Bounded-exhaustive equivalence verification (paper §7).

   The paper's future work: "we wish to use program verification by allowing
   support for a high-level specification ... so that equivalence can be
   formally proven."  Short of an SMT solver, equivalence of a pipeline and
   a specification *at a small datapath width* is decidable by exhaustive
   state-space exploration, and small-width exhaustive proofs complement
   wide-width fuzzing nicely (they are exactly the regime where fuzzing is
   weakest: rare boundary inputs).

   The check proves, by breadth-first induction over reachable states:

     for every reachable (pipeline state, spec state) pair and EVERY input
     PHV, the observed output containers agree and the successor states
     remain paired.

   Packets are fed one at a time (each fully drained).  Per-ALU state
   updates are sequential in packet order whether or not packets overlap in
   the pipeline, so single-packet equivalence implies streaming-trace
   equivalence for the feed-forward model.

   The input space is [2^(bits*width)] per state and the state space is
   bounded by [2^(bits * state slots)]; [max_states] caps the exploration
   honestly — exceeding it returns [Inconclusive], never a false proof. *)

module Value = Druzhba_util.Value
module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Dataflow = Druzhba_analysis.Dataflow
module Phv = Druzhba_dsim.Phv
module Substrate = Druzhba_dsim.Substrate
module Trace = Druzhba_dsim.Trace

type counterexample = {
  cx_pipeline_state : (string * int array) list; (* where the run diverged from *)
  cx_spec_state : int array;
  cx_input : Phv.t;
  cx_kind : [ `Output of int | `State of int ];
  cx_expected : int;
  cx_actual : int;
}

type result =
  | Proved of { states : int; inputs_per_state : int }
  | Counterexample of counterexample
  | Inconclusive of { explored : int } (* state budget exhausted *)

let pp_result ppf = function
  | Proved { states; inputs_per_state } ->
    Fmt.pf ppf "proved: %d reachable states x %d inputs each" states inputs_per_state
  | Counterexample cx ->
    let kind = match cx.cx_kind with `Output c -> Fmt.str "container %d" c | `State i -> Fmt.str "state slot %d" i in
    Fmt.pf ppf "counterexample at input %a (%s: expected %d, got %d)" Phv.pp cx.cx_input kind
      cx.cx_expected cx.cx_actual
  | Inconclusive { explored } -> Fmt.pf ppf "inconclusive: state budget exhausted after %d states" explored

(* Enumerates every PHV over [width] containers of [bits] bits. *)
let all_phvs ~bits ~width =
  let values = 1 lsl bits in
  let total = 1 lsl (bits * width) in
  List.init total (fun code ->
      Array.init width (fun c -> (code lsr (c * bits)) mod values))

(* Serializes a (pipeline state, spec state) pair into a comparable key. *)
let state_key pipeline_state spec_state =
  (List.map (fun (n, v) -> (n, Array.to_list v)) pipeline_state, Array.to_list spec_state)

let exhaustive_check ?(max_states = 200_000) ?substrate ~(desc : Ir.t) ~mc ~(spec : Fuzz.spec)
    ~observed ~(state_layout : Fuzz.state_layout) ~init () : result =
  let bits = desc.Ir.d_bits in
  let width = desc.Ir.d_width in
  let inputs = all_phvs ~bits ~width in
  let inputs_per_state = List.length inputs in
  (* The substrate under proof — the interpreter engine unless the caller
     swaps in another backend (the closure compiler, a dRMT adapter). *)
  let sub =
    match substrate with Some s -> s | None -> Substrate.of_engine ~init desc ~mc
  in
  let buf = Trace.Buffer.create ~width:(Substrate.width sub) ~capacity:1 in
  (* run one packet from a given pipeline state; return (output, new state) *)
  let run_one pipeline_state input =
    Trace.Buffer.clear buf;
    Substrate.load_state sub pipeline_state;
    Substrate.run_into sub ~inputs:[ input ] buf;
    if Trace.Buffer.length buf <> 1 then invalid_arg "Verify: expected exactly one output";
    (Array.copy (Trace.Buffer.row buf 0), Substrate.current_state sub)
  in
  let spec_step spec_state input =
    let s = Array.copy spec_state in
    let out = spec.Fuzz.spec_step s input in
    (out, s)
  in
  let initial_spec = spec.Fuzz.spec_init () in
  (* normalize the initial pipeline state to cover every stateful ALU:
     [load_state] arms the substrate with [init], so its full state vector
     is observable at once *)
  let initial_pipeline =
    Substrate.load_state sub init;
    Substrate.current_state sub
  in
  let seen = Hashtbl.create 1024 in
  let queue = Queue.create () in
  Hashtbl.replace seen (state_key initial_pipeline initial_spec) ();
  Queue.add (initial_pipeline, initial_spec) queue;
  let result = ref None in
  (try
     while not (Queue.is_empty queue) do
       let pipeline_state, spec_state = Queue.take queue in
       List.iter
         (fun input ->
           let output, pipeline_state' = run_one pipeline_state input in
           let expected, spec_state' = spec_step spec_state input in
           (* outputs *)
           (match List.find_opt (fun c -> expected.(c) <> output.(c)) observed with
           | Some c ->
             result :=
               Some
                 (Counterexample
                    {
                      cx_pipeline_state = pipeline_state;
                      cx_spec_state = spec_state;
                      cx_input = input;
                      cx_kind = `Output c;
                      cx_expected = expected.(c);
                      cx_actual = output.(c);
                    });
             raise_notrace Exit
           | None -> ());
           (* state pairing *)
           List.iter
             (fun (alu, slot, idx) ->
               let actual =
                 match List.assoc_opt alu pipeline_state' with
                 | Some vec -> vec.(slot)
                 | None -> min_int
               in
               if actual <> spec_state'.(idx) then begin
                 result :=
                   Some
                     (Counterexample
                        {
                          cx_pipeline_state = pipeline_state;
                          cx_spec_state = spec_state;
                          cx_input = input;
                          cx_kind = `State idx;
                          cx_expected = spec_state'.(idx);
                          cx_actual = actual;
                        });
                 raise_notrace Exit
               end)
             state_layout;
           (* explore the successor *)
           let key = state_key pipeline_state' spec_state' in
           if not (Hashtbl.mem seen key) then begin
             if Hashtbl.length seen >= max_states then begin
               result := Some (Inconclusive { explored = Hashtbl.length seen });
               raise_notrace Exit
             end;
             Hashtbl.replace seen key ();
             Queue.add (pipeline_state', spec_state') queue
           end)
         inputs
     done
   with Exit -> ());
  match !result with
  | Some r -> r
  | None -> Proved { states = Hashtbl.length seen; inputs_per_state }

(* --- Mismatch triage --------------------------------------------------------

   When fuzzing or exhaustive checking reports a divergence, the interesting
   question is *which part of the pipeline it flows through*: on a pipeline
   with dozens of ALUs and hundreds of machine-code pairs, the backward
   slice from the diverging output usually implicates a handful of each —
   the Gauntlet-style localization step that turns "trace mismatch at PHV
   517" into "look at these two ALUs and their selectors". *)

type triage = {
  tr_start : Dataflow.node;  (* the diverging observable *)
  tr_alus : string list;  (* ALUs the value can have flowed through *)
  tr_state : (string * int) list;  (* state slots involved *)
  tr_controls : string list;  (* machine-code pairs that steer the slice *)
  tr_containers : (int * int) list;  (* (stage boundary, container) *)
}

(* Backward-slices the provenance graph from a diverging output container or
   state slot.  The machine code makes the slice sharp: each output mux
   contributes only its selected arm.  [`Container] starts from a mid-
   pipeline stage boundary — translation validation refutes per-stage
   obligations, not just final outputs. *)
let triage ~(desc : Ir.t) ~mc
    (kind : [ `Output of int | `State of string * int | `Container of int * int ]) : triage =
  let pv = Dataflow.provenance ~mc desc in
  let start =
    match kind with
    | `Output c -> Dataflow.output_node pv c
    | `State (alu, slot) -> Dataflow.Nstate (alu, slot)
    | `Container (stage, c) -> Dataflow.Ncontainer (stage + 1, c)
  in
  let nodes = Dataflow.slice pv start in
  let alus = List.filter_map (function Dataflow.Nalu n -> Some n | _ -> None) nodes in
  let state = List.filter_map (function Dataflow.Nstate (n, k) -> Some (n, k) | _ -> None) nodes in
  let controls = List.filter_map (function Dataflow.Ncontrol n -> Some n | _ -> None) nodes in
  let containers =
    List.filter_map (function Dataflow.Ncontainer (s, c) -> Some (s, c) | _ -> None) nodes
  in
  { tr_start = start; tr_alus = alus; tr_state = state; tr_controls = controls; tr_containers = containers }

let pp_triage ppf (t : triage) =
  let pp_capped pp_item ppf items =
    let n = List.length items in
    let shown = if n > 24 then List.filteri (fun i _ -> i < 24) items else items in
    Fmt.pf ppf "%a" Fmt.(list ~sep:(any ", ") pp_item) shown;
    if n > 24 then Fmt.pf ppf ", ... (%d total)" n
  in
  Fmt.pf ppf "@[<v>divergence slice from %a:@," Dataflow.pp_node t.tr_start;
  Fmt.pf ppf "  ALUs:       %a@," (pp_capped Fmt.string) t.tr_alus;
  Fmt.pf ppf "  state:      %a@,"
    (pp_capped (fun ppf (n, k) -> Fmt.pf ppf "%s[%d]" n k))
    t.tr_state;
  Fmt.pf ppf "  controls:   %a@," (pp_capped Fmt.string) t.tr_controls;
  Fmt.pf ppf "  containers: %a@]"
    (pp_capped (fun ppf (s, c) -> Fmt.pf ppf "phv%d@@%d" c s))
    t.tr_containers
