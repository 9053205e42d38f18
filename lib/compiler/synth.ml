(* Enumerative CEGIS synthesis backend — the stand-in for Chipmunk, the
   program-synthesis compiler the paper's case study tests (§5.2).

   Chipmunk generates machine code "in the form of constant integers from a
   given Domino file through the use of program synthesis".  This backend
   does the same with counterexample-guided enumerative search:

   - the search space is the machine-code controls of the stateful ALUs and
     the output muxes of the program's output containers (stateless units
     are held neutral — a structural prior that keeps the space enumerable);
   - immediates range over constants mined from the program, masked to the
     *synthesis* bit width;
   - candidates are screened against input/output examples produced by the
     reference semantics, a verification pass samples fresh random inputs,
     and counterexamples feed back into the example set.

   Crucially, synthesis runs at a configurable narrow bit width.  The paper
   reports that 6 of Chipmunk's 8 failures were machine code that "only
   satisfied a limited range of values" because "the synthesis engine failed
   to find machine code to satisfy 10-bit inputs in the allotted time" —
   running this backend with [synth_bits] of 4 and then fuzz-verifying the
   result on a wider pipeline reproduces exactly that failure class (e.g. a
   threshold of 100 cannot even be represented in 4 bits). *)

module Value = Druzhba_util.Value
module Prng = Druzhba_util.Prng
module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Dgen = Druzhba_pipeline.Dgen
module Names = Druzhba_pipeline.Names
module Substrate = Druzhba_dsim.Substrate
module Phv = Druzhba_dsim.Phv

type problem = {
  p_program : Ast.program;
  p_target : Codegen.target; (* full-width pipeline the result must serve *)
  p_synth_bits : int; (* bit width used during synthesis (<= target width) *)
  p_examples : int; (* initial example count *)
  p_budget : int; (* maximum candidates to evaluate *)
  p_seed : int;
}

type outcome =
  | Synthesized of Codegen.compiled (* machine code + layout at full width *)
  | Budget_exhausted of { candidates : int }

(* --- Fixed layout ------------------------------------------------------------

   Unlike the rule-based backend, synthesis fixes the container layout up
   front (it is part of the problem statement): input fields occupy
   containers 0..n-1 in first-use order, output fields follow, and the
   program's single state group lives in stateful ALU 0 of stage 0. *)

let layout_of (target : Codegen.target) (program : Ast.program) info =
  let inputs = List.mapi (fun i f -> (f, i)) info.Checker.input_fields in
  let n = List.length inputs in
  let outputs = List.mapi (fun i f -> (f, n + i)) info.Checker.output_fields in
  if n + List.length outputs > target.Codegen.t_width then
    invalid_arg "Synth: fields do not fit the pipeline width";
  let alu = Names.stateful_alu ~stage:0 ~alu:0 in
  let state = List.mapi (fun i (v, _) -> (v, (alu, i))) program.Ast.states in
  (* the init vector is sized to the atom, not the program: extra atom state
     slots start at zero and are unconstrained *)
  let atom_slots = List.length target.Codegen.t_stateful.Druzhba_alu_dsl.Ast.state_vars in
  if List.length program.Ast.states > atom_slots then
    invalid_arg "Synth: more state variables than atom state slots";
  let vec = Array.make atom_slots 0 in
  List.iteri
    (fun i (_, init) -> vec.(i) <- Value.mask target.Codegen.t_bits init)
    program.Ast.states;
  { Codegen.l_inputs = inputs; l_outputs = outputs; l_state = state; l_init = [ (alu, vec) ] }

(* --- Search space -------------------------------------------------------------- *)

type dimension = { dim_name : string; dim_choices : int array }

(* The controls the synthesizer may program: every slot and input mux of
   every stateful ALU, plus the output muxes of the output containers.
   Everything else stays at the neutral default. *)
let search_space (desc : Ir.t) ~constants ~output_containers =
  let stateful_prefixes =
    Array.to_list desc.Ir.d_stages
    |> List.concat_map (fun (st : Ir.stage) ->
           Array.to_list st.Ir.s_stateful |> List.map (fun (a : Ir.alu) -> a.Ir.a_name))
  in
  let is_searchable name =
    List.exists
      (fun p -> String.length name >= String.length p && String.sub name 0 (String.length p) = p)
      stateful_prefixes
  in
  let consts = Array.of_list constants in
  let dims =
    List.filter_map
      (fun (name, domain) ->
        if is_searchable name then
          match (domain : Ir.control_domain) with
          | Ir.Selector n -> Some { dim_name = name; dim_choices = Array.init n Fun.id }
          | Ir.Immediate -> Some { dim_name = name; dim_choices = consts }
        else None)
      (Ir.control_domains desc)
  in
  let out_dims =
    List.map
      (fun c ->
        let name = Names.output_mux ~stage:(desc.Ir.d_depth - 1) ~container:c in
        { dim_name = name; dim_choices = Array.init ((3 * desc.Ir.d_width) + 1) Fun.id })
      output_containers
  in
  dims @ out_dims

let space_size dims =
  List.fold_left
    (fun acc d ->
      let n = max 1 (Array.length d.dim_choices) in
      if acc > max_int / n then max_int else acc * n)
    1 dims

(* --- Candidate evaluation --------------------------------------------------------- *)

(* Examples: an input sequence with the expected output PHVs and the spec's
   final state vector (state accumulates across the whole sequence, matching
   how the pipeline carries state between packets). *)
type example_set = {
  ex_inputs : Phv.t list;
  ex_outputs : Phv.t list; (* expected; compared on observed containers *)
  ex_state : int array; (* expected final spec state (indexed as l_state) *)
}

let examples_of_inputs ~(spec : Druzhba_fuzz.Fuzz.spec) inputs =
  let state = spec.Druzhba_fuzz.Fuzz.spec_init () in
  let outputs = List.map (fun phv -> spec.Druzhba_fuzz.Fuzz.spec_step state phv) inputs in
  { ex_inputs = inputs; ex_outputs = outputs; ex_state = state }

let make_examples ~bits ~spec ~width prng n =
  examples_of_inputs ~spec (List.init n (fun _ -> Phv.random prng ~width ~bits))

(* [state_triples]: (ALU name, state slot, spec state index), as in
   {!Druzhba_fuzz.Fuzz.state_layout}.  [run] executes the candidate pipeline
   on an input sequence; the search uses the interpreter so that candidates
   need no per-candidate closure compilation. *)
let check_candidate ~run ~state_triples ~observed examples =
  let trace : Druzhba_dsim.Trace.t = run examples.ex_inputs in
  let outputs_ok =
    List.for_all2
      (fun (expected : Phv.t) (actual : Phv.t) ->
        List.for_all (fun c -> expected.(c) = actual.(c)) observed)
      examples.ex_outputs trace.Druzhba_dsim.Trace.outputs
  in
  outputs_ok
  && List.for_all
       (fun (alu, slot, idx) ->
         match Druzhba_dsim.Trace.find_state trace alu with
         | Some vec -> vec.(slot) = examples.ex_state.(idx)
         | None -> false)
       state_triples

(* --- The search -------------------------------------------------------------------- *)

let synthesize (p : problem) : outcome =
  let program = p.p_program in
  let info = Checker.analyze_exn program in
  let full = p.p_target in
  let synth_bits = Value.width p.p_synth_bits in
  (* narrow-width pipeline used during the search *)
  let synth_target = { full with Codegen.t_bits = synth_bits } in
  let synth_desc =
    Dgen.generate
      (Dgen.config ~depth:synth_target.Codegen.t_depth ~width:synth_target.Codegen.t_width
         ~bits:synth_bits ())
      ~stateful:synth_target.Codegen.t_stateful ~stateless:synth_target.Codegen.t_stateless
  in
  let layout = layout_of synth_target program info in
  let observed = List.map snd layout.Codegen.l_outputs in
  let constants =
    List.sort_uniq compare (List.map (Value.mask synth_bits) info.Checker.constants)
  in
  let dims = search_space synth_desc ~constants ~output_containers:observed in
  let prng = Prng.create p.p_seed in
  (* the spec at synthesis width *)
  let spec_compiled_stub =
    {
      Codegen.c_program = program;
      c_target = synth_target;
      c_mc = Machine_code.empty ();
      c_desc = synth_desc;
      c_layout = layout;
    }
  in
  let spec = Testing.spec_of spec_compiled_stub in
  let state_triples =
    List.mapi (fun idx (_, (alu, slot)) -> (alu, slot, idx)) layout.Codegen.l_state
  in
  let examples =
    ref
      (make_examples ~bits:synth_bits ~spec ~width:synth_target.Codegen.t_width
         (Prng.create (p.p_seed + 1))
         p.p_examples)
  in
  let base_mc = Codegen.neutral_mc synth_desc in
  let ndims = List.length dims in
  let dims_arr = Array.of_list dims in
  let assignment = Array.make ndims 0 in
  let exhaustive = space_size dims <= p.p_budget in
  let candidates = ref 0 in
  let mc_of_assignment () =
    let mc = Machine_code.copy base_mc in
    Array.iteri
      (fun i choice -> Machine_code.set mc dims_arr.(i).dim_name dims_arr.(i).dim_choices.(choice))
      assignment;
    mc
  in
  let verify mc =
    (* fresh random verification at synthesis width: two independent rounds
       of 2048 inputs, so near-miss candidates that diverge on rare inputs
       (e.g. only when an operand collides with the state value) are almost
       always caught and fed back as counterexamples *)
    let run inputs =
      Substrate.run (Substrate.of_engine ~init:layout.Codegen.l_init synth_desc ~mc) ~inputs
    in
    let vex =
      examples_of_inputs ~spec
        (List.init 4096 (fun _ ->
             Phv.random (Prng.split prng) ~width:synth_target.Codegen.t_width ~bits:synth_bits))
    in
    if check_candidate ~run ~state_triples ~observed vex then true
    else begin
      (* counterexamples join the screening set; expected outputs and state
         are recomputed over the concatenated input sequence, since the
         pipeline accumulates state across it *)
      (* cap the screening set so repeated verification failures don't make
         screening quadratically expensive *)
      let combined = !examples.ex_inputs @ vex.ex_inputs in
      let keep = 128 in
      let len = List.length combined in
      let trimmed =
        if len <= keep then combined else List.filteri (fun i _ -> i >= len - keep) combined
      in
      examples := examples_of_inputs ~spec trimmed;
      false
    end
  in
  let try_current () =
    incr candidates;
    let mc = mc_of_assignment () in
    let run inputs =
      Substrate.run (Substrate.of_engine ~init:layout.Codegen.l_init synth_desc ~mc) ~inputs
    in
    if check_candidate ~run ~state_triples ~observed !examples && verify mc then Some mc else None
  in
  let result = ref None in
  if ndims = 0 then (match try_current () with Some mc -> result := Some mc | None -> ())
  else if exhaustive then begin
    (* odometer enumeration over the full space *)
    let finished = ref false in
    while !result = None && not !finished do
      (match try_current () with Some mc -> result := Some mc | None -> ());
      (* advance the odometer *)
      let rec inc j =
        if j < 0 then finished := true
        else if assignment.(j) + 1 < Array.length dims_arr.(j).dim_choices then
          assignment.(j) <- assignment.(j) + 1
        else begin
          assignment.(j) <- 0;
          inc (j - 1)
        end
      in
      inc (ndims - 1)
    done
  end
  else
    (* random search within the candidate budget ("allotted time") *)
    while !result = None && !candidates < p.p_budget do
      Array.iteri
        (fun i _ -> assignment.(i) <- Prng.int prng (max 1 (Array.length dims_arr.(i).dim_choices)))
        assignment;
      match try_current () with Some mc -> result := Some mc | None -> ()
    done;
  match !result with
  | None -> Budget_exhausted { candidates = !candidates }
  | Some mc ->
    (* Package the result against the FULL-width target: the machine code is
       whatever synthesis found at the narrow width — if it only satisfies
       narrow values, wide-width fuzzing will catch it (the case study's
       second failure class). *)
    let full_desc =
      Dgen.generate
        (Dgen.config ~depth:full.Codegen.t_depth ~width:full.Codegen.t_width
           ~bits:full.Codegen.t_bits ())
        ~stateful:full.Codegen.t_stateful ~stateless:full.Codegen.t_stateless
    in
    let full_layout = layout_of full program info in
    Synthesized
      {
        Codegen.c_program = program;
        c_target = full;
        c_mc = mc;
        c_desc = full_desc;
        c_layout = full_layout;
      }
