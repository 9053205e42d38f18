(* Machine-code naming scheme.

   The paper requires machine-code strings to "succinctly denote the
   primitive that the pair corresponds to and the primitive's location within
   the pipeline" (§3.1).  Every name is built from a stage prefix, an ALU
   position, and the slot name produced by {!Druzhba_alu_dsl.Analysis}.
   Names are joined with [^] rather than formatted: dgen builds thousands
   of them per description. *)

let stage i = "pipeline_stage_" ^ string_of_int i

let stateful_alu ~stage:i ~alu:j = stage i ^ "_stateful_alu_" ^ string_of_int j
let stateless_alu ~stage:i ~alu:j = stage i ^ "_stateless_alu_" ^ string_of_int j

(* Control of the input mux feeding operand [operand] of an ALU. *)
let input_mux ~alu_prefix ~operand = alu_prefix ^ "_input_mux_" ^ string_of_int operand

(* Control of the output mux writing PHV container [container] of a stage. *)
let output_mux ~stage:i ~container = stage i ^ "_output_mux_" ^ string_of_int container

(* Control of a machine-code slot inside an ALU body (mux/opt/const/opcode or
   a declared hole variable). *)
let slot ~alu_prefix ~slot_name = alu_prefix ^ "_" ^ slot_name

(* Output-mux selector values (must match the choice order built by
   [Dgen.output_mux_helper]). *)
module Select = struct
  let stateless_output ~width:_ j = j
  let stateful_output ~width j = width + j
  let stateful_new_state ~width j = (2 * width) + j
  let passthrough ~width = 3 * width
end
