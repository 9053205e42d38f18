(* dgen: pipeline code generation (paper §3.1–3.2).

   Takes the pipeline dimensions (depth = number of stages, width = ALUs per
   stage = PHV containers), the stateful and stateless ALU descriptions in
   the ALU DSL, and produces the *pipeline description*: helper functions for
   every mux / opcode construct plus a function body per ALU instance, wired
   to PHV containers through input and output multiplexers.

   The generated description corresponds to "version 1" of the paper's
   Fig. 6: every machine-code value is looked up at simulation time ([Ir.Mc]
   nodes appear at helper call sites) and every construct goes through a
   helper function call. *)

module Ast = Druzhba_alu_dsl.Ast
module Analysis = Druzhba_alu_dsl.Analysis
module Value = Druzhba_util.Value

type config = {
  depth : int; (* number of pipeline stages *)
  width : int; (* ALUs per stage and PHV containers *)
  bits : Value.width; (* datapath width of containers and state *)
}

let config ~depth ~width ?(bits = 32) () =
  if depth < 1 then invalid_arg "Dgen.config: depth must be >= 1";
  if width < 1 then invalid_arg "Dgen.config: width must be >= 1";
  { depth; width; bits = Value.width bits }

(* Builds the conditional chain selecting among [choices] based on [ctrl]:
   if ctrl == 0 then c0 else if ctrl == 1 then c1 else ... else c_last. *)
let selector_chain ctrl choices =
  let rec go i = function
    | [] -> invalid_arg "selector_chain: no choices"
    | [ last ] -> last
    | c :: rest -> Ir.Cond (Ir.Binop (Eq, ctrl, Const i), c, go (i + 1) rest)
  in
  go 0 choices

(* --- Helper construction -------------------------------------------------

   Each helper has exactly one call site; its name doubles as the
   machine-code name of the control that configures it. *)

(* [prefix] followed by each index below [n]: a helper's parameter names. *)
let numbered prefix n = List.init n (fun i -> prefix ^ string_of_int i)

let vars names = List.map (fun v -> Ir.Var v) names

let mux_helper name arity =
  let operands = numbered "op" arity in
  let params = operands @ [ "ctrl" ] in
  let choices = vars operands in
  {
    Ir.h_name = name;
    h_params = params;
    h_body = selector_chain (Ir.Var "ctrl") choices;
    h_ctrl = Some arity;
  }

let opt_helper name =
  (* ctrl = 0 returns the argument, anything else returns 0 (paper Fig. 4:
     "Opt() ... either returns 0 or its argument"). *)
  {
    Ir.h_name = name;
    h_params = [ "arg"; "ctrl" ];
    h_body = Ir.Cond (Var "ctrl", Const 0, Var "arg");
    h_ctrl = Some 2;
  }

let rel_op_helper name =
  let a = Ir.Var "op0" and b = Ir.Var "op1" in
  {
    Ir.h_name = name;
    h_params = [ "op0"; "op1"; "ctrl" ];
    h_body =
      selector_chain (Ir.Var "ctrl")
        [ Ir.Binop (Ge, a, b); Ir.Binop (Le, a, b); Ir.Binop (Eq, a, b); Ir.Binop (Neq, a, b) ];
    h_ctrl = Some 4;
  }

let arith_op_helper name =
  let a = Ir.Var "op0" and b = Ir.Var "op1" in
  {
    Ir.h_name = name;
    h_params = [ "op0"; "op1"; "ctrl" ];
    h_body = selector_chain (Ir.Var "ctrl") [ Ir.Binop (Add, a, b); Ir.Binop (Sub, a, b) ];
    h_ctrl = Some 2;
  }

let input_mux_helper name width =
  let containers = numbered "phv" width in
  let params = containers @ [ "ctrl" ] in
  let choices = vars containers in
  {
    Ir.h_name = name;
    h_params = params;
    h_body = selector_chain (Ir.Var "ctrl") choices;
    h_ctrl = Some width;
  }

(* Output mux for one PHV container: selects among the stage's [width]
   stateless outputs, the [width] stateful ALU outputs (explicit return, or
   the Banzai read-modify-write convention of the pre-execution state_0),
   the [width] stateful ALUs' post-execution state_0 values, or the
   container's incoming value (pass-through), in that machine-code order.
   Exposing both state halves mirrors hardware stateful ALUs, whose read and
   write datapaths are both visible to the action crossbar; programs like
   flowlets consume the written value while programs like the learn filter
   consume the read value. *)
let output_mux_helper name width =
  let data =
    numbered "stateless" width @ numbered "stateful" width @ numbered "stateful_new" width
    @ [ "old" ]
  in
  let params = data @ [ "ctrl" ] in
  let choices = vars data in
  {
    Ir.h_name = name;
    h_params = params;
    h_body = selector_chain (Ir.Var "ctrl") choices;
    h_ctrl = Some ((3 * width) + 1);
  }

(* --- ALU translation ----------------------------------------------------- *)

type alu_env = {
  alu_prefix : string;
  spec : Ast.t;
  bits : Value.width; (* DSL literals are truncated to the datapath width *)
  state_index : string -> int option;
  register : Ir.helper -> unit; (* adds a helper to the description table *)
}

let slot_mc env slot_name = Ir.Mc (Names.slot ~alu_prefix:env.alu_prefix ~slot_name)

let rec translate_expr env (e : Ast.expr) : Ir.expr =
  match e with
  | Ast.Const n -> Ir.Const (Value.mask env.bits n)
  | Ast.Var v -> (
    match env.state_index v with
    | Some k -> Ir.State k
    | None ->
      if List.mem v env.spec.hole_vars then Ir.Trunc (slot_mc env v)
      else Ir.Var v (* packet-field operand, let-bound in the body prelude *))
  | Ast.Unop (op, a) -> Ir.Unop (op, translate_expr env a)
  | Ast.Binop (op, a, b) -> Ir.Binop (op, translate_expr env a, translate_expr env b)
  | Ast.Hole_const i -> Ir.Trunc (slot_mc env (Analysis.const_slot_name i))
  | Ast.Opt (i, a) ->
    let name = Names.slot ~alu_prefix:env.alu_prefix ~slot_name:(Analysis.opt_slot_name i) in
    env.register (opt_helper name);
    Ir.Call (name, [ translate_expr env a; Ir.Mc name ])
  | Ast.Mux (i, es) ->
    let arity = List.length es in
    let name =
      Names.slot ~alu_prefix:env.alu_prefix ~slot_name:(Analysis.mux_slot_name ~arity i)
    in
    env.register (mux_helper name arity);
    Ir.Call (name, List.map (translate_expr env) es @ [ Ir.Mc name ])
  | Ast.Rel_op (i, a, b) ->
    let name = Names.slot ~alu_prefix:env.alu_prefix ~slot_name:(Analysis.rel_op_slot_name i) in
    env.register (rel_op_helper name);
    Ir.Call (name, [ translate_expr env a; translate_expr env b; Ir.Mc name ])
  | Ast.Arith_op (i, a, b) ->
    let name = Names.slot ~alu_prefix:env.alu_prefix ~slot_name:(Analysis.arith_op_slot_name i) in
    env.register (arith_op_helper name);
    Ir.Call (name, [ translate_expr env a; translate_expr env b; Ir.Mc name ])

let rec translate_stmt env (s : Ast.stmt) : Ir.stmt =
  match s with
  | Ast.Assign (v, e) -> (
    match env.state_index v with
    | Some k -> Ir.Store (k, translate_expr env e)
    | None -> invalid_arg (Printf.sprintf "Dgen: assignment to non-state variable '%s'" v))
  | Ast.Return e -> Ir.Return (translate_expr env e)
  | Ast.If (branches, els) ->
    let rec chain = function
      | [] -> List.map (translate_stmt env) els
      | (cond, body) :: rest ->
        [ Ir.If (translate_expr env cond, List.map (translate_stmt env) body, chain rest) ]
    in
    (match chain branches with
    | [ s ] -> s
    | _ -> assert false (* chain of a non-empty list yields one statement *))

(* Instantiates one ALU at a pipeline position. *)
let instantiate_alu ~register ~width ~bits ~alu_prefix (spec : Ast.t) : Ir.alu =
  let state_index v =
    let rec idx k = function
      | [] -> None
      | s :: _ when s = v -> Some k
      | _ :: rest -> idx (k + 1) rest
    in
    idx 0 spec.state_vars
  in
  let env = { alu_prefix; spec; bits; state_index; register } in
  (* Operand prelude: one input mux per declared packet field. *)
  let prelude =
    List.mapi
      (fun k field ->
        let name = Names.input_mux ~alu_prefix ~operand:k in
        register (input_mux_helper name width);
        let args = List.init width (fun c -> Ir.Phv c) @ [ Ir.Mc name ] in
        Ir.Let (field, Ir.Call (name, args)))
      spec.packet_fields
  in
  let body = List.map (translate_stmt env) spec.body in
  {
    Ir.a_name = alu_prefix;
    a_kind = (match spec.kind with Ast.Stateful -> Ir.Kstateful | Ast.Stateless -> Ir.Kstateless);
    a_state_size = List.length spec.state_vars;
    a_body = prelude @ body;
    a_default_output = (match spec.kind with Ast.Stateful -> Ir.State 0 | Ast.Stateless -> Ir.Const 0);
  }

(* Generates the full pipeline description ("version 1"). *)
let generate (cfg : config) ~(stateful : Ast.t) ~(stateless : Ast.t) : Ir.t =
  Analysis.validate_exn stateful;
  Analysis.validate_exn stateless;
  if stateful.kind <> Ast.Stateful then invalid_arg "Dgen.generate: 'stateful' ALU is stateless";
  if stateless.kind <> Ast.Stateless then invalid_arg "Dgen.generate: 'stateless' ALU is stateful";
  let helpers = Hashtbl.create 256 in
  let register (h : Ir.helper) = Hashtbl.replace helpers h.Ir.h_name h in
  let stages =
    Array.init cfg.depth (fun i ->
        let stateless_alus =
          Array.init cfg.width (fun j ->
              instantiate_alu ~register ~width:cfg.width ~bits:cfg.bits
                ~alu_prefix:(Names.stateless_alu ~stage:i ~alu:j)
                stateless)
        in
        let stateful_alus =
          Array.init cfg.width (fun j ->
              instantiate_alu ~register ~width:cfg.width ~bits:cfg.bits
                ~alu_prefix:(Names.stateful_alu ~stage:i ~alu:j)
                stateful)
        in
        let output_muxes =
          Array.init cfg.width (fun c ->
              let name = Names.output_mux ~stage:i ~container:c in
              register (output_mux_helper name cfg.width);
              name)
        in
        { Ir.s_index = i; s_stateless = stateless_alus; s_stateful = stateful_alus; s_output_muxes = output_muxes })
  in
  {
    Ir.d_depth = cfg.depth;
    d_width = cfg.width;
    d_bits = cfg.bits;
    d_stages = stages;
    d_helpers = helpers;
    d_stateful_spec = stateful;
    d_stateless_spec = stateless;
  }
