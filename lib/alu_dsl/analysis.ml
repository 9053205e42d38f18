(* Semantic analysis of parsed ALU descriptions: well-formedness checks and
   the machine-code slot inventory.

   A "slot" is one machine-code-controlled degree of freedom inside the ALU:
   a mux selector, an Opt selector, an immediate, a rel_op/arith_op opcode,
   or a declared hole variable.  dgen later prefixes each slot name with the
   ALU's position in the pipeline to obtain the full machine-code name. *)

type domain =
  | Range of int (* selector in [0, n) *)
  | Immediate (* unsigned constant of the full datapath width *)
[@@deriving eq, show { with_path = false }]

type slot = { slot_name : string; domain : domain } [@@deriving eq, show { with_path = false }]

let mux_slot_name ~arity i = "mux" ^ string_of_int arity ^ "_" ^ string_of_int i
let opt_slot_name i = "opt_" ^ string_of_int i
let const_slot_name i = "const_" ^ string_of_int i
let rel_op_slot_name i = "rel_op_" ^ string_of_int i
let arith_op_slot_name i = "arith_op_" ^ string_of_int i

(* Collects the slots of an expression in order of appearance. *)
let rec expr_slots acc (e : Ast.expr) =
  match e with
  | Ast.Const _ | Ast.Var _ -> acc
  | Ast.Unop (_, e) -> expr_slots acc e
  | Ast.Binop (_, a, b) -> expr_slots (expr_slots acc a) b
  | Ast.Hole_const i -> { slot_name = const_slot_name i; domain = Immediate } :: acc
  | Ast.Opt (i, e) -> expr_slots ({ slot_name = opt_slot_name i; domain = Range 2 } :: acc) e
  | Ast.Mux (i, es) ->
    let arity = List.length es in
    let acc = { slot_name = mux_slot_name ~arity i; domain = Range arity } :: acc in
    List.fold_left expr_slots acc es
  | Ast.Rel_op (i, a, b) ->
    let acc = { slot_name = rel_op_slot_name i; domain = Range Ast.rel_op_count } :: acc in
    expr_slots (expr_slots acc a) b
  | Ast.Arith_op (i, a, b) ->
    let acc = { slot_name = arith_op_slot_name i; domain = Range Ast.arith_op_count } :: acc in
    expr_slots (expr_slots acc a) b

let rec stmt_slots acc (s : Ast.stmt) =
  match s with
  | Ast.Assign (_, e) | Ast.Return e -> expr_slots acc e
  | Ast.If (branches, els) ->
    let acc =
      List.fold_left
        (fun acc (cond, body) -> List.fold_left stmt_slots (expr_slots acc cond) body)
        acc branches
    in
    List.fold_left stmt_slots acc els

(* Machine-code slots of the ALU, in order of appearance.  Hole variables
   come first (they are declared in the header), then body constructs. *)
let slots (alu : Ast.t) =
  let holes = List.map (fun h -> { slot_name = h; domain = Immediate }) alu.hole_vars in
  holes @ List.rev (List.fold_left stmt_slots [] alu.body)

(* --- Well-formedness ----------------------------------------------------- *)

let rec expr_vars acc (e : Ast.expr) =
  match e with
  | Ast.Const _ | Ast.Hole_const _ -> acc
  | Ast.Var v -> v :: acc
  | Ast.Unop (_, e) | Ast.Opt (_, e) -> expr_vars acc e
  | Ast.Binop (_, a, b) | Ast.Rel_op (_, a, b) | Ast.Arith_op (_, a, b) ->
    expr_vars (expr_vars acc a) b
  | Ast.Mux (_, es) -> List.fold_left expr_vars acc es

(* --- Unused declarations --------------------------------------------------

   Declared names (state variables, hole variables, packet fields) that the
   body never mentions.  They are legal — [validate] accepts them — but each
   one costs hardware: an unused packet field still instantiates an input
   mux per ALU, and an unused hole variable still demands a machine-code
   pair.  The lint surfaces them as warnings. *)

let unused_decls (alu : Ast.t) =
  let rec stmt_names acc (s : Ast.stmt) =
    match s with
    | Ast.Assign (v, e) -> expr_vars (v :: acc) e
    | Ast.Return e -> expr_vars acc e
    | Ast.If (branches, els) ->
      let acc =
        List.fold_left
          (fun acc (cond, body) -> List.fold_left stmt_names (expr_vars acc cond) body)
          acc branches
      in
      List.fold_left stmt_names acc els
  in
  let used = List.fold_left stmt_names [] alu.body in
  List.filter
    (fun v -> not (List.mem v used))
    (alu.state_vars @ alu.hole_vars @ alu.packet_fields)

(* Whether every control path through [body] executes a [Return]. *)
let rec always_returns body =
  List.exists
    (fun (s : Ast.stmt) ->
      match s with
      | Ast.Return _ -> true
      | Ast.If (branches, els) ->
        els <> []
        && List.for_all (fun (_, b) -> always_returns b) branches
        && always_returns els
      | Ast.Assign _ -> false)
    body

let validate (alu : Ast.t) =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun m -> errs := m :: !errs) fmt in
  let declared =
    alu.state_vars @ alu.hole_vars @ alu.packet_fields
  in
  (* duplicate declarations *)
  let rec dup_check seen = function
    | [] -> ()
    | v :: rest ->
      if List.mem v seen then err "duplicate declaration of '%s'" v;
      dup_check (v :: seen) rest
  in
  dup_check [] declared;
  (match alu.kind with
  | Ast.Stateful -> if alu.state_vars = [] then err "stateful ALU must declare at least one state variable"
  | Ast.Stateless ->
    if alu.state_vars <> [] then err "stateless ALU must not declare state variables");
  (* body checks *)
  let check_expr e =
    List.iter
      (fun v -> if not (List.mem v declared) then err "use of undeclared variable '%s'" v)
      (expr_vars [] e)
  in
  let rec check_stmt (s : Ast.stmt) =
    match s with
    | Ast.Assign (target, e) ->
      if not (List.mem target alu.state_vars) then
        err "assignment target '%s' is not a state variable" target;
      check_expr e
    | Ast.Return e -> check_expr e
    | Ast.If (branches, els) ->
      List.iter
        (fun (cond, body) ->
          check_expr cond;
          List.iter check_stmt body)
        branches;
      List.iter check_stmt els
  in
  List.iter check_stmt alu.body;
  (* a stateless ALU has no implicit output, so it must always return *)
  if alu.kind = Ast.Stateless && not (always_returns alu.body) then
    err "stateless ALU must execute 'return' on every control path";
  match !errs with
  | [] -> Ok ()
  | errs -> Error (List.rev errs)

let validate_exn alu =
  match validate alu with
  | Ok () -> ()
  | Error errs -> invalid_arg (Printf.sprintf "ALU '%s': %s" alu.name (String.concat "; " errs))
