(* Closure compilation of pipeline descriptions.

   The original Druzhba writes the pipeline description to a Rust file that
   is compiled by rustc together with dsim; simulation then runs native code.
   This module is the OCaml analogue: a description (at any optimization
   level) is translated once into OCaml closures, and simulation runs those.
   Compilation time is excluded from the benchmark timers, exactly as the
   paper excludes rustc time from its Table 1 measurements.

   Like rustc, the translation settles each operator once: every [Unop] and
   [Binop] node becomes a closure specialized to its operator, which calls
   the operator's {!Value} function directly, and a comparison that decides
   a [Cond] or [If] yields the branch's bool with no 0/1 in between.
   Nothing dispatches on an operator at run time.  And as LLVM lowers an
   if-chain over one integer, a selector chain on a call-site cell becomes
   one bounds check and an array of arms.

   The cost model this preserves:
   - version 1 closures still read each machine-code value at run time, per
     [Mc] node per evaluation, from the values array the program owns (the
     paper's "machine code treated as variables at runtime"): the name is
     bound to its slot at compile time, but the value, and the selector
     chains and opcode dispatch it drives, stay on the tick path.  A helper
     argument that reads machine code is read once per call, by value, as
     in the interpreter and the paper's Rust;
   - version 2 closures have those reads compiled away (SCC propagation);
   - version 3 differs from version 2 only by helper-call overhead, which is
     small once code is compiled — matching the paper's observation that
     inlining adds no significant runtime gain over SCC propagation. *)

module Value = Druzhba_util.Value
module Machine_code = Druzhba_machine_code.Machine_code

(* Evaluation environment of a compiled ALU body.  [locals] is a scratch
   array reused across executions (single-threaded simulation).  State reads
   are latched (see {!Interp.run_alu}): expressions read [state_read], the
   snapshot taken when the ALU starts executing, while stores write the live
   [state]. *)
type cenv = {
  mutable phv : int array;
  state : int array;
  state_read : int array;
  locals : int array;
  (* Early-return slot: [Return] stores here and raises the constant
     {!Return_signal}, so returning allocates nothing per execution (an
     exception carrying the value would be a fresh block every tick). *)
  mutable ret : int;
}

exception Return_signal

(* A compiled output mux reads its data parameters, by position, from the
   stage's argument array. *)
type helper_fn = int array -> int

type compiled_alu = {
  ca_name : string;
  ca_state_size : int;
  ca_env : cenv; (* private scratch env for this ALU instance *)
  ca_run : unit -> int;
}

type compiled_stage = {
  cs_stateless : compiled_alu array;
  cs_stateful : compiled_alu array;
  cs_output_muxes : helper_fn array; (* args = stateless @ stateful @ new @ [old] *)
}

type t = {
  c_depth : int;
  c_width : int;
  c_bits : Value.width;
  c_stages : compiled_stage array;
}

(* --- Operator table -------------------------------------------------------- *)

(* One closure per operator over compiled operands of any environment:
   output-mux bodies run on an argument array, ALU bodies on a [cenv].
   Each calls its {!Value} function, the only definition of the operator's
   arithmetic.  The right operand runs first, as it does in the
   interpreter's [apply_binop bits op (eval a) (eval b)], so a program
   missing two pairs raises the same [Machine_code.Missing] name on every
   executor. *)
let unop bits (op : Ir.unop) (ca : 'e -> int) : 'e -> int =
  match op with
  | Ir.Neg -> fun env -> Value.neg bits (ca env)
  | Ir.Not -> fun env -> Value.logical_not (ca env)

let binop bits (op : Ir.binop) (ca : 'e -> int) (cb : 'e -> int) : 'e -> int =
  match op with
  | Ir.Add -> fun env -> let b = cb env in Value.add bits (ca env) b
  | Ir.Sub -> fun env -> let b = cb env in Value.sub bits (ca env) b
  | Ir.Mul -> fun env -> let b = cb env in Value.mul bits (ca env) b
  | Ir.Div -> fun env -> let b = cb env in Value.div bits (ca env) b
  | Ir.Mod -> fun env -> let b = cb env in Value.rem bits (ca env) b
  | Ir.Eq -> fun env -> let b = cb env in Value.eq (ca env) b
  | Ir.Neq -> fun env -> let b = cb env in Value.neq (ca env) b
  | Ir.Lt -> fun env -> let b = cb env in Value.lt (ca env) b
  | Ir.Gt -> fun env -> let b = cb env in Value.gt (ca env) b
  | Ir.Le -> fun env -> let b = cb env in Value.le (ca env) b
  | Ir.Ge -> fun env -> let b = cb env in Value.ge (ca env) b
  | Ir.And -> fun env -> let b = cb env in Value.logical_and (ca env) b
  | Ir.Or -> fun env -> let b = cb env in Value.logical_or (ca env) b

(* [binop] on two call-site cells, read in place rather than through a
   closure each: the opcode helpers' [op0 + op1], [op0 >= op1], ... *)
let binop_cells bits (op : Ir.binop) (a : int ref) (b : int ref) : 'e -> int =
  match op with
  | Ir.Add -> fun _ -> Value.add bits !a !b
  | Ir.Sub -> fun _ -> Value.sub bits !a !b
  | Ir.Mul -> fun _ -> Value.mul bits !a !b
  | Ir.Div -> fun _ -> Value.div bits !a !b
  | Ir.Mod -> fun _ -> Value.rem bits !a !b
  | Ir.Eq -> fun _ -> Value.eq !a !b
  | Ir.Neq -> fun _ -> Value.neq !a !b
  | Ir.Lt -> fun _ -> Value.lt !a !b
  | Ir.Gt -> fun _ -> Value.gt !a !b
  | Ir.Le -> fun _ -> Value.le !a !b
  | Ir.Ge -> fun _ -> Value.ge !a !b
  | Ir.And -> fun _ -> Value.logical_and !a !b
  | Ir.Or -> fun _ -> Value.logical_or !a !b

(* --- Expression compilation ------------------------------------------------ *)

(* The position of [name] among [names], the last one when it repeats: of
   two parameters sharing a name, the last binds, as in the interpreter. *)
let index_of name names =
  let rec go i found = function
    | [] -> found
    | n :: rest -> go (i + 1) (if String.equal n name then Some i else found) rest
  in
  go 0 None names

(* Every error the interpreter raises when an evaluation reaches it, the
   closures raise then too, with the same exception and text: a body that
   never reaches its defect runs to the end on both. *)
let raises exn : 'e -> int = fun _ -> raise exn

(* Where a body runs, which decides what its free names read.  An output
   mux runs on the stage's argument array and reads its data parameters in
   place; dgen helper bodies are call-free and never touch PHV or state, and
   we check rather than assume.  An ALU runs on its [cenv], reads the
   locals in scope by slot, and beta-reduces its helper calls. *)
type _ body =
  | Mux : string list -> int array body (* the helper's parameters *)
  | Alu : (string, Ir.helper) Hashtbl.t * (string * int) list -> cenv body
      (* helpers; locals in scope, innermost first, with their slots *)

(* Number of occurrences of variable [x] in an expression. *)
let occurrences x e =
  Ir.fold_expr (fun n e -> match e with Ir.Var v when String.equal v x -> n + 1 | _ -> n) 0 e

(* An argument whose evaluation cannot raise: it reads no machine code
   and calls no helper. *)
let pure e =
  Ir.fold_expr (fun ok e -> ok && match e with Ir.Mc _ | Ir.Call _ -> false | _ -> true) true e

(* The call-site cell [e] reads, if it is one. *)
let cell_of cells (e : Ir.expr) = match e with Ir.Var v -> List.assoc_opt v cells | _ -> None

(* A selector chain on variable [v], [if v = 0 then a0 else if v = 1 then
   a1 ... else d], as its arms [a0; a1; ...] and its default [d]: the shape
   of every unoptimized mux, opcode and output-mux body. *)
let rec selector_arms v i acc (e : Ir.expr) =
  match e with
  | Ir.Cond (Ir.Binop (Ir.Eq, Ir.Var v', Ir.Const k), a, rest) when String.equal v v' && k = i ->
    selector_arms v (i + 1) (a :: acc) rest
  | _ -> (List.rev acc, e)

(* [e] as a switch: a selector chain of two or more arms on a call-site
   cell, as the cell, the arms and the default. *)
let switch cells (e : Ir.expr) =
  match e with
  | Ir.Cond (Ir.Binop (Ir.Eq, Ir.Var v, Ir.Const 0), _, _) -> (
    match (List.assoc_opt v cells, selector_arms v 0 [] e) with
    | Some cell, ((_ :: _ :: _ as arms), default) -> Some (cell, arms, default)
    | _ -> None)
  | _ -> None

(* Compiles an expression.  Variables resolve first to per-call-site
   [cells] (helper parameters evaluated at the call, innermost first, and
   an output mux's control), then through [body].

   Helper calls are beta-reduced at compile time, mirroring the paper's
   setting where rustc aggressively inlines the tiny generated helper
   functions — which is why explicit function inlining (version 3) shows no
   significant runtime gain over SCC propagation (version 2), exactly as the
   paper observes.  Faithfulness of the version-1 cost model is preserved by
   evaluating every argument exactly once: a parameter used more than once
   in the helper body (e.g. the "ctrl" selector, consulted by each level of
   the conditional chain), and every argument that reads machine code, is
   bound to a call-site cell that the call fills in parameter order; only
   a pure argument used at most once is substituted.  So an [Mc] argument
   costs one read per call, not one per use, and a missing pair
   raises [Machine_code.Missing] with the name the interpreter's
   call-by-value raises, whatever the mux selects. *)
let rec compile_expr : type e.
    Value.width -> Mc_values.t -> e body -> (string * int ref) list -> Ir.expr -> e -> int =
 fun bits mv body cells e ->
  match e with
  | Ir.Const n -> fun _ -> n
  | Ir.Var v -> (
    match (List.assoc_opt v cells, body) with
    | Some cell, _ -> fun _ -> !cell
    | None, Mux params -> (
      match index_of v params with
      | Some i -> fun args -> Array.unsafe_get args i
      | None -> raises (Interp.Unbound_variable v))
    | None, Alu (_, scope) -> (
      match List.assoc_opt v scope with
      | Some i -> fun env -> Array.unsafe_get env.locals i
      | None -> raises (Interp.Unbound_variable v)))
  | Ir.Mc name -> (
    match Mc_values.slot mv name with
    | -1 -> raises (Machine_code.Missing name)
    | i ->
      let values = mv.Mc_values.values in
      fun _ -> Array.unsafe_get values i)
  | Ir.Trunc (Ir.Mc name) -> (
    match Mc_values.slot mv name with
    | -1 -> raises (Machine_code.Missing name)
    | i ->
      let values = mv.Mc_values.values in
      fun _ -> Value.mask bits (Array.unsafe_get values i))
  | Ir.Trunc a ->
    let ca = compile_expr bits mv body cells a in
    fun env -> Value.mask bits (ca env)
  | Ir.Phv k -> (
    match body with
    | Alu _ -> fun env -> Array.unsafe_get env.phv k
    | Mux _ -> invalid_arg "Compile: helper bodies cannot access PHV or state")
  | Ir.State k -> (
    match body with
    | Alu _ -> fun env -> Array.unsafe_get env.state_read k
    | Mux _ -> invalid_arg "Compile: helper bodies cannot access PHV or state")
  | Ir.Unop (op, a) -> unop bits op (compile_expr bits mv body cells a)
  | Ir.Binop (op, a, b) -> (
    match (cell_of cells a, cell_of cells b) with
    | Some ca, Some cb -> binop_cells bits op ca cb
    | _ ->
      let ca = compile_expr bits mv body cells a in
      let cb = compile_expr bits mv body cells b in
      binop bits op ca cb)
  | Ir.Cond (c, a, b) -> (
    match switch cells e with
    | Some (cell, arms, default) ->
      let arms = Array.of_list (List.map (compile_expr bits mv body cells) arms) in
      let cd = compile_expr bits mv body cells default in
      let n = Array.length arms in
      (* a value outside [0, n), negative ones included, takes the default *)
      fun env ->
        let sel = !cell in
        if sel >= 0 && sel < n then (Array.unsafe_get arms sel) env else cd env
    | None ->
      let cc = compile_cond bits mv body cells c in
      let ca = compile_expr bits mv body cells a in
      let cb = compile_expr bits mv body cells b in
      fun env -> if cc env then ca env else cb env)
  | Ir.Call (name, args) -> (
    match body with
    | Alu (helpers, _) -> compile_call bits mv body helpers cells name args
    | Mux _ -> invalid_arg "Compile: nested helper calls are not generated by dgen")

(* Compiles a [Cond] or [If] condition to [Value.is_true] of its value.  A
   comparison yields the bool the [Value] comparison would encode as 0/1.
   A bare cell, [e = const] and [cell = const] have cases of their own: the
   unoptimized Opt helper tests its bare control, and selector chains too
   short to switch on ([if ctrl == 0 then ... else ...]) are built from
   the others. *)
and compile_cond : type e.
    Value.width -> Mc_values.t -> e body -> (string * int ref) list -> Ir.expr -> e -> bool =
 fun bits mv body cells e ->
  let operands a b =
    (* [a] first: a tuple would compile [b] first and change which unbound
       name compilation reports *)
    let ca = compile_expr bits mv body cells a in
    (ca, compile_expr bits mv body cells b)
  in
  match e with
  | Ir.Var v when List.mem_assoc v cells ->
    let cell = List.assoc v cells in
    fun _ -> Value.is_true !cell
  | Ir.Binop (Ir.Eq, Ir.Var v, Ir.Const k) when List.mem_assoc v cells ->
    let cell = List.assoc v cells in
    fun _ -> !cell = k
  | Ir.Binop (Ir.Eq, a, Ir.Const k) ->
    let ca = compile_expr bits mv body cells a in
    fun env -> ca env = k
  | Ir.Binop (Ir.Eq, a, b) ->
    let ca, cb = operands a b in
    fun env -> let b = cb env in ca env = b
  | Ir.Binop (Ir.Neq, a, b) ->
    let ca, cb = operands a b in
    fun env -> let b = cb env in ca env <> b
  | Ir.Binop (Ir.Lt, a, b) ->
    let ca, cb = operands a b in
    fun env -> let b = cb env in ca env < b
  | Ir.Binop (Ir.Gt, a, b) ->
    let ca, cb = operands a b in
    fun env -> let b = cb env in ca env > b
  | Ir.Binop (Ir.Le, a, b) ->
    let ca, cb = operands a b in
    fun env -> let b = cb env in ca env <= b
  | Ir.Binop (Ir.Ge, a, b) ->
    let ca, cb = operands a b in
    fun env -> let b = cb env in ca env >= b
  | _ ->
    let ce = compile_expr bits mv body cells e in
    fun env -> Value.is_true (ce env)

and compile_call :
    Value.width -> Mc_values.t -> cenv body -> (string, Ir.helper) Hashtbl.t ->
    (string * int ref) list -> string -> Ir.expr list -> cenv -> int =
 fun bits mv body helpers cells name args ->
  match Hashtbl.find_opt helpers name with
  | None -> raises (Invalid_argument (Printf.sprintf "Interp: unknown helper '%s'" name))
  | Some h when List.compare_lengths h.Ir.h_params args <> 0 ->
    (* the arguments before the mismatch run first, in order *)
    let before = List.filteri (fun i _ -> i < List.length h.Ir.h_params) args in
    let evaluated = List.map (compile_expr bits mv body cells) before in
    fun env ->
      List.iter (fun carg -> ignore (carg env)) evaluated;
      invalid_arg "List.fold_left2"
  | Some h -> compile_known_call bits mv body helpers cells h args

and compile_known_call :
    Value.width -> Mc_values.t -> cenv body -> (string, Ir.helper) Hashtbl.t ->
    (string * int ref) list -> Ir.helper -> Ir.expr list -> cenv -> int =
 fun bits mv body helpers cells h args ->
  (* Each parameter is substituted or bound to a cell.  Of two sharing a
     name the last binds, and an earlier one's argument runs into a cell
     no name reads, for the errors it raises, unless it is pure.  An
     argument that names a parameter (a caller's local called "ctrl") is
     not substituted, since the parameter would capture the name.  A body
     that reads a name other than its parameters gets cells only, and
     sees nothing but them: the interpreter runs it in a frame of its own,
     where that name is unbound, not the caller's local. *)
  let names_param arg =
    Ir.fold_expr
      (fun found e -> found || match e with Ir.Var v -> List.mem v h.Ir.h_params | _ -> false)
      false arg
  in
  let rec is_param v = function [] -> false | p :: rest -> String.equal p v || is_param v rest in
  let closed =
    Ir.fold_expr
      (fun closed e -> closed && match e with Ir.Var v -> is_param v h.Ir.h_params | _ -> true)
      true h.Ir.h_body
  in
  let rec bind = function
    | [] -> []
    | (p, arg) :: rest ->
      let visible = not (List.mem_assoc p rest) in
      if closed && visible && occurrences p h.Ir.h_body <= 1 && pure arg && not (names_param arg)
      then `Subst (p, arg) :: bind rest
      else if visible || not (pure arg) then `Cell (p, visible, arg, ref 0) :: bind rest
      else bind rest
  in
  let bound = bind (List.combine h.Ir.h_params args) in
  let single = List.filter_map (function `Subst b -> Some b | `Cell _ -> None) bound in
  let eager = List.filter_map (function `Cell c -> Some c | `Subst _ -> None) bound in
  let inlined = Ir.subst_vars single h.Ir.h_body in
  let site_cells =
    List.filter_map (fun (p, visible, _, cell) -> if visible then Some (p, cell) else None) eager
  in
  let writes =
    Array.of_list
      (List.map (fun (_, _, arg, cell) -> (cell, compile_expr bits mv body cells arg)) eager)
  in
  let cbody =
    if closed then compile_expr bits mv body (site_cells @ cells) inlined
    else compile_expr bits mv (Alu (helpers, [])) site_cells inlined
  in
  (* straight-line writes for the usual one to three cells *)
  match writes with
  | [||] -> cbody
  | [| (c1, a1) |] ->
    fun env ->
      c1 := a1 env;
      cbody env
  | [| (c1, a1); (c2, a2) |] ->
    fun env ->
      c1 := a1 env;
      c2 := a2 env;
      cbody env
  | [| (c1, a1); (c2, a2); (c3, a3) |] ->
    fun env ->
      c1 := a1 env;
      c2 := a2 env;
      c3 := a3 env;
      cbody env
  | _ ->
    fun env ->
      (* explicit loop: an [Array.iter] closure would capture [env] and
         allocate on every evaluation *)
      for i = 0 to Array.length writes - 1 do
        let cell, carg = Array.unsafe_get writes i in
        cell := carg env
      done;
      cbody env

(* Compiles an ALU body, returning its statements and the local slots they
   need.  A [Let] takes the next slot of its scope and is visible to what
   follows it in its block; a branch's locals go out of scope after its
   [If], so the two arms (and what follows) reuse slots, as in the
   interpreter. *)
let compile_stmts bits mv helpers (stmts : Ir.stmt list) : (cenv -> unit) array * int =
  let frame = ref 0 in
  let rec block scope depth = function
    | [] -> []
    | (s : Ir.stmt) :: rest -> (
      let body = Alu (helpers, scope) in
      match s with
      | Ir.Let (x, e) ->
        let ce = compile_expr bits mv body [] e in
        frame := max !frame (depth + 1);
        (fun env -> env.locals.(depth) <- ce env) :: block ((x, depth) :: scope) (depth + 1) rest
      | Ir.Store (k, e) ->
        let ce = compile_expr bits mv body [] e in
        (fun env -> env.state.(k) <- ce env) :: block scope depth rest
      | Ir.Return e ->
        let ce = compile_expr bits mv body [] e in
        let run env =
          env.ret <- ce env;
          raise_notrace Return_signal
        in
        run :: block scope depth rest
      | Ir.If (c, a, b) ->
        let cc = compile_cond bits mv body [] c in
        let ca = Array.of_list (block scope depth a) in
        let cb = Array.of_list (block scope depth b) in
        let run env =
          let branch = if cc env then ca else cb in
          for i = 0 to Array.length branch - 1 do
            (Array.unsafe_get branch i) env
          done
        in
        run :: block scope depth rest)
  in
  let compiled = Array.of_list (block [] 0 stmts) in
  (compiled, !frame)

let compile_alu bits mv helpers (a : Ir.alu) : compiled_alu =
  let stmts, n_locals = compile_stmts bits mv helpers a.Ir.a_body in
  let default = compile_expr bits mv (Alu (helpers, [])) [] a.Ir.a_default_output in
  let n_state = max 1 a.Ir.a_state_size in
  let env =
    {
      phv = [||];
      state = Array.make n_state 0;
      state_read = Array.make n_state 0;
      locals = Array.make n_locals 0;
      ret = 0;
    }
  in
  let state = env.state and state_read = env.state_read in
  let n_stmts = Array.length stmts in
  let run () =
    (* a loop, not [Array.blit]: latching 1-5 slots costs less than the C call *)
    for k = 0 to n_state - 1 do
      Array.unsafe_set state_read k (Array.unsafe_get state k)
    done;
    let d = default env in
    match
      for i = 0 to n_stmts - 1 do
        (Array.unsafe_get stmts i) env
      done
    with
    | () -> d
    | exception Return_signal -> env.ret
  in
  { ca_name = a.Ir.a_name; ca_state_size = a.Ir.a_state_size; ca_env = env; ca_run = run }

(* Compiles output mux [name], whose helper is [h].  In version 1 its
   "ctrl" parameter takes the value of the mux's machine-code pair, read at
   every tick like the interpreter does, through a call-site cell. *)
let compile_mux bits mv name (h : Ir.helper) : helper_fn =
  let body = Mux h.Ir.h_params in
  if List.mem "ctrl" h.Ir.h_params then begin
    let ctrl = ref 0 in
    let f = compile_expr bits mv body [ ("ctrl", ctrl) ] h.Ir.h_body in
    match Mc_values.slot mv name with
    | -1 -> raises (Machine_code.Missing name)
    | i ->
      let values = mv.Mc_values.values in
      fun args ->
        ctrl := Array.unsafe_get values i;
        f args
  end
  else compile_expr bits mv body [] h.Ir.h_body

(* Compiles a description against a machine-code program.  The result is
   self-contained: per-ALU state lives inside the compiled ALUs, and the
   machine-code values it reads in its own array. *)
let compile (d : Ir.t) ~mc : t =
  let mv = Mc_values.create mc in
  let bits = d.Ir.d_bits in
  let helpers = d.Ir.d_helpers in
  let stages =
    Array.map
      (fun (st : Ir.stage) ->
        {
          cs_stateless = Array.map (compile_alu bits mv helpers) st.Ir.s_stateless;
          cs_stateful = Array.map (compile_alu bits mv helpers) st.Ir.s_stateful;
          cs_output_muxes =
            Array.map
              (fun name -> compile_mux bits mv name (Ir.find_helper d name))
              st.Ir.s_output_muxes;
        })
      d.Ir.d_stages
  in
  { c_depth = d.Ir.d_depth; c_width = d.Ir.d_width; c_bits = bits; c_stages = stages }
