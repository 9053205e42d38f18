(* Interpreter for pipeline descriptions.

   This plays the role the Rust compiler + CPU play for the original Druzhba:
   it executes the generated pipeline description.  The description is
   resolved once per context, when an engine is created: every helper call
   points straight at its resolved helper (one per helper, shared by every
   call site), every variable becomes a slot in a frame, every machine-code
   name becomes a slot of the context's values array ({!Mc_values}), and
   every output mux records its helper, which of its parameters take the
   machine-code control, and that control's slot.  Frames live on one int
   stack per context that grows only when a deeper frame is first needed,
   so a steady-state tick allocates nothing.

   A tick then costs the resolved nodes it walks plus one read of the
   values array per [Mc] use (and per output-mux control) — the paper's
   version 1, whose generated code reads each machine-code value at run
   time from the map it is given.  Some shapes cost less than their nodes.
   A selector chain [if v == 0 then a0 else if v == 1 then a1 ... else d]
   on a bound variable, the body of every mux, opcode and output-mux
   helper, resolves to one [Switch]: a tick reads the selector's slot
   once, makes one bounds check and runs the chosen arm, as a compiler
   lowers such a chain to a jump table.  A comparison that decides a
   [Cond] or an [If] yields its bool with no 0/1 in between.  And a call
   reads its variable, container and machine-code arguments in place.
   None of this removes a read: version 1 still reads each [Mc] at every
   use, and still calls a helper, in a frame of its own, to reach each
   switch.  SCC propagation removes those reads and the selector chains
   and opcode dispatch that consume them, and inlining removes the helper
   frames, so the relative runtimes of the three optimization levels keep
   the shape of the paper's Table 1.  The values are copied from the
   program when a name is resolved, so a context reads the machine code
   it was built with: a later [Machine_code.set] or [remove] does not
   reach it.

   Resolution never fails.  An unknown helper, an unbound variable, a
   missing machine-code pair or an arity mismatch raises when a tick
   evaluates it, with the same exception and text as a direct walk of the
   description would raise at that point. *)

module Value = Druzhba_util.Value
module Machine_code = Druzhba_machine_code.Machine_code

(* Structural coverage probe (campaign --coverage).  When installed, the
   interpreter reports which ALU branch arms ran, which state slots latched,
   whether each ALU returned explicitly or fell through to its default
   output, and which control value each output mux consumed.  Branch sites
   are numbered statically (pre-order over the ALU body's [If] nodes), so a
   site id names the same syntactic branch whatever path execution takes. *)
type probe = {
  pr_branch : alu:string -> site:int -> taken:bool -> unit;
  pr_latch : alu:string -> slot:int -> unit;
  pr_output : alu:string -> returned:bool -> unit;
  pr_mux : mux:string -> ctrl:int -> unit;
}

(* --- Resolved form ------------------------------------------------------------ *)

(* [Ir.expr] with names bound.  A [Slot] is an offset into the current
   frame and an [Mc] one into the context's values; [Unbound], [Absent]
   and [Unknown_call] keep a failed resolution for the evaluation that
   reaches it. *)
type expr =
  | Const of int
  | Slot of int (* helper parameter (by position) or ALU local (by scope depth) *)
  | Unbound of string
  | Mc of int
  | Absent of string (* a machine-code pair the program lacks *)
  | Trunc of expr
  | Phv of int
  | State of int
  | Unop of Ir.unop * expr
  | Binop of Ir.binop * expr * expr
  | Cond of expr * expr * expr
  | Switch of int * expr array * expr (* selector slot, arms 0 .. n-1, default *)
  | Call of helper * expr array
  | Unknown_call of string

(* [h_body] is filled in after the helper is memoized, so a helper that
   calls itself resolves (and then recurses at run time). *)
and helper = { h_arity : int; mutable h_body : expr }

type stmt =
  | Let of int * expr (* frame slot *)
  | Store of int * expr
  | If of int * expr * stmt list * stmt list (* pre-order branch-site id *)
  | Return of expr

type alu = {
  a_name : string;
  a_frame : int; (* slots the body's locals need *)
  a_default : expr;
  a_body : stmt list;
}

(* [m_ctrl.(i)]: parameter [i] is named "ctrl", so when no argument fills
   it the control value is read from the values slot [m_slot], bound to
   the mux's own name (unoptimized descriptions); [m_slot] is -1 when the
   program lacks that pair or no parameter is a control. *)
type mux =
  | Mux of { m_name : string; m_helper : helper; m_ctrl : bool array; m_slot : int }
  | Unknown_mux of string

type stage = { st_stateless : alu array; st_stateful : alu array; st_muxes : mux array }

type ctx = {
  bits : Value.width;
  mc : Mc_values.t;
  helpers : (string, Ir.helper) Hashtbl.t;
  resolved : (string, helper) Hashtbl.t;
  (* Frame stack.  A frame occupies [fp, fp + size); callers pass the first
     free slot ([sp]) down, so nothing is popped explicitly. *)
  mutable stack : int array;
  (* Value of the last executed [Return]: statements report "returned" as a
     bool, so an ALU that returns allocates no option. *)
  mutable ret : int;
  mutable probe : probe option;
  (* Preloaded mirror of [probe <> None], so the per-ALU hot path pays one
     immediate-bool branch when coverage is off instead of an option match
     inside the ALU dispatch. *)
  mutable probe_on : bool;
}

let create ~bits ~mc helpers =
  {
    bits;
    mc = Mc_values.create mc;
    helpers;
    resolved = Hashtbl.create 64;
    stack = Array.make 64 0;
    ret = 0;
    probe = None;
    probe_on = false;
  }

let ctx_of (d : Ir.t) ~mc = create ~bits:d.Ir.d_bits ~mc d.Ir.d_helpers

let set_probe ctx probe =
  ctx.probe <- probe;
  ctx.probe_on <- probe <> None

(* --- Resolution ---------------------------------------------------------------- *)

(* The arms [a0; a1; ...] of a selector chain [if v == 0 then a0 else if
   v == 1 then a1 ... else d] on variable [v], and its default [d]. *)
let rec chain_arms v k arms (e : Ir.expr) =
  match e with
  | Ir.Cond (Ir.Binop (Ir.Eq, Ir.Var w, Ir.Const j), a, rest) when j = k && String.equal v w ->
    chain_arms v (k + 1) (a :: arms) rest
  | _ -> (List.rev arms, e)

(* [scope] maps names to slots, innermost binding first.  A selector chain
   on a bound variable becomes a [Switch]: it reads nothing but the
   variable's slot before choosing an arm, so the switch raises what the
   chain raises. *)
let rec resolve_expr ctx scope (e : Ir.expr) : expr =
  match e with
  | Ir.Cond (Ir.Binop (Ir.Eq, Ir.Var v, Ir.Const 0), _, _) when List.mem_assoc v scope ->
    let arms, default = chain_arms v 0 [] e in
    let arms = Array.of_list (List.map (resolve_expr ctx scope) arms) in
    Switch (List.assoc v scope, arms, resolve_expr ctx scope default)
  | Ir.Const n -> Const n
  | Ir.Var x -> ( match List.assoc_opt x scope with Some i -> Slot i | None -> Unbound x)
  | Ir.Mc name -> ( match Mc_values.slot ctx.mc name with -1 -> Absent name | i -> Mc i)
  | Ir.Trunc a -> Trunc (resolve_expr ctx scope a)
  | Ir.Phv k -> Phv k
  | Ir.State k -> State k
  | Ir.Unop (op, a) -> Unop (op, resolve_expr ctx scope a)
  | Ir.Binop (op, a, b) -> Binop (op, resolve_expr ctx scope a, resolve_expr ctx scope b)
  | Ir.Cond (c, a, b) ->
    Cond (resolve_expr ctx scope c, resolve_expr ctx scope a, resolve_expr ctx scope b)
  | Ir.Call (name, args) -> (
    match resolve_helper ctx name with
    | Some h -> Call (h, Array.of_list (List.map (resolve_expr ctx scope) args))
    | None -> Unknown_call name)

and resolve_helper ctx name =
  match Hashtbl.find_opt ctx.resolved name with
  | Some _ as r -> r
  | None -> (
    match Hashtbl.find_opt ctx.helpers name with
    | None -> None
    | Some (h : Ir.helper) ->
      let r = { h_arity = List.length h.Ir.h_params; h_body = Const 0 } in
      Hashtbl.add ctx.resolved name r;
      (* innermost first: of two parameters sharing a name, the last wins *)
      let scope = List.rev (List.mapi (fun i p -> (p, i)) h.Ir.h_params) in
      r.h_body <- resolve_expr ctx scope h.Ir.h_body;
      Some r)

(* A [Let] takes the next slot of its scope; a branch's locals go out of
   scope after its [If], so the two arms (and what follows) reuse slots.
   Branch sites are numbered in pre-order. *)
let resolve_alu ctx (a : Ir.alu) : alu =
  let frame = ref 0 and sites = ref 0 in
  let rec stmts scope depth = function
    | [] -> []
    | (s : Ir.stmt) :: rest -> (
      match s with
      | Ir.Let (x, e) ->
        let e = resolve_expr ctx scope e in
        frame := max !frame (depth + 1);
        Let (depth, e) :: stmts ((x, depth) :: scope) (depth + 1) rest
      | Ir.Store (k, e) ->
        let e = resolve_expr ctx scope e in
        Store (k, e) :: stmts scope depth rest
      | Ir.If (c, a, b) ->
        let site = !sites in
        incr sites;
        let c = resolve_expr ctx scope c in
        let a = stmts scope depth a in
        let b = stmts scope depth b in
        If (site, c, a, b) :: stmts scope depth rest
      | Ir.Return e ->
        let e = resolve_expr ctx scope e in
        Return e :: stmts scope depth rest)
  in
  let a_default = resolve_expr ctx [] a.Ir.a_default_output in
  let a_body = stmts [] 0 a.Ir.a_body in
  { a_name = a.Ir.a_name; a_frame = !frame; a_default; a_body }

let resolve_mux ctx name =
  match resolve_helper ctx name with
  | None -> Unknown_mux name
  | Some m_helper ->
    let params = (Hashtbl.find ctx.helpers name).Ir.h_params in
    let m_ctrl = Array.of_list (List.map (fun p -> String.equal p "ctrl") params) in
    let m_slot = if Array.mem true m_ctrl then Mc_values.slot ctx.mc name else -1 in
    Mux { m_name = name; m_helper; m_ctrl; m_slot }

let resolve_stage ctx (st : Ir.stage) =
  {
    st_stateless = Array.map (resolve_alu ctx) st.Ir.s_stateless;
    st_stateful = Array.map (resolve_alu ctx) st.Ir.s_stateful;
    st_muxes = Array.map (resolve_mux ctx) st.Ir.s_output_muxes;
  }

(* --- Evaluation ----------------------------------------------------------------- *)

exception Unbound_variable of string

let apply_unop bits (op : Ir.unop) v =
  match op with Ir.Neg -> Value.neg bits v | Ir.Not -> Value.logical_not v

let apply_binop bits (op : Ir.binop) a b =
  match op with
  | Ir.Add -> Value.add bits a b
  | Ir.Sub -> Value.sub bits a b
  | Ir.Mul -> Value.mul bits a b
  | Ir.Div -> Value.div bits a b
  | Ir.Mod -> Value.rem bits a b
  | Ir.Eq -> Value.eq a b
  | Ir.Neq -> Value.neq a b
  | Ir.Lt -> Value.lt a b
  | Ir.Gt -> Value.gt a b
  | Ir.Le -> Value.le a b
  | Ir.Ge -> Value.ge a b
  | Ir.And -> Value.logical_and a b
  | Ir.Or -> Value.logical_or a b

let grow ctx size =
  let stack = Array.make (max size (2 * Array.length ctx.stack)) 0 in
  Array.blit ctx.stack 0 stack 0 (Array.length ctx.stack);
  ctx.stack <- stack

(* Evaluates [e] in the frame at [fp]; [sp] is the first free slot above
   it.  A call's frame goes at [sp]: its arguments are evaluated left to
   right into it (each argument's own calls build above it), then the body
   runs in it.  Arguments past the shorter of the parameter and argument
   lists are never evaluated, and a length mismatch then raises what
   [List.fold_left2] raises. *)
let rec eval_in ctx ~phv ~state fp sp (e : expr) : int =
  match e with
  | Const n -> n
  | Slot i -> Array.unsafe_get ctx.stack (fp + i)
  | Unbound name -> raise (Unbound_variable name)
  | Mc i -> Array.unsafe_get ctx.mc.Mc_values.values i
  | Absent name -> raise (Machine_code.Missing name)
  | Trunc a -> Value.mask ctx.bits (eval_in ctx ~phv ~state fp sp a)
  | Phv k -> Array.unsafe_get phv k
  | State k -> Array.unsafe_get state k
  | Unop (op, a) -> apply_unop ctx.bits op (eval_in ctx ~phv ~state fp sp a)
  | Binop (op, a, b) ->
    apply_binop ctx.bits op (eval_in ctx ~phv ~state fp sp a) (eval_in ctx ~phv ~state fp sp b)
  | Cond (c, a, b) ->
    if test ctx ~phv ~state fp sp c then eval_in ctx ~phv ~state fp sp a
    else eval_in ctx ~phv ~state fp sp b
  | Switch (i, arms, default) ->
    let sel = Array.unsafe_get ctx.stack (fp + i) in
    (* a selector outside [0, n), negative ones included, takes the default *)
    let arm = if sel >= 0 && sel < Array.length arms then Array.unsafe_get arms sel else default in
    (* a mux's arms are its parameters: read in place, not by [eval_in] *)
    (match arm with
    | Slot j -> Array.unsafe_get ctx.stack (fp + j)
    | _ -> eval_in ctx ~phv ~state fp sp arm)
  | Call (h, args) ->
    let top = sp + h.h_arity in
    if top > Array.length ctx.stack then grow ctx top;
    let n = min h.h_arity (Array.length args) in
    for i = 0 to n - 1 do
      (* most arguments are a variable, a container or a machine-code
         value (the call's control): those are read in place *)
      let v =
        match Array.unsafe_get args i with
        | Slot j -> Array.unsafe_get ctx.stack (fp + j)
        | Phv k -> Array.unsafe_get phv k
        | Mc j -> Array.unsafe_get ctx.mc.Mc_values.values j
        | a -> eval_in ctx ~phv ~state fp top a
      in
      (* re-read [stack]: the argument may have grown it *)
      Array.unsafe_set ctx.stack (sp + i) v
    done;
    if Array.length args <> h.h_arity then invalid_arg "List.fold_left2";
    eval_in ctx ~phv ~state sp top h.h_body
  | Unknown_call name -> invalid_arg (Printf.sprintf "Interp: unknown helper '%s'" name)

(* [Value.is_true] of condition [c]'s value.  A comparison yields the bool
   its [Value] function would encode as 0/1, and a bare slot (the Opt
   helper's control) is tested in place.  The right operand runs first, as
   in [apply_binop bits op (eval a) (eval b)]. *)
and test ctx ~phv ~state fp sp (c : expr) =
  match c with
  | Slot i -> Array.unsafe_get ctx.stack (fp + i) <> 0
  | Binop (Ir.Eq, a, b) ->
    let b = eval_in ctx ~phv ~state fp sp b in
    eval_in ctx ~phv ~state fp sp a = b
  | Binop (Ir.Neq, a, b) ->
    let b = eval_in ctx ~phv ~state fp sp b in
    eval_in ctx ~phv ~state fp sp a <> b
  | Binop (Ir.Lt, a, b) ->
    let b = eval_in ctx ~phv ~state fp sp b in
    eval_in ctx ~phv ~state fp sp a < b
  | Binop (Ir.Gt, a, b) ->
    let b = eval_in ctx ~phv ~state fp sp b in
    eval_in ctx ~phv ~state fp sp a > b
  | Binop (Ir.Le, a, b) ->
    let b = eval_in ctx ~phv ~state fp sp b in
    eval_in ctx ~phv ~state fp sp a <= b
  | Binop (Ir.Ge, a, b) ->
    let b = eval_in ctx ~phv ~state fp sp b in
    eval_in ctx ~phv ~state fp sp a >= b
  | _ -> Value.is_true (eval_in ctx ~phv ~state fp sp c)

(* Evaluates a resolved expression outside any frame. *)
let eval ctx ~phv ~state e = eval_in ctx ~phv ~state 0 0 e

(* Runs [stmts] in the ALU frame at slot 0; returns [true] as soon as a
   [Return] runs, its value in [ctx.ret].  Expressions read state from
   [read] while [Store] writes to [write] (latched state semantics; the two
   coincide for stateless ALUs). *)
let rec exec ctx ~phv ~read ~write sp (stmts : stmt list) =
  match stmts with
  | [] -> false
  | s :: rest -> (
    match s with
    | Let (k, e) ->
      let v = eval_in ctx ~phv ~state:read 0 sp e in
      Array.unsafe_set ctx.stack k v;
      exec ctx ~phv ~read ~write sp rest
    | Store (k, e) ->
      write.(k) <- eval_in ctx ~phv ~state:read 0 sp e;
      exec ctx ~phv ~read ~write sp rest
    | If (_, c, a, b) ->
      let branch = if test ctx ~phv ~state:read 0 sp c then a else b in
      exec ctx ~phv ~read ~write sp branch || exec ctx ~phv ~read ~write sp rest
    | Return e ->
      ctx.ret <- eval_in ctx ~phv ~state:read 0 sp e;
      true)

(* As [exec], but reports branch decisions and state latches to the probe.
   Only the coverage replay pays for this — the differential hot path stays
   on [exec]. *)
let rec exec_probed ctx pr ~alu_name ~phv ~read ~write sp (stmts : stmt list) =
  match stmts with
  | [] -> false
  | s :: rest -> (
    match s with
    | Let (k, e) ->
      let v = eval_in ctx ~phv ~state:read 0 sp e in
      Array.unsafe_set ctx.stack k v;
      exec_probed ctx pr ~alu_name ~phv ~read ~write sp rest
    | Store (k, e) ->
      write.(k) <- eval_in ctx ~phv ~state:read 0 sp e;
      pr.pr_latch ~alu:alu_name ~slot:k;
      exec_probed ctx pr ~alu_name ~phv ~read ~write sp rest
    | If (site, c, a, b) ->
      let taken = test ctx ~phv ~state:read 0 sp c in
      pr.pr_branch ~alu:alu_name ~site ~taken;
      exec_probed ctx pr ~alu_name ~phv ~read ~write sp (if taken then a else b)
      || exec_probed ctx pr ~alu_name ~phv ~read ~write sp rest
    | Return e ->
      ctx.ret <- eval_in ctx ~phv ~state:read 0 sp e;
      true)

(* Cold half of [run_alu_into]: only entered when a probe is installed. *)
let run_alu_probed ctx (alu : alu) ~phv ~state ~snapshot ~default =
  let sp = alu.a_frame in
  match ctx.probe with
  | None ->
    (* probe_on out of sync with probe; behave as unprobed *)
    if exec ctx ~phv ~read:snapshot ~write:state sp alu.a_body then ctx.ret else default
  | Some pr ->
    let returned =
      exec_probed ctx pr ~alu_name:alu.a_name ~phv ~read:snapshot ~write:state sp alu.a_body
    in
    let v = if returned then ctx.ret else default in
    pr.pr_output ~alu:alu.a_name ~returned;
    v

(* Executes one ALU on the incoming PHV.  [state] is the ALU's persistent
   state vector, mutated in place; the result is the ALU's output value
   (explicit [Return], or the pre-execution state_0 for stateful ALUs).

   State reads are *latched*: an ALU is a combinational block whose state
   operands are the registered (pre-execution) values, so e.g. both updates
   of the pair atom read the same snapshot regardless of statement order.
   Reads go through [snapshot], a caller-provided scratch of the same length
   as [state] (the tick engine preallocates one per stateful ALU), while
   writes land in the live vector. *)
let run_alu_into ctx (alu : alu) ~phv ~state ~snapshot =
  (* a loop, not [Array.blit]: latching 1-5 slots costs less than the C call *)
  for k = 0 to Array.length state - 1 do
    snapshot.(k) <- Array.unsafe_get state k
  done;
  let sp = alu.a_frame in
  if sp > Array.length ctx.stack then grow ctx sp;
  let default = eval_in ctx ~phv ~state:snapshot 0 sp alu.a_default in
  if not ctx.probe_on then
    if exec ctx ~phv ~read:snapshot ~write:state sp alu.a_body then ctx.ret else default
  else run_alu_probed ctx alu ~phv ~state ~snapshot ~default

let run_alu ctx (alu : alu) ~phv ~state =
  let snapshot = if Array.length state = 0 then state else Array.make (Array.length state) 0 in
  run_alu_into ctx alu ~phv ~state ~snapshot

(* Runs an output mux on already-evaluated argument values laid out in a
   scratch array ([stateless outs; stateful outs; new state_0s; old
   container value] — the engine reuses one such array per stage).
   Parameters bind positionally; a "ctrl" parameter past the arguments
   (unoptimized description) gets the value of the mux's own machine-code
   pair. *)
let run_mux ctx (m : mux) ~(args : int array) ~n_args =
  match m with
  | Unknown_mux name -> invalid_arg (Printf.sprintf "Interp: unknown output mux '%s'" name)
  | Mux { m_name; m_helper; m_ctrl; m_slot } ->
    let arity = m_helper.h_arity in
    if arity > Array.length ctx.stack then grow ctx arity;
    let stack = ctx.stack in
    for i = 0 to min arity n_args - 1 do
      Array.unsafe_set stack i args.(i)
    done;
    for i = n_args to arity - 1 do
      if not (Array.unsafe_get m_ctrl i) then
        invalid_arg (Printf.sprintf "Interp: output mux '%s' has too many parameters" m_name);
      if m_slot < 0 then raise (Machine_code.Missing m_name);
      let ctrl = Array.unsafe_get ctx.mc.Mc_values.values m_slot in
      if ctx.probe_on then (
        match ctx.probe with
        | Some pr -> pr.pr_mux ~mux:m_name ~ctrl
        | None -> ());
      Array.unsafe_set stack i ctrl
    done;
    if arity < n_args then
      invalid_arg (Printf.sprintf "Interp: output mux '%s' has too few parameters" m_name);
    eval_in ctx ~phv:[||] ~state:[||] 0 arity m_helper.h_body
