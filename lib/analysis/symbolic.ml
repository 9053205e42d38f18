(* Bit-precise symbolic evaluation of pipeline descriptions.

   Trace-diff fuzzing (paper §3.3) certifies an optimization level only on
   the PHVs it happened to draw.  This module is the static complement — the
   translation-validation idea Gauntlet applied to p4c: evaluate an
   {!Druzhba_pipeline.Ir} ALU *symbolically*, producing for every output and
   state slot a normalized expression over the PHV input containers, the
   pre-execution state slots, and any residual machine-code controls.  Two
   descriptions that normalize to the same expression compute the same
   function at every width — no PHV ever executes.

   The normal form mirrors the simulator's semantics exactly:

   - all arithmetic is the fixed-width unsigned algebra of
     {!Druzhba_util.Value} (wrap-around add/sub/mul, total div/mod,
     0/1-valued comparisons), folded with {!Druzhba_pipeline.Interp}'s own
     operators so constants can never disagree with the interpreter;
   - [Trunc] masks at the datapath width; a [Trunc] whose operand is already
     provably narrow (a known-bits argument) is dropped;
   - algebraic identities ([x+0], [x*1], [x*0], [x-x], sub-to-add
     modular rewriting, constant re-association) and a canonical operand
     order for commutative operators;
   - comparison canonicalization ([Lt]/[Le] become swapped [Gt]/[Ge],
     [Not] of a comparison flips it, [x == 0] of a boolean negates it) so
     the different lowerings used by the DSL, the optimizer, and the
     compiler's predicate semantics converge on one spelling;
   - conditional simplification driven by a three-valued truth test on the
     interval abstraction from {!Dataflow}.

   State reads are latched, as in {!Interp.run_alu_into}: every expression
   inside an ALU body sees the pre-execution snapshot, [Store]s accumulate
   into the post-execution image, and the default output is evaluated on the
   snapshot.  An [If] on an undecided condition evaluates both continuations
   and merges stores and returns with conditionals, which is exact (the IR
   is loop-free).

   Evaluation is total up to an explicit fuel bound; pathological blow-up
   raises {!Unsupported}, which callers treat as "cannot decide statically"
   — never as a proof. *)

module Value = Druzhba_util.Value
module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Interp = Druzhba_pipeline.Interp

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* --- Normal form ----------------------------------------------------------- *)

(* Atoms name values the obligation quantifies over: [Phv c] is an input
   container of the stage (or pipeline) under analysis, [State (alu, k)] is
   slot [k] of stateful ALU [alu] *before* the packet executes, and
   [Ctrl name] is a machine-code control left symbolic (no program supplied,
   or the pair is missing).  [Var], [Mc] and [Call] never survive into the
   normal form: variables and helper calls are beta-reduced away, machine
   code is resolved to constants. *)
type sym =
  | Const of int
  | Phv of int
  | State of string * int
  | Ctrl of string
  | Trunc of sym
  | Unop of Ir.unop * sym
  | Binop of Ir.binop * sym * sym
  | Cond of sym * sym * sym

let equal (a : sym) (b : sym) = a = b
let compare_sym (a : sym) (b : sym) = Stdlib.compare a b

let rec size = function
  | Const _ | Phv _ | State _ | Ctrl _ -> 1
  | Trunc e | Unop (_, e) -> 1 + size e
  | Binop (_, a, b) -> 1 + size a + size b
  | Cond (c, a, b) -> 1 + size c + size a + size b

let unop_name = function Ir.Neg -> "-" | Ir.Not -> "!"

let binop_name = function
  | Ir.Add -> "+"
  | Ir.Sub -> "-"
  | Ir.Mul -> "*"
  | Ir.Div -> "/"
  | Ir.Mod -> "%"
  | Ir.Eq -> "=="
  | Ir.Neq -> "!="
  | Ir.Lt -> "<"
  | Ir.Gt -> ">"
  | Ir.Le -> "<="
  | Ir.Ge -> ">="
  | Ir.And -> "&&"
  | Ir.Or -> "||"

let rec pp ppf = function
  | Const n -> Fmt.int ppf n
  | Phv k -> Fmt.pf ppf "phv%d" k
  | State (alu, k) -> Fmt.pf ppf "%s.state%d" alu k
  | Ctrl name -> Fmt.pf ppf "mc[%s]" name
  | Trunc e -> Fmt.pf ppf "trunc(%a)" pp e
  | Unop (op, e) -> Fmt.pf ppf "%s%a" (unop_name op) pp e
  | Binop (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp a (binop_name op) pp b
  | Cond (c, a, b) -> Fmt.pf ppf "(%a ? %a : %a)" pp c pp a pp b

let to_string e = Fmt.str "%a" pp e

(* --- Atoms ----------------------------------------------------------------- *)

type atom = Aphv of int | Astate of string * int | Actrl of string

let compare_atom (a : atom) (b : atom) = Stdlib.compare a b

module Atom_set = Set.Make (struct
  type t = atom

  let compare = compare_atom
end)

let pp_atom ppf = function
  | Aphv k -> Fmt.pf ppf "phv%d" k
  | Astate (alu, k) -> Fmt.pf ppf "%s.state%d" alu k
  | Actrl name -> Fmt.pf ppf "mc[%s]" name

let rec atom_set = function
  | Const _ -> Atom_set.empty
  | Phv k -> Atom_set.singleton (Aphv k)
  | State (alu, k) -> Atom_set.singleton (Astate (alu, k))
  | Ctrl name -> Atom_set.singleton (Actrl name)
  | Trunc e | Unop (_, e) -> atom_set e
  | Binop (_, a, b) -> Atom_set.union (atom_set a) (atom_set b)
  | Cond (c, a, b) -> Atom_set.union (atom_set c) (Atom_set.union (atom_set a) (atom_set b))

let atoms e = Atom_set.elements (atom_set e)

(* Constants appearing in an expression — boundary candidates for the
   sampling tier of the equivalence engine. *)
let rec constants acc = function
  | Const n -> n :: acc
  | Phv _ | State _ | Ctrl _ -> acc
  | Trunc e | Unop (_, e) -> constants acc e
  | Binop (_, a, b) -> constants (constants acc a) b
  | Cond (c, a, b) -> constants (constants (constants acc c) a) b

let constants e = List.sort_uniq Stdlib.compare (constants [] e)

(* --- Known bits ------------------------------------------------------------ *)

(* [may_mask bits e] is a sound superset of the bits [e] can ever set, given
   that [Phv]/[State] atoms are width-bounded (an invariant the simulator
   maintains: containers and state slots only ever hold masked values).
   [-1] (all bits) means unbounded — control-space values.  Arithmetic
   always lands back on the datapath because the simulator masks every
   result; comparisons and logical operators are 0/1-valued. *)
let ones_upto v =
  let rec go acc = if acc >= v then acc else go ((acc lsl 1) lor 1) in
  if v <= 0 then 0 else go 1

let rec may_mask bits = function
  | Const n -> n
  | Phv _ | State _ -> Value.max_value bits
  | Ctrl _ -> -1
  | Trunc e -> may_mask bits e land Value.max_value bits
  | Unop (Ir.Not, _) -> 1
  | Unop (Ir.Neg, e) -> if may_mask bits e = 0 then 0 else Value.max_value bits
  | Binop (op, a, b) -> (
    match op with
    | Ir.Eq | Ir.Neq | Ir.Lt | Ir.Gt | Ir.Le | Ir.Ge | Ir.And | Ir.Or -> 1
    | Ir.Add ->
      let ma = may_mask bits a and mb = may_mask bits b in
      if ma >= 0 && mb >= 0 && ma < 0x2000_0000_0000_0000 && mb < 0x2000_0000_0000_0000 then
        Value.max_value bits land ones_upto (ma + mb)
      else Value.max_value bits
    | Ir.Sub | Ir.Mul | Ir.Div | Ir.Mod -> Value.max_value bits)
  | Cond (_, a, b) -> may_mask bits a lor may_mask bits b

(* A value is boolean-shaped when it can only be 0 or 1; such values are
   fixed points of [Value.logical_not ∘ Value.logical_not] and safe to use
   in boolean rewrites. *)
let is_boolean bits e = may_mask bits e land lnot 1 = 0

let fits_width bits e = may_mask bits e land lnot (Value.max_value bits) = 0

(* --- Interval abstraction -------------------------------------------------- *)

let rec interval bits = function
  | Const n -> Dataflow.of_const n
  | Phv _ | State _ -> Dataflow.full bits
  | Ctrl _ -> Dataflow.Top
  | Trunc e -> Dataflow.trunc bits (interval bits e)
  | Unop (op, e) -> Dataflow.abs_unop bits op (interval bits e)
  | Binop (op, a, b) -> Dataflow.abs_binop bits op (interval bits a) (interval bits b)
  | Cond (c, a, b) -> (
    match Dataflow.truth (interval bits c) with
    | `True -> interval bits a
    | `False -> interval bits b
    | `Unknown -> Dataflow.join (interval bits a) (interval bits b))

(* --- Smart constructors (normalization) ------------------------------------ *)

let commutative = function
  | Ir.Add | Ir.Mul | Ir.Eq | Ir.Neq | Ir.And | Ir.Or -> true
  | _ -> false

(* Negation of a 0/1-valued comparison, used to fold [Not] and [x == 0]. *)
let flip_cmp = function
  | Ir.Eq -> Some Ir.Neq
  | Ir.Neq -> Some Ir.Eq
  | Ir.Lt -> Some Ir.Ge
  | Ir.Ge -> Some Ir.Lt
  | Ir.Gt -> Some Ir.Le
  | Ir.Le -> Some Ir.Gt
  | _ -> None

let mk_trunc bits e =
  match e with
  | Const n -> Const (Value.mask bits n)
  | _ when fits_width bits e -> e
  | _ -> Trunc e

(* Singleton-interval folding: the product domain can decide a node even
   when syntactic rules cannot (e.g. a selector compared against a value
   outside its range). *)
let fold_interval bits e =
  match e with
  | Const _ -> e
  | _ -> ( match interval bits e with Dataflow.Iv (lo, hi) when lo = hi -> Const lo | _ -> e)

let rec mk_unop bits op e =
  match (op, e) with
  | _, Const n -> Const (Interp.apply_unop bits op n)
  | Ir.Not, Binop (cmp, a, b) when flip_cmp cmp <> None -> (
    match flip_cmp cmp with Some c -> mk_binop bits c a b | None -> assert false)
  | Ir.Not, Unop (Ir.Not, x) when is_boolean bits x -> x
  | _ -> fold_interval bits (Unop (op, e))

and mk_binop bits op a b =
  match (op, a, b) with
  | _, Const x, Const y -> Const (Interp.apply_binop bits op x y)
  (* x + 0, x - 0, x * 1: identity only when the result would not be
     re-masked differently — i.e. the operand is already width-bounded. *)
  | Ir.Add, Const 0, e | Ir.Add, e, Const 0 | Ir.Sub, e, Const 0 ->
    if fits_width bits e then e else fold_interval bits (Binop (op, a, b))
  | Ir.Mul, Const 1, e | Ir.Mul, e, Const 1 ->
    if fits_width bits e then e else fold_interval bits (Binop (op, a, b))
  | Ir.Mul, Const 0, _ | Ir.Mul, _, Const 0 -> Const 0
  (* Modular rewrite: x - c = x + (2^bits - c), so add/sub chains share one
     canonical spelling.  Only for datapath constants (control-space
     subtraction cannot arise from the generators, and the rewrite would be
     wrong for them anyway). *)
  | Ir.Sub, e, Const c when c = Value.mask bits c -> mk_binop bits Ir.Add e (Const (Value.neg bits c))
  (* Constant re-association: c1 + (c2 + x) folds (sound modulo 2^bits). *)
  | Ir.Add, Const c1, Binop (Ir.Add, Const c2, x) | Ir.Add, Binop (Ir.Add, Const c2, x), Const c1
    ->
    mk_binop bits Ir.Add (Const (Value.add bits c1 c2)) x
  (* x ⋄ x for total comparisons and subtraction. *)
  | (Ir.Eq | Ir.Le | Ir.Ge), x, y when equal x y -> Const 1
  | (Ir.Neq | Ir.Lt | Ir.Gt), x, y when equal x y -> Const 0
  | Ir.Sub, x, y when equal x y -> Const 0
  | (Ir.And | Ir.Or), x, y when equal x y && is_boolean bits x -> x
  (* Logical operators against constants. *)
  | Ir.And, Const 0, _ | Ir.And, _, Const 0 -> Const 0
  | Ir.Or, Const c, _ when c <> 0 -> Const 1
  | Ir.Or, _, Const c when c <> 0 -> Const 1
  | Ir.And, Const c, e when c <> 0 -> bool_of bits e
  | Ir.And, e, Const c when c <> 0 -> bool_of bits e
  | Ir.Or, Const 0, e | Ir.Or, e, Const 0 -> bool_of bits e
  (* Comparison canonicalization: strict/inclusive "less" becomes swapped
     "greater", so [a < b], [b > a] and [!(a >= b)] all normalize alike. *)
  | Ir.Lt, x, y -> mk_binop bits Ir.Gt y x
  | Ir.Le, x, y -> mk_binop bits Ir.Ge y x
  (* [x == 0] / [x != 0] on booleans are negation / identity. *)
  | Ir.Eq, Const 0, e when is_boolean bits e -> mk_unop bits Ir.Not e
  | Ir.Eq, e, Const 0 when is_boolean bits e -> mk_unop bits Ir.Not e
  | Ir.Neq, Const 0, e when is_boolean bits e -> e
  | Ir.Neq, e, Const 0 when is_boolean bits e -> e
  | _ ->
    let a, b = if commutative op && compare_sym a b > 0 then (b, a) else (a, b) in
    fold_interval bits (Binop (op, a, b))

and bool_of bits e = if is_boolean bits e then e else mk_binop bits Ir.Neq (Const 0) e

let rec mk_cond bits c a b =
  match c with
  | Const n -> if Value.is_true n then a else b
  | _ when equal a b -> a
  | Unop (Ir.Not, x) -> mk_cond bits x b a
  | _ -> (
    match Dataflow.truth (interval bits c) with
    | `True -> a
    | `False -> b
    | `Unknown -> (
      match (a, b) with
      | Const 1, Const 0 when is_boolean bits c -> c
      | Const 0, Const 1 when is_boolean bits c -> mk_unop bits Ir.Not c
      (* Same-guard nesting collapses (selector chains revisiting a test). *)
      | Cond (c', a', _), _ when equal c c' -> mk_cond bits c a' b
      | _, Cond (c', _, b') when equal c c' -> mk_cond bits c a b'
      | _ -> Cond (c, a, b)))

(* --- Symbolic evaluation of IR --------------------------------------------- *)

let default_fuel = 200_000
let max_call_depth = 64

type env = {
  e_bits : Value.width;
  e_helpers : (string, Ir.helper) Hashtbl.t;
  e_mc : Machine_code.t option;
  e_phv : int -> sym;  (* meaning of [Phv k] *)
  e_state : int -> sym;  (* meaning of [State k]: the pre-execution snapshot *)
  e_vars : (string * sym) list;
  e_depth : int;
  e_fuel : int ref;
}

let env_of ?mc ~bits ~helpers ~phv ~state ?(fuel = ref default_fuel) () =
  {
    e_bits = bits;
    e_helpers = helpers;
    e_mc = mc;
    e_phv = phv;
    e_state = state;
    e_vars = [];
    e_depth = 0;
    e_fuel = fuel;
  }

let tick env =
  decr env.e_fuel;
  if !(env.e_fuel) < 0 then unsupported "symbolic evaluation exceeded its fuel bound"

let rec eval env (e : Ir.expr) : sym =
  tick env;
  let bits = env.e_bits in
  match e with
  | Ir.Const n -> Const n
  | Ir.Var x -> (
    match List.assoc_opt x env.e_vars with
    | Some v -> v
    | None -> unsupported "unbound variable '%s'" x)
  | Ir.Mc name -> (
    match env.e_mc with
    | Some mc -> (
      match Machine_code.find_opt mc name with Some v -> Const v | None -> Ctrl name)
    | None -> Ctrl name)
  | Ir.Trunc a -> mk_trunc bits (eval env a)
  | Ir.Phv k -> env.e_phv k
  | Ir.State k -> env.e_state k
  | Ir.Unop (op, a) -> mk_unop bits op (eval env a)
  | Ir.Binop (op, a, b) -> mk_binop bits op (eval env a) (eval env b)
  | Ir.Cond (c, a, b) -> mk_cond bits (eval env c) (eval env a) (eval env b)
  | Ir.Call (name, args) ->
    if env.e_depth >= max_call_depth then unsupported "helper call depth exceeded";
    let h =
      match Hashtbl.find_opt env.e_helpers name with
      | Some h -> h
      | None -> unsupported "unknown helper '%s'" name
    in
    if List.length h.Ir.h_params <> List.length args then
      unsupported "helper '%s' arity mismatch" name;
    let bindings = List.map2 (fun p a -> (p, eval env a)) h.Ir.h_params args in
    eval { env with e_vars = bindings; e_depth = env.e_depth + 1 } h.Ir.h_body

(* Latched statement execution.  [stores] maps slots to their post-execution
   symbolic values ([State k] reads still see the snapshot via [e_state]).
   An [If] whose condition does not fold evaluates both continuations — the
   rest of the statement list is part of each continuation because a
   [Return] inside a branch skips it — and merges slot-wise; a path that
   falls off the end without returning produces the [default] output,
   exactly as {!Interp.run_alu_into} does. *)
module Int_map = Map.Make (Int)

let rec exec env ~default stores (stmts : Ir.stmt list) : sym Int_map.t * sym option =
  match stmts with
  | [] -> (stores, None)
  | Ir.Let (x, e) :: rest ->
    let v = eval env e in
    exec { env with e_vars = (x, v) :: env.e_vars } ~default stores rest
  | Ir.Store (k, e) :: rest -> exec env ~default (Int_map.add k (eval env e) stores) rest
  | Ir.Return e :: _ -> (stores, Some (eval env e))
  | Ir.If (c, a, b) :: rest -> (
    match eval env c with
    | Const n -> exec env ~default stores ((if Value.is_true n then a else b) @ rest)
    | sc ->
      let sa, ra = exec env ~default stores (a @ rest) in
      let sb, rb = exec env ~default stores (b @ rest) in
      let bits = env.e_bits in
      let merged =
        Int_map.merge
          (fun k va vb ->
            let unstored () = env.e_state k in
            match (va, vb) with
            | Some x, Some y -> Some (mk_cond bits sc x y)
            | Some x, None -> Some (mk_cond bits sc x (unstored ()))
            | None, Some y -> Some (mk_cond bits sc (unstored ()) y)
            | None, None -> None)
          sa sb
      in
      let ret =
        match (ra, rb) with
        | None, None -> None
        | Some x, Some y -> Some (mk_cond bits sc x y)
        | Some x, None -> Some (mk_cond bits sc x default)
        | None, Some y -> Some (mk_cond bits sc default y)
      in
      (merged, ret))

(* --- ALU and stage evaluation ---------------------------------------------- *)

type alu_sym = {
  al_output : sym;  (* the ALU's output value *)
  al_state : sym array;  (* post-execution state slots *)
}

let run_alu ?mc ~bits ~helpers ~phv ~state ?fuel (alu : Ir.alu) =
  let env = env_of ?mc ~bits ~helpers ~phv ~state ?fuel () in
  let default = eval env alu.Ir.a_default_output in
  let stores, ret = exec env ~default Int_map.empty alu.Ir.a_body in
  let output = match ret with Some v -> v | None -> default in
  let post =
    Array.init alu.Ir.a_state_size (fun k ->
        match Int_map.find_opt k stores with Some v -> v | None -> state k)
  in
  { al_output = output; al_state = post }

type stage_sym = {
  sg_containers : sym array;  (* post-stage container values *)
  sg_state : (string * sym array) list;  (* stateful ALU -> post-execution slots *)
}

(* Mirrors {!Interp.run_mux}: positional parameter binding over the
   engine's argument layout, with a trailing "ctrl" parameter resolved from
   machine code under the mux's own name. *)
let apply_mux env name ~(arg : int -> sym) ~n_args =
  let h =
    match Hashtbl.find_opt env.e_helpers name with
    | Some h -> h
    | None -> unsupported "unknown output mux '%s'" name
  in
  let bindings, bound =
    List.fold_left
      (fun (acc, i) p ->
        let v =
          if i < n_args then arg i
          else if String.equal p "ctrl" then (
            match env.e_mc with
            | Some mc -> (
              match Machine_code.find_opt mc name with Some v -> Const v | None -> Ctrl name)
            | None -> Ctrl name)
          else unsupported "output mux '%s' has too many parameters" name
        in
        ((p, v) :: acc, i + 1))
      ([], 0) h.Ir.h_params
  in
  if bound < n_args then unsupported "output mux '%s' has too few parameters" name;
  let forbid what _ = unsupported "output mux '%s' read a %s" name what in
  eval
    {
      env with
      e_vars = bindings;
      e_phv = forbid "container";
      e_state = forbid "state slot";
      e_depth = env.e_depth + 1;
    }
    h.Ir.h_body

(* One stage, in the engine's execution order: stateless ALUs, stateful
   ALUs, then every output mux over [stateless outs; stateful outs;
   post-execution state_0s; old container value].  [phv] gives the meaning
   of the stage's input containers and [state] the pre-execution state of
   each stateful ALU. *)
let run_stage ?mc ~bits ~helpers ~phv ~state ?(fuel = ref default_fuel) (stage : Ir.stage) =
  let no_state _ = unsupported "stateless ALU read a state slot" in
  let stateless =
    Array.map (fun alu -> run_alu ?mc ~bits ~helpers ~phv ~state:no_state ~fuel alu)
      stage.Ir.s_stateless
  in
  let stateful =
    Array.map
      (fun alu ->
        (alu.Ir.a_name, run_alu ?mc ~bits ~helpers ~phv ~state:(state ~alu:alu.Ir.a_name) ~fuel alu))
      stage.Ir.s_stateful
  in
  let nsl = Array.length stateless and nsf = Array.length stateful in
  let n_args = nsl + (2 * nsf) + 1 in
  let containers =
    Array.mapi
      (fun c mux_name ->
        let arg i =
          if i < nsl then stateless.(i).al_output
          else if i < nsl + nsf then (snd stateful.(i - nsl)).al_output
          else if i < nsl + (2 * nsf) then (snd stateful.(i - nsl - nsf)).al_state.(0)
          else phv c
        in
        let env = env_of ?mc ~bits ~helpers ~phv ~state:no_state ~fuel () in
        apply_mux env mux_name ~arg ~n_args)
      stage.Ir.s_output_muxes
  in
  { sg_containers = containers; sg_state = Array.to_list (Array.map (fun (n, a) -> (n, a.al_state)) stateful) }

(* --- Whole-pipeline composition -------------------------------------------- *)

type pipeline_sym = {
  pl_containers : sym array;  (* final containers in terms of [Phv]/[State] atoms *)
  pl_state : (string * sym array) list;  (* post-execution state of every stateful ALU *)
}

(* Threads container values through all stages of a feed-forward pipeline.
   Free atoms are the pipeline *input* containers and each stateful ALU's
   pre-execution state (each packet visits each ALU exactly once, so the
   per-packet transfer function quantifies over an arbitrary resident
   state).  Per-stage equivalence composes into this by induction, but the
   compiler's spec lives at the transaction level, so vet compares against
   this end-to-end form. *)
let run_pipeline ?mc ?(fuel = ref default_fuel) (d : Ir.t) =
  let containers = ref (Array.init d.Ir.d_width (fun c -> Phv c)) in
  let states = ref [] in
  Array.iter
    (fun stage ->
      let cur = !containers in
      let ss =
        run_stage ?mc ~bits:d.Ir.d_bits ~helpers:d.Ir.d_helpers
          ~phv:(fun c -> cur.(c))
          ~state:(fun ~alu k -> State (alu, k))
          ~fuel stage
      in
      containers := ss.sg_containers;
      states := !states @ ss.sg_state)
    d.Ir.d_stages;
  { pl_containers = !containers; pl_state = !states }

(* --- Concrete evaluation --------------------------------------------------- *)

(* Evaluates a normal form under an atom assignment, with the interpreter's
   own operators — the bridge from symbolic verdicts back to replayable
   concrete witnesses (and the property-test oracle against {!Interp}). *)
let rec eval_concrete ~bits ~(assign : atom -> int) = function
  | Const n -> n
  | Phv k -> assign (Aphv k)
  | State (alu, k) -> assign (Astate (alu, k))
  | Ctrl name -> assign (Actrl name)
  | Trunc e -> Value.mask bits (eval_concrete ~bits ~assign e)
  | Unop (op, e) -> Interp.apply_unop bits op (eval_concrete ~bits ~assign e)
  | Binop (op, a, b) ->
    Interp.apply_binop bits op (eval_concrete ~bits ~assign a) (eval_concrete ~bits ~assign b)
  | Cond (c, a, b) ->
    if Value.is_true (eval_concrete ~bits ~assign c) then eval_concrete ~bits ~assign a
    else eval_concrete ~bits ~assign b

(* Substitutes an assignment for a subset of atoms, renormalizing.  Used to
   pin state atoms to their reset values when hunting reachable witnesses. *)
let rec substitute ~bits ~(subst : atom -> sym option) e =
  let atom a k = match subst a with Some v -> v | None -> k in
  match e with
  | Const _ -> e
  | Phv k -> atom (Aphv k) e
  | State (alu, k) -> atom (Astate (alu, k)) e
  | Ctrl name -> atom (Actrl name) e
  | Trunc x -> mk_trunc bits (substitute ~bits ~subst x)
  | Unop (op, x) -> mk_unop bits op (substitute ~bits ~subst x)
  | Binop (op, a, b) -> mk_binop bits op (substitute ~bits ~subst a) (substitute ~bits ~subst b)
  | Cond (c, a, b) ->
    mk_cond bits (substitute ~bits ~subst c) (substitute ~bits ~subst a)
      (substitute ~bits ~subst b)
