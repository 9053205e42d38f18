(* Static dataflow analysis over pipeline descriptions.

   Druzhba detects mis-compiled machine code *dynamically*, by diffing
   simulation traces (paper §3.3).  This module adds the static layer: an
   abstract interpreter over {!Druzhba_pipeline.Ir} that computes, without
   running a single PHV,

   - a constant-interval approximation of every value ({!interval}),
   - the definition sites each value can flow from ({!Deps}): PHV
     containers, state slots, and machine-code controls,
   - which output-mux arm each container selects under a given machine-code
     program ({!liveness}), and hence which ALUs are dead,
   - a whole-pipeline provenance graph ({!provenance}) whose backward
     {!slice} answers "which ALUs / controls / containers can this output
     have flowed through" — the Gauntlet-style triage used by the fuzz
     workflow on a trace mismatch.

   Precision comes from evaluating helper calls at their call site: the
   trailing "ctrl" argument of a mux helper is an [Ir.Mc] lookup, so with a
   machine-code program in hand its interval is a single constant, the
   selector chain in the helper body folds to one arm, and only that arm's
   operand contributes dependencies — the static analogue of SCC
   propagation (§3.4).  Without machine code, selector intervals fall back
   to the control domain [[0, n)] from [Ir.control_domains] and the
   analysis is conservative (every arm reachable, every ALU live).

   The IR is loop-free (straight-line statements, expression conditionals),
   so abstract evaluation terminates without widening. *)

module Value = Druzhba_util.Value
module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir

(* --- Constant intervals --------------------------------------------------- *)

(* [Iv (lo, hi)] is the inclusive range; [Top] is an unknown value outside
   any bound (raw machine-code immediates live in control space and are only
   bounded once a [Trunc] brings them onto the datapath). *)
type interval = Top | Iv of int * int

let pp_interval ppf = function
  | Top -> Fmt.string ppf "top"
  | Iv (lo, hi) when lo = hi -> Fmt.int ppf lo
  | Iv (lo, hi) -> Fmt.pf ppf "[%d, %d]" lo hi

let full bits = Iv (0, Value.max_value bits)
let of_const n = Iv (n, n)

let join a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Iv (al, ah), Iv (bl, bh) -> Iv (min al bl, max ah bh)

let trunc bits = function
  | Iv (lo, hi) when lo >= 0 && hi <= Value.max_value bits -> Iv (lo, hi)
  | Top | Iv _ -> full bits

(* Three-valued truthiness (the DSL encodes booleans as zero / non-zero). *)
let truth = function
  | Iv (0, 0) -> `False
  | Iv (lo, _) when lo > 0 -> `True
  | Iv (_, hi) when hi < 0 -> `True
  | Top | Iv _ -> `Unknown

let bool3 = function `True -> Iv (1, 1) | `False -> Iv (0, 0) | `Unknown -> Iv (0, 1)

let abs_unop bits (op : Ir.unop) a =
  match op with
  | Ir.Neg -> ( match a with Iv (0, 0) -> Iv (0, 0) | _ -> full bits)
  | Ir.Not -> (
    match truth a with `True -> Iv (0, 0) | `False -> Iv (1, 1) | `Unknown -> Iv (0, 1))

(* Keeps an arithmetic result interval only when no wrap-around is possible
   at the datapath width. *)
let clamp bits lo hi = if lo >= 0 && hi <= Value.max_value bits then Iv (lo, hi) else full bits

(* Native-int overflow guards for abstract arithmetic.  A wrapped bound
   would pass [clamp] as an inverted interval, and two 62-bit datapath
   values already overflow a sum. *)
let add_safe v = v > min_int / 2 && v < max_int / 2
let mul_safe v = v > -0x4000_0000 && v < 0x4000_0000

let rec abs_binop bits (op : Ir.binop) a b =
  match op with
  | Ir.Add -> (
    match (a, b) with
    | Iv (al, ah), Iv (bl, bh) when List.for_all add_safe [ al; ah; bl; bh ] ->
      clamp bits (al + bl) (ah + bh)
    | _ -> full bits)
  | Ir.Sub -> (
    match (a, b) with
    | Iv (al, ah), Iv (bl, bh) when List.for_all add_safe [ al; ah; bl; bh ] ->
      clamp bits (al - bh) (ah - bl)
    | _ -> full bits)
  | Ir.Mul -> (
    match (a, b) with
    | Iv (al, ah), Iv (bl, bh) when List.for_all mul_safe [ al; ah; bl; bh ] ->
      let ps = [ al * bl; al * bh; ah * bl; ah * bh ] in
      clamp bits (List.fold_left min max_int ps) (List.fold_left max min_int ps)
    | _ -> full bits)
  | Ir.Div | Ir.Mod -> full bits
  | Ir.Eq -> (
    match (a, b) with
    | Iv (al, ah), Iv (bl, bh) ->
      if al = ah && bl = bh && al = bl then Iv (1, 1)
      else if ah < bl || bh < al then Iv (0, 0)
      else Iv (0, 1)
    | _ -> Iv (0, 1))
  | Ir.Neq -> (
    match abs_binop bits Ir.Eq a b with
    | Iv (1, 1) -> Iv (0, 0)
    | Iv (0, 0) -> Iv (1, 1)
    | _ -> Iv (0, 1))
  | Ir.Lt -> (
    match (a, b) with
    | Iv (al, ah), Iv (bl, bh) ->
      if ah < bl then Iv (1, 1) else if al >= bh then Iv (0, 0) else Iv (0, 1)
    | _ -> Iv (0, 1))
  | Ir.Gt -> (
    match (a, b) with
    | Iv (al, ah), Iv (bl, bh) ->
      if al > bh then Iv (1, 1) else if ah <= bl then Iv (0, 0) else Iv (0, 1)
    | _ -> Iv (0, 1))
  | Ir.Le -> (
    match (a, b) with
    | Iv (al, ah), Iv (bl, bh) ->
      if ah <= bl then Iv (1, 1) else if al > bh then Iv (0, 0) else Iv (0, 1)
    | _ -> Iv (0, 1))
  | Ir.Ge -> (
    match (a, b) with
    | Iv (al, ah), Iv (bl, bh) ->
      if al >= bh then Iv (1, 1) else if ah < bl then Iv (0, 0) else Iv (0, 1)
    | _ -> Iv (0, 1))
  | Ir.And -> bool3 (match (truth a, truth b) with
    | `False, _ | _, `False -> `False
    | `True, `True -> `True
    | _ -> `Unknown)
  | Ir.Or -> bool3 (match (truth a, truth b) with
    | `True, _ | _, `True -> `True
    | `False, `False -> `False
    | _ -> `Unknown)

(* --- Dependencies (def-use atoms) ----------------------------------------- *)

(* What a value, as seen from inside one ALU, can depend on: a container of
   the incoming PHV, a slot of the executing stateful ALU's state, or a
   machine-code control.  The provenance graph later rebases these onto
   pipeline-wide nodes. *)
module Dep = struct
  type t =
    | Dphv of int
    | Dstate of int
    | Dctrl of string

  let compare = Stdlib.compare
end

module Deps = Set.Make (Dep)

(* --- Abstract evaluation --------------------------------------------------- *)

type ctx = {
  cx_bits : Value.width;
  cx_helpers : (string, Ir.helper) Hashtbl.t;
  cx_mc : Machine_code.t option;
  cx_domains : (string, Ir.control_domain) Hashtbl.t;
}

let ctx_of ?mc (d : Ir.t) =
  let domains = Hashtbl.create 64 in
  List.iter (fun (n, dom) -> Hashtbl.replace domains n dom) (Ir.control_domains d);
  { cx_bits = d.Ir.d_bits; cx_helpers = d.Ir.d_helpers; cx_mc = mc; cx_domains = domains }

(* The interval of one machine-code control: the exact value when a program
   is in hand, its declared domain otherwise. *)
let control_interval ctx name =
  let from_domain () =
    match Hashtbl.find_opt ctx.cx_domains name with
    | Some (Ir.Selector n) -> Iv (0, n - 1)
    | Some Ir.Immediate | None -> Top
  in
  match ctx.cx_mc with
  | None -> from_domain ()
  | Some mc -> (
    match Machine_code.find_opt mc name with Some v -> of_const v | None -> from_domain ())

(* Defensive bound on helper-call nesting; dgen-generated helpers are
   call-free, so this only triggers on hand-built recursive descriptions. *)
let max_call_depth = 64

(* Evaluates an expression to (interval, dependency set).  Helper calls bind
   the abstract arguments to the parameters and descend into the body, so a
   constant ctrl prunes the selector chain and unselected operands drop out
   of the result — call-site precision. *)
let rec eval ctx depth env (e : Ir.expr) : interval * Deps.t =
  match e with
  | Ir.Const n -> (of_const n, Deps.empty)
  | Ir.Var x -> (
    match List.assoc_opt x env with Some r -> r | None -> (full ctx.cx_bits, Deps.empty))
  | Ir.Mc name -> (control_interval ctx name, Deps.singleton (Dep.Dctrl name))
  | Ir.Trunc a ->
    let i, d = eval ctx depth env a in
    (trunc ctx.cx_bits i, d)
  | Ir.Phv c -> (full ctx.cx_bits, Deps.singleton (Dep.Dphv c))
  | Ir.State k -> (full ctx.cx_bits, Deps.singleton (Dep.Dstate k))
  | Ir.Unop (op, a) ->
    let i, d = eval ctx depth env a in
    (abs_unop ctx.cx_bits op i, d)
  | Ir.Binop (op, a, b) ->
    let ia, da = eval ctx depth env a in
    let ib, db = eval ctx depth env b in
    (abs_binop ctx.cx_bits op ia ib, Deps.union da db)
  | Ir.Cond (c, a, b) -> (
    let ci, cd = eval ctx depth env c in
    match truth ci with
    | `True ->
      let i, d = eval ctx depth env a in
      (i, Deps.union cd d)
    | `False ->
      let i, d = eval ctx depth env b in
      (i, Deps.union cd d)
    | `Unknown ->
      let ia, da = eval ctx depth env a in
      let ib, db = eval ctx depth env b in
      (join ia ib, Deps.union cd (Deps.union da db)))
  | Ir.Call (name, args) -> (
    let evaluated = List.map (eval ctx depth env) args in
    let arg_deps = List.fold_left (fun acc (_, d) -> Deps.union acc d) Deps.empty evaluated in
    match Hashtbl.find_opt ctx.cx_helpers name with
    | Some h when List.length h.Ir.h_params = List.length args && depth < max_call_depth ->
      eval ctx (depth + 1) (List.combine h.Ir.h_params evaluated) h.Ir.h_body
    | Some _ | None ->
      (* arity mismatch / unknown helper: the lint reports it; stay sound *)
      (full ctx.cx_bits, arg_deps))

(* --- Per-ALU facts --------------------------------------------------------- *)

type branch_kind = Then_branch | Else_branch

(* One [If] arm that can never execute under the analysed machine code.
   [db_if_index] numbers the [If] statements the analysis visited, in
   pre-order over the ALU body. *)
type dead_branch = { db_if_index : int; db_dead : branch_kind }

type facts = {
  fa_output : interval * Deps.t;  (* the ALU's output value over all paths *)
  fa_stores : (int * Deps.t) list;
      (* state slots with a reachable [Store], with the deciding branch
         conditions folded into each slot's dependency set *)
  fa_state_reads : int list;  (* slots read anywhere in the body (syntactic) *)
  fa_dead_branches : dead_branch list;
}

let alu_facts ctx (alu : Ir.alu) : facts =
  let stores : (int, Deps.t ref) Hashtbl.t = Hashtbl.create 4 in
  let outs = ref [] in
  let dead = ref [] in
  let if_counter = ref (-1) in
  let add_store k d =
    match Hashtbl.find_opt stores k with
    | Some r -> r := Deps.union !r d
    | None -> Hashtbl.add stores k (ref d)
  in
  (* [path] carries the dependencies of every branch condition on the way
     here (control dependencies).  Returns whether execution can fall
     through the statement list. *)
  let rec go env path (stmts : Ir.stmt list) =
    match stmts with
    | [] -> true
    | Ir.Let (x, e) :: rest -> go ((x, eval ctx 0 env e) :: env) path rest
    | Ir.Store (k, e) :: rest ->
      let _, d = eval ctx 0 env e in
      add_store k (Deps.union path d);
      go env path rest
    | Ir.Return e :: _ ->
      let i, d = eval ctx 0 env e in
      outs := (i, Deps.union path d) :: !outs;
      false
    | Ir.If (c, a, b) :: rest ->
      incr if_counter;
      let my_index = !if_counter in
      let ci, cd = eval ctx 0 env c in
      let path' = Deps.union path cd in
      let fallthrough =
        match truth ci with
        | `True ->
          if b <> [] then dead := { db_if_index = my_index; db_dead = Else_branch } :: !dead;
          go env path' a
        | `False ->
          if a <> [] then dead := { db_if_index = my_index; db_dead = Then_branch } :: !dead;
          go env path' b
        | `Unknown ->
          let fa = go env path' a in
          let fb = go env path' b in
          fa || fb
      in
      if fallthrough then go env path' rest else false
  in
  let default = eval ctx 0 [] alu.Ir.a_default_output in
  let fell_through = go [] Deps.empty alu.Ir.a_body in
  let outputs = if fell_through || !outs = [] then default :: !outs else !outs in
  let fa_output =
    List.fold_left
      (fun (i, d) (i', d') -> (join i i', Deps.union d d'))
      (List.hd outputs) (List.tl outputs)
  in
  let fa_stores =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) stores []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let fa_state_reads =
    let collect acc e = match e with Ir.State k -> k :: acc | _ -> acc in
    let acc = List.fold_left (Ir.fold_stmt collect) [] alu.Ir.a_body in
    let acc = Ir.fold_expr collect acc alu.Ir.a_default_output in
    List.sort_uniq compare acc
  in
  { fa_output; fa_stores; fa_state_reads; fa_dead_branches = List.rev !dead }

(* --- Output-mux selection and ALU liveness --------------------------------- *)

(* One arm of a stage's output mux, in the machine-code value order built by
   [Dgen.output_mux_helper] / [Names.Select]. *)
type mux_source =
  | Src_stateless of int
  | Src_stateful of int  (* the ALU's output value *)
  | Src_stateful_new of int  (* the ALU's post-execution state slot 0 *)
  | Src_passthrough

let pp_mux_source ppf = function
  | Src_stateless j -> Fmt.pf ppf "stateless ALU %d" j
  | Src_stateful j -> Fmt.pf ppf "stateful ALU %d" j
  | Src_stateful_new j -> Fmt.pf ppf "stateful ALU %d (new state)" j
  | Src_passthrough -> Fmt.string ppf "passthrough"

let all_sources width =
  List.init width (fun j -> Src_stateless j)
  @ List.init width (fun j -> Src_stateful j)
  @ List.init width (fun j -> Src_stateful_new j)
  @ [ Src_passthrough ]

(* Maps a raw selector value to the arm the selector chain picks.  The chain
   falls through to its last arm — the container's incoming value — for
   every value outside [0, 3*width), which is how out-of-range machine code
   behaves at simulation time. *)
let mux_source_of_ctrl ~width v =
  if v < 0 then Src_passthrough
  else if v < width then Src_stateless v
  else if v < 2 * width then Src_stateful (v - width)
  else if v < 3 * width then Src_stateful_new (v - (2 * width))
  else Src_passthrough

type liveness = {
  lv_sources : mux_source list array array;
      (* stage -> container -> arms the output mux can select *)
  lv_stateless : bool array array;  (* stage -> ALU index -> output selectable *)
  lv_stateful : bool array array;
}

(* With machine code, each mux resolves to exactly one arm and deadness is
   exact; without (or with the mux pair missing), every arm is reachable and
   everything is live.  A "dead" stateful ALU still mutates its state, which
   the trace's final-state dump observes — callers that drop it must accept
   that divergence. *)
let liveness ?mc (d : Ir.t) : liveness =
  let w = d.Ir.d_width in
  let sources =
    Array.map
      (fun (st : Ir.stage) ->
        Array.map
          (fun name ->
            match mc with
            | None -> all_sources w
            | Some mc -> (
              match Machine_code.find_opt mc name with
              | None -> all_sources w
              | Some v -> [ mux_source_of_ctrl ~width:w v ]))
          st.Ir.s_output_muxes)
      d.Ir.d_stages
  in
  let stateless =
    Array.map (fun (st : Ir.stage) -> Array.make (Array.length st.Ir.s_stateless) false) d.Ir.d_stages
  in
  let stateful =
    Array.map (fun (st : Ir.stage) -> Array.make (Array.length st.Ir.s_stateful) false) d.Ir.d_stages
  in
  Array.iteri
    (fun s per_container ->
      Array.iter
        (List.iter (fun src ->
             match src with
             | Src_stateless j -> if j < Array.length stateless.(s) then stateless.(s).(j) <- true
             | Src_stateful j | Src_stateful_new j ->
               if j < Array.length stateful.(s) then stateful.(s).(j) <- true
             | Src_passthrough -> ()))
        per_container)
    sources;
  { lv_sources = sources; lv_stateless = stateless; lv_stateful = stateful }

(* --- Whole-pipeline analysis ----------------------------------------------- *)

type analysis = {
  an_desc : Ir.t;
  an_liveness : liveness;
  an_stateless : facts array array;  (* stage -> ALU index -> facts *)
  an_stateful : facts array array;
}

let analyse ?mc (d : Ir.t) : analysis =
  let ctx = ctx_of ?mc d in
  {
    an_desc = d;
    an_liveness = liveness ?mc d;
    an_stateless =
      Array.map (fun (st : Ir.stage) -> Array.map (alu_facts ctx) st.Ir.s_stateless) d.Ir.d_stages;
    an_stateful =
      Array.map (fun (st : Ir.stage) -> Array.map (alu_facts ctx) st.Ir.s_stateful) d.Ir.d_stages;
  }

(* --- Provenance graph ------------------------------------------------------ *)

(* A node of the pipeline-wide dataflow graph.  Container nodes live on
   stage boundaries: [Ncontainer (s, c)] is container [c] of the PHV
   *entering* stage [s], so [s = 0] is the pipeline input and [s = depth]
   the pipeline output. *)
type node =
  | Ncontainer of int * int  (* stage boundary, container *)
  | Nalu of string  (* an ALU's output value *)
  | Nstate of string * int  (* persistent state slot of a stateful ALU *)
  | Ncontrol of string  (* machine-code pair *)

let pp_node ppf = function
  | Ncontainer (s, c) -> Fmt.pf ppf "container %d (entering stage %d)" c s
  | Nalu name -> Fmt.pf ppf "alu %s" name
  | Nstate (name, k) -> Fmt.pf ppf "state %s[%d]" name k
  | Ncontrol name -> Fmt.pf ppf "control %s" name

type provenance = {
  pv_depth : int;
  pv_width : int;
  pv_deps : (node, node list) Hashtbl.t;  (* node -> nodes its value flows from *)
}

let provenance ?mc (d : Ir.t) : provenance =
  let an = analyse ?mc d in
  let deps : (node, node list) Hashtbl.t = Hashtbl.create 256 in
  (* Rebases an ALU-local dependency set onto graph nodes. *)
  let rebase stage alu_name ds =
    Deps.fold
      (fun dep acc ->
        (match dep with
        | Dep.Dphv c -> Ncontainer (stage, c)
        | Dep.Dstate k -> Nstate (alu_name, k)
        | Dep.Dctrl n -> Ncontrol n)
        :: acc)
      ds []
    |> List.rev
  in
  Array.iteri
    (fun s (st : Ir.stage) ->
      let do_alu (facts : facts array) i (a : Ir.alu) =
        let f = facts.(i) in
        Hashtbl.replace deps (Nalu a.Ir.a_name) (rebase s a.Ir.a_name (snd f.fa_output));
        List.iter
          (fun (k, dset) -> Hashtbl.replace deps (Nstate (a.Ir.a_name, k)) (rebase s a.Ir.a_name dset))
          f.fa_stores
      in
      Array.iteri (do_alu an.an_stateless.(s)) st.Ir.s_stateless;
      Array.iteri (do_alu an.an_stateful.(s)) st.Ir.s_stateful;
      Array.iteri
        (fun c mux_name ->
          let arms =
            List.concat_map
              (fun src ->
                match src with
                | Src_stateless j when j < Array.length st.Ir.s_stateless ->
                  [ Nalu st.Ir.s_stateless.(j).Ir.a_name ]
                | Src_stateful j when j < Array.length st.Ir.s_stateful ->
                  [ Nalu st.Ir.s_stateful.(j).Ir.a_name ]
                | Src_stateful_new j when j < Array.length st.Ir.s_stateful ->
                  [ Nstate (st.Ir.s_stateful.(j).Ir.a_name, 0) ]
                | Src_passthrough -> [ Ncontainer (s, c) ]
                | Src_stateless _ | Src_stateful _ | Src_stateful_new _ -> [])
              an.an_liveness.lv_sources.(s).(c)
          in
          Hashtbl.replace deps (Ncontainer (s + 1, c)) (Ncontrol mux_name :: arms))
        st.Ir.s_output_muxes)
    d.Ir.d_stages;
  { pv_depth = d.Ir.d_depth; pv_width = d.Ir.d_width; pv_deps = deps }

(* Everything [start]'s value can have flowed through, in deterministic
   depth-first pre-order from [start] (which is included). *)
let slice (pv : provenance) (start : node) : node list =
  let visited = Hashtbl.create 64 in
  let order = ref [] in
  let rec go n =
    if not (Hashtbl.mem visited n) then begin
      Hashtbl.add visited n ();
      order := n :: !order;
      List.iter go (match Hashtbl.find_opt pv.pv_deps n with Some l -> l | None -> [])
    end
  in
  go start;
  List.rev !order

(* The pipeline-output node for container [c]. *)
let output_node pv c = Ncontainer (pv.pv_depth, c)
