(* Translation-validation obligations and the verdict ladder.

   For every stage, output container and stateful-ALU state slot, two
   descriptions of the same pipeline induce one *obligation*: the symbolic
   transfer functions computed by {!Symbolic} must agree for every
   assignment of the free atoms (input containers, pre-execution state,
   residual controls).  Per-stage agreement composes: stages are
   feed-forward and each packet visits each ALU once, so identical stage
   transfer functions give identical simulation traces by induction over
   ticks — the static counterpart of the paper's §3.3 trace diff.

   Each obligation climbs a ladder of decision procedures, cheapest first:

   - "proved":   the two normal forms are structurally identical;
   - "pruned":   the known-bits + interval product domain decides —
                 both sides can set no bits (always 0), or their value
                 ranges are disjoint (a refutation, with witness);
   - "enumerated": the assignment space at the obligation's width is small
                 enough to check exhaustively;
   - "refuted":  a concrete assignment separates the two sides — every
                 refutation carries a replayable {!witness};
   - "witness-deferred": no decision; deterministic boundary + random
                 sampling found no separator, and the sampled assignments
                 are emitted as directed-trial candidates for the fuzzing
                 campaign (static analysis seeding the dynamic oracle).

   A refutation is always sound (it is a checked concrete counterexample);
   a "witness-deferred" verdict is never reported as a proof. *)

module Value = Druzhba_util.Value
module Prng = Druzhba_util.Prng
module Machine_code = Druzhba_machine_code.Machine_code
module Ir = Druzhba_pipeline.Ir
module Interp = Druzhba_pipeline.Interp

(* --- Verdicts -------------------------------------------------------------- *)

type witness = {
  w_assign : (Symbolic.atom * int) list;  (* total over both sides' atoms, sorted *)
  w_lhs : int;  (* value of the reference side under [w_assign] *)
  w_rhs : int;  (* value of the candidate side under [w_assign] *)
}

type method_ =
  | Mnorm  (* structural equality of normal forms *)
  | Mabstract  (* known-bits + interval product domain *)
  | Menum of int  (* exhaustive enumeration of n assignments *)
  | Msample of int  (* boundary + random sampling, n assignments *)

type status =
  | Proved of method_
  | Refuted of method_ * witness
  | Deferred of (Symbolic.atom * int) list list  (* directed-trial candidates *)

(* ISSUE taxonomy bucket for reports. *)
let taxonomy = function
  | Proved Mnorm -> "proved"
  | Proved Mabstract -> "pruned"
  | Proved (Menum _) -> "enumerated"
  | Proved (Msample _) -> "witness-deferred" (* sampling never proves; defensive *)
  | Refuted _ -> "refuted"
  | Deferred _ -> "witness-deferred"

let buckets = [ "proved"; "pruned"; "enumerated"; "witness-deferred"; "refuted" ]

type subject =
  | Container of int * int  (* stage index, container index *)
  | State_slot of string * int  (* stateful ALU name, slot *)

let pp_subject ppf = function
  | Container (s, c) -> Fmt.pf ppf "stage %d container %d" s c
  | State_slot (alu, k) -> Fmt.pf ppf "%s slot %d" alu k

let subject_id = function
  | Container (s, c) -> Printf.sprintf "stage%d/container%d" s c
  | State_slot (alu, k) -> Printf.sprintf "%s/slot%d" alu k

type obligation = {
  ob_subject : subject;
  ob_lhs_name : string;  (* reference side, e.g. "unoptimized" *)
  ob_rhs_name : string;  (* candidate side, e.g. pass "scc_propagate" *)
  ob_lhs : Symbolic.sym;
  ob_rhs : Symbolic.sym;
  ob_status : status;
  ob_note : string;  (* diagnostics, e.g. why evaluation bailed out *)
}

let pp_assign ppf assign =
  Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") Symbolic.pp_atom int)) ppf assign

let pp_witness ppf w =
  Fmt.pf ppf "@[<h>{%a} -> lhs=%d rhs=%d@]" pp_assign w.w_assign w.w_lhs w.w_rhs

let pp_status ppf = function
  | Proved m ->
    let how =
      match m with
      | Mnorm -> "normal forms identical"
      | Mabstract -> "abstract domain"
      | Menum n -> Printf.sprintf "enumerated %d assignments" n
      | Msample n -> Printf.sprintf "sampled %d assignments" n
    in
    Fmt.pf ppf "proved (%s)" how
  | Refuted (_, w) -> Fmt.pf ppf "REFUTED %a" pp_witness w
  | Deferred cs -> Fmt.pf ppf "witness-deferred (%d candidates)" (List.length cs)

let pp_obligation ppf ob =
  Fmt.pf ppf "@[<h>%s vs %s, %a: %a@]" ob.ob_lhs_name ob.ob_rhs_name pp_subject ob.ob_subject
    pp_status ob.ob_status

let is_refuted ob = match ob.ob_status with Refuted _ -> true | _ -> false
let is_deferred ob = match ob.ob_status with Deferred _ -> true | _ -> false

let summary obs =
  List.map (fun b -> (b, List.length (List.filter (fun ob -> taxonomy ob.ob_status = b) obs)))
    buckets

(* --- The decision ladder --------------------------------------------------- *)

type config = {
  cf_bits : Value.width;
  cf_enum_budget : int;  (* max assignments for the exhaustive tier *)
  cf_samples : int;  (* random assignments in the sampling tier *)
  cf_candidates : int;  (* deferred candidates to keep for the fuzzer *)
  cf_seed : int;
}

let config ?(enum_budget = 1 lsl 16) ?(samples = 256) ?(candidates = 8) ?(seed = 0x5eed) bits =
  { cf_bits = bits; cf_enum_budget = enum_budget; cf_samples = samples;
    cf_candidates = candidates; cf_seed = seed }

let union_atoms lhs rhs =
  Symbolic.Atom_set.elements
    (Symbolic.Atom_set.union (Symbolic.atom_set lhs) (Symbolic.atom_set rhs))

let assign_of atoms values =
  let assign = List.combine atoms values in
  fun a -> match List.assoc_opt a assign with Some v -> v | None -> 0

let eval_pair bits lhs rhs assign =
  ( Symbolic.eval_concrete ~bits ~assign lhs,
    Symbolic.eval_concrete ~bits ~assign rhs )

let witness_of bits atoms values lhs rhs =
  let assign = assign_of atoms values in
  let l, r = eval_pair bits lhs rhs assign in
  { w_assign = List.combine atoms values; w_lhs = l; w_rhs = r }

(* Tier 2: the known-bits x interval product domain.  Equality holds when
   neither side can set any bit; inequality (everywhere!) holds when the
   two value ranges are disjoint — then any assignment is a witness. *)
let abstract_tier cfg lhs rhs =
  let bits = cfg.cf_bits in
  if Symbolic.may_mask bits lhs = 0 && Symbolic.may_mask bits rhs = 0 then Some (Proved Mabstract)
  else
    match (Symbolic.interval bits lhs, Symbolic.interval bits rhs) with
    | Dataflow.Iv (ll, lh), Dataflow.Iv (rl, rh) when lh < rl || rh < ll ->
      let atoms = union_atoms lhs rhs in
      let w = witness_of bits atoms (List.map (fun _ -> 0) atoms) lhs rhs in
      (* The domains are sound, so the ranges really are disjoint; check
         anyway and fall through rather than emit a bogus witness. *)
      if w.w_lhs <> w.w_rhs then Some (Refuted (Mabstract, w)) else None
    | _ -> None

(* Tier 3: exhaustive enumeration when the assignment space is small.
   Control atoms range over all of control space and are never enumerable;
   datapath atoms range over [0, 2^bits). *)
let enum_tier cfg lhs rhs =
  let bits = cfg.cf_bits in
  let atoms = union_atoms lhs rhs in
  let enumerable = List.for_all (function Symbolic.Actrl _ -> false | _ -> true) atoms in
  let n = List.length atoms in
  if (not enumerable) || n * bits > 60 then None
  else
    let total = 1 lsl (n * bits) in
    if total > cfg.cf_enum_budget then None
    else begin
      let values = Array.make n 0 in
      let max_v = Value.max_value bits in
      let rec odometer i =
        if i < 0 then false
        else if values.(i) < max_v then (values.(i) <- values.(i) + 1; true)
        else (values.(i) <- 0; odometer (i - 1))
      in
      let result = ref (Proved (Menum total)) in
      (try
         for _ = 0 to total - 1 do
           let vs = Array.to_list values in
           let l, r = eval_pair bits lhs rhs (assign_of atoms vs) in
           if l <> r then begin
             result := Refuted (Menum total, { w_assign = List.combine atoms vs; w_lhs = l; w_rhs = r });
             raise Exit
           end;
           ignore (odometer (n - 1))
         done
       with Exit -> ());
      Some !result
    end

(* Tier 4: deterministic boundary probing then seeded random sampling.
   Any separating assignment is a sound refutation; agreement on every
   sample defers the obligation, handing the first sampled assignments to
   the campaign as directed trials. *)
let sample_tier cfg lhs rhs =
  let bits = cfg.cf_bits in
  let atoms = union_atoms lhs rhs in
  let n = List.length atoms in
  let max_v = Value.max_value bits in
  let consts = List.sort_uniq Stdlib.compare (Symbolic.constants lhs @ Symbolic.constants rhs) in
  let boundary =
    List.sort_uniq Stdlib.compare
      (0 :: 1 :: max_v :: (max_v - 1)
      :: List.concat_map
           (fun c -> List.filter (fun v -> v >= 0) [ c; Value.mask bits c; c - 1; c + 1 ])
           consts)
  in
  let boundary = List.filter (fun v -> v >= 0) boundary in
  let candidates = ref [] in
  let seen = Hashtbl.create 64 in
  let refuted = ref None in
  let tried = ref 0 in
  let try_values vs =
    if !refuted = None && not (Hashtbl.mem seen vs) then begin
      Hashtbl.add seen vs ();
      incr tried;
      let l, r = eval_pair bits lhs rhs (assign_of atoms vs) in
      if l <> r then
        refuted := Some { w_assign = List.combine atoms vs; w_lhs = l; w_rhs = r }
      else if List.length !candidates < cfg.cf_candidates then
        candidates := List.combine atoms vs :: !candidates
    end
  in
  (* Boundary pass: every atom at a boundary value, the others at 0 — plus
     the uniform all-v probes that exercise thresholds against each other. *)
  List.iter (fun v -> try_values (List.init n (fun _ -> min v max_v))) boundary;
  List.iteri
    (fun i _ ->
      List.iter (fun v -> try_values (List.init n (fun j -> if i = j then min v max_v else 0)))
        boundary)
    atoms;
  (* Random pass: mix boundary values and uniform draws per atom. *)
  let prng = Prng.create cfg.cf_seed in
  let boundary_arr = Array.of_list boundary in
  let draw (a : Symbolic.atom) =
    let from_boundary = Array.length boundary_arr > 0 && Prng.bool prng in
    let v =
      if from_boundary then boundary_arr.(Prng.int prng (Array.length boundary_arr))
      else Prng.bits prng bits
    in
    match a with Symbolic.Actrl _ -> v (* control space: raw value *) | _ -> min v max_v
  in
  (try
     for _ = 1 to cfg.cf_samples do
       try_values (List.map draw atoms);
       if !refuted <> None then raise Exit
     done
   with Exit -> ());
  match !refuted with
  | Some w -> Refuted (Msample !tried, w)
  | None -> Deferred (List.rev !candidates)

let decide cfg lhs rhs : status =
  if Symbolic.equal lhs rhs then Proved Mnorm
  else
    match abstract_tier cfg lhs rhs with
    | Some s -> s
    | None -> (
      match enum_tier cfg lhs rhs with Some s -> s | None -> sample_tier cfg lhs rhs)

(* --- Obligation generation ------------------------------------------------- *)

(* Per-stage symbolic transfer functions with free atoms at the stage
   boundary: input containers are [Phv c], pre-execution state is
   [State (alu, k)]. *)
let stage_syms ?mc (d : Ir.t) s =
  Symbolic.run_stage ?mc ~bits:d.Ir.d_bits ~helpers:d.Ir.d_helpers
    ~phv:(fun c -> Symbolic.Phv c)
    ~state:(fun ~alu k -> Symbolic.State (alu, k))
    d.Ir.d_stages.(s)

(* All obligations of one description pair under one machine-code program.
   The two descriptions must share pipeline geometry (they are snapshots of
   the same description across optimizer passes, so they do). *)
let check_pair ?config:cfg ~mc ~lhs_name ~rhs_name (lhs_d : Ir.t) (rhs_d : Ir.t) =
  if
    lhs_d.Ir.d_depth <> rhs_d.Ir.d_depth
    || lhs_d.Ir.d_width <> rhs_d.Ir.d_width
    || lhs_d.Ir.d_bits <> rhs_d.Ir.d_bits
  then invalid_arg "Equiv.check_pair: descriptions disagree on pipeline geometry";
  let cfg = match cfg with Some c -> c | None -> config lhs_d.Ir.d_bits in
  let mk subject status note =
    {
      ob_subject = subject;
      ob_lhs_name = lhs_name;
      ob_rhs_name = rhs_name;
      ob_lhs = Symbolic.Const 0;
      ob_rhs = Symbolic.Const 0;
      ob_status = status;
      ob_note = note;
    }
  in
  let stage_obligations s =
    match (stage_syms ~mc lhs_d s, stage_syms ~mc rhs_d s) with
    | exception Symbolic.Unsupported msg ->
      (* Symbolic evaluation bailed out; defer every obligation of the
         stage rather than claim anything. *)
      let stage = lhs_d.Ir.d_stages.(s) in
      let containers =
        List.init lhs_d.Ir.d_width (fun c -> mk (Container (s, c)) (Deferred []) msg)
      in
      let states =
        List.concat_map
          (fun alu ->
            List.init alu.Ir.a_state_size (fun k ->
                mk (State_slot (alu.Ir.a_name, k)) (Deferred []) msg))
          (Array.to_list stage.Ir.s_stateful)
      in
      containers @ states
    | ls, rs ->
      let containers =
        List.init lhs_d.Ir.d_width (fun c ->
            let l = ls.Symbolic.sg_containers.(c) and r = rs.Symbolic.sg_containers.(c) in
            {
              ob_subject = Container (s, c);
              ob_lhs_name = lhs_name;
              ob_rhs_name = rhs_name;
              ob_lhs = l;
              ob_rhs = r;
              ob_status = decide cfg l r;
              ob_note = "";
            })
      in
      let states =
        List.concat_map
          (fun (alu, lslots) ->
            match List.assoc_opt alu rs.Symbolic.sg_state with
            | None -> [ mk (State_slot (alu, 0)) (Deferred []) "stateful ALU missing on rhs" ]
            | Some rslots ->
              List.init (Array.length lslots) (fun k ->
                  let l = lslots.(k) and r = rslots.(k) in
                  {
                    ob_subject = State_slot (alu, k);
                    ob_lhs_name = lhs_name;
                    ob_rhs_name = rhs_name;
                    ob_lhs = l;
                    ob_rhs = r;
                    ob_status = decide cfg l r;
                    ob_note = "";
                  }))
          ls.Symbolic.sg_state
      in
      containers @ states
  in
  List.concat (List.init lhs_d.Ir.d_depth stage_obligations)

(* Validates a chain of per-pass snapshots pairwise, so a refutation names
   the first pass that changed behaviour.  [chain] is
   [(name_0, d_0); (name_1, d_1); ...] with [d_0] the reference. *)
let check_chain ?config ~mc (chain : (string * Ir.t) list) =
  let rec go = function
    | (ln, ld) :: ((rn, rd) :: _ as rest) ->
      check_pair ?config ~mc ~lhs_name:ln ~rhs_name:rn ld rd @ go rest
    | _ -> []
  in
  go chain

(* --- Concrete replay ------------------------------------------------------- *)

(* Replays a witness through the *interpreter* (not the symbolic model):
   runs the subject's stage on the witness's containers and state, exactly
   as {!Druzhba_dsim.Engine} schedules it, and returns the concrete value
   of the subject.  A genuine refutation replays to two different values on
   the two descriptions — this is what makes vet witnesses trustworthy
   without executing any PHV during verdict-finding. *)
let replay ~mc ~(subject : subject) ~(assign : Symbolic.atom -> int) (d : Ir.t) =
  let s = match subject with Container (s, _) -> s | State_slot (alu, _) ->
    (* The ALU name embeds the stage prefix; find its stage. *)
    let found = ref (-1) in
    Array.iteri
      (fun i stage ->
        Array.iter (fun a -> if String.equal a.Ir.a_name alu then found := i) stage.Ir.s_stateful)
      d.Ir.d_stages;
    if !found < 0 then invalid_arg (Printf.sprintf "Equiv.replay: unknown ALU '%s'" alu);
    !found
  in
  let ctx = Interp.ctx_of d ~mc in
  let stage = d.Ir.d_stages.(s) in
  let resolved = Interp.resolve_stage ctx stage in
  let phv = Array.init d.Ir.d_width (fun k -> assign (Symbolic.Aphv k)) in
  let nsl = Array.length stage.Ir.s_stateless and nsf = Array.length stage.Ir.s_stateful in
  let args = Array.make (nsl + (2 * nsf) + 1) 0 in
  Array.iteri
    (fun j alu -> args.(j) <- Interp.run_alu ctx alu ~phv ~state:[||])
    resolved.Interp.st_stateless;
  let states =
    Array.map
      (fun alu ->
        Array.init alu.Ir.a_state_size (fun k -> assign (Symbolic.Astate (alu.Ir.a_name, k))))
      stage.Ir.s_stateful
  in
  Array.iteri
    (fun j alu -> args.(nsl + j) <- Interp.run_alu ctx alu ~phv ~state:states.(j))
    resolved.Interp.st_stateful;
  Array.iteri (fun j _ -> args.(nsl + nsf + j) <- states.(j).(0)) stage.Ir.s_stateful;
  match subject with
  | Container (_, c) ->
    args.(nsl + (2 * nsf)) <- phv.(c);
    Interp.run_mux ctx resolved.Interp.st_muxes.(c) ~args ~n_args:(nsl + (2 * nsf) + 1)
  | State_slot (alu, k) ->
    let j = ref (-1) in
    Array.iteri (fun i a -> if String.equal a.Ir.a_name alu then j := i) stage.Ir.s_stateful;
    states.(!j).(k)

let assign_of_witness w a =
  match List.assoc_opt a w.w_assign with Some v -> v | None -> 0
