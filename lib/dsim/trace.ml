(* Input/output packet traces (§3.3).

   After a simulation the output trace holds one PHV per input PHV (in
   order) plus the final per-ALU state vectors; fuzz testing compares these
   against the trace produced by a high-level specification. *)

type t = {
  inputs : Phv.t list;
  outputs : Phv.t list;
  (* Final state of every stateful ALU, keyed by its position-encoding name
     ("pipeline_stage_i_stateful_alu_j"). *)
  final_state : (string * int array) list;
}

let find_state t name = List.assoc_opt name t.final_state

let state_vec_equal (a : int array) (b : int array) =
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i =
    i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1))
  in
  go 0

(* Structural equality over outputs and final state (inputs are compared
   too: two traces are only comparable if they saw the same traffic).  Used
   by the differential oracle and the golden-trace regression tests. *)
let equal a b =
  (try List.for_all2 Phv.equal a.inputs b.inputs with Invalid_argument _ -> false)
  && (try List.for_all2 Phv.equal a.outputs b.outputs with Invalid_argument _ -> false)
  && List.length a.final_state = List.length b.final_state
  && List.for_all2
       (fun (n1, v1) (n2, v2) -> String.equal n1 n2 && state_vec_equal v1 v2)
       a.final_state b.final_state

(* One line per packet, then the state vectors. *)
let pp ppf t =
  Fmt.pf ppf "@[<v>";
  List.iteri
    (fun i (input, output) -> Fmt.pf ppf "phv %4d: in %a -> out %a@," i Phv.pp input Phv.pp output)
    (List.combine t.inputs t.outputs);
  List.iter
    (fun (name, state) ->
      Fmt.pf ppf "state %s = [%a]@," name Fmt.(array ~sep:(any "; ") int) state)
    t.final_state;
  Fmt.pf ppf "@]"

(* Preallocated output store for the zero-allocation tick path.

   The engines' steady-state loop must not allocate per PHV, so outputs are
   blitted into rows preallocated here instead of consed onto a list that is
   reversed at the end.  A buffer is reusable across runs ([clear]) — the
   differential oracle and the benchmark harness allocate one per width and
   run every configuration through it.  [contents] freezes the buffer into
   the [Phv.t list] view used by the immutable {!t} record, so everything
   downstream of a finished run (oracle diffing on traces, shrinking, golden
   fixtures, {!equal}) is untouched. *)
module Buffer = struct
  type buffer = {
    mutable rows : int array array; (* each row is one output PHV, [row_width] wide *)
    mutable len : int;
    row_width : int;
  }

  type t = buffer

  let create ~width ~capacity : t =
    {
      rows = Array.init (max 1 capacity) (fun _ -> Array.make width 0);
      len = 0;
      row_width = width;
    }

  let clear b = b.len <- 0
  let length b = b.len
  let width b = b.row_width

  (* Doubling growth keeps [push] amortized O(width); a correctly presized
     buffer never grows, so the steady state stays allocation-free. *)
  let grow b =
    let cap = Array.length b.rows in
    let rows = Array.make (2 * cap) [||] in
    Array.blit b.rows 0 rows 0 cap;
    for i = cap to (2 * cap) - 1 do
      rows.(i) <- Array.make b.row_width 0
    done;
    b.rows <- rows

  (* Appends the [row_width] ints of [src] starting at [off] by blitting
     them into the next preallocated row. *)
  let push b (src : int array) ~off =
    if b.len = Array.length b.rows then grow b;
    Array.blit src off b.rows.(b.len) 0 b.row_width;
    b.len <- b.len + 1

  (* Borrowed view of row [i]: valid until the next [clear]/[push] cycle
     overwrites it; callers must not mutate or retain it. *)
  let row b i : Phv.t =
    if i < 0 || i >= b.len then invalid_arg "Trace.Buffer.row: out of bounds";
    b.rows.(i)

  (* Freezes the buffered outputs into fresh PHVs (the immutable trace
     view); the buffer remains reusable. *)
  let contents b : Phv.t list = List.init b.len (fun i -> Array.copy b.rows.(i))
end
