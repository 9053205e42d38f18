(* The machine-code values an executor reads, bound when it is built.

   The interpreter's context and a compiled program each own one.  Every
   distinct name the executor resolves gets a slot of [values], filled from
   the program when the name is first resolved, so a tick reads
   [values.(slot)] and never looks a name up, and a later
   [Machine_code.set] or [remove] does not reach the executor.  [values]
   has a slot for every pair the program holds at [create] and never
   grows, so closures may capture it: the program must not gain pairs
   while an executor is being built on it. *)

module Machine_code = Druzhba_machine_code.Machine_code
module Slots = Hashtbl.Make (String)

type t = { mc : Machine_code.t; slots : int Slots.t; values : int array }

let create mc =
  let n = Machine_code.cardinal mc in
  { mc; slots = Slots.create n; values = Array.make n 0 }

(* The slot of [name], or -1 when the program lacks the pair. *)
let slot t name =
  match Slots.find_opt t.slots name with
  | Some i -> i
  | None -> (
    match Machine_code.find_opt t.mc name with
    | None -> -1
    | Some v ->
      let i = Slots.length t.slots in
      t.values.(i) <- v;
      Slots.add t.slots name i;
      i)
