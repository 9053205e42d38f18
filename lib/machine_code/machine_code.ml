(* Machine code for the Druzhba pipeline.

   A machine-code program is a list of (string, integer) pairs (§3.1 of the
   paper): the string names a hardware primitive and its location in the
   pipeline (e.g. "pipeline_stage_0_stateful_alu_1_mux3_0"), the integer
   programs that primitive's behaviour — a mux selector, an opcode, or an
   immediate.  Pairs that dgen expects but that are missing from the program
   are a compiler bug that the case study in §5.2 of the paper found twice;
   [validate] detects exactly that class. *)

(* The table: open addressing with linear probing over flat arrays.  Slot
   [i] is empty when [hashes.(i) < 0]; otherwise it holds the pair
   [keys.(i) = values.(i)], whose name hashes to [hashes.(i)] (never
   negative).  The size is a power of two and the load stays at most 1/2,
   so a probe run is short.  [remove] shifts the rest of its run back
   instead of leaving a tombstone, so a lookup stops at the first empty
   slot.  Nothing observable depends on the hash or the slot order:
   [to_alist] and [pp] sort. *)
type t = {
  mutable keys : string array;
  mutable hashes : int array;
  mutable values : int array;
  mutable count : int;
}

(* Word-at-a-time hash of the whole name: one xor and one multiply per 8
   bytes, the last word overlapping the one before it when the length is
   not a multiple of 8; a name under 8 bytes is hashed byte by byte.  A
   multiply only carries a difference upwards, so the finalizer folds the
   high bits back down before the table masks off the low ones: names that
   share a long prefix ("pipeline_stage_0_...") and differ in one digit
   still spread.  The unchecked loads stay in bounds: every offset is at
   most [n - 8]. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"

let mult = 0x2127599bf4325c37
let mult' = 0x1f58a0ea6d5cf36d

let hash name =
  let n = String.length name in
  let h = ref (n * mult) in
  if n < 8 then
    for i = 0 to n - 1 do
      h := (!h lxor Char.code (String.unsafe_get name i)) * mult
    done
  else begin
    let last = n - 8 in
    let i = ref 0 in
    while !i < last do
      h := (!h lxor Int64.to_int (get64u name !i)) * mult;
      i := !i + 8
    done;
    h := (!h lxor Int64.to_int (get64u name last)) * mult
  end;
  let h = (!h lxor (!h lsr 32)) * mult' in
  let h = (h lxor (h lsr 29)) * mult in
  (h lxor (h lsr 32)) land max_int

let with_capacity n =
  let size = ref 16 in
  while !size < 2 * n do
    size := 2 * !size
  done;
  {
    keys = Array.make !size "";
    hashes = Array.make !size (-1);
    values = Array.make !size 0;
    count = 0;
  }

let empty () : t = with_capacity 0

(* The slot holding [name], or the empty slot that ends its probe run. *)
let rec slot hashes keys mask h name i =
  let hi = Array.unsafe_get hashes i in
  if hi < 0 || (hi = h && String.equal (Array.unsafe_get keys i) name) then i
  else slot hashes keys mask h name ((i + 1) land mask)

(* Binds [name], whose hash is [h], without checking it; doubles the size
   first when the pair would push the load past 1/2. *)
let rec replace t name h v =
  let mask = Array.length t.hashes - 1 in
  let i = slot t.hashes t.keys mask h name (h land mask) in
  if t.hashes.(i) >= 0 then t.values.(i) <- v
  else if 2 * (t.count + 1) > mask + 1 then begin
    let bigger = with_capacity (t.count + 1) in
    Array.iteri (fun j hj -> if hj >= 0 then replace bigger t.keys.(j) hj t.values.(j)) t.hashes;
    t.keys <- bigger.keys;
    t.hashes <- bigger.hashes;
    t.values <- bigger.values;
    replace t name h v
  end
  else begin
    t.hashes.(i) <- h;
    t.keys.(i) <- name;
    t.values.(i) <- v;
    t.count <- t.count + 1
  end

let iter f t = Array.iteri (fun i h -> if h >= 0 then f t.keys.(i) t.values.(i)) t.hashes

(* A name is representable iff emitting it with [to_string] and reading the
   result back with [parse] recovers the same binding.  The text format
   strips '#' comments, splits at the first '=', and trims each side, so a
   name containing any of those characters — or one that is empty or not
   equal to its own trim — would silently change key (or collide with
   another pair, e.g. a neutralized default) on the round trip.  The
   constructors reject such names up front so the round trip is total by
   construction. *)
let name_unrepresentable name =
  name = ""
  || String.trim name <> name
  || String.exists (fun c -> c = '#' || c = '=' || c = '\n' || c = '\r') name

let check_name name =
  if name_unrepresentable name then
    invalid_arg
      (Printf.sprintf "Machine_code: unrepresentable pair name %S (empty, '#', '=', newline, or \
                       surrounding whitespace would not survive the text format)"
         name)

let of_list pairs : t =
  let t = with_capacity (List.length pairs) in
  List.iter
    (fun (name, v) ->
      check_name name;
      replace t name (hash name) v)
    pairs;
  t

(* Keys bound more than once, in first-occurrence order.  A duplicate pair
   in a machine-code file is almost always a compiler bug (two rules both
   believing they own a control), so the strict constructors reject it
   rather than silently letting one binding win. *)
let duplicates pairs =
  let seen = Hashtbl.create 64 and dups = ref [] in
  List.iter
    (fun (name, _) ->
      match Hashtbl.find_opt seen name with
      | None -> Hashtbl.add seen name `Once
      | Some `Once ->
        Hashtbl.replace seen name `Reported;
        dups := name :: !dups
      | Some `Reported -> ())
    pairs;
  List.rev !dups

let of_pairs pairs : (t, string) result =
  match List.filter (fun (name, _) -> name_unrepresentable name) pairs with
  | (bad, _) :: _ -> Error (Printf.sprintf "unrepresentable machine-code pair name: %S" bad)
  | [] -> (
    match duplicates pairs with
    | [] -> Ok (of_list pairs)
    | dups ->
      Error
        (Printf.sprintf "duplicate machine-code pair%s: %s"
           (if List.length dups = 1 then "" else "s")
           (String.concat ", " dups)))

let to_alist (t : t) =
  let acc = ref [] in
  iter (fun k v -> acc := (k, v) :: !acc) t;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let copy (t : t) =
  {
    keys = Array.copy t.keys;
    hashes = Array.copy t.hashes;
    values = Array.copy t.values;
    count = t.count;
  }

let set (t : t) name v =
  check_name name;
  replace t name (hash name) v

(* The slot holding [name], or -1. *)
let index (t : t) name =
  let h = hash name in
  let mask = Array.length t.hashes - 1 in
  let i = slot t.hashes t.keys mask h name (h land mask) in
  if Array.unsafe_get t.hashes i < 0 then -1 else i

let find_opt (t : t) name =
  match index t name with -1 -> None | i -> Some (Array.unsafe_get t.values i)

exception Missing of string

(* The per-[Mc] lookup of the unoptimized descriptions' hot loop, in the
   interpreter and the closure backend alike: the paper's version-1 cost of
   reading machine code as variables at run time, one hash of the whole
   name and one probe run, comparing the stored hash and then the key, per
   evaluation.  No option is built, so a hit allocates nothing. *)
let find (t : t) name =
  match index t name with -1 -> raise (Missing name) | i -> Array.unsafe_get t.values i

let mem (t : t) name = index t name >= 0

(* Backward-shift deletion: each later entry of the run moves into the hole
   unless its home slot lies cyclically in (hole, its slot], where moving
   it would put it before its home. *)
let remove (t : t) name =
  match index t name with
  | -1 -> ()
  | i ->
    let hashes = t.hashes and keys = t.keys and values = t.values in
    let mask = Array.length hashes - 1 in
    let hole = ref i and j = ref ((i + 1) land mask) in
    while hashes.(!j) >= 0 do
      let home = hashes.(!j) land mask in
      if (!j - home) land mask >= (!j - !hole) land mask then begin
        hashes.(!hole) <- hashes.(!j);
        keys.(!hole) <- keys.(!j);
        values.(!hole) <- values.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    hashes.(!hole) <- -1;
    keys.(!hole) <- "";
    t.count <- t.count - 1

let cardinal (t : t) = t.count

(* Adds every pair of [extra], overriding existing names. *)
let override (t : t) (extra : t) =
  let r = copy t in
  iter (fun k v -> replace r k (hash k) v) extra;
  r

(* --- Text format ---------------------------------------------------------

   One pair per line, "name = value"; blank lines and '#' comments ignored.
   This is the on-disk format consumed by the druzhba CLI.

   [parse_pairs] returns the raw pairs in file order (duplicates preserved,
   so lint can report them); [parse] additionally rejects duplicate keys. *)

let parse_pairs src =
  let errors = ref [] in
  let pairs = ref [] in
  String.split_on_char '\n' src
  |> List.iteri (fun lineno line ->
         let line =
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         let line = String.trim line in
         if line <> "" then
           match String.index_opt line '=' with
           | None -> errors := Printf.sprintf "line %d: expected 'name = value'" (lineno + 1) :: !errors
           | Some i ->
             let name = String.trim (String.sub line 0 i) in
             let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
             (match int_of_string_opt value with
             | Some v when name <> "" -> pairs := (name, v) :: !pairs
             | Some _ -> errors := Printf.sprintf "line %d: empty name" (lineno + 1) :: !errors
             | None ->
               errors :=
                 Printf.sprintf "line %d: invalid integer '%s'" (lineno + 1) value :: !errors));
  match !errors with
  | [] -> Ok (List.rev !pairs)
  | errs -> Error (String.concat "\n" (List.rev errs))

let parse src =
  match parse_pairs src with
  | Error _ as e -> e
  | Ok pairs -> of_pairs pairs

let pp ppf (t : t) =
  Fmt.pf ppf "@[<v>";
  List.iter (fun (k, v) -> Fmt.pf ppf "%s = %d@," k v) (to_alist t);
  Fmt.pf ppf "@]"

let to_string t = Fmt.str "%a" pp t

(* --- Validation -----------------------------------------------------------

   [validate ~domains t] checks the program against the pipeline's control
   domains ([Ir.control_domains]): every control the pipeline requires must
   be present (compiler-bug class 1 from §5.2), and every selector value
   must lie inside its domain [0, n) — an out-of-range selector silently
   falls through to a mux's default arm at simulation time, which is exactly
   the kind of mis-compilation that random-input fuzzing can miss. *)

type domain =
  | Selector of int (* valid values are [0, n) *)
  | Immediate (* any value of the datapath width *)

type violation =
  | Missing_pair of string
  | Out_of_range of { vi_name : string; vi_value : int; vi_bound : int }

let pp_violation ppf = function
  | Missing_pair name -> Fmt.pf ppf "missing pair: %s" name
  | Out_of_range { vi_name; vi_value; vi_bound } ->
    Fmt.pf ppf "selector out of range: %s = %d (domain [0, %d))" vi_name vi_value vi_bound

let validate ~domains (t : t) =
  let violations =
    List.filter_map
      (fun (name, domain) ->
        match (find_opt t name, domain) with
        | None, _ -> Some (Missing_pair name)
        | Some v, Selector n when v < 0 || v >= n ->
          Some (Out_of_range { vi_name = name; vi_value = v; vi_bound = n })
        | Some _, (Selector _ | Immediate) -> None)
      domains
  in
  if violations = [] then Ok () else Error violations
