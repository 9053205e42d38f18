(* Machine code for the Druzhba pipeline.

   A machine-code program is a list of (string, integer) pairs (§3.1 of the
   paper): the string names a hardware primitive and its location in the
   pipeline (e.g. "pipeline_stage_0_stateful_alu_1_mux3_0"), the integer
   programs that primitive's behaviour — a mux selector, an opcode, or an
   immediate.  Pairs that dgen expects but that are missing from the program
   are a compiler bug that the case study in §5.2 of the paper found twice;
   [validate] detects exactly that class. *)

(* Keys compare with [String.equal] and hash with [String.hash], not with
   the generic [Hashtbl]'s polymorphic [compare] and structural hash.
   Nothing observable depends on the hash or the bucket order: [to_alist]
   and [pp] sort. *)
module Table = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = String.hash
end)

type t = int Table.t

let empty () : t = Table.create 64

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
  let t = Table.create (max 16 (List.length pairs)) in
  List.iter
    (fun (name, v) ->
      check_name name;
      Table.replace t name v)
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
  Table.fold (fun k v acc -> (k, v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let copy = Table.copy

let set (t : t) name v =
  check_name name;
  Table.replace t name v

let find_opt (t : t) name = Table.find_opt t name

exception Missing of string

(* Called by the optimizer, the native emitter and the corpus mutator,
   never from a tick: the interpreter and the closures bind each name they
   read to a slot of their own values array when they are built (with
   [find_opt]), so a version-1 read at run time is one array load. *)
let find (t : t) name =
  match Table.find_opt t name with Some v -> v | None -> raise (Missing name)

let remove (t : t) name = Table.remove t name

let mem (t : t) name = Table.mem t name

let cardinal (t : t) = Table.length t

(* Adds every pair of [extra], overriding existing names. *)
let override (t : t) (extra : t) =
  let r = copy t in
  Table.iter (fun k v -> Table.replace r k v) extra;
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
