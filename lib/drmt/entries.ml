(* Table-entries configuration format (paper §4.2).

   "The configuration format for the table entries primarily consists of
   (1) the table that the entry will be added to, (2) the packet field to be
   matched on, (3) the type of match to perform (e.g. ternary, exact), and
   (4) the corresponding action to be executed if there is a match."

   One entry per line:

   {v
   # table   match-kind  pattern          action [args...]
   entry ipv4_route lpm     167772160/8   set_port 7
   entry l2_forward exact   43707         set_port 3
   entry acl        ternary 168430090&4294901760 drop
   v}

   Patterns: exact = value; lpm = value/prefix_len (on the key field's
   width); ternary = value&mask.  Earlier entries have higher priority for
   ternary; lpm uses the longest prefix. *)

type pattern =
  | Pexact of int
  | Plpm of int * int (* value, prefix length *)
  | Pternary of int * int (* value, mask *)
[@@deriving eq, show { with_path = false }]

type entry = {
  en_table : string;
  en_pattern : pattern;
  en_action : string;
  en_args : int list;
}
[@@deriving eq, show { with_path = false }]

type t = entry list

let matches ~key_width (pattern : pattern) key =
  match pattern with
  | Pexact v -> key = v
  | Plpm (v, plen) ->
    let shift = max 0 (key_width - plen) in
    key lsr shift = v lsr shift
  | Pternary (v, mask) -> key land mask = v land mask

(* Higher is more specific; used for lpm longest-prefix selection. *)
let specificity = function
  | Pexact _ -> max_int
  | Plpm (_, plen) -> plen
  | Pternary _ -> 0

let rec first_match pats ~key_width key k =
  if k = Array.length pats || matches ~key_width pats.(k) key then k
  else first_match pats ~key_width key (k + 1)

(* Looks up [key] among one table's entry patterns [pats], in file order:
   exact/ternary use first-match (priority = file order); when the first
   match is lpm, the most specific match wins (the earliest on ties).
   Returns the selected entry's index, or [Array.length pats] on a miss. *)
let select (pats : pattern array) ~key_width key =
  let hit = first_match pats ~key_width key 0 in
  if hit = Array.length pats then hit
  else
    match pats.(hit) with
    | Pexact _ | Pternary _ -> hit
    | Plpm _ ->
      let best = ref hit in
      for k = hit + 1 to Array.length pats - 1 do
        if matches ~key_width pats.(k) key && specificity pats.(k) > specificity pats.(!best)
        then best := k
      done;
      !best

(* [select] over the entries of [table] in [entries]. *)
let lookup (entries : t) ~table ~key_width key =
  let own = Array.of_list (List.filter (fun e -> e.en_table = table) entries) in
  let k = select (Array.map (fun e -> e.en_pattern) own) ~key_width key in
  if k = Array.length own then None else Some own.(k)

(* --- Text format ----------------------------------------------------------------- *)

let parse_pattern kind text =
  let int_of s =
    match int_of_string_opt (String.trim s) with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "invalid integer '%s'" s)
  in
  match kind with
  | "exact" -> Result.map (fun v -> Pexact v) (int_of text)
  | "lpm" -> (
    match String.index_opt text '/' with
    | None -> Error "lpm pattern must be value/prefix_len"
    | Some i ->
      let v = String.sub text 0 i and p = String.sub text (i + 1) (String.length text - i - 1) in
      Result.bind (int_of v) (fun v -> Result.map (fun p -> Plpm (v, p)) (int_of p)))
  | "ternary" -> (
    match String.index_opt text '&' with
    | None -> Error "ternary pattern must be value&mask"
    | Some i ->
      let v = String.sub text 0 i and m = String.sub text (i + 1) (String.length text - i - 1) in
      Result.bind (int_of v) (fun v -> Result.map (fun m -> Pternary (v, m)) (int_of m)))
  | k -> Error (Printf.sprintf "unknown match kind '%s'" k)

let parse src : (t, string) result =
  let errors = ref [] in
  let entries = ref [] in
  String.split_on_char '\n' src
  |> List.iteri (fun lineno line ->
         let err msg = errors := Printf.sprintf "line %d: %s" (lineno + 1) msg :: !errors in
         let line =
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         let words =
           String.split_on_char ' ' line |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun w -> w <> "")
         in
         match words with
         | [] -> ()
         | "entry" :: table :: kind :: pattern :: action :: args -> (
           match parse_pattern kind pattern with
           | Error m -> err m
           | Ok p -> (
             match List.map int_of_string_opt args with
             | ints when List.for_all Option.is_some ints ->
               entries :=
                 {
                   en_table = table;
                   en_pattern = p;
                   en_action = action;
                   en_args = List.map Option.get ints;
                 }
                 :: !entries
             | _ -> err "invalid action arguments"))
         | "entry" :: _ -> err "expected: entry <table> <kind> <pattern> <action> [args...]"
         | w :: _ -> err (Printf.sprintf "unknown directive '%s'" w));
  match !errors with
  | [] -> Ok (List.rev !entries)
  | errs -> Error (String.concat "\n" (List.rev errs))

let pp_entry ppf e =
  let pattern =
    match e.en_pattern with
    | Pexact v -> string_of_int v
    | Plpm (v, p) -> Printf.sprintf "%d/%d" v p
    | Pternary (v, m) -> Printf.sprintf "%d&%d" v m
  in
  let kind =
    match e.en_pattern with Pexact _ -> "exact" | Plpm _ -> "lpm" | Pternary _ -> "ternary"
  in
  Fmt.pf ppf "entry %s %s %s %s%a" e.en_table kind pattern e.en_action
    Fmt.(list ~sep:nop (fun ppf -> pf ppf " %d"))
    e.en_args
