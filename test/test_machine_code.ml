(* Tests for the machine-code representation, text format, and validator. *)

module Machine_code = Druzhba_machine_code.Machine_code

let test_of_list_find () =
  let mc = Machine_code.of_list [ ("a", 1); ("b", 2) ] in
  Alcotest.(check int) "find a" 1 (Machine_code.find mc "a");
  Alcotest.(check int) "find b" 2 (Machine_code.find mc "b");
  Alcotest.(check (option int)) "find_opt missing" None (Machine_code.find_opt mc "c");
  Alcotest.(check int) "cardinal" 2 (Machine_code.cardinal mc)

let test_find_missing_raises () =
  let mc = Machine_code.empty () in
  match Machine_code.find mc "nope" with
  | _ -> Alcotest.fail "expected Missing"
  | exception Machine_code.Missing "nope" -> ()

let test_replace_semantics () =
  let mc = Machine_code.of_list [ ("a", 1); ("a", 9) ] in
  Alcotest.(check int) "last wins" 9 (Machine_code.find mc "a")

let test_to_alist_sorted () =
  let mc = Machine_code.of_list [ ("z", 1); ("a", 2); ("m", 3) ] in
  Alcotest.(check (list (pair string int)))
    "sorted"
    [ ("a", 2); ("m", 3); ("z", 1) ]
    (Machine_code.to_alist mc)

let test_copy_isolated () =
  let mc = Machine_code.of_list [ ("a", 1) ] in
  let c = Machine_code.copy mc in
  Machine_code.set c "a" 5;
  Alcotest.(check int) "original untouched" 1 (Machine_code.find mc "a");
  Alcotest.(check int) "copy changed" 5 (Machine_code.find c "a")

let test_override () =
  let base = Machine_code.of_list [ ("a", 1); ("b", 2) ] in
  let extra = Machine_code.of_list [ ("b", 9); ("c", 3) ] in
  let merged = Machine_code.override base extra in
  Alcotest.(check int) "kept" 1 (Machine_code.find merged "a");
  Alcotest.(check int) "overridden" 9 (Machine_code.find merged "b");
  Alcotest.(check int) "added" 3 (Machine_code.find merged "c");
  (* inputs untouched *)
  Alcotest.(check int) "base untouched" 2 (Machine_code.find base "b")

let test_parse_ok () =
  let src = {|
# a comment
alu_0_mux2_0 = 1
alu_0_const_0 = 42   # trailing comment

alu_1_opt_0 = 0
|} in
  match Machine_code.parse src with
  | Error e -> Alcotest.fail e
  | Ok mc ->
    Alcotest.(check int) "pairs" 3 (Machine_code.cardinal mc);
    Alcotest.(check int) "value" 42 (Machine_code.find mc "alu_0_const_0")

let test_parse_errors () =
  (match Machine_code.parse "novalue" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ());
  (match Machine_code.parse "a = xyz" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ());
  match Machine_code.parse " = 3" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error _ -> ()

let test_print_parse_roundtrip () =
  let mc = Machine_code.of_list [ ("x_1", 3); ("y_2", 0); ("z", 100) ] in
  match Machine_code.parse (Machine_code.to_string mc) with
  | Error e -> Alcotest.fail e
  | Ok mc' ->
    Alcotest.(check (list (pair string int)))
      "roundtrip" (Machine_code.to_alist mc) (Machine_code.to_alist mc')

let test_validate () =
  let mc = Machine_code.of_list [ ("a", 1); ("b", 2) ] in
  (match
     Machine_code.validate
       ~domains:[ ("a", Machine_code.Selector 2); ("b", Machine_code.Immediate) ]
       mc
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "expected ok");
  match
    Machine_code.validate
      ~domains:
        [
          ("a", Machine_code.Selector 2);
          ("b", Machine_code.Immediate);
          ("c", Machine_code.Selector 3);
          ("d", Machine_code.Immediate);
        ]
      mc
  with
  | Ok () -> Alcotest.fail "expected missing"
  | Error violations ->
    Alcotest.(check (list string))
      "missing names"
      [ "missing pair: c"; "missing pair: d" ]
      (List.map (Fmt.str "%a" Machine_code.pp_violation) violations)

let test_validate_out_of_range () =
  let domains = [ ("sel", Machine_code.Selector 4); ("imm", Machine_code.Immediate) ] in
  (* in-range selector, huge immediate: fine *)
  (match Machine_code.validate ~domains (Machine_code.of_list [ ("sel", 3); ("imm", 99999) ]) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "expected ok");
  (* selector past its bound *)
  (match Machine_code.validate ~domains (Machine_code.of_list [ ("sel", 4); ("imm", 0) ]) with
  | Ok () -> Alcotest.fail "expected out-of-range"
  | Error [ Machine_code.Out_of_range { vi_name = "sel"; vi_value = 4; vi_bound = 4 } ] -> ()
  | Error vs ->
    Alcotest.failf "unexpected violations: %a" Fmt.(list ~sep:comma Machine_code.pp_violation) vs);
  (* negative selector *)
  match Machine_code.validate ~domains (Machine_code.of_list [ ("sel", -1); ("imm", 0) ]) with
  | Ok () -> Alcotest.fail "expected out-of-range"
  | Error [ Machine_code.Out_of_range { vi_value = -1; _ } ] -> ()
  | Error vs ->
    Alcotest.failf "unexpected violations: %a" Fmt.(list ~sep:comma Machine_code.pp_violation) vs


let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let test_parse_rejects_duplicates () =
  (match Machine_code.parse "a = 1\nb = 2\na = 3" with
  | Ok _ -> Alcotest.fail "duplicate key accepted"
  | Error e -> Alcotest.(check bool) "error names the key" true (contains ~sub:"a" e));
  (* the tolerant variant keeps every binding so lint can flag them *)
  match Machine_code.parse_pairs "a = 1\nb = 2\na = 3" with
  | Error e -> Alcotest.fail e
  | Ok pairs ->
    Alcotest.(check int) "all bindings kept" 3 (List.length pairs);
    Alcotest.(check (list string)) "duplicates named once" [ "a" ] (Machine_code.duplicates pairs)

let test_of_pairs () =
  (match Machine_code.of_pairs [ ("a", 1); ("b", 2) ] with
  | Ok mc -> Alcotest.(check int) "distinct keys accepted" 2 (Machine_code.cardinal mc)
  | Error e -> Alcotest.fail e);
  match Machine_code.of_pairs [ ("a", 1); ("a", 2); ("c", 3); ("c", 4); ("c", 5) ] with
  | Ok _ -> Alcotest.fail "duplicates accepted"
  | Error e ->
    Alcotest.(check bool) "names a" true (contains ~sub:"a" e);
    Alcotest.(check bool) "names c once" true (contains ~sub:"c" e)

(* --- Model-based property: the table against an association list ------ *)

(* Names the hash must tell apart: every length from 1 to 80 (8 and 16
   among them, where it moves from single bytes to whole words), over a
   thousand names sharing the long prefix of real pair names, and, for a
   few lengths, every name that differs from a base in exactly one byte. *)
let name_pool st =
  let letters = "abcdefghijklmnopqrstuvwxyz0123456789_" in
  let random_name len =
    String.init len (fun _ -> letters.[Random.State.int st (String.length letters)])
  in
  let base = List.init 80 (fun i -> random_name (i + 1)) in
  let prefixed =
    List.init 1200 (fun i ->
        Printf.sprintf "pipeline_stage_%d_stateful_alu_%d_mux3_%d" (i / 40) (i / 8 mod 5) (i mod 8))
  in
  let one_byte_apart =
    List.concat_map
      (fun len ->
        let b = List.nth base (len - 1) in
        List.init len (fun p ->
            String.mapi (fun i c -> if i <> p then c else if c = 'x' then 'y' else 'x') b))
      [ 7; 8; 9; 16; 17; 80 ]
  in
  List.sort_uniq String.compare (base @ prefixed @ one_byte_apart) |> Array.of_list

(* One random run of [ops] operations over [pool], checked after each one
   against [model], an association list holding exactly the bound names.
   It first binds the whole pool, which forces the table to grow, and ends
   by removing every name and binding half of them again. *)
let run_against_model st pool ~ops =
  let t = ref (Machine_code.empty ()) and model = ref [] in
  let pick () = pool.(Random.State.int st (Array.length pool)) in
  let value () = Random.State.int st 2000 - 1000 in
  let set name v =
    Machine_code.set !t name v;
    model := (name, v) :: List.remove_assoc name !model
  in
  let remove name =
    Machine_code.remove !t name;
    model := List.remove_assoc name !model
  in
  let check_name name =
    let want = List.assoc_opt name !model in
    Alcotest.(check (option int)) ("find_opt " ^ name) want (Machine_code.find_opt !t name);
    Alcotest.(check bool) ("mem " ^ name) (want <> None) (Machine_code.mem !t name);
    match Machine_code.find !t name with
    | got -> Alcotest.(check (option int)) ("find " ^ name) want (Some got)
    | exception Machine_code.Missing m ->
      Alcotest.(check (option int)) ("find " ^ name) want None;
      Alcotest.(check string) "Missing names the pair" name m
  in
  let check_all () =
    Alcotest.(check int) "cardinal" (List.length !model) (Machine_code.cardinal !t);
    Alcotest.(check (list (pair string int)))
      "to_alist"
      (List.sort compare !model)
      (Machine_code.to_alist !t)
  in
  Array.iter (fun name -> set name (value ())) pool;
  check_all ();
  Array.iter check_name pool;
  for _ = 1 to ops do
    match Random.State.int st 100 with
    | r when r < 35 -> set (pick ()) (value ())
    | r when r < 55 -> remove (pick ())
    | r when r < 85 -> check_name (pick ())
    | r when r < 90 ->
      (* a copy is independent of its original, both ways *)
      let c = Machine_code.copy !t and name = pick () in
      Machine_code.set c name (value ());
      check_name name;
      t := c;
      model := (name, Machine_code.find c name) :: List.remove_assoc name !model
    | r when r < 95 ->
      (* a fresh table; both inputs stay as they were *)
      let pairs = List.init (Random.State.int st 20) (fun _ -> (pick (), value ())) in
      let base = !t and extra = Machine_code.of_list pairs in
      let base_pairs = Machine_code.to_alist base and extra_pairs = Machine_code.to_alist extra in
      t := Machine_code.override base extra;
      Alcotest.(check (list (pair string int))) "base" base_pairs (Machine_code.to_alist base);
      Alcotest.(check (list (pair string int))) "extra" extra_pairs (Machine_code.to_alist extra);
      List.iter (fun (name, v) -> model := (name, v) :: List.remove_assoc name !model) extra_pairs
    | r when r < 98 -> check_all ()
    | _ ->
      (* of_list: later bindings of a name win *)
      let pairs = List.init (Random.State.int st 600) (fun _ -> (pick (), value ())) in
      t := Machine_code.of_list pairs;
      model := [];
      List.iter (fun (name, v) -> model := (name, v) :: List.remove_assoc name !model) pairs
  done;
  check_all ();
  Array.iter remove pool;
  check_all ();
  Array.iteri (fun i name -> if i mod 2 = 0 then set name (value ())) pool;
  check_all ();
  Array.iter check_name pool

let qcheck_table_model =
  QCheck.Test.make ~name:"table agrees with an association list" ~count:4 QCheck.small_nat
    (fun seed ->
      let st = Random.State.make [| seed |] in
      run_against_model st (name_pool st) ~ops:3000;
      true)

let () =
  Alcotest.run "machine_code"
    [
      ( "basics",
        [
          Alcotest.test_case "of_list / find" `Quick test_of_list_find;
          Alcotest.test_case "missing raises" `Quick test_find_missing_raises;
          Alcotest.test_case "replace semantics" `Quick test_replace_semantics;
          Alcotest.test_case "to_alist sorted" `Quick test_to_alist_sorted;
          Alcotest.test_case "copy isolation" `Quick test_copy_isolated;
          Alcotest.test_case "override" `Quick test_override;
          QCheck_alcotest.to_alcotest qcheck_table_model;
        ] );
      ( "text format",
        [
          Alcotest.test_case "parse ok" `Quick test_parse_ok;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "print/parse roundtrip" `Quick test_print_parse_roundtrip;
          Alcotest.test_case "duplicate keys rejected" `Quick test_parse_rejects_duplicates;
          Alcotest.test_case "of_pairs strictness" `Quick test_of_pairs;
        ] );
      ( "validation",
        [
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "out-of-range selectors" `Quick test_validate_out_of_range;
        ] );
    ]
