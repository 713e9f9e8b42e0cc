(* Schemes: construction, printing, parsing, prefixing. *)

module Scheme = Automed_base.Scheme

let check = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let test_make_defaults () =
  let t = Scheme.make [ "protein" ] in
  check "language" "sql" (Scheme.language t);
  check "construct" "table" (Scheme.construct t);
  let c = Scheme.make [ "protein"; "organism" ] in
  check "column construct" "column" (Scheme.construct c)

let test_make_empty () =
  Alcotest.check_raises "empty args rejected"
    (Invalid_argument "Scheme.make: empty argument list") (fun () ->
      ignore (Scheme.make []))

let test_pp_elided () =
  check "table" "<<protein>>" (Scheme.to_string (Scheme.table "protein"));
  check "column" "<<protein,organism>>"
    (Scheme.to_string (Scheme.column "protein" "organism"))

let test_pp_full () =
  let s = Scheme.make ~language:"xml" ~construct:"element" [ "row" ] in
  check "full form" "<<xml,element,row>>" (Scheme.to_string s)

let test_parse_table () =
  match Scheme.of_string "<<protein>>" with
  | Ok s -> check_bool "table" true (Scheme.equal s (Scheme.table "protein"))
  | Error e -> Alcotest.fail e

let test_parse_column () =
  match Scheme.of_string "<< protein , organism >>" with
  | Ok s ->
      check_bool "column with spaces" true
        (Scheme.equal s (Scheme.column "protein" "organism"))
  | Error e -> Alcotest.fail e

let test_parse_full () =
  match Scheme.of_string "<<xml,element,row>>" with
  | Ok s ->
      check "language" "xml" (Scheme.language s);
      check "construct" "element" (Scheme.construct s)
  | Error e -> Alcotest.fail e

let test_parse_errors () =
  (* the messages surface in checkpoint and journal load errors *)
  List.iter
    (fun (input, message) ->
      match Scheme.of_string input with
      | Ok _ -> Alcotest.failf "should reject %S" input
      | Error e -> check input message e)
    [
      ("", {|not a scheme: ""|});
      ("protein", {|not a scheme: "protein"|});
      ("<<>>", {|not a scheme: "<<>>"|});
      ("<<a,,b>>", {|blank component in scheme: "<<a,,b>>"|});
      ("<protein>", {|not a scheme: "<protein>"|});
      ("<<protein", {|not a scheme: "<<protein"|});
      ("<< >>", {|empty scheme: "<< >>"|});
      ("<<a, >>", {|blank component in scheme: "<<a, >>"|});
      ("<<a,b,>>", {|blank component in scheme: "<<a,b,>>"|});
      (" \t<<,a>>\n", {|blank component in scheme: "<<,a>>"|});
    ];
  match Scheme.of_string " << xml , element ,row, id >> " with
  | Ok s ->
      check "language" "xml" (Scheme.language s);
      check "construct" "element" (Scheme.construct s);
      Alcotest.(check (list string)) "args" [ "row"; "id" ] (Scheme.args s)
  | Error e -> Alcotest.fail e

let test_roundtrip () =
  List.iter
    (fun s ->
      match Scheme.of_string (Scheme.to_string s) with
      | Ok s' -> check_bool (Scheme.to_string s) true (Scheme.equal s s')
      | Error e -> Alcotest.fail e)
    [
      Scheme.table "protein";
      Scheme.column "peptidehit" "db_search";
      Scheme.make ~language:"xml" ~construct:"element" [ "row" ];
      Scheme.make ~language:"rdf" ~construct:"property" [ "knows" ];
    ]

let test_prefix_unprefix () =
  let s = Scheme.column "protein" "organism" in
  let p = Scheme.prefix "pedro" s in
  check "prefixed" "<<pedro:protein,organism>>" (Scheme.to_string p);
  (match Scheme.unprefix p with
  | Some (owner, base) ->
      check "owner" "pedro" owner;
      check_bool "base restored" true (Scheme.equal base s)
  | None -> Alcotest.fail "unprefix failed");
  check_bool "original not prefixed" false (Scheme.is_prefixed s);
  check_bool "prefixed detected" true (Scheme.is_prefixed p)

let test_rename () =
  let s = Scheme.column "protein" "organism" in
  check "rename column" "<<protein,taxon>>"
    (Scheme.to_string (Scheme.rename "taxon" s));
  check "rename table" "<<prot2>>"
    (Scheme.to_string (Scheme.rename "prot2" (Scheme.table "protein")))

let test_ordering () =
  let a = Scheme.table "a" and b = Scheme.table "b" in
  Alcotest.(check bool) "a < b" true (Scheme.compare a b < 0);
  Alcotest.(check bool) "same scheme equal" true
    (Scheme.compare a (Scheme.table "a") = 0);
  let col = Scheme.column "a" "x" in
  Alcotest.(check bool) "table before column of same name" true
    (Scheme.compare a col <> 0)

let test_map_set () =
  let open Scheme in
  let m =
    Map.empty |> Map.add (table "t") 1 |> Map.add (column "t" "c") 2
  in
  Alcotest.(check (option int)) "map find" (Some 2)
    (Map.find_opt (column "t" "c") m);
  let s = Set.of_list [ table "t"; table "t"; column "t" "c" ] in
  Alcotest.(check int) "set dedups" 2 (Set.cardinal s)

let qcheck_prefix_roundtrip =
  QCheck.Test.make ~name:"prefix/unprefix roundtrip" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 1 8)) (string_of_size (Gen.int_range 1 8)))
    (fun (t, c) ->
      QCheck.assume
        (String.length t > 0 && String.length c > 0
        && (not (String.contains t ':'))
        && (not (String.contains t ','))
        && not (String.contains c ','));
      let s = Automed_base.Scheme.column t c in
      match Automed_base.Scheme.unprefix (Automed_base.Scheme.prefix "p" s) with
      | Some ("p", s') -> Automed_base.Scheme.equal s s'
      | _ -> false)

let suite =
  [
    Alcotest.test_case "make defaults" `Quick test_make_defaults;
    Alcotest.test_case "make rejects empty" `Quick test_make_empty;
    Alcotest.test_case "pp elided" `Quick test_pp_elided;
    Alcotest.test_case "pp full" `Quick test_pp_full;
    Alcotest.test_case "parse table" `Quick test_parse_table;
    Alcotest.test_case "parse column" `Quick test_parse_column;
    Alcotest.test_case "parse full" `Quick test_parse_full;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "print/parse roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "prefix/unprefix" `Quick test_prefix_unprefix;
    Alcotest.test_case "rename" `Quick test_rename;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "map and set" `Quick test_map_set;
    QCheck_alcotest.to_alcotest qcheck_prefix_roundtrip;
  ]
