(* IQL evaluation: comprehension semantics, bag multiplicities, builtins,
   Range/Void/Any behaviour, error cases. *)

module Ast = Automed_iql.Ast
module Parser = Automed_iql.Parser
module Value = Automed_iql.Value
module Eval = Automed_iql.Eval
module Scheme = Automed_base.Scheme

let v_int i = Value.Int i
let v_str s = Value.Str s
let bag vs = Value.Bag (Value.Bag.of_list vs)

let extents =
  let t = Scheme.table "t" in
  let tc = Scheme.column "t" "c" in
  let dup = Scheme.table "dup" in
  fun s ->
    if Scheme.equal s t then
      Some (Value.Bag.of_list [ v_str "k1"; v_str "k2"; v_str "k3" ])
    else if Scheme.equal s tc then
      Some
        (Value.Bag.of_list
           [
             Value.tuple2 (v_str "k1") (v_int 10);
             Value.tuple2 (v_str "k2") (v_int 20);
             Value.tuple2 (v_str "k3") (v_int 10);
           ])
    else if Scheme.equal s dup then
      Some (Value.Bag.of_list [ v_str "a"; v_str "a"; v_str "b" ])
    else None

let env = Eval.env ~schemes:extents ()

let run src =
  match Parser.parse src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok ast -> (
      match Eval.eval env ast with
      | Ok v -> v
      | Error e -> Alcotest.failf "eval %s: %s" src (Fmt.str "%a" Eval.pp_error e))

let run_err src =
  match Parser.parse src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok ast -> (
      match Eval.eval env ast with
      | Ok v -> Alcotest.failf "expected error for %s, got %s" src (Value.to_string v)
      | Error _ -> ())

let check_value msg expected actual =
  if not (Value.equal expected actual) then
    Alcotest.failf "%s: expected %s, got %s" msg (Value.to_string expected)
      (Value.to_string actual)

let test_arithmetic () =
  check_value "add" (v_int 7) (run "3 + 4");
  check_value "precedence" (v_int 11) (run "3 + 4 * 2");
  check_value "float" (Value.Float 1.5) (run "3.0 / 2.0");
  check_value "string concat" (v_str "ab") (run "'a' + 'b'");
  check_value "negation" (v_int (-5)) (run "-(2 + 3)");
  run_err "1 / 0";
  run_err "1 + 'a'"

let test_comparisons () =
  check_value "eq" (Value.Bool true) (run "1 = 1");
  check_value "neq" (Value.Bool true) (run "1 <> 2");
  check_value "lt strings" (Value.Bool true) (run "'a' < 'b'");
  check_value "tuple order" (Value.Bool true) (run "{1, 2} < {1, 3}")

let test_boolean () =
  check_value "and" (Value.Bool false) (run "true and false");
  check_value "or" (Value.Bool true) (run "true or false");
  check_value "not" (Value.Bool false) (run "not true")

let test_if_let () =
  check_value "if" (v_int 1) (run "if 2 > 1 then 1 else 2");
  check_value "let" (v_int 9) (run "let x = 4 in x + 5");
  check_value "let shadows" (v_int 2) (run "let x = 1 in let x = 2 in x")

let test_bag_literals () =
  check_value "empty" (bag []) (run "[]");
  check_value "bag" (bag [ v_int 1; v_int 2; v_int 2 ]) (run "[2; 1; 2]");
  check_value "union" (bag [ v_int 1; v_int 1 ]) (run "[1] ++ [1]");
  check_value "monus" (bag [ v_int 1 ]) (run "[1; 1; 2] -- [1; 2]")

let test_scheme_lookup () =
  check_value "table extent" (bag [ v_str "k1"; v_str "k2"; v_str "k3" ])
    (run "<<t>>");
  run_err "<<missing>>"

let test_comprehension_basic () =
  check_value "identity" (bag [ v_str "k1"; v_str "k2"; v_str "k3" ])
    (run "[k | k <- <<t>>]");
  check_value "projection" (bag [ v_int 10; v_int 10; v_int 20 ])
    (run "[x | {k, x} <- <<t,c>>]");
  check_value "filter" (bag [ v_str "k1"; v_str "k3" ])
    (run "[k | {k, x} <- <<t,c>>; x = 10]")

let test_comprehension_join () =
  (* self-join on the value component: k1 and k3 share x = 10 *)
  check_value "join pairs"
    (bag
       [
         Value.tuple2 (v_str "k1") (v_str "k1");
         Value.tuple2 (v_str "k1") (v_str "k3");
         Value.tuple2 (v_str "k3") (v_str "k1");
         Value.tuple2 (v_str "k3") (v_str "k3");
         Value.tuple2 (v_str "k2") (v_str "k2");
       ])
    (run "[{a, b} | {a, x} <- <<t,c>>; {b, y} <- <<t,c>>; x = y]")

let test_comprehension_multiplicity () =
  (* generators iterate with multiplicity: 'a' appears twice in dup *)
  check_value "multiplicity preserved" (bag [ v_str "a"; v_str "a"; v_str "b" ])
    (run "[k | k <- <<dup>>]");
  (* a cross product multiplies multiplicities: 3 x 3 = 9 elements *)
  check_value "product count" (v_int 9) (run "count([{a,b} | a <- <<dup>>; b <- <<dup>>])");
  (* constant head: multiplicities accumulate on the single element *)
  check_value "constant head" (bag [ v_int 1; v_int 1; v_int 1 ])
    (run "[1 | k <- <<dup>>]")

let test_refutable_patterns_filter () =
  (* a constant sub-pattern filters non-matching elements *)
  check_value "const pattern" (bag [ v_str "k1"; v_str "k3" ])
    (run "[k | {k, 10} <- <<t,c>>]");
  (* tuple pattern mismatch on scalars: nothing matches *)
  check_value "arity mismatch filters" (bag []) (run "[k | {k, x} <- <<t>>]")

let test_builtins () =
  check_value "count" (v_int 3) (run "count(<<t>>)");
  check_value "count empty" (v_int 0) (run "count([])");
  check_value "sum" (v_int 40) (run "sum([x | {k,x} <- <<t,c>>])");
  check_value "avg" (Value.Float 2.0) (run "avg([1; 2; 3])");
  check_value "max" (v_int 3) (run "max([1; 3; 2])");
  check_value "min" (v_int 1) (run "min([1; 3; 2])");
  check_value "distinct" (bag [ v_str "a"; v_str "b" ]) (run "distinct(<<dup>>)");
  check_value "member" (Value.Bool true) (run "member('a', <<dup>>)");
  check_value "not member" (Value.Bool false) (run "member('z', <<dup>>)");
  check_value "flatten" (bag [ v_int 1; v_int 2; v_int 2 ])
    (run "flatten([[1; 2]; [2]])");
  check_value "abs" (v_int 3) (run "abs(-3)");
  run_err "max([])";
  run_err "avg([])";
  run_err "unknown_fn(1)"

let test_sum_mixed () =
  check_value "sum promotes to float" (Value.Float 3.5) (run "sum([1; 2.5])")

let test_group () =
  (* group by the value component of <<t,c>>: 10 -> {k1, k3}, 20 -> {k2} *)
  check_value "group"
    (bag
       [
         Value.tuple2 (v_int 10) (bag [ v_str "k1"; v_str "k3" ]);
         Value.tuple2 (v_int 20) (bag [ v_str "k2" ]);
       ])
    (run "group([{x, k} | {k, x} <- <<t,c>>])");
  (* multiplicities inside groups are preserved *)
  check_value "group multiplicities"
    (bag [ Value.tuple2 (v_int 1) (bag [ v_str "a"; v_str "a"; v_str "b" ]) ])
    (run "group([{1, k} | k <- <<dup>>])");
  (* aggregation over groups *)
  check_value "counts per group" (bag [ v_int 1; v_int 2 ])
    (run "[count(g) | {x, g} <- group([{x, k} | {k, x} <- <<t,c>>])]");
  run_err "group([1])"

let test_string_builtins () =
  check_value "contains" (Value.Bool true) (run "contains('protein kinase', 'kinase')");
  check_value "not contains" (Value.Bool false) (run "contains('abc', 'z')");
  check_value "startswith" (Value.Bool true) (run "startswith('protein', 'pro')");
  check_value "upper" (v_str "ABC") (run "upper('abc')");
  check_value "lower" (v_str "abc") (run "lower('ABC')");
  check_value "strlen" (v_int 3) (run "strlen('abc')");
  check_value "filter by substring" (bag [ v_str "k1"; v_str "k2"; v_str "k3" ])
    (run "[k | k <- <<t>>; startswith(k, 'k')]");
  run_err "contains(1, 'a')";
  run_err "upper(1)"

let test_mod () =
  check_value "mod" (v_int 1) (run "mod(7, 3)");
  run_err "mod(1, 0)";
  run_err "mod(1.5, 2)"

let test_range_void_any () =
  check_value "void is empty" (bag []) (run "Void");
  check_value "range evaluates lower bound" (bag [ v_int 1 ]) (run "Range [1] Any");
  run_err "Any"

let test_unbound () =
  run_err "nosuchvar";
  (* variables bound by generators are not visible outside *)
  run_err "[k | k <- <<t>>] ++ [k]"

let test_match_pat () =
  let p =
    match Parser.parse_pat "{a, {_, b}}" with
    | Ok p -> p
    | Error e -> Alcotest.failf "pattern: %s" e
  in
  (match
     Eval.match_pat p
       (Value.Tuple [ v_int 1; Value.tuple2 (v_str "x") (v_int 2) ])
   with
  | Some [ ("a", Value.Int 1); ("b", Value.Int 2) ] -> ()
  | Some bs ->
      Alcotest.failf "wrong bindings: %s"
        (String.concat ", " (List.map fst bs))
  | None -> Alcotest.fail "should match");
  match Eval.match_pat p (v_int 1) with
  | None -> ()
  | Some _ -> Alcotest.fail "should not match scalar"

(* evaluation never produces non-canonical bags *)
let qcheck_eval_canonical =
  let gen =
    QCheck.Gen.(
      oneofl
        [
          "[x | {k,x} <- <<t,c>>] ++ <<dup>>";
          "distinct(<<dup>>) ++ <<dup>>";
          "[{a,b} | a <- <<dup>>; b <- <<t>>]";
          "(<<dup>> ++ <<dup>>) -- <<dup>>";
          "flatten([[1;1]; [2]])";
        ])
  in
  QCheck.Test.make ~name:"evaluation results are canonical" ~count:50
    (QCheck.make gen) (fun src ->
      match Parser.parse src with
      | Error _ -> false
      | Ok ast -> (
          match Eval.eval env ast with
          | Ok v -> Value.is_canonical v
          | Error _ -> false))

(* -- equi-joins: the indexed path against a nested-loop reference ---------- *)

module Peval = Automed_provenance.Peval
module Lineage = Automed_provenance.Lineage
module Telemetry = Automed_telemetry.Telemetry

let a_obj = Scheme.table "a"
let b_obj = Scheme.table "b"

(* Both evaluators over the same two extents.  [Peval] keeps the filtered
   nested loop, so it is the naive reference; [Eval]'s schemes hand back
   the physically same bag on every lookup, as the processor's extent
   cache does, so its join index is built and used. *)
let outcomes (a, b) src =
  let ast = Parser.parse_exn src in
  let lookup s =
    if Scheme.equal s a_obj then Some a
    else if Scheme.equal s b_obj then Some b
    else None
  in
  let plain =
    Result.map_error
      (fun (e : Eval.error) -> e.message)
      (Eval.eval (Eval.env ~schemes:lookup ()) ast)
  in
  let schemes s =
    Option.map (fun b -> Peval.av_of_value Lineage.empty (Value.Bag b)) (lookup s)
  in
  let naive =
    match Peval.eval (Peval.env ~schemes ()) ast with
    | Ok av -> Ok (Peval.value_of av)
    | Error e -> Error e.message
  in
  (plain, naive)

(* the same answer down to float signs and nan: rendering tells -0 from 0 *)
let same_outcome x y =
  match (x, y) with
  | Ok u, Ok v -> Value.equal u v && Value.to_string u = Value.to_string v
  | Error m, Error m' -> String.equal m m'
  | _ -> false

let show_outcome = function
  | Ok v -> Value.to_string v
  | Error m -> "error: " ^ m

(* keys mixing numeric kinds that compare apart (1 vs 1.0), nan, -0.0,
   strings and nested tuples *)
let key_pool =
  [
    v_int 0; v_int 1; Value.Float 1.0; Value.Float 0.0; Value.Float (-0.0);
    Value.Float Float.nan; v_str "a"; v_str "b";
    Value.tuple2 (v_int 1) (v_str "a");
    Value.tuple2 (Value.Float 1.0) (v_str "a");
  ]

let gen_extent =
  QCheck.Gen.(
    let key = oneofl key_pool in
    let elt =
      frequency
        [
          (6, map2 Value.tuple2 key key);
          (2, map3 Value.tuple3 key key key);
          (1, key);
        ]
    in
    map Value.Bag.of_weighted_list
      (list_size (int_range 0 12) (pair elt (int_range 1 3))))

let join_queries =
  [
    (* single key, both orientations *)
    "[{x, y} | {k, x} <- <<a>>; {j, y} <- <<b>>; j = k]";
    "[{x, y} | {k, x} <- <<a>>; {j, y} <- <<b>>; k = j]";
    (* composite keys: a tuple key, and a run of two key filters *)
    "[{x, y} | {k, x} <- <<a>>; {j, y} <- <<b>>; {j, y} = {k, x}]";
    "[{x, y} | {k, x} <- <<a>>; {j, y} <- <<b>>; j = k; y = x]";
    "[{x, y} | {k, x} <- <<a>>; {j, y} <- <<b>>; {j, 1} = {k, 1}]";
    (* constant keys, probed once per outer binding *)
    "[{x, y} | {k, x} <- <<a>>; {j, y} <- <<b>>; j = 1]";
    "[{x, y} | {k, x} <- <<a>>; {j, y} <- <<b>>; j = 1.0; y = x]";
    (* the pattern side is a whole pattern variable: p = {s, k} *)
    "[h | {s, k, z} <- <<a>>; {p, h} <- <<b>>; p = {s, k}]";
    "[h | {s, k, z} <- <<a>>; {p, h} <- <<b>>; {s, k} = p]";
    (* refutable patterns: constants and arities filter elements out *)
    "[{x, y} | {k, x} <- <<a>>; {j, 1, y} <- <<b>>; j = k]";
    "[{x, y} | {k, x} <- <<a>>; {j, y, z} <- <<b>>; j = k; z = x]";
    (* a pattern variable shadowing an outer one, and a repeated one *)
    "[{k, x} | {k, x} <- <<a>>; {k, y} <- <<b>>; k = x]";
    "[x | {k, x} <- <<a>>; {j, j} <- <<b>>; j = x]";
    (* an unbound outer key variable fails exactly when an element is
       visited, as in the nested loop *)
    "[{x, y} | {k, x} <- <<a>>; {j, y} <- <<b>>; j = zz]";
    (* non-key filters after the keys, one of which can fail *)
    "[{x, y} | {k, x} <- <<a>>; {j, y} <- <<b>>; j = k; x <> y]";
    "[{x, y} | {k, x} <- <<a>>; {j, y} <- <<b>>; j = k; x + y = 1]";
    (* keys reaching two generators back, and a let-bound key *)
    "[{x, y, w} | {k, x} <- <<a>>; {j, y} <- <<b>>; {i, w} <- <<a>>; i = k; w = y]";
    "let z = 1.0 in [{x, y} | {k, x} <- <<a>>; {j, y} <- <<b>>; j = z]";
    (* a source rebuilt per outer binding is never the same bag *)
    "[{x, y} | {k, x} <- <<a>>; {j, y} <- [e | e <- <<b>>]; j = k]";
    "[{x, y} | {k, x} <- <<a>>; {j, y} <- [{i, w} | {i, w} <- <<b>>; w <> x]; j = k]";
    (* the same join as a correlated subquery in the head *)
    "[{k, count([y | {j, y} <- <<b>>; j = k])} | {k, x} <- <<a>>]";
  ]

let qcheck_join_matches_nested_loop =
  let print (a, b) =
    Printf.sprintf "a = %s\nb = %s" (Value.to_string (Value.Bag a))
      (Value.to_string (Value.Bag b))
  in
  QCheck.Test.make ~count:300
    ~name:"indexed equi-joins answer as the nested-loop reference"
    (QCheck.make ~print (QCheck.Gen.pair gen_extent gen_extent))
    (fun extents ->
      List.for_all
        (fun src ->
          let plain, naive = outcomes extents src in
          same_outcome plain naive
          || QCheck.Test.fail_reportf "%s\n  eval:  %s\n  naive: %s" src
               (show_outcome plain) (show_outcome naive))
        join_queries)

let test_join_key_kinds () =
  (* Int 1 and Float 1.0 are different keys, as under the nested loop's
     [Value.compare]; multiplicities multiply through the index *)
  let a =
    Value.Bag.of_weighted_list
      [ (Value.tuple2 (v_int 1) (v_str "i"), 2);
        (Value.tuple2 (Value.Float 1.0) (v_str "f"), 1) ]
  in
  let b =
    Value.Bag.of_weighted_list
      [ (Value.tuple2 (v_int 1) (v_str "I"), 3);
        (Value.tuple2 (Value.Float 1.0) (v_str "F"), 1) ]
  in
  let plain, naive =
    outcomes (a, b) "[{x, y} | {k, x} <- <<a>>; {j, y} <- <<b>>; j = k]"
  in
  let expected =
    Ok
      (Value.Bag
         (Value.Bag.of_weighted_list
            [ (Value.tuple2 (v_str "i") (v_str "I"), 6);
              (Value.tuple2 (v_str "f") (v_str "F"), 1) ]))
  in
  Alcotest.(check bool) "indexed answer" true (same_outcome expected plain);
  Alcotest.(check bool) "reference answer" true (same_outcome expected naive);
  (* an unbound outer key is the nested loop's error, not an empty join *)
  let plain, naive =
    outcomes (a, b) "[{x, y} | {k, x} <- <<a>>; {j, y} <- <<b>>; j = zz]"
  in
  Alcotest.(check string) "unbound key" "error: unbound variable zz"
    (show_outcome plain);
  Alcotest.(check bool) "same as reference" true (same_outcome plain naive)

(* [iql.eval.nodes] and [iql.eval.index_builds] for one query *)
let eval_counters (a, b) src =
  let mem = Telemetry.Memory.create () in
  let plain, _ =
    Telemetry.with_sink (Telemetry.Memory.sink mem) (fun () ->
        outcomes (a, b) src)
  in
  ( plain,
    Telemetry.Memory.counter mem "iql.eval.nodes",
    Telemetry.Memory.counter mem "iql.eval.index_builds" )

let test_join_uses_index () =
  let side tag =
    Value.Bag.of_list
      (List.init 200 (fun i -> Value.tuple2 (v_str (Printf.sprintf "%s%d" tag i)) (v_int i)))
  in
  let extents = (side "l", side "r") in
  let indexed, nodes, builds =
    eval_counters extents "[{a, b} | {a, x} <- <<a>>; {b, y} <- <<b>>; y = x]"
  in
  (* a dummy filter between the generator and the join filter hides the
     key from detection: the same join runs as a nested loop *)
  let looped, loop_nodes, loop_builds =
    eval_counters extents
      "[{a, b} | {a, x} <- <<a>>; {b, y} <- <<b>>; true; y = x]"
  in
  Alcotest.(check bool) "same answer" true (same_outcome indexed looped);
  Alcotest.(check string) "200 pairs" "200"
    (match indexed with
     | Ok (Value.Bag b) -> string_of_int (Value.Bag.cardinal b)
     | r -> show_outcome r);
  Alcotest.(check int) "one index, built once" 1 builds;
  Alcotest.(check int) "no index for the hidden key" 0 loop_builds;
  if nodes * 10 > loop_nodes then
    Alcotest.failf "eval nodes %d indexed vs %d nested loop: under 10x" nodes
      loop_nodes;
  (* a selection probed once stays a scan *)
  let _, _, builds =
    eval_counters extents "[a | {a, x} <- <<a>>; x = 7]"
  in
  Alcotest.(check int) "single probe scans" 0 builds

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "booleans" `Quick test_boolean;
    Alcotest.test_case "if/let" `Quick test_if_let;
    Alcotest.test_case "bag literals and algebra" `Quick test_bag_literals;
    Alcotest.test_case "scheme lookup" `Quick test_scheme_lookup;
    Alcotest.test_case "comprehension basics" `Quick test_comprehension_basic;
    Alcotest.test_case "comprehension join" `Quick test_comprehension_join;
    Alcotest.test_case "multiplicities" `Quick test_comprehension_multiplicity;
    Alcotest.test_case "refutable patterns filter" `Quick
      test_refutable_patterns_filter;
    Alcotest.test_case "builtins" `Quick test_builtins;
    Alcotest.test_case "sum promotes" `Quick test_sum_mixed;
    Alcotest.test_case "group" `Quick test_group;
    Alcotest.test_case "string builtins" `Quick test_string_builtins;
    Alcotest.test_case "mod" `Quick test_mod;
    Alcotest.test_case "Range/Void/Any" `Quick test_range_void_any;
    Alcotest.test_case "unbound variables" `Quick test_unbound;
    Alcotest.test_case "match_pat" `Quick test_match_pat;
    QCheck_alcotest.to_alcotest qcheck_eval_canonical;
    Alcotest.test_case "join keys: numeric kinds, unbound" `Quick
      test_join_key_kinds;
    Alcotest.test_case "join index cuts eval nodes 10x" `Quick
      test_join_uses_index;
    QCheck_alcotest.to_alcotest qcheck_join_matches_nested_loop;
  ]
