(* Primitive transformations and pathways: application, automatic
   reversal (a key paper property), well-formedness, shapes, counting. *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Ast = Automed_iql.Ast
module Parser = Automed_iql.Parser
module Transform = Automed_transform.Transform

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let err = function Ok _ -> Alcotest.fail "expected error" | Error _ -> ()
let q = Parser.parse_exn

let base_schema () =
  ok
    (Schema.of_objects "s"
       [
         (Scheme.table "t", Some (Automed_iql.Types.TBag Automed_iql.Types.TStr));
         ( Scheme.column "t" "c",
           Some (Automed_iql.Types.tuple_row
                   [ Automed_iql.Types.TStr; Automed_iql.Types.TInt ]) );
       ])

let test_apply_add () =
  let s = base_schema () in
  let s' = ok (Transform.apply_prim s
                 (Transform.Add (Scheme.table "u", q "[k | k <- <<t>>]"))) in
  Alcotest.(check bool) "added" true (Schema.mem (Scheme.table "u") s');
  (* extent type inferred from the query *)
  Alcotest.(check bool) "typed" true
    (Schema.extent_ty (Scheme.table "u") s' <> None);
  err (Transform.apply_prim s' (Transform.Add (Scheme.table "u", q "<<t>>")))

let test_apply_delete_contract () =
  let s = base_schema () in
  let s' = ok (Transform.apply_prim s (Transform.Delete (Scheme.column "t" "c", q "Void"))) in
  Alcotest.(check bool) "deleted" false (Schema.mem (Scheme.column "t" "c") s');
  err (Transform.apply_prim s' (Transform.Contract (Scheme.column "t" "c", Ast.Void, Ast.Any)))

let test_apply_rename_id () =
  let s = base_schema () in
  let s' = ok (Transform.apply_prim s (Transform.Rename (Scheme.table "t", Scheme.table "t2"))) in
  Alcotest.(check bool) "renamed" true (Schema.mem (Scheme.table "t2") s');
  ignore (ok (Transform.apply_prim s (Transform.Id (Scheme.table "t", Scheme.table "t"))));
  err (Transform.apply_prim s (Transform.Id (Scheme.table "ghost", Scheme.table "ghost")))

let pathway steps = { Transform.from_schema = "s"; to_schema = "s2"; steps }

let test_apply_pathway () =
  let p =
    pathway
      [
        Transform.Add (Scheme.table "u", q "[k | k <- <<t>>]");
        Transform.Contract (Scheme.column "t" "c", Ast.Void, Ast.Any);
        Transform.Rename (Scheme.table "t", Scheme.table "t0");
      ]
  in
  let s2 = ok (Transform.apply (base_schema ()) p) in
  Alcotest.(check string) "renamed schema" "s2" (Schema.name s2);
  Alcotest.(check (list string)) "objects"
    [ "<<t0>>"; "<<u>>" ]
    (List.map Scheme.to_string (Schema.objects s2))

let test_reverse_prim () =
  let a = Transform.Add (Scheme.table "u", q "<<t>>") in
  (match Transform.reverse_prim a with
  | Transform.Delete (s, _) ->
      Alcotest.(check bool) "add->delete" true (Scheme.equal s (Scheme.table "u"))
  | _ -> Alcotest.fail "wrong reversal");
  (match Transform.reverse_prim (Transform.Extend (Scheme.table "u", Ast.Void, Ast.Any)) with
  | Transform.Contract _ -> ()
  | _ -> Alcotest.fail "extend->contract");
  match Transform.reverse_prim (Transform.Rename (Scheme.table "a", Scheme.table "b")) with
  | Transform.Rename (x, y) ->
      Alcotest.(check bool) "swap" true
        (Scheme.equal x (Scheme.table "b") && Scheme.equal y (Scheme.table "a"))
  | _ -> Alcotest.fail "rename swap"

let sample_pathways =
  [
    pathway [ Transform.Add (Scheme.table "u", q "[k | k <- <<t>>]") ];
    pathway
      [
        Transform.Add (Scheme.table "u", q "<<t>>");
        Transform.Delete (Scheme.table "t", q "<<u>>");
      ];
    pathway
      [
        Transform.Extend (Scheme.table "w", Ast.Void, Ast.Any);
        Transform.Rename (Scheme.column "t" "c", Scheme.column "t" "d");
        Transform.Contract (Scheme.table "w", Ast.Void, Ast.Any);
      ];
    pathway
      [
        Transform.Id (Scheme.table "t", Scheme.table "t");
        Transform.Add (Scheme.column "t" "c2", q "[{k,x} | {k,x} <- <<t,c>>]");
      ];
  ]

let test_reverse_involution () =
  List.iter
    (fun p ->
      let pp = Transform.reverse (Transform.reverse p) in
      Alcotest.(check bool) "reverse^2 = id" true (p = pp))
    sample_pathways

let test_apply_then_reverse_restores () =
  List.iter
    (fun p ->
      let s = base_schema () in
      let s2 = ok (Transform.apply s p) in
      let back = Transform.reverse p in
      let s3 = ok (Transform.apply s2 { back with to_schema = "s" }) in
      Alcotest.(check bool) "objects restored" true (Schema.same_objects s s3))
    sample_pathways

let test_well_formed () =
  let s = base_schema () in
  ignore
    (ok
       (Transform.apply_checked s
          (pathway [ Transform.Add (Scheme.table "u", q "[k | k <- <<t>>]") ])));
  (* add query referencing a missing object *)
  err
    (Transform.apply_checked s
       (pathway [ Transform.Add (Scheme.table "u", q "[k | k <- <<ghost>>]") ]));
  (* delete query must be over the post-schema: referencing the deleted
     object itself is an error *)
  err
    (Transform.apply_checked s
       (pathway [ Transform.Delete (Scheme.table "t", q "<<t>>") ]));
  (* ...but referencing the remaining objects is fine *)
  ignore
    (ok
       (Transform.apply_checked s
          (pathway
             [
               Transform.Add (Scheme.table "u", q "<<t>>");
               Transform.Delete (Scheme.table "t", q "<<u>>");
             ])))

let test_ident () =
  let s1 = base_schema () in
  let s2 = Schema.rename "other" (base_schema ()) in
  let p = ok (Transform.ident s1 s2) in
  Alcotest.(check int) "one id per object" 2 (List.length p.Transform.steps);
  List.iter
    (function
      | Transform.Id (a, b) ->
          Alcotest.(check bool) "self id" true (Scheme.equal a b)
      | _ -> Alcotest.fail "non-id step")
    p.Transform.steps;
  let s3 = ok (Schema.add_object (Scheme.table "extra") s2) in
  err (Transform.ident s1 s3)

let test_compose () =
  let p1 = { Transform.from_schema = "a"; to_schema = "b"; steps = [] } in
  let p2 = { Transform.from_schema = "b"; to_schema = "c"; steps = [] } in
  let p = ok (Transform.compose p1 p2) in
  Alcotest.(check string) "from" "a" p.Transform.from_schema;
  Alcotest.(check string) "to" "c" p.Transform.to_schema;
  err (Transform.compose p2 p1)

let test_triviality_counting () =
  let trivial = Transform.Extend (Scheme.table "u", Ast.Void, Ast.Any) in
  let manual = Transform.Add (Scheme.table "u", q "[k | k <- <<t>>]") in
  Alcotest.(check bool) "trivial" true (Transform.is_trivial trivial);
  Alcotest.(check bool) "manual not trivial" false (Transform.is_trivial manual);
  Alcotest.(check bool) "id not manual" false
    (Transform.is_manual (Transform.Id (Scheme.table "t", Scheme.table "t")));
  Alcotest.(check bool) "rename not manual" false
    (Transform.is_manual (Transform.Rename (Scheme.table "t", Scheme.table "u")));
  let p = pathway [ trivial; manual; manual ] in
  Alcotest.(check int) "count" 2 (Transform.count_non_trivial p)

let test_intersection_shape () =
  let p =
    pathway
      [
        Transform.Add (Scheme.table "U", q "[{'T', k} | k <- <<t>>]");
        Transform.Extend (Scheme.table "V", Ast.Void, Ast.Any);
        Transform.Delete (Scheme.table "t", q "[k | {x, k} <- <<U>>]");
        Transform.Contract (Scheme.column "t" "c", Ast.Void, Ast.Any);
        Transform.Id (Scheme.table "U", Scheme.table "U");
      ]
  in
  let shape = ok (Transform.intersection_shape p) in
  Alcotest.(check int) "adds" 1 (List.length shape.Transform.adds);
  Alcotest.(check int) "extends" 1 (List.length shape.Transform.extends);
  Alcotest.(check int) "deletes" 1 (List.length shape.Transform.deletes);
  Alcotest.(check int) "contracts" 1 (List.length shape.Transform.contracts);
  Alcotest.(check int) "ids" 1 (List.length shape.Transform.ids);
  (* out-of-order steps are rejected *)
  err
    (Transform.intersection_shape
       (pathway
          [
            Transform.Delete (Scheme.table "t", q "Void");
            Transform.Add (Scheme.table "U", q "Void");
          ]));
  (* contracts must carry Range Void Any *)
  err
    (Transform.intersection_shape
       (pathway [ Transform.Contract (Scheme.table "t", q "[1]", Ast.Any) ]))

(* -- properties --------------------------------------------------------- *)

let gen_prim =
  QCheck.Gen.(
    oneof
      [
        return (Transform.Add (Scheme.table "u", Ast.SchemeRef (Scheme.table "t")));
        return (Transform.Delete (Scheme.table "u", Ast.Void));
        return (Transform.Extend (Scheme.table "w", Ast.Void, Ast.Any));
        return (Transform.Contract (Scheme.table "w", Ast.Void, Ast.Any));
        return (Transform.Rename (Scheme.table "a", Scheme.table "b"));
        return (Transform.Id (Scheme.table "t", Scheme.table "t"));
      ])

let qcheck_reverse_involution =
  QCheck.Test.make ~name:"pathway reversal is an involution" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 10) gen_prim))
    (fun steps ->
      let p = { Transform.from_schema = "x"; to_schema = "y"; steps } in
      Transform.reverse (Transform.reverse p) = p)

let qcheck_reverse_swaps_triviality =
  QCheck.Test.make ~name:"reversal preserves triviality" ~count:200
    (QCheck.make gen_prim) (fun prim ->
      Transform.is_trivial prim = Transform.is_trivial (Transform.reverse_prim prim))

let suite =
  [
    Alcotest.test_case "apply add" `Quick test_apply_add;
    Alcotest.test_case "apply delete/contract" `Quick test_apply_delete_contract;
    Alcotest.test_case "apply rename/id" `Quick test_apply_rename_id;
    Alcotest.test_case "apply pathway" `Quick test_apply_pathway;
    Alcotest.test_case "reverse prim" `Quick test_reverse_prim;
    Alcotest.test_case "reverse involution (samples)" `Quick test_reverse_involution;
    Alcotest.test_case "apply then reverse restores" `Quick
      test_apply_then_reverse_restores;
    Alcotest.test_case "well-formedness" `Quick test_well_formed;
    Alcotest.test_case "ident expansion" `Quick test_ident;
    Alcotest.test_case "compose" `Quick test_compose;
    Alcotest.test_case "triviality and counting" `Quick test_triviality_counting;
    Alcotest.test_case "intersection shape" `Quick test_intersection_shape;
    QCheck_alcotest.to_alcotest qcheck_reverse_involution;
    QCheck_alcotest.to_alcotest qcheck_reverse_swaps_triviality;
  ]
