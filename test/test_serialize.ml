(* Repository serialisation: the save/load round-trip must preserve
   schemas, pathways, extents - and therefore query answers. *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Value = Automed_iql.Value
module Types = Automed_iql.Types
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module Serialize = Automed_repository.Serialize
module Processor = Automed_query.Processor
module Sources = Automed_ispider.Sources
module Queries = Automed_ispider.Queries
module Intersection_run = Automed_ispider.Intersection_run

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let small_repo () =
  let repo = Repository.create () in
  let s =
    ok
      (Schema.of_objects "src"
         [
           (Scheme.table "t", Some (Types.TBag Types.TStr));
           (Scheme.column "t" "c", Some (Types.tuple_row [ Types.TStr; Types.TInt ]));
         ])
  in
  ok (Repository.add_schema repo s);
  ok
    (Repository.set_extent repo ~schema:"src" (Scheme.table "t")
       (Value.Bag.of_list [ Value.Str "a"; Value.Str "a"; Value.Str "b" ]));
  ok
    (Repository.set_extent repo ~schema:"src" (Scheme.column "t" "c")
       (Value.Bag.of_list
          [ Value.tuple2 (Value.Str "a") (Value.Int 1);
            Value.tuple2 (Value.Str "b") (Value.Int 2) ]));
  ok
    (Repository.add_pathway repo
       {
         Transform.from_schema = "src";
         to_schema = "derived";
         steps =
           [
             Transform.Add
               (Scheme.table "tagged",
                Automed_iql.Parser.parse_exn "[{'S', k} | k <- <<t>>]");
             Transform.Extend (Scheme.table "hole", Automed_iql.Ast.Void,
                               Automed_iql.Ast.Any);
             Transform.Rename (Scheme.column "t" "c", Scheme.column "t" "c2");
             Transform.Contract (Scheme.column "t" "c2", Automed_iql.Ast.Void,
                                 Automed_iql.Ast.Any);
           ];
       });
  repo

let test_roundtrip_structure () =
  let repo = small_repo () in
  let text = Serialize.save ~extents:true repo in
  let repo' = ok (Serialize.load text) in
  (* same schemas with the same objects and types *)
  Alcotest.(check (list string)) "schema names"
    (List.map Schema.name (Repository.schemas repo))
    (List.map Schema.name (Repository.schemas repo'));
  List.iter
    (fun s ->
      let s' = Repository.schema_exn repo' (Schema.name s) in
      Alcotest.(check bool)
        (Printf.sprintf "objects of %s" (Schema.name s))
        true (Schema.same_objects s s');
      List.iter
        (fun o ->
          let show = function
            | Some t -> Types.to_string t
            | None -> "-"
          in
          Alcotest.(check string)
            (Printf.sprintf "type of %s" (Scheme.to_string o))
            (show (Schema.extent_ty o s))
            (show (Schema.extent_ty o s')))
        (Schema.objects s))
    (Repository.schemas repo);
  (* same pathways *)
  Alcotest.(check int) "pathway count"
    (List.length (Repository.pathways repo))
    (List.length (Repository.pathways repo'));
  List.iter2
    (fun (p : Transform.pathway) (p' : Transform.pathway) ->
      Alcotest.(check bool) "pathway equal" true (p = p'))
    (Repository.pathways repo)
    (Repository.pathways repo');
  (* same extents *)
  (match Repository.stored_extent repo' ~schema:"src" (Scheme.table "t") with
  | Some b ->
      Alcotest.(check int) "multiplicity preserved" 2
        (Value.Bag.multiplicity (Value.Str "a") b)
  | None -> Alcotest.fail "extent lost")

let test_roundtrip_queries () =
  let repo = small_repo () in
  let repo' = ok (Serialize.load (Serialize.save ~extents:true repo)) in
  let q = "[k | {s, k} <- <<tagged>>; s = 'S']" in
  let run repo =
    let proc = Processor.create repo in
    match Processor.run_string proc ~schema:"derived" q with
    | Ok v -> v
    | Error e -> Alcotest.failf "%a" Processor.pp_error e
  in
  Alcotest.(check bool) "same answers after reload" true
    (Value.equal (run repo) (run repo'))

let test_save_without_extents () =
  let repo = small_repo () in
  let repo' = ok (Serialize.load (Serialize.save repo)) in
  Alcotest.(check bool) "no extents stored" false
    (Repository.has_stored_extents repo' "src")

let test_load_errors () =
  List.iter
    (fun text ->
      match Serialize.load text with
      | Ok _ -> Alcotest.failf "should reject %S" text
      | Error _ -> ())
    [
      "object <<t>>";  (* object outside schema *)
      "schema \"a\"\nnonsense line";
      "pathway \"a\" -> \"b\"\nstep add <<t>> := <<u>>";  (* missing end *)
      "schema \"a\"\nobject <<t>> : nosuchtype";
      "pathway \"ghost\" -> \"b\"\nend";  (* unknown source schema *)
    ]

(* the flagship test: the fully-integrated iSpider dataspace survives a
   round-trip, including all seven query answers *)
let test_ispider_roundtrip () =
  let ds = Sources.generate () in
  let repo = Repository.create () in
  ok (Sources.wrap_all repo ds);
  let run = ok (Intersection_run.execute repo) in
  let global =
    Automed_integration.Workflow.global_name run.Intersection_run.workflow
  in
  let text = Serialize.save ~extents:true repo in
  let repo' = ok (Serialize.load text) in
  let proc = Processor.create repo and proc' = Processor.create repo' in
  List.iter
    (fun (q : Queries.query) ->
      let a = Processor.run_string proc ~schema:global q.Queries.global_text in
      let b = Processor.run_string proc' ~schema:global q.Queries.global_text in
      match (a, b) with
      | Ok va, Ok vb ->
          Alcotest.(check bool)
            (Printf.sprintf "query %d preserved" q.Queries.number)
            true (Value.equal va vb)
      | _ -> Alcotest.failf "query %d failed after reload" q.Queries.number)
    Queries.all

(* -- hostile names and values -------------------------------------------- *)

(* Schema names containing quotes, backslashes and newlines, and string
   values containing single quotes and escapes, must survive the
   round-trip byte for byte. *)
let hostile_names =
  [ "plain"; "with \"quotes\""; "back\\slash"; "new\nline"; "cr\rlf"; "it's";
    "a := b" ]

let hostile_values =
  [ "plain"; "it's"; "two''quotes"; "back\\slash"; "multi\nline"; "tab\there";
    "cr\rreturn"; "tricky\\'mix" ]

let test_hostile_roundtrip () =
  List.iteri
    (fun i name ->
      let repo = Repository.create () in
      ok
        (Repository.add_schema repo
           (ok (Schema.of_objects name [ (Scheme.table "t", None) ])));
      ok
        (Repository.set_extent repo ~schema:name (Scheme.table "t")
           (Value.Bag.of_list (List.map (fun v -> Value.Str v) hostile_values)));
      let repo' = ok (Serialize.load (Serialize.save ~extents:true repo)) in
      Alcotest.(check (list string))
        (Printf.sprintf "name %d survives" i)
        [ name ]
        (List.map Schema.name (Repository.schemas repo'));
      match Repository.stored_extent repo' ~schema:name (Scheme.table "t") with
      | None -> Alcotest.fail "extent lost"
      | Some b ->
          Alcotest.(check (list string))
            (Printf.sprintf "values of %d survive" i)
            (List.sort String.compare hostile_values)
            (List.filter_map
               (function Value.Str s -> Some s | _ -> None)
               (Value.Bag.to_list b)))
    hostile_names

(* -- randomised properties ------------------------------------------------ *)

(* save -> load -> save is a fixpoint, and load never raises, whatever
   bytes it is fed. *)

let gen_name =
  QCheck.Gen.(
    map
      (fun cs -> String.concat "" cs)
      (list_size (int_range 1 8)
         (oneofl
            [ "a"; "b"; "z9"; "_"; "\""; "\\"; "\n"; "'"; " "; "-"; ":"; "=";
              " := " ])))

let gen_value =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Value.Str s) gen_name;
        map (fun i -> Value.Int i) (int_range (-50) 50);
        map (fun b -> Value.Bool b) bool;
        map (fun f -> Value.Float f) (map float_of_int (int_range 0 100));
      ])

let gen_repo_text =
  QCheck.Gen.(
    let* names = list_size (int_range 1 3) gen_name in
    let names = List.sort_uniq String.compare names in
    let* extents =
      flatten_l
        (List.map
           (fun n ->
             let* vs = list_size (int_range 0 5) gen_value in
             return (n, vs))
           names)
    in
    return
      (let repo = Repository.create () in
       List.iter
         (fun (n, vs) ->
           match
             Result.bind (Schema.of_objects n [ (Scheme.table "t", None) ])
               (Repository.add_schema repo)
           with
           | Error _ -> ()
           | Ok () ->
               ignore
                 (Repository.set_extent repo ~schema:n (Scheme.table "t")
                    (Value.Bag.of_list vs)))
         extents;
       Serialize.save ~extents:true repo))

let prop_fixpoint =
  QCheck.Test.make ~count:100 ~name:"save/load/save fixpoint"
    (QCheck.make ~print:(fun t -> t) gen_repo_text)
    (fun text ->
      match Serialize.load text with
      | Error e -> QCheck.Test.fail_reportf "load rejected its own save: %s" e
      | Ok repo' -> String.equal text (Serialize.save ~extents:true repo'))

let gen_garbage =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:printable (int_range 0 200);
        string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 200);
        (* mutated valid saves: truncations and single-byte flips *)
        (let* text = gen_repo_text in
         let* mode = int_range 0 2 in
         match mode with
         | 0 ->
             let* k = int_range 0 (String.length text) in
             return (String.sub text 0 k)
         | 1 when String.length text > 0 ->
             let* i = int_range 0 (String.length text - 1) in
             let* c = map Char.chr (int_range 0 255) in
             let b = Bytes.of_string text in
             Bytes.set b i c;
             return (Bytes.to_string b)
         | _ -> return text);
      ])

let prop_load_total =
  QCheck.Test.make ~count:300 ~name:"load never raises"
    (QCheck.make ~print:String.escaped gen_garbage)
    (fun text ->
      match Serialize.load text with Ok _ | Error _ -> true)

let prop_op_codec =
  (* a single-op fragment also round-trips: save_op -> load_op -> save_op *)
  QCheck.Test.make ~count:100 ~name:"op codec round-trip"
    (QCheck.make ~print:(fun t -> t) gen_repo_text)
    (fun text ->
      match Serialize.load text with
      | Error _ -> QCheck.assume_fail ()
      | Ok repo ->
          List.for_all
            (fun s ->
              let op = Repository.Op_add_schema s in
              match Serialize.load_op (Serialize.save_op op) with
              | Ok (Repository.Op_add_schema s') ->
                  String.equal
                    (Serialize.save_op (Repository.Op_add_schema s'))
                    (Serialize.save_op op)
              | _ -> false)
            (Repository.schemas repo))

let test_replace_op_roundtrip () =
  (* the autofixer's journal record survives the op codec *)
  let p_old =
    {
      Transform.from_schema = "src";
      to_schema = "derived";
      steps =
        [
          Transform.Rename (Scheme.table "t", Scheme.table "b");
          Transform.Rename (Scheme.table "b", Scheme.table "u");
        ];
    }
  in
  let p_new =
    { p_old with Transform.steps = [ Transform.Rename (Scheme.table "t", Scheme.table "u") ] }
  in
  let op = Repository.Op_replace_pathway (p_old, p_new) in
  (match Serialize.load_op (Serialize.save_op op) with
  | Ok (Repository.Op_replace_pathway (o, n)) ->
      Alcotest.(check bool) "old pathway preserved" true (o = p_old);
      Alcotest.(check bool) "new pathway preserved" true (n = p_new)
  | Ok _ -> Alcotest.fail "decoded to a different op"
  | Error e -> Alcotest.fail e);
  (* an empty replacement body (fully cancelled pathway) round-trips too *)
  let op = Repository.Op_replace_pathway (p_old, { p_old with Transform.steps = [] }) in
  match Serialize.load_op (Serialize.save_op op) with
  | Ok (Repository.Op_replace_pathway (_, n)) ->
      Alcotest.(check int) "empty steps" 0 (List.length n.Transform.steps)
  | Ok _ -> Alcotest.fail "decoded to a different op"
  | Error e -> Alcotest.fail e

let test_maintenance_op_roundtrips () =
  (* the maintenance transactions' journal records survive the op codec *)
  let pathway from_schema to_schema steps =
    { Transform.from_schema; to_schema; steps }
  in
  let link a b =
    pathway a b [ Transform.Rename (Scheme.table "t", Scheme.table "b") ]
  in
  let roundtrip op = Serialize.load_op (Serialize.save_op op) in
  let check_same msg op op' =
    Alcotest.(check string) msg (Serialize.save_op op) (Serialize.save_op op')
  in
  (* Op_remove_pathway, including an empty-steps (fully Void) pathway *)
  List.iter
    (fun p ->
      let op = Repository.Op_remove_pathway p in
      match roundtrip op with
      | Ok (Repository.Op_remove_pathway p') ->
          check_same "remove-pathway round-trip" op
            (Repository.Op_remove_pathway p')
      | Ok _ -> Alcotest.fail "decoded to a different op"
      | Error e -> Alcotest.fail e)
    [ link "sat0" "ispider_v9"; pathway "sat0" "ispider_v9" [] ];
  (* Op_compact_pathway: no reroutes, several reroutes, hostile names *)
  List.iter
    (fun (retired, shortcut, reroutes) ->
      let op = Repository.Op_compact_pathway (retired, shortcut, reroutes) in
      match roundtrip op with
      | Ok (Repository.Op_compact_pathway (r, s, rs)) ->
          check_same "compact-pathway round-trip" op
            (Repository.Op_compact_pathway (r, s, rs));
          Alcotest.(check int) "reroute count preserved"
            (List.length reroutes) (List.length rs)
      | Ok _ -> Alcotest.fail "decoded to a different op"
      | Error e -> Alcotest.fail e)
    [
      (link "ispider_v17" "ispider_v18", link "ispider_v6" "ispider_v18", []);
      ( link "ispider_v17" "ispider_v18",
        link "ispider_v6" "ispider_v18",
        [ link "pedro" "ispider_v18"; link "gpmdb" "ispider_v18" ] );
      ( link "a\nb" "c\"d", link "e|f" "c\"d",
        [ pathway "\xffsrc" "c\"d" [] ] );
    ]

let suite =
  [
    Alcotest.test_case "structure round-trip" `Quick test_roundtrip_structure;
    Alcotest.test_case "query answers round-trip" `Quick test_roundtrip_queries;
    Alcotest.test_case "extents optional" `Quick test_save_without_extents;
    Alcotest.test_case "load rejects malformed input" `Quick test_load_errors;
    Alcotest.test_case "hostile names and values round-trip" `Quick
      test_hostile_roundtrip;
    Alcotest.test_case "iSpider dataspace round-trip" `Slow test_ispider_roundtrip;
    Alcotest.test_case "replace-pathway op round-trip" `Quick
      test_replace_op_roundtrip;
    Alcotest.test_case "maintenance op round-trips" `Quick
      test_maintenance_op_roundtrips;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_fixpoint; prop_load_total; prop_op_codec ]
