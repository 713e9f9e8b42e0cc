module Scheme = Automed_base.Scheme
module Prng = Automed_base.Prng
module Schema = Automed_model.Schema
module Ast = Automed_iql.Ast
module Value = Automed_iql.Value
module Eval = Automed_iql.Eval
module Types = Automed_iql.Types
module Transform = Automed_transform.Transform
module Telemetry = Automed_telemetry.Telemetry

let ( let* ) = Result.bind
let err fmt = Format.kasprintf (fun s -> Error s) fmt

(* An independent replay of the definition semantics (mirrors what query
   reformulation does, on purpose: that is the semantics simplification
   must preserve).  Kept Result-valued so a broken candidate is a
   verdict, not an exception. *)
let defs schema (p : Transform.pathway) =
  let subst defs q =
    let missing = ref None in
    let q' =
      Ast.subst_schemes
        (fun s ->
          match Scheme.Map.find_opt s defs with
          | Some e -> Some e
          | None ->
              if !missing = None then missing := Some s;
              None)
        q
    in
    match !missing with
    | Some s ->
        err "definition query %s references %s, absent at this point"
          (Ast.to_string q) (Scheme.to_string s)
    | None -> Ok q'
  in
  let init =
    List.fold_left
      (fun m o -> Scheme.Map.add o (Ast.SchemeRef o) m)
      Scheme.Map.empty (Schema.objects schema)
  in
  List.fold_left
    (fun acc step ->
      let* defs = acc in
      match (step : Transform.prim) with
      | Add (o, q) ->
          let* q = subst defs q in
          Ok (Scheme.Map.add o q defs)
      | Extend (o, ql, _) ->
          let* ql = subst defs ql in
          Ok (Scheme.Map.add o ql defs)
      | Delete (o, _) | Contract (o, _, _) -> Ok (Scheme.Map.remove o defs)
      | Rename (a, b) -> (
          match Scheme.Map.find_opt a defs with
          | Some e -> Ok (Scheme.Map.add b e (Scheme.Map.remove a defs))
          | None -> err "rename of unknown object %s" (Scheme.to_string a))
      | Id (a, b) -> (
          if Scheme.equal a b then Ok defs
          else
            match Scheme.Map.find_opt a defs with
            | Some e -> Ok (Scheme.Map.add b e defs)
            | None -> err "id of unknown object %s" (Scheme.to_string a)))
    (Ok init) p.steps

type certificate = { objects : int; trials : int; reverse_checked : bool }

(* -- deterministic extent generation ------------------------------------- *)
(* Tiny value domains on purpose: joins collide, bags carry duplicate
   elements, so multiplicity bugs (bag vs set semantics) show up. *)

let rec gen_value rng (ty : Types.ty) =
  match ty with
  | Types.TUnit -> Value.Unit
  | Types.TBool -> Value.Bool (Prng.bool rng)
  | Types.TInt -> Value.Int (Prng.int rng 4)
  | Types.TFloat -> Value.Float (float_of_int (Prng.int rng 3))
  | Types.TStr | Types.TVar _ ->
      Value.Str (Prng.choose rng [| "a"; "b"; "c"; "d" |])
  | Types.TTuple ts -> Value.Tuple (List.map (gen_value rng) ts)
  | Types.TBag t -> Value.Bag (gen_bag rng t)

and gen_bag rng elt_ty =
  let n = Prng.int rng 5 in
  Value.Bag.of_list (List.init n (fun _ -> gen_value rng elt_ty))

let gen_extents rng schema =
  List.map
    (fun o ->
      let elt_ty =
        match Schema.extent_ty o schema with
        | Some (Types.TBag t) -> t
        | Some t -> t
        | None -> Types.TStr
      in
      (o, gen_bag rng elt_ty))
    (Schema.objects schema)

let env_of_extents exts =
  let table =
    List.fold_left
      (fun m (o, bag) -> Scheme.Map.add o bag m)
      Scheme.Map.empty exts
  in
  Eval.env ~schemes:(fun s -> Scheme.Map.find_opt s table) ()

(* -- the checks ---------------------------------------------------------- *)

let states_agree s1 s2 =
  if not (Schema.same_objects s1 s2) then
    err "final states disagree: %d vs %d object(s)" (Schema.object_count s1)
      (Schema.object_count s2)
  else
    match
      List.find_opt
        (fun o -> Schema.extent_ty o s1 <> Schema.extent_ty o s2)
        (Schema.objects s1)
    with
    | Some o ->
        err "final states disagree on the extent type of %s"
          (Scheme.to_string o)
    | None -> Ok ()

let def_domain m = Scheme.Map.fold (fun o _ acc -> o :: acc) m []

(* a definition absent from one side is the empty contribution *)
let def_or_void m o =
  match Scheme.Map.find_opt o m with Some e -> e | None -> Ast.Void

let differential ~what env d1 d2 =
  let domain =
    List.sort_uniq Scheme.compare (def_domain d1 @ def_domain d2)
  in
  List.fold_left
    (fun acc o ->
      let* () = acc in
      match
        (Eval.eval env (def_or_void d1 o), Eval.eval env (def_or_void d2 o))
      with
      | Ok v1, Ok v2 ->
          if Value.equal v1 v2 then Ok ()
          else
            err "%s definitions of %s evaluate differently: %s vs %s" what
              (Scheme.to_string o) (Value.to_string v1) (Value.to_string v2)
      | Error _, Error _ -> Ok ()
      | Ok _, Error e ->
          err "%s definition of %s fails only for the candidate: %s" what
            (Scheme.to_string o)
            (Fmt.str "%a" Eval.pp_error e)
      | Error e, Ok _ ->
          err "%s definition of %s fails only for the original: %s" what
            (Scheme.to_string o)
            (Fmt.str "%a" Eval.pp_error e))
    (Ok ()) domain

let syntactic_defs_agree ~what d1 d2 =
  if Scheme.Map.equal Ast.equal d1 d2 then Ok ()
  else
    let domain =
      List.sort_uniq Scheme.compare (def_domain d1 @ def_domain d2)
    in
    let offender =
      List.find_opt
        (fun o ->
          match (Scheme.Map.find_opt o d1, Scheme.Map.find_opt o d2) with
          | Some e1, Some e2 -> not (Ast.equal e1 e2)
          | Some _, None | None, Some _ -> true
          | None, None -> false)
        domain
    in
    err "%s definitions differ%s" what
      (match offender with
      | Some o -> " on " ^ Scheme.to_string o
      | None -> "")

let check ?(seed = 0x5EED_CAFEL) ?(trials = 2) ?extents ?(syntactic = true)
    schema ~(original : Transform.pathway)
    ~(candidate : Transform.pathway) =
  Telemetry.with_span "analysis.equiv"
    ~attrs:(fun () ->
      [ ("pathway", original.from_schema ^ " -> " ^ original.to_schema) ])
  @@ fun () ->
  let* () =
    if
      original.from_schema = candidate.from_schema
      && original.to_schema = candidate.to_schema
    then Ok ()
    else
      err "endpoints differ: %s -> %s vs %s -> %s" original.from_schema
        original.to_schema candidate.from_schema candidate.to_schema
  in
  let* s1 =
    Result.map_error
      (fun e -> "original pathway does not apply: " ^ e)
      (Transform.apply schema original)
  in
  let* s2 =
    Result.map_error
      (fun e -> "candidate pathway does not apply: " ^ e)
      (Transform.apply schema candidate)
  in
  let* () = states_agree s1 s2 in
  let* d1 =
    Result.map_error
      (fun e -> "original pathway has no definitions: " ^ e)
      (defs schema original)
  in
  let* d2 =
    Result.map_error
      (fun e -> "candidate pathway has no definitions: " ^ e)
      (defs schema candidate)
  in
  let* () = if syntactic then syntactic_defs_agree ~what:"forward" d1 d2 else Ok () in
  (* the reverse direction: stored pathways double as reverse edges of
     the network search, so equivalence must hold both ways *)
  let reverse_defs =
    match
      ( defs s1 (Transform.reverse original),
        defs s1 (Transform.reverse candidate) )
    with
    | Ok r1, Ok r2 -> Ok (Some (r1, r2))
    | Error _, Error _ -> Ok None
    | Ok _, Error e ->
        err "reverse of the candidate has no definitions: %s" e
    | Error e, Ok _ -> err "reverse of the original has no definitions: %s" e
  in
  let* reverse_defs = reverse_defs in
  let* () =
    match reverse_defs with
    | Some (r1, r2) when syntactic -> syntactic_defs_agree ~what:"reverse" r1 r2
    | _ -> Ok ()
  in
  let* () =
    let rec trial k =
      if k >= trials then Ok ()
      else
        let source_extents =
          match extents with
          | Some f -> f k
          | None ->
              gen_extents (Prng.create (Int64.add seed (Int64.of_int k))) schema
        in
        let* () =
          differential ~what:"forward" (env_of_extents source_extents) d1 d2
        in
        let* () =
          match reverse_defs with
          | None -> Ok ()
          | Some (r1, r2) ->
              let target_extents =
                gen_extents
                  (Prng.create (Int64.add (Int64.lognot seed) (Int64.of_int k)))
                  s1
              in
              differential ~what:"reverse" (env_of_extents target_extents) r1 r2
        in
        trial (k + 1)
    in
    trial 0
  in
  Ok
    {
      objects = Scheme.Map.cardinal d1;
      trials;
      reverse_checked = reverse_defs <> None;
    }
