module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Ast = Automed_iql.Ast
module Value = Automed_iql.Value
module Eval = Automed_iql.Eval
module Parser = Automed_iql.Parser
module Transform = Automed_transform.Transform
module Repository = Automed_repository.Repository
module Telemetry = Automed_telemetry.Telemetry
module Resilience = Automed_resilience.Resilience
module Reachability = Automed_analysis.Reachability
module Lineage = Automed_provenance.Lineage
module Peval = Automed_provenance.Peval
module SS = Set.Make (String)

type error = {
  message : string;
  schema : string option;
  expr_size : int option;
}

let error ?schema ?expr_size message = { message; schema; expr_size }

let pp_error ppf e =
  Fmt.string ppf e.message;
  match (e.schema, e.expr_size) with
  | None, None -> ()
  | schema, size ->
      Fmt.pf ppf " [";
      (match schema with Some s -> Fmt.pf ppf "schema %s" s | None -> ());
      (match (schema, size) with
      | Some _, Some _ -> Fmt.pf ppf ", "
      | _ -> ());
      (match size with
      | Some n -> Fmt.pf ppf "reformulated size %d" n
      | None -> ());
      Fmt.pf ppf "]"

exception Err of error

let err fmt = Format.kasprintf (fun message -> raise (Err (error message))) fmt

(* fill in request context an [err] raised deep in the derivation lacks *)
let add_context ?schema ?expr_size e =
  {
    e with
    schema = (match e.schema with None -> schema | some -> some);
    expr_size = (match e.expr_size with None -> expr_size | some -> some);
  }

module EK = struct
  type t = string * Scheme.t

  let equal (s1, o1) (s2, o2) = String.equal s1 s2 && Scheme.equal o1 o2
  let hash = Hashtbl.hash
end

module EH = Hashtbl.Make (EK)

(* Provenance frames track, for the extent computation in progress, which
   sources contributed data and whether any source was skipped by the
   degraded mode (a "tainted" result).  Tainted bags are never cached, so
   a failed-then-recovered source cannot poison the extent cache with a
   partial answer. *)
type frame = { mutable srcs : SS.t; mutable tainted : bool }

type t = {
  repo : Repository.t;
  resilience : Resilience.t option;
  prune : bool;
  cache : (Value.Bag.t * SS.t) EH.t;
      (* cached bag plus the sources whose data it incorporates *)
  pcache : ((Peval.entry list * Lineage.t) * SS.t) EH.t;
      (* the same for annotated extents, for provenance runs *)
  pinfo : (Transform.pathway, Scheme.Set.t option) Hashtbl.t;
      (* reachability live set per stored pathway; None: never prune *)
  mutable visiting : string list; (* schemas on the derivation stack *)
  mutable degraded : bool; (* soften source failures into skips *)
  mutable frames : frame list; (* innermost first *)
  mutable run_skipped : (string * string * skip_kind) list;
      (* source, reason, kind; newest first *)
}

and skip_kind = Skip_faulty | Skip_evolved

let create ?resilience ?(prune = true) repo =
  {
    repo;
    resilience;
    prune;
    cache = EH.create 64;
    pcache = EH.create 64;
    pinfo = Hashtbl.create 16;
    visiting = [];
    degraded = false;
    frames = [];
    run_skipped = [];
  }

let repository t = t.repo
let resilience t = t.resilience

let invalidate t =
  EH.reset t.cache;
  EH.reset t.pcache;
  Hashtbl.reset t.pinfo;
  t.visiting <- [];
  t.frames <- []

(* Targeted churn invalidation: exactly the entries tainted by [source]
   are dropped from all three caches — plain and annotated extents
   whose contributing-source sets cite it, and the live sets of pathways
   that start or end at it (an evolution alters the source's shape or
   replaces those pathways, so their live sets are stale).
   Entries of untouched sources survive; the emitted counters let tests
   pin both directions (no stale hits, no over-invalidation). *)
let invalidate_source t source =
  let sweep cache =
    let doomed =
      EH.fold
        (fun ((schema, _) as key) (_, srcs) acc ->
          if schema = source || SS.mem source srcs then key :: acc else acc)
        cache []
    in
    List.iter (EH.remove cache) doomed;
    List.length doomed
  in
  let doomed = sweep t.cache in
  let doomed_p = sweep t.pcache in
  let doomed_i =
    Hashtbl.fold
      (fun (p : Transform.pathway) _ acc ->
        if p.from_schema = source || p.to_schema = source then p :: acc
        else acc)
      t.pinfo []
  in
  List.iter (Hashtbl.remove t.pinfo) doomed_i;
  if Telemetry.active () then begin
    Telemetry.count ~by:doomed "processor.invalidated.extents";
    Telemetry.count ~by:doomed_p "processor.invalidated.provenance";
    Telemetry.count ~by:(List.length doomed_i) "processor.invalidated.pinfo"
  end

(* -- provenance frames --------------------------------------------------- *)

let push_frame t =
  let f = { srcs = SS.empty; tainted = false } in
  t.frames <- f :: t.frames;
  f

let pop_frame t f =
  (match t.frames with
  | g :: rest when g == f -> t.frames <- rest
  | _ -> ());
  match t.frames with
  | parent :: _ ->
      parent.srcs <- SS.union parent.srcs f.srcs;
      if f.tainted then parent.tainted <- true
  | [] -> ()

let note_sources t ss =
  match t.frames with
  | [] -> ()
  | f :: _ -> f.srcs <- SS.union f.srcs ss

let note_skip ?(kind = Skip_faulty) t source reason =
  (match t.frames with [] -> () | f :: _ -> f.tainted <- true);
  if not (List.exists (fun (s, _, _) -> s = source) t.run_skipped) then
    t.run_skipped <- (source, reason, kind) :: t.run_skipped

(* Derive, for each object of [p.to_schema], its defining expression over
   the objects of [p.from_schema], by symbolically replaying the pathway. *)
let defs_of_pathway repo (p : Transform.pathway) : Ast.expr Scheme.Map.t =
  Telemetry.with_span "pathway.apply"
    ~attrs:(fun () ->
      [
        ("pathway", p.from_schema ^ " -> " ^ p.to_schema);
        ("steps", string_of_int (List.length p.steps));
      ])
  @@ fun () ->
  Telemetry.count "processor.pathway_applications";
  if Telemetry.active () then
    Telemetry.count ~by:(List.length p.steps) "processor.pathway_steps_replayed";
  let src =
    match Repository.schema repo p.from_schema with
    | Some s -> s
    | None -> err "pathway source schema %s is not registered" p.from_schema
  in
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
        err "query %s references %s, absent at this point of pathway %s -> %s"
          (Ast.to_string q) (Scheme.to_string s) p.from_schema p.to_schema
    | None -> q'
  in
  let init =
    List.fold_left
      (fun m o -> Scheme.Map.add o (Ast.SchemeRef o) m)
      Scheme.Map.empty (Schema.objects src)
  in
  List.fold_left
    (fun defs step ->
      match (step : Transform.prim) with
      | Add (o, q) -> Scheme.Map.add o (subst defs q) defs
      | Extend (o, ql, _) ->
          (* only the lower bound is derivable: certain answers *)
          Scheme.Map.add o (subst defs ql) defs
      | Delete (o, _) | Contract (o, _, _) -> Scheme.Map.remove o defs
      | Rename (a, b) -> (
          match Scheme.Map.find_opt a defs with
          | Some e -> Scheme.Map.add b e (Scheme.Map.remove a defs)
          | None -> err "rename of unknown object %s" (Scheme.to_string a))
      | Id (a, b) -> (
          if Scheme.equal a b then defs
          else
            match Scheme.Map.find_opt a defs with
            | Some e -> Scheme.Map.add b e defs
            | None -> err "id of unknown object %s" (Scheme.to_string a)))
    init p.steps

(* The reachability fast path.  Each stored pathway is analysed once:
   its live set lets replays be skipped entirely for objects whose
   derivation through it is provably empty — sound because the empty bag
   is the identity of the bag union that combines contributions.  Replays
   always use the stored pathway itself; certified rewriting is an
   offline tool ([lint --fix], [Maintain.compact]) whose result is
   journaled once and then simply replayed. *)
let live_set t (p : Transform.pathway) =
  if not t.prune then None
  else
    match Hashtbl.find_opt t.pinfo p with
    | Some live -> live
    | None ->
        let live =
          match Repository.schema t.repo p.from_schema with
          | None -> None
          | Some src -> Reachability.live_objects ~source:src p
        in
        Hashtbl.replace t.pinfo p live;
        live

(* -- the derivation walk ------------------------------------------------- *)

(* The one cycle guard: [f] runs with [schema] on the derivation stack. *)
let descend t schema f =
  if List.mem schema t.visiting then
    err "cycle in pathway network at schema %s" schema;
  t.visiting <- schema :: t.visiting;
  Fun.protect ~finally:(fun () -> t.visiting <- List.tl t.visiting) f

(* What one pathway into a schema yields for one of its objects. *)
type contribution =
  | Pruned  (* reachability proves the contribution empty *)
  | Undefined  (* the object is deleted or contracted along the pathway *)
  | Defined of Ast.expr  (* its view definition over the pathway's source *)

(* The one pathway enumeration that plain and annotated extents,
   reformulation and explain all interpret.  Each pathway into [schema]
   is decided and handed to [f] before the next one is analysed, so
   replays, evaluations and spans interleave depth-first.  [evolved]
   marks a degraded run crossing a pathway from an evolved-away source:
   the quarantined pathway yields nothing, but the run must account for
   the support the answer can no longer have. *)
let contributions t ~schema o f =
  List.filter_map
    (fun (p : Transform.pathway) ->
      let evolved = t.degraded && Repository.retired t.repo p.from_schema in
      if evolved then
        note_skip ~kind:Skip_evolved t p.from_schema "source evolved away";
      let c =
        match live_set t p with
        | Some live when not (Scheme.Set.mem o live) ->
            Telemetry.count "processor.pathways_pruned";
            Pruned
        | _ -> (
            match Scheme.Map.find_opt o (defs_of_pathway t.repo p) with
            | None -> Undefined
            | Some e -> Defined e)
      in
      f p ~evolved c)
    (Repository.pathways_into t.repo schema)

let schema_exn t schema =
  match Repository.schema t.repo schema with
  | Some s -> s
  | None -> err "no schema %s" schema

let check_object sch ~schema o =
  if not (Schema.mem o sch) then
    err "schema %s has no object %s" schema (Scheme.to_string o)

(* The memoised extent, plain or annotated: a cached result is served
   with its contributing sources; otherwise [compute] runs on the
   derivation stack inside a provenance frame and a [processor.extent]
   span.  A result computed while a source was skipped is partial:
   serving it after the source recovers would be a staleness bug, so
   only untainted results are cached. *)
let memo_extent t cache ~schema o compute =
  match EH.find_opt cache (schema, o) with
  | Some (v, srcs) ->
      Telemetry.count "processor.extent.cache_hits";
      note_sources t srcs;
      v
  | None ->
      Telemetry.count "processor.extent.cache_misses";
      descend t schema @@ fun () ->
      check_object (schema_exn t schema) ~schema o;
      let frame = push_frame t in
      let v =
        Telemetry.with_span "processor.extent"
          ~attrs:(fun () ->
            [ ("schema", schema); ("object", Scheme.to_string o) ])
          (fun () -> Fun.protect ~finally:(fun () -> pop_frame t frame) compute)
      in
      if not frame.tainted then EH.replace cache (schema, o) (v, frame.srcs);
      v

(* The raw source fetch, routed through the resilience kernel when the
   schema is a registered source.  In degraded mode an exhausted fetch
   becomes a recorded skip (contributing nothing); otherwise it is a
   query error. *)
let fetch_stored t ~schema o :
    [ `Stored of Value.Bag.t | `Absent | `Skipped of string * skip_kind ] =
  let fetch () = Repository.stored_extent t.repo ~schema o in
  let classify = function
    | Some b ->
        note_sources t (SS.singleton schema);
        `Stored b
    | None -> `Absent
  in
  if Repository.retired t.repo schema then
    (* evolved away: permanent, so no retries and no breaker involvement *)
    let reason = "source evolved away" in
    if t.degraded then begin
      Telemetry.count "source.skipped";
      Telemetry.count "source.skipped_evolved";
      if Telemetry.active () then Telemetry.annotate "evolved" schema;
      note_skip ~kind:Skip_evolved t schema reason;
      `Skipped (reason, Skip_evolved)
    end
    else
      err "source %s evolved away (retired by schema evolution)" schema
  else
  match t.resilience with
  | Some r when Resilience.covers r schema -> (
      match Resilience.call r ~source:schema fetch with
      | Ok res -> classify res
      | Error f ->
          let reason = Fmt.str "%a" Resilience.pp_failure f in
          if t.degraded then begin
            Telemetry.count "source.skipped";
            if Telemetry.active () then Telemetry.annotate "skipped" schema;
            note_skip t schema reason;
            `Skipped (reason, Skip_faulty)
          end
          else err "%s" reason)
  | _ -> classify (fetch ())

let fetch_stored_traced t ~schema o =
  Telemetry.with_span "source.fetch"
    ~attrs:(fun () -> [ ("schema", schema); ("object", Scheme.to_string o) ])
    (fun () ->
      let r = fetch_stored t ~schema o in
      (if Telemetry.active () then
         match r with
         | `Stored b ->
             let rows = Value.Bag.cardinal b in
             Telemetry.annotate "rows" (string_of_int rows);
             Telemetry.count ~by:rows "processor.rows_fetched"
         | `Absent -> Telemetry.annotate "stored" "false"
         | `Skipped _ -> ());
      r)

let non_collection e ~schema v =
  err "query %s over %s produced a non-collection %s" (Ast.to_string e) schema
    (Value.to_string v)

(* -- plain extents: the bag union of the stored extent and every
   pathway's evaluated view definition ------------------------------------ *)

let rec extent_exn t ~schema o =
  memo_extent t t.cache ~schema o @@ fun () ->
  let stored =
    match fetch_stored_traced t ~schema o with
    | `Stored b -> [ b ]
    | `Absent | `Skipped _ -> []
  in
  let derived =
    contributions t ~schema o (fun p ~evolved:_ -> function
      | Defined e -> Some (eval_over t ~schema:p.from_schema e)
      | Pruned | Undefined -> None)
  in
  List.fold_left Value.Bag.union Value.Bag.empty (stored @ derived)

and plain_env t ~schema =
  Eval.env ~schemes:(fun s -> Some (extent_exn t ~schema s)) ()

and eval_over t ~schema e =
  match Eval.eval (plain_env t ~schema) e with
  | Ok (Value.Bag b) -> b
  | Ok v -> non_collection e ~schema v
  | Error e -> err "%s" (Fmt.str "%a" Eval.pp_error e)

let extent_of t ~schema o =
  match extent_exn t ~schema o with
  | bag -> Ok bag
  | exception Err e -> Error (add_context ~schema e)

(* -- annotated extents: the same walk over lineage-carrying bags.  Stored
   rows are tagged with their extent atom and the telemetry span id of the
   fetch; every pathway crossing stamps a hop; a degraded-mode skip leaves
   a marker in the ambient lineage ------------------------------------------ *)

let rec extent_av t ~schema o : Peval.entry list * Lineage.t =
  memo_extent t t.pcache ~schema o @@ fun () ->
  let base =
    match fetch_stored_traced t ~schema o with
    | `Stored b ->
        (* the atom is ambient too, so an empty stored extent is cited *)
        let lin =
          Lineage.atom ?span:(Telemetry.current_span_id ()) ~source:schema o
        in
        (List.map (fun (v, n) -> { Peval.v; n; lin }) b, lin)
    | `Absent -> ([], Lineage.empty)
    | `Skipped (_reason, Skip_faulty) -> ([], Lineage.skip schema)
    | `Skipped (_reason, Skip_evolved) -> ([], Lineage.skip_evolved schema)
  in
  let derived =
    contributions t ~schema o (fun p ~evolved -> function
      | Pruned | Undefined ->
          if evolved then Some ([], Lineage.skip_evolved p.from_schema)
          else None
      | Defined e ->
          let es, amb = eval_over_av t ~schema:p.from_schema e in
          let amb =
            if evolved then
              Lineage.union amb (Lineage.skip_evolved p.from_schema)
            else amb
          in
          let hop =
            {
              Lineage.pathway = p.from_schema ^ "->" ^ p.to_schema;
              steps = List.length p.steps;
            }
          in
          Some
            ( List.map
                (fun (en : Peval.entry) ->
                  { en with lin = Lineage.add_hop hop en.lin })
                es,
              Lineage.add_hop hop amb ))
  in
  List.fold_left
    (fun (es, amb) (es', amb') ->
      (Peval.merge_entries es es', Lineage.union amb amb'))
    base derived

and annotated_env t ~schema =
  Peval.env
    ~schemes:(fun s ->
      let es, amb = extent_av t ~schema s in
      Some (Peval.abag es amb))
    ()

and eval_over_av t ~schema e =
  match Peval.eval (annotated_env t ~schema) e with
  | Ok (Peval.ABag (es, amb)) -> (es, amb)
  | Ok av -> non_collection e ~schema (Peval.value_of av)
  | Error e -> err "%s" (Fmt.str "%a" Peval.pp_error e)

(* -- runs ---------------------------------------------------------------- *)

let check_refs t ~schema q =
  let sch = schema_exn t schema in
  Scheme.Set.iter (check_object sch ~schema) (Ast.schemes q)

(* The request scaffold of plain and annotated runs: reference check,
   optimisation, and error context carrying the size of the expression
   actually evaluated. *)
let evaluate ~optimize ~pp t ~schema q eval =
  let evaluated = ref q in
  match
    check_refs t ~schema q;
    let q = if optimize then Automed_iql.Optimize.optimize q else q in
    evaluated := q;
    eval q
  with
  | Ok v -> Ok v
  | Error e ->
      Error (error ~schema ~expr_size:(Ast.size !evaluated) (Fmt.str "%a" pp e))
  | exception Err e ->
      Error (add_context ~schema ~expr_size:(Ast.size !evaluated) e)

let run_internal ~optimize t ~schema q =
  evaluate ~optimize ~pp:Eval.pp_error t ~schema q (fun q ->
      Eval.eval (plain_env t ~schema) q)

let run ?(optimize = true) t ~schema q =
  Telemetry.with_span "processor.run" ~attrs:(fun () -> [ ("schema", schema) ])
  @@ fun () ->
  Telemetry.count "processor.runs";
  run_internal ~optimize t ~schema q

(* -- provenance-annotated runs ------------------------------------------- *)

type annotated_tuple = {
  value : Value.t;
  count : int;
  lineage : Lineage.t;
  mac : string;
}

type annotated = {
  result : Value.t;
  tuples : annotated_tuple list;
  lineage : Lineage.t;
}

let default_mac_key = "automed-provenance-v1"

let run_provenance_internal ~optimize ~key t ~schema q =
  evaluate ~optimize ~pp:Peval.pp_error t ~schema q (fun q ->
      Peval.eval (annotated_env t ~schema) q)
  |> Result.map (fun av ->
         let sign v lin = Lineage.sign ~key v lin in
         let tuples =
           match av with
           | Peval.ABag (es, _) ->
               List.map
                 (fun (e : Peval.entry) ->
                   { value = e.v; count = e.n; lineage = e.lin;
                     mac = sign e.v e.lin })
                 es
           | Peval.Scalar (v, l) ->
               [ { value = v; count = 1; lineage = l; mac = sign v l } ]
         in
         { result = Peval.value_of av; tuples; lineage = Peval.lineage_of av })

let run_provenance ?(optimize = true) ?(key = default_mac_key) t ~schema q =
  Telemetry.with_span "processor.run"
    ~attrs:(fun () -> [ ("schema", schema); ("provenance", "true") ])
  @@ fun () ->
  Telemetry.count "processor.runs";
  Telemetry.count "processor.provenance_runs";
  run_provenance_internal ~optimize ~key t ~schema q

(* -- graceful degradation ------------------------------------------------ *)

type completeness = {
  complete : bool;
  sources_ok : string list;
  sources_skipped : (string * string) list;
  sources_evolved : string list;
  retries : int;
  breaker_opens : int;
  short_circuits : int;
  source_impact : (string * int) list;
}

let pp_completeness ppf c =
  Fmt.pf ppf "%s (%d source%s answered, %d skipped)"
    (if c.complete then "COMPLETE" else "DEGRADED")
    (List.length c.sources_ok)
    (if List.length c.sources_ok = 1 then "" else "s")
    (List.length c.sources_skipped);
  (match c.sources_ok with
  | [] -> ()
  | ok -> Fmt.pf ppf "@\n  ok: %s" (String.concat ", " ok));
  List.iter
    (fun (s, reason) ->
      if List.mem s c.sources_evolved then
        Fmt.pf ppf "@\n  evolved away: %s" s
      else Fmt.pf ppf "@\n  skipped: %s (%s)" s reason;
      match List.assoc_opt s c.source_impact with
      | Some n -> Fmt.pf ppf " — could have affected %d answer tuple%s" n
                    (if n = 1 then "" else "s")
      | None -> ())
    c.sources_skipped;
  if c.retries > 0 || c.breaker_opens > 0 || c.short_circuits > 0 then
    Fmt.pf ppf "@\n  retries: %d, breaker opens: %d, short circuits: %d"
      c.retries c.breaker_opens c.short_circuits

(* Runs [f] with degraded-mode skips enabled and builds the completeness
   report around it; shared by the plain and the provenance-annotated
   degraded entry points. *)
let degraded_scope t f =
  let before =
    match t.resilience with
    | Some r -> Resilience.totals r
    | None -> Resilience.zero_stats
  in
  let saved_degraded = t.degraded and saved_skipped = t.run_skipped in
  t.degraded <- true;
  t.run_skipped <- [];
  let root = push_frame t in
  let finish () =
    pop_frame t root;
    let skipped = List.rev t.run_skipped in
    t.degraded <- saved_degraded;
    t.run_skipped <- saved_skipped;
    let after =
      match t.resilience with
      | Some r -> Resilience.totals r
      | None -> Resilience.zero_stats
    in
    {
      complete = skipped = [];
      sources_ok = SS.elements root.srcs;
      sources_skipped = List.map (fun (s, r, _) -> (s, r)) skipped;
      sources_evolved =
        List.filter_map
          (fun (s, _, k) -> if k = Skip_evolved then Some s else None)
          skipped;
      retries = after.Resilience.retries - before.Resilience.retries;
      breaker_opens =
        after.Resilience.breaker_opens - before.Resilience.breaker_opens;
      short_circuits =
        after.Resilience.short_circuits - before.Resilience.short_circuits;
      source_impact = [];
    }
  in
  match f () with
  | Ok v ->
      let c = finish () in
      if not c.complete then Telemetry.count "processor.degraded_answers";
      Ok (v, c)
  | Error e ->
      ignore (finish ());
      Error e
  | exception e ->
      ignore (finish ());
      raise e

let run_degraded ?(optimize = true) t ~schema q =
  Telemetry.with_span "processor.run"
    ~attrs:(fun () -> [ ("schema", schema); ("degraded", "true") ])
  @@ fun () ->
  Telemetry.count "processor.runs";
  Telemetry.count "processor.degraded_runs";
  degraded_scope t (fun () -> run_internal ~optimize t ~schema q)

let run_degraded_provenance ?(optimize = true) ?(key = default_mac_key) t
    ~schema q =
  Telemetry.with_span "processor.run"
    ~attrs:(fun () ->
      [ ("schema", schema); ("degraded", "true"); ("provenance", "true") ])
  @@ fun () ->
  Telemetry.count "processor.runs";
  Telemetry.count "processor.degraded_runs";
  match
    degraded_scope t (fun () ->
        run_provenance_internal ~optimize ~key t ~schema q)
  with
  | Ok (ann, c) ->
      (* per-source lineage counts: how many answer tuples flowed through
         a bag the skipped source should have fed *)
      let source_impact =
        List.map
          (fun (s, _) ->
            ( s,
              List.fold_left
                (fun acc (tp : annotated_tuple) ->
                  if Lineage.cites_skip s tp.lineage then acc + tp.count
                  else acc)
                0 ann.tuples ))
          c.sources_skipped
      in
      Ok (ann, { c with source_impact })
  | (Error _ as e) -> e

let run_string t ~schema text =
  match Parser.parse text with
  | Error e -> Error (error ~schema e)
  | Ok q -> run t ~schema q

(* -- reformulation ----------------------------------------------------- *)

let rec unfold_expr t ~schema q =
  Ast.subst_schemes (fun o -> Some (unfold_scheme t ~schema o)) q

and unfold_scheme t ~schema o =
  descend t schema @@ fun () ->
  let stored =
    match Repository.stored_extent t.repo ~schema o with
    | Some _ -> [ Ast.SchemeRef (Scheme.prefix schema o) ]
    | None -> []
  in
  let derived =
    contributions t ~schema o (fun p ~evolved:_ -> function
      | Defined e -> Some (unfold_expr t ~schema:p.from_schema e)
      | Pruned | Undefined -> None)
  in
  match stored @ derived with
  | [] -> Ast.Void (* no derivation: certain answers are empty *)
  | [ e ] -> e
  | e :: rest -> List.fold_left (fun acc e -> Ast.Binop (Union, acc, e)) e rest

let reformulate t ~schema q =
  Telemetry.with_span "processor.reformulate"
    ~attrs:(fun () -> [ ("schema", schema) ])
  @@ fun () ->
  Telemetry.count "processor.reformulations";
  match
    check_refs t ~schema q;
    unfold_expr t ~schema q
  with
  | q' ->
      (if Telemetry.active () then
         let n = Ast.size q' in
         Telemetry.annotate "reformulated_size" (string_of_int n);
         Telemetry.observe "processor.reformulated_size" (float_of_int n));
      Ok q'
  | exception Err e -> Error (add_context ~schema e)

(* -- explain: the plan story --------------------------------------------- *)

type cache_state = Cache_hit | Cache_cold

type explain_pathway = {
  ep_from : string;
  ep_steps : int;
  ep_decision : explain_decision;
}

and explain_decision =
  | Applied of explain_node list
  | Pruned of string
  | No_definition of string

and explain_node = {
  en_schema : string;
  en_object : Scheme.t;
  en_stored : bool;
  en_rows : int option;
  en_cached : cache_state;
  en_pathways : explain_pathway list;
}

type explain = {
  ex_schema : string;
  ex_query : Ast.expr;
  ex_optimized : Ast.expr;
  ex_roots : explain_node list;
}

let rec explain_object t ~schema o =
  descend t schema @@ fun () ->
  let stored = Repository.stored_extent t.repo ~schema o in
  let pathways =
    contributions t ~schema o (fun p ~evolved:_ (c : contribution) ->
        let ep_decision =
          match c with
          | Pruned ->
              Pruned
                "reachability: no stored extent is live under this \
                 pathway's definition of the object, so its contribution \
                 is provably the empty bag"
          | Undefined ->
              No_definition
                "the object is deleted or contracted along the pathway: no \
                 view definition reaches the target"
          | Defined e ->
              Applied (explain_objects t ~schema:p.from_schema e)
        in
        Some
          { ep_from = p.from_schema; ep_steps = List.length p.steps;
            ep_decision })
  in
  {
    en_schema = schema;
    en_object = o;
    en_stored = stored <> None;
    en_rows = Option.map Value.Bag.cardinal stored;
    en_cached =
      (if EH.mem t.cache (schema, o) || EH.mem t.pcache (schema, o) then
         Cache_hit
       else Cache_cold);
    en_pathways = pathways;
  }

(* one node per object [e] reads, in scheme order *)
and explain_objects t ~schema e =
  List.map (explain_object t ~schema) (Scheme.Set.elements (Ast.schemes e))

let explain_plan ?(optimize = true) t ~schema q =
  Telemetry.with_span "processor.explain"
    ~attrs:(fun () -> [ ("schema", schema) ])
  @@ fun () ->
  Telemetry.count "processor.explains";
  match
    check_refs t ~schema q;
    let q' = if optimize then Automed_iql.Optimize.optimize q else q in
    { ex_schema = schema; ex_query = q; ex_optimized = q';
      ex_roots = explain_objects t ~schema q' }
  with
  | r -> Ok r
  | exception Err e -> Error (add_context ~schema e)

let pp_explain_node ppf node =
  let rec pp_node indent ppf n =
    Fmt.pf ppf "%s<%s> %s%s%s" indent n.en_schema
      (Scheme.to_string n.en_object)
      (match (n.en_stored, n.en_rows) with
      | true, Some rows -> Fmt.str " stored(%d rows)" rows
      | true, None -> " stored"
      | false, _ -> "")
      (match n.en_cached with
      | Cache_hit -> " [cached]"
      | Cache_cold -> "");
    List.iter
      (fun e ->
        Fmt.pf ppf "@\n%s  <- %s [%d steps] " indent e.ep_from e.ep_steps;
        match e.ep_decision with
        | Pruned reason -> Fmt.pf ppf "PRUNED: %s" reason
        | No_definition reason -> Fmt.pf ppf "NO DEFINITION: %s" reason
        | Applied children ->
            Fmt.pf ppf "applied";
            List.iter
              (fun c -> Fmt.pf ppf "@\n%a" (pp_node (indent ^ "    ")) c)
              children)
      n.en_pathways
  in
  pp_node "" ppf node

let pp_explain ppf e =
  Fmt.pf ppf "query over %s: %s" e.ex_schema (Ast.to_string e.ex_query);
  if not (Ast.equal e.ex_query e.ex_optimized) then
    Fmt.pf ppf "@\noptimized: %s" (Ast.to_string e.ex_optimized);
  List.iter (fun n -> Fmt.pf ppf "@\n%a" pp_explain_node n) e.ex_roots

let source_env t =
  Eval.env
    ~schemes:(fun s ->
      match Scheme.unprefix s with
      | Some (schema, base) -> Repository.stored_extent t.repo ~schema base
      | None -> None)
    ()

let answerable t ~schema q =
  match run t ~schema q with Ok _ -> true | Error _ -> false

(* Translate a query on [from_schema] onto [to_schema]: a pathway
   [to_schema -> from_schema] expresses every object of [from_schema]
   over [to_schema]'s objects; substituting those definitions rewrites
   the query.  find_path composes stored pathways and their reverses, so
   this works between any two connected schemas. *)
let translate t ~from_schema ~to_schema q =
  Telemetry.with_span "processor.translate"
    ~attrs:(fun () -> [ ("from", from_schema); ("to", to_schema) ])
  @@ fun () ->
  Telemetry.count "processor.translations";
  match
    check_refs t ~schema:from_schema q;
    match Repository.find_path t.repo ~src:to_schema ~dst:from_schema with
    | Error e -> err "%s" e
    | Ok pathway ->
        let defs = defs_of_pathway t.repo pathway in
        Ast.subst_schemes
          (fun o ->
            match Scheme.Map.find_opt o defs with
            | Some e -> Some e
            | None -> Some Ast.Void)
          q
  with
  | q' -> Ok q'
  | exception Err e -> Error (add_context ~schema:from_schema e)
