(* The dataspace benchmark.

   One closed-loop client in one process runs one of three workloads
   over the iSpider case study (see README.md for why each was chosen):

   - cold-small: a fresh processor per request at scale 30, the way
     every [automed query] / [automed explain] call starts;
   - session-large: a fresh processor per session of the seven
     priority queries at scale 300;
   - churn: evolve + maintenance tick + the seven queries plain, with
     provenance and as explains + restart probe per cycle, on a
     journaled store with faults injected on pedro.

   perfbench --workload NAME --seed N --seconds S --trace 0|1

   Every answer is checked; the last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}.  With [--trace 0] the
   metrics are the end-to-end ones, measured with no telemetry sink
   installed.  With [--trace 1] every other unit of work (request,
   session or churn epoch) runs under a [Telemetry.Memory] sink and the
   metrics are the per-layer ones: self time per layer from the spans
   (the program's own and the benchmark's wrappers around each layer's
   public entry points), counters, GC deltas, and the tracing overhead
   measured against the interleaved untraced units.  The program only
   ever sees generated inputs and default arguments. *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema
module Parser = Automed_iql.Parser
module Value = Automed_iql.Value
module Repository = Automed_repository.Repository
module Serialize = Automed_repository.Serialize
module Processor = Automed_query.Processor
module Lineage = Automed_provenance.Lineage
module Workflow = Automed_integration.Workflow
module Relational = Automed_datasource.Relational
module Sources = Automed_ispider.Sources
module Queries = Automed_ispider.Queries
module Intersection_run = Automed_ispider.Intersection_run
module Resilience = Automed_resilience.Resilience
module Durable = Automed_durable.Durable
module Vfs = Automed_durable.Vfs
module Evolution = Automed_evolution.Evolution
module Maintain = Automed_maintain.Maintain
module Telemetry = Automed_telemetry.Telemetry
module Memory = Telemetry.Memory

(* -- arguments ----------------------------------------------------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0

let () =
  let usage =
    "perfbench --workload cold-small|session-large|churn --seed N --seconds S \
     --trace 0|1"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the request order and faults");
      ("--seconds", Arg.Set_int seconds, "S length of the measured loop");
      ("--trace", Arg.Set_int trace, "0|1 untraced or per-layer traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end

let traced_run = !trace = 1

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let now = Unix.gettimeofday

(* -- tracing ------------------------------------------------------------- *)

(* True while the current unit of work runs under the memory sink. *)
let tracing = ref false
let mem = Memory.create ()
let span name f = if !tracing then Telemetry.with_span name f else f ()

(* Layers are the lib/ directories.  A span's self time (its duration
   minus what its child spans cover) goes to the layer it names; the
   benchmark's own "bench.op" root around each timed step keeps what no
   layer claims. *)
let layer_of_span = function
  | "bench.op" -> "unattributed"
  | "bench.processor.create" | "bench.processor.run"
  | "bench.processor.run_provenance" | "bench.processor.explain_plan"
  | "processor.run" | "processor.explain"
  | "processor.reformulate" | "processor.translate" ->
      "query.plan"
  | "processor.extent" | "pathway.apply" -> "query.extent"
  | "bench.parser.parse" -> "iql.parse"
  | "iql.eval" -> "iql.eval"
  | "transform.apply" -> "transform.apply"
  | "repository.find_path" -> "repository.find_path"
  | "source.fetch" -> "datasource.fetch"
  | "bench.sources.wrap_all" | "wrapper.wrap" | "wrapper.extent" ->
      "datasource.wrap"
  | "bench.intersection_run.execute" -> "core.integrate"
  | "bench.evolution.evolve" | "evolution.evolve" -> "evolution.evolve"
  | "bench.maintain.tick" -> "maintain.tick"
  | "bench.durable.recover" -> "durable.recover"
  | "bench.store.append" -> "durable.append"
  | "bench.store.checkpoint" -> "durable.checkpoint"
  | "bench.store.io" -> "durable.store"
  | n -> (
      match String.index_opt n '.' with Some i -> String.sub n 0 i | None -> n)

let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)
let tbl_add tbl k v = Hashtbl.replace tbl k (v +. get tbl k)

let layer_ms : (string, float) Hashtbl.t = Hashtbl.create 32
let span_ms : (string, float) Hashtbl.t = Hashtbl.create 32
let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let fold_trace () =
  let spans = Memory.spans mem in
  let covered = Hashtbl.create 256 in
  List.iter
    (fun (s : Memory.span) ->
      Option.iter (fun p -> tbl_add covered p s.dur) s.parent)
    spans;
  List.iter
    (fun (s : Memory.span) ->
      let self = s.dur -. get covered s.id in
      tbl_add layer_ms (layer_of_span s.name) (self *. 1000.0);
      tbl_add span_ms s.name (s.dur *. 1000.0))
    spans;
  List.iter
    (fun (n, v) -> tbl_add counters n (float_of_int v))
    (Memory.counters mem);
  Memory.reset mem

(* Whether the current unit of work is traced.  Timings of traced units
   stay out of the samples; only their layer figures are kept. *)
let unit_traced = ref false

(* Runs one unit of work (a request, a session or a cycle), under the
   memory sink when [traced]. *)
let in_unit traced f =
  unit_traced := traced;
  if not traced then f ()
  else begin
    tracing := true;
    let r =
      Fun.protect
        ~finally:(fun () -> tracing := false)
        (fun () -> Telemetry.with_sink (Memory.sink mem) f)
    in
    fold_trace ();
    r
  end

(* -- timed steps and operations ------------------------------------------ *)

(* An op is a request (cold-small), a query (session-large) or a cycle
   (churn).  It is made of timed steps; the op's time is the sum of its
   steps, so correctness checks between steps are never on the clock. *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 32
let record key ms =
  if not !unit_traced then
    Hashtbl.replace samples key
      (ms :: Option.value ~default:[] (Hashtbl.find_opt samples key))

let op_s = ref 0.0
let last_ms = ref 0.0
let gc_minor = ref 0.0
let gc_major = ref 0.0
let gc_collections = ref 0

let step f =
  let g0 = if !tracing then Some (Gc.quick_stat ()) else None in
  let t0 = now () in
  let r = span "bench.op" f in
  let dt = now () -. t0 in
  Option.iter
    (fun (g0 : Gc.stat) ->
      let g1 = Gc.quick_stat () in
      gc_minor := !gc_minor +. (g1.minor_words -. g0.minor_words);
      gc_major := !gc_major +. (g1.major_words -. g0.major_words);
      gc_collections :=
        !gc_collections + (g1.major_collections - g0.major_collections))
    g0;
  op_s := !op_s +. dt;
  last_ms := dt *. 1000.0;
  r

let attempted = ref 0
let failed = ref 0
let failures = ref []
let ops_traced = ref 0
let secs_traced = ref 0.0
let ops_untraced = ref 0
let secs_untraced = ref 0.0

let note_failure msg =
  if List.length !failures < 8 then failures := msg :: !failures

(* Ends an op: [problems] are the failed checks of this op. *)
let finish_op problems =
  incr attempted;
  if problems <> [] then begin
    incr failed;
    List.iter note_failure problems
  end;
  record "op" (!op_s *. 1000.0);
  if !unit_traced then begin
    incr ops_traced;
    secs_traced := !secs_traced +. !op_s
  end
  else begin
    incr ops_untraced;
    secs_untraced := !secs_untraced +. !op_s
  end;
  op_s := 0.0

(* -- statistics ---------------------------------------------------------- *)

let sorted key =
  let a =
    Array.of_list (Option.value ~default:[] (Hashtbl.find_opt samples key))
  in
  Array.sort compare a;
  a

(* Linear interpolation between closest ranks. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let p50 key = quantile (sorted key) 0.5
let p90 key = quantile (sorted key) 0.9
let count key = Array.length (sorted key)

(* -- the counting store -------------------------------------------------- *)

(* An in-memory [Vfs.t] that counts and times every read, append, write,
   rename and sync.  It is the only source of the durable.* metrics and
   of write_bytes_per_op.  Flush policy: sync is a counted no-op (data
   is "durable" as soon as it is in the buffer), identical for every
   commit measured, so no comparison ever includes device latency. *)
module Store = struct
  type io = {
    mutable reads : int;
    mutable read_bytes : int;
    mutable appends : int;
    mutable append_bytes : int;
    mutable writes : int;
    mutable write_bytes : int;
    mutable checkpoint_bytes : int;
    mutable renames : int;
    mutable syncs : int;
    mutable append_ms : float;
    mutable checkpoint_ms : float;
  }

  let zero () =
    {
      reads = 0;
      read_bytes = 0;
      appends = 0;
      append_bytes = 0;
      writes = 0;
      write_bytes = 0;
      checkpoint_bytes = 0;
      renames = 0;
      syncs = 0;
      append_ms = 0.0;
      checkpoint_ms = 0.0;
    }

  (* I/O of the traced units: live store and restart probes together. *)
  let traced = ref (zero ())

  type t = { files : (string, Buffer.t) Hashtbl.t; mutable io : io }

  let create () = { files = Hashtbl.create 8; io = zero () }

  let copy t =
    let files = Hashtbl.create 8 in
    Hashtbl.iter
      (fun name b ->
        let b' = Buffer.create (Buffer.length b) in
        Buffer.add_buffer b' b;
        Hashtbl.replace files name b')
      t.files;
    { files; io = zero () }

  let checkpoint name =
    name = Durable.checkpoint_file || name = Durable.checkpoint_tmp

  let vfs t : Vfs.t =
    let tally f =
      f t.io;
      if !tracing then f !traced
    in
    (* store time is taken only while tracing, under a span of its own *)
    let timed name f add =
      if not !tracing then f ()
      else
        let t0 = now () in
        let r = Telemetry.with_span name f in
        let ms = (now () -. t0) *. 1000.0 in
        tally (fun io -> add io ms);
        r
    in
    let to_checkpoint io ms = io.checkpoint_ms <- io.checkpoint_ms +. ms in
    let untimed _ _ = () in
    let buffer name =
      match Hashtbl.find_opt t.files name with
      | Some b -> b
      | None ->
          let b = Buffer.create 4096 in
          Hashtbl.replace t.files name b;
          b
    in
    let no_file name = Error (name ^ ": no such file") in
    {
      label = "perfbench-memory";
      read =
        (fun name ->
          timed "bench.store.io"
            (fun () ->
              match Hashtbl.find_opt t.files name with
              | None -> no_file name
              | Some b ->
                  let s = Buffer.contents b in
                  tally (fun io ->
                      io.reads <- io.reads + 1;
                      io.read_bytes <- io.read_bytes + String.length s);
                  Ok s)
            untimed);
      write =
        (fun name data ->
          let cp = checkpoint name in
          timed
            (if cp then "bench.store.checkpoint" else "bench.store.io")
            (fun () ->
              let b = buffer name in
              Buffer.clear b;
              Buffer.add_string b data;
              let n = String.length data in
              tally (fun io ->
                  io.writes <- io.writes + 1;
                  io.write_bytes <- io.write_bytes + n;
                  if cp then io.checkpoint_bytes <- io.checkpoint_bytes + n);
              Ok ())
            (if cp then to_checkpoint else untimed));
      append =
        (fun name data ->
          timed "bench.store.append"
            (fun () ->
              Buffer.add_string (buffer name) data;
              tally (fun io ->
                  io.appends <- io.appends + 1;
                  io.append_bytes <- io.append_bytes + String.length data);
              Ok ())
            (fun io ms -> io.append_ms <- io.append_ms +. ms));
      rename =
        (fun ~old_name ~new_name ->
          timed "bench.store.checkpoint"
            (fun () ->
              match Hashtbl.find_opt t.files old_name with
              | None -> no_file old_name
              | Some b ->
                  Hashtbl.remove t.files old_name;
                  Hashtbl.replace t.files new_name b;
                  tally (fun io -> io.renames <- io.renames + 1);
                  Ok ())
            to_checkpoint);
      exists = (fun name -> Hashtbl.mem t.files name);
      remove =
        (fun name ->
          Hashtbl.remove t.files name;
          Ok ());
      sync =
        (fun _ ->
          tally (fun io -> io.syncs <- io.syncs + 1);
          Ok ());
    }
end

(* -- shared helpers ------------------------------------------------------ *)

let ok_or_die what = function Ok v -> v | Error e -> die "%s: %s" what e

let perr e = Fmt.str "%a" Processor.pp_error e

let parse (q : Queries.query) =
  span "bench.parser.parse" (fun () -> Parser.parse q.Queries.global_text)

(* Ground truth of the seven queries, computed from the generated data
   without the integration machinery. *)
let truths dataset =
  List.map
    (fun (q : Queries.query) ->
      (q.Queries.number, Value.Bag (q.Queries.ground_truth dataset)))
    Queries.all

let data_rows = ref 0

let count_rows (d : Sources.dataset) =
  data_rows :=
    List.fold_left
      (fun acc db ->
        List.fold_left
          (fun acc t -> acc + Relational.row_count t)
          acc (Relational.tables db))
      0
      [ d.Sources.pedro; d.Sources.gpmdb; d.Sources.pepseeker ]

let check_answer truth (q : Queries.query) v =
  if Value.compare v (List.assoc q.Queries.number truth) = 0 then []
  else
    [ Printf.sprintf "Q%d: answer differs from ground truth" q.Queries.number ]

let setup_runs = 5
let setup_times = ref []

(* Set-up runs [setup_runs] times; the last state is kept and the median
   is setup_s.  Traced runs trace set-up too, for the wrap/integrate
   layer times. *)
let setup f =
  let once () =
    Gc.compact ();
    let t0 = now () in
    let v = in_unit traced_run f in
    setup_times := (now () -. t0) :: !setup_times;
    v
  in
  for _ = 2 to setup_runs do
    ignore (once ())
  done;
  let v = once () in
  Gc.compact ();
  v

let integrate ?resilience repo dataset =
  ok_or_die "wrap"
    (span "bench.sources.wrap_all" (fun () ->
         Sources.wrap_all ?resilience repo dataset));
  ok_or_die "integrate"
    (span "bench.intersection_run.execute" (fun () ->
         Intersection_run.execute ?resilience repo))

(* The three sources generated at [scale], wrapped and integrated. *)
let integrated scale () =
  let dataset = Sources.generate ~scale () in
  let repo = Repository.create () in
  let run = integrate repo dataset in
  (dataset, repo, Workflow.global_name run.Intersection_run.workflow)

(* Set-up layer figures, read off the traced set-ups before the loop. *)
let figures = Hashtbl.create 8

(* Ends set-up: keeps its layer figures, clears every accumulator for the
   loop, and returns the ground truth of the dataset. *)
let end_setup dataset =
  count_rows dataset;
  let n = float_of_int setup_runs in
  Hashtbl.replace figures "datasource.wrap_ms"
    (get span_ms "bench.sources.wrap_all" /. n);
  Hashtbl.replace figures "core.integrate_ms"
    (get span_ms "bench.intersection_run.execute" /. n);
  Hashtbl.replace figures "datasource.rows_materialized"
    (get counters "wrapper.rows_materialized" /. n);
  Store.traced := Store.zero ();
  Hashtbl.reset layer_ms;
  Hashtbl.reset span_ms;
  Hashtbl.reset counters;
  Hashtbl.reset samples;
  gc_minor := 0.0;
  gc_major := 0.0;
  gc_collections := 0;
  truths dataset

let deadline () = now () +. float_of_int !seconds

(* -- cold-small ---------------------------------------------------------- *)

type kind = Plain | Provenance | Explain

let kind_key = function
  | Plain -> "query"
  | Provenance -> "provenance"
  | Explain -> "explain"

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let check_provenance truth q (a : Processor.annotated) =
  check_answer truth q a.Processor.result
  @
  if
    List.for_all
      (fun (t : Processor.annotated_tuple) ->
        Lineage.verify ~key:Processor.default_mac_key t.value t.lineage t.mac)
      a.Processor.tuples
  then []
  else
    [
      Printf.sprintf "Q%d: a provenance tuple fails Lineage.verify"
        q.Queries.number;
    ]

(* One timed request: parse [q], get the processor to ask (a fresh one,
   or a live workflow's) and run it plain, with provenance or as an
   explain.  Returns the failed checks. *)
let request ~truth ~target kind (q : Queries.query) =
  let outcome =
    step (fun () ->
        match parse q with
        | Error e -> `Failed e
        | Ok expr -> (
            let p, schema = target () in
            match kind with
            | Plain -> (
                match
                  span "bench.processor.run" (fun () ->
                      Processor.run p ~schema expr)
                with
                | Ok v -> `Plain v
                | Error e -> `Failed (perr e))
            | Provenance -> (
                match
                  span "bench.processor.run_provenance" (fun () ->
                      Processor.run_provenance p ~schema expr)
                with
                | Ok a -> `Provenance a
                | Error e -> `Failed (perr e))
            | Explain -> (
                match
                  span "bench.processor.explain_plan" (fun () ->
                      Processor.explain_plan p ~schema expr)
                with
                | Ok _ -> `Explained
                | Error e -> `Failed (perr e))))
  in
  let key = kind_key kind in
  record key !last_ms;
  record (Printf.sprintf "%s.q%d" key q.Queries.number) !last_ms;
  match outcome with
  | `Failed e -> [ Printf.sprintf "Q%d %s: %s" q.Queries.number key e ]
  | `Plain v -> check_answer truth q v
  | `Provenance a -> check_provenance truth q a
  | `Explained -> []

let cold_small () =
  let dataset, repo, schema = setup (integrated 30) in
  let truth = end_setup dataset in
  let rng = Random.State.make [| !seed |] in
  let requests =
    Array.of_list
      (List.concat_map
         (fun q -> [ (Plain, q); (Provenance, q); (Explain, q) ])
         Queries.all)
  in
  let stop = deadline () in
  let unit_index = ref 0 in
  (* whole shuffled rounds, so every (kind, query) pair is sampled
     equally often *)
  while now () < stop do
    shuffle rng requests;
    Array.iter
      (fun (kind, (q : Queries.query)) ->
        let traced = traced_run && !unit_index mod 2 = 1 in
        incr unit_index;
        let target () =
          ( span "bench.processor.create" (fun () -> Processor.create repo),
            schema )
        in
        in_unit traced (fun () ->
            finish_op (request ~truth ~target kind q)))
      requests
  done

(* -- session-large ------------------------------------------------------- *)

let session_large () =
  let dataset, repo, schema = setup (integrated 300) in
  let truth = end_setup dataset in
  let stop = deadline () in
  let session = ref 0 in
  while now () < stop do
    let traced = traced_run && !session mod 2 = 1 in
    incr session;
    in_unit traced (fun () ->
        let p =
          lazy
            (span "bench.processor.create" (fun () -> Processor.create repo))
        in
        let target () = (Lazy.force p, schema) in
        (* the paper's priority order: the queries share extents, so a
           shuffled order would move the medians between runs *)
        List.iter
          (fun q -> finish_op (request ~truth ~target Plain q))
          Queries.all)
  done

(* -- churn --------------------------------------------------------------- *)

(* The E-E1/E-M1 churn script: cycle [i] belongs to block [i/5] and
   plays one of five phases, adding and retiring satellite sources and
   altering scratch objects of pedro.  It never touches a queried
   object, so every answer must stay equal to ground truth. *)
let churn_delta i =
  let k = string_of_int (i / 5) in
  match i mod 5 with
  | 0 ->
      let name = "sat" ^ k in
      let table = Scheme.table ("s" ^ k) in
      let schema =
        ok_or_die "churn schema" (Schema.of_objects name [ (table, None) ])
      in
      let rows =
        Value.Bag.of_list [ Value.Str (name ^ "-r1"); Value.Str (name ^ "-r2") ]
      in
      Evolution.Add_source (schema, [ (table, rows) ])
  | 1 ->
      Evolution.Alter
        ( Sources.pedro_name,
          [ Repository.Alter_add_object (Scheme.table ("tmp" ^ k), None) ] )
  | 2 ->
      Evolution.Alter
        ( Sources.pedro_name,
          [
            Repository.Alter_add_object
              (Scheme.column ("tmp" ^ k) "note", None);
          ] )
  | 3 ->
      Evolution.Alter
        ( Sources.pedro_name,
          [
            Repository.Alter_drop_object (Scheme.column ("tmp" ^ k) "note");
            Repository.Alter_rename_object
              (Scheme.table ("tmp" ^ k), Scheme.table ("kept" ^ k));
          ] )
  | _ -> Evolution.Drop_source ("sat" ^ k)

(* E-M1's policy: enough retries that a 20% fault rate never exhausts a
   fetch, and no breaker. *)
let churn_policy =
  {
    Resilience.Policy.default with
    Resilience.Policy.retries = 10;
    Resilience.Policy.breaker_threshold = 0;
  }

let churn_fault_rate = 0.2

(* Pedro's retries and completed fetches during traced cycles. *)
let retries = ref 0
let fetches = ref 0

(* A fresh journaled dataspace: the three sources wrapped and integrated
   into an attached counting store, faults on pedro. *)
let churn_state epoch () =
  let dataset = Sources.generate ~scale:30 () in
  let store = Store.create () in
  let repo = Repository.create () in
  let durable = ok_or_die "attach" (Durable.attach (Store.vfs store) repo) in
  let res =
    Resilience.create
      ~seed:(Int64.of_int ((!seed * 1000) + epoch))
      ~policy:churn_policy ()
  in
  let run = integrate ~resilience:res repo dataset in
  Resilience.inject res ~source:Sources.pedro_name
    (Resilience.Fault.rate churn_fault_rate);
  (dataset, store, durable, res, run.Intersection_run.workflow)

(* The churn restarts from a fresh set-up every [epoch_cycles] cycles and
   runs whole epochs only, so its figures do not depend on how many
   cycles a run reaches.  40 cycles see every maintenance action fire:
   compactions and checkpoints about every 12 cycles, and a reclamation
   at cycle 35, once seven satellite sources have retired. *)
let epoch_cycles = 40

let churn () =
  let dataset, _, _, _, _ = setup (churn_state 0) in
  let truth = end_setup dataset in
  let stop = deadline () in
  let epoch = ref 0 in
  let written = ref 0 in
  while now () < stop do
    let _, store, durable, res, wf = churn_state !epoch () in
    (* whole epochs alternate, so a traced epoch sees every maintenance
       action of its cycle range *)
    let traced = traced_run && !epoch mod 2 = 1 in
    incr epoch;
    store.Store.io <- Store.zero ();
    let scheduler = Maintain.Scheduler.create () in
    let live = Workflow.repository wf in
    for i = 0 to epoch_cycles - 1 do
      let stats0 = Resilience.stats res Sources.pedro_name in
      let problems = ref [] in
      let problem s = problems := s :: !problems in
      let recovered =
        in_unit traced (fun () ->
            (match
               step (fun () ->
                   span "bench.evolution.evolve" (fun () ->
                       Evolution.evolve wf (churn_delta i)))
             with
            | Ok _ -> ()
            | Error e -> problem ("evolve: " ^ e));
            record "evolve" !last_ms;
            (match
               step (fun () ->
                   span "bench.maintain.tick" (fun () ->
                       Maintain.Scheduler.tick ~durable ~resilience:res
                         scheduler wf))
             with
            | Ok [] -> record "idle_tick" !last_ms
            | Ok _ -> record "action_tick" !last_ms
            | Error e -> problem ("tick: " ^ e));
            (* the seven queries on the live workflow, then their
               lineage and their plans *)
            let target () = (Workflow.processor wf, Workflow.global_name wf) in
            List.iter
              (fun kind ->
                List.iter
                  (fun q -> List.iter problem (request ~truth ~target kind q))
                  Queries.all)
              [ Plain; Provenance; Explain ];
            (* restart probe: recover a copy of the store as a restarted
               process would find it *)
            let probe = Store.copy store in
            let recovered =
              step (fun () ->
                  span "bench.durable.recover" (fun () ->
                      Durable.recover (Store.vfs probe)))
            in
            record "recover" !last_ms;
            recovered)
      in
      (match recovered with
      | Error e -> problem ("recover: " ^ e)
      | Ok (d, _) ->
          Durable.detach d;
          if
            Serialize.save ~extents:true (Durable.repository d)
            <> Serialize.save ~extents:true live
          then problem "recovered repository differs from the live one");
      if traced then begin
        let s1 = Resilience.stats res Sources.pedro_name in
        retries := !retries + s1.Resilience.retries - stats0.Resilience.retries;
        fetches :=
          !fetches + s1.Resilience.successes + s1.Resilience.failures
          - stats0.Resilience.successes - stats0.Resilience.failures
      end;
      finish_op (List.rev !problems)
    done;
    written :=
      !written + store.Store.io.Store.append_bytes
      + store.Store.io.Store.write_bytes
  done;
  (* exact bytes the live stores took per cycle, checkpoints included *)
  Hashtbl.replace figures "write_bytes_per_op"
    (float_of_int !written /. float_of_int (!epoch * epoch_cycles))

(* -- reporting ----------------------------------------------------------- *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result metrics =
  let correct = !failed = 0 && !attempted > 0 in
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct !attempted !failed body;
  correct

let median_of xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  quantile a 0.5

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let rate ops secs = float_of_int ops /. Float.max 1e-9 secs
let ops_per_s () = rate !ops_untraced !secs_untraced
let traced_ops_per_s () = rate !ops_traced !secs_traced

let report_line name unit_ v n =
  if Float.is_nan v then Printf.printf "  %-28s %12s %-6s\n" name "n/a" unit_
  else if n > 0 then
    Printf.printf "  %-28s %12.3f %-6s (n=%d)\n" name v unit_ n
  else Printf.printf "  %-28s %12.3f %-6s\n" name v unit_

(* The end-to-end metrics of every workload.  Kinds a workload does not
   run (provenance in session-large, evolve in cold-small, ...) are
   reported as n/a in the text and left out of the JSON, whose metrics
   every workload measures. *)
let end_to_end () =
  let setup_s = median_of !setup_times in
  let write_bytes =
    Option.value ~default:nan (Hashtbl.find_opt figures "write_bytes_per_op")
  in
  Printf.printf
    "%s: end-to-end (%d rows, %d ops, %d failed, seed %d, %ds loop)\n"
    !workload !data_rows !attempted !failed !seed !seconds;
  report_line "setup_s" "s" setup_s setup_runs;
  report_line "ops_per_s" "1/s" (ops_per_s ()) !ops_untraced;
  report_line "failed_frac" "ratio"
    (float_of_int !failed /. float_of_int (max 1 !attempted))
    !attempted;
  List.iter
    (fun key ->
      report_line (key ^ "_ms.p50") "ms" (p50 key) (count key);
      report_line (key ^ "_ms.p90") "ms" (p90 key) (count key))
    [ "op"; "query"; "provenance"; "explain"; "evolve"; "recover";
      "idle_tick"; "action_tick" ];
  List.iter
    (fun (q : Queries.query) ->
      List.iter
        (fun key ->
          let k = Printf.sprintf "%s.q%d" key q.Queries.number in
          if count k > 0 then
            report_line
              (Printf.sprintf "%s_ms.p50.q%d" key q.Queries.number)
              "ms" (p50 k) (count k))
        [ "query"; "provenance"; "explain" ])
    Queries.all;
  report_line "write_bytes_per_op" "B" write_bytes 0;
  report_line "peak_heap_mb" "MB" (peak_heap_mb ()) 0;
  [
    ("setup_s", "s", setup_s);
    ("ops_per_s", "1/s", ops_per_s ());
    ("op_ms.p50", "ms", p50 "op");
    ("op_ms.p90", "ms", p90 "op");
    ("query_ms.p50", "ms", p50 "query");
    ("query_ms.p90", "ms", p90 "query");
    ("peak_heap_mb", "MB", peak_heap_mb ());
  ]

let per_layer () =
  let ops = float_of_int (max 1 !ops_traced) in
  let per_op v = v /. ops in
  let c name = per_op (get counters name) in
  let lms name = per_op (get layer_ms name) in
  let hits = get counters "processor.extent.cache_hits" in
  let misses = get counters "processor.extent.cache_misses" in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let invalidated =
    c "processor.invalidated.extents"
    +. c "processor.invalidated.provenance"
    +. c "processor.invalidated.pinfo"
  in
  let mutations =
    per_op
      (Hashtbl.fold
         (fun name v acc ->
           if
             String.starts_with ~prefix:"repository." name
             && not (String.starts_with ~prefix:"repository.find_path" name)
           then acc +. v
           else acc)
         counters 0.0)
  in
  let setup_fig name =
    Option.value ~default:0.0 (Hashtbl.find_opt figures name)
  in
  let plain_p50 = p50 "query" and prov_p50 = p50 "provenance" in
  let prov_ratio plain prov =
    if Float.is_nan plain || Float.is_nan prov then 0.0 else ratio prov plain
  in
  let io = !Store.traced in
  let tracing_overhead =
    ratio (ops_per_s ()) (traced_ops_per_s ())
  in
  let total_self = Hashtbl.fold (fun _ v acc -> acc +. v) layer_ms 0.0 in
  Printf.printf
    "%s: per-layer self time (%d traced ops, %d untraced; ms per op)\n"
    !workload !ops_traced !ops_untraced;
  List.iter
    (fun (layer, v) ->
      Printf.printf "  %-24s %10.3f  %5.1f%%\n" layer (per_op v)
        (100.0 *. ratio v total_self))
    (* busiest first, unattributed last *)
    (List.sort
       (fun (a, x) (b, y) ->
         compare (a = "unattributed", -.x) (b = "unattributed", -.y))
       (Hashtbl.fold (fun k v acc -> (k, v) :: acc) layer_ms []));
  Printf.printf
    "  tracing overhead: untraced %.3f ops/s vs traced %.3f ops/s\n"
    (ops_per_s ()) (traced_ops_per_s ());
  Printf.printf "  provenance vs plain p50: %.3f / %.3f ms\n" prov_p50
    plain_p50;
  Printf.printf
    "  store per op: %.1f reads, %.1f appends, %.1f writes, %.1f renames, \
     %.1f syncs\n"
    (per_op (float_of_int io.Store.reads))
    (per_op (float_of_int io.Store.appends))
    (per_op (float_of_int io.Store.writes))
    (per_op (float_of_int io.Store.renames))
    (per_op (float_of_int io.Store.syncs));
  report_line "durable.append_ms" "ms" (per_op io.Store.append_ms) 0;
  report_line "durable.checkpoint_ms" "ms" (per_op io.Store.checkpoint_ms) 0;
  report_line "evolution.evolve_self_ms" "ms" (lms "evolution.evolve") 0;
  report_line "maintain.idle_tick_ms" "ms" (p50 "idle_tick")
    (count "idle_tick");
  report_line "maintain.action_tick_ms" "ms" (p50 "action_tick")
    (count "action_tick");
  report_line "durable.recover_self_ms" "ms" (lms "durable.recover") 0;
  report_line "repository.find_path_ms" "ms" (lms "repository.find_path") 0;
  report_line "repository.find_path_nodes" "count"
    (c "repository.find_path.nodes_expanded") 0;
  let per_query =
    List.map
      (fun (q : Queries.query) ->
        let n = q.Queries.number in
        ( Printf.sprintf "provenance.overhead_ratio.q%d" n,
          "ratio",
          prov_ratio (p50 (Printf.sprintf "query.q%d" n))
            (p50 (Printf.sprintf "provenance.q%d" n)) ))
      Queries.all
  in
  [
    ("query.plan_self_ms", "ms", lms "query.plan");
    ("query.extent_self_ms", "ms", lms "query.extent");
    ("query.steps_replayed", "count", c "processor.pathway_steps_replayed");
    ("query.pathways_pruned", "count", c "processor.pathways_pruned");
    ("query.rows_fetched", "count", c "processor.rows_fetched");
    ("query.cache_hit_ratio", "ratio", ratio hits (hits +. misses));
    ("query.cache_lookups", "count", per_op (hits +. misses));
    ("query.invalidated_entries", "count", invalidated);
    ("analysis.rewrites_certified", "count", c "analysis.rewrites_certified");
    ("analysis.rewrites_refused", "count", c "analysis.rewrites_refused");
    ("iql.parse_ms", "ms", lms "iql.parse");
    ("iql.eval_self_ms", "ms", lms "iql.eval");
    ("iql.eval_nodes", "count", c "iql.eval.nodes");
    ("transform.apply_self_ms", "ms", lms "transform.apply");
    ("repository.mutations", "count", mutations);
    ("datasource.fetch_self_ms", "ms", lms "datasource.fetch");
    ( "datasource.rows_materialized",
      "count",
      setup_fig "datasource.rows_materialized" );
    ("datasource.wrap_ms", "ms", setup_fig "datasource.wrap_ms");
    ("core.integrate_ms", "ms", setup_fig "core.integrate_ms");
    ("provenance.overhead_ratio", "ratio", prov_ratio plain_p50 prov_p50);
  ]
  @ per_query
  @ [
      ( "resilience.retries_per_fetch",
        "ratio",
        ratio (float_of_int !retries) (float_of_int !fetches) );
      ("resilience.fetches", "count", per_op (float_of_int !fetches));
      ("durable.append_calls", "count", per_op (float_of_int io.Store.appends));
      ( "durable.append_bytes",
        "B",
        per_op (float_of_int io.Store.append_bytes) );
      ( "durable.checkpoint_bytes",
        "B",
        per_op (float_of_int io.Store.checkpoint_bytes) );
      ("durable.syncs", "count", per_op (float_of_int io.Store.syncs));
      ("durable.replayed_records", "count", c "durable.replay");
      ("durable.read_bytes", "B", per_op (float_of_int io.Store.read_bytes));
      ("evolution.pathways_patched", "count", c "evolution.pathways_patched");
      ("maintain.compactions", "count", c "maintain.compactions");
      ("maintain.reclamations", "count", c "maintain.reclamations");
      ("maintain.checkpoints", "count", c "maintain.checkpoints");
      ("telemetry.overhead_ratio", "ratio", tracing_overhead);
      ("gc.minor_words_per_op", "words", per_op !gc_minor);
      ("gc.major_words_per_op", "words", per_op !gc_major);
      ("gc.major_collections", "count", per_op (float_of_int !gc_collections));
      ("unattributed_ms", "ms", lms "unattributed");
    ]

let () =
  (match !workload with
  | "cold-small" -> cold_small ()
  | "session-large" -> session_large ()
  | "churn" -> churn ()
  | w -> die "unknown workload %S (cold-small, session-large, churn)" w);
  let metrics = if traced_run then per_layer () else end_to_end () in
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) (List.rev !failures);
  if not (print_result metrics) then exit 1
