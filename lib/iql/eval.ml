module Scheme = Automed_base.Scheme
module Telemetry = Automed_telemetry.Telemetry
module SM = Map.Make (String)

module VM = Map.Make (struct
  type t = Value.t

  let compare = Value.compare
end)

type env = {
  schemes : Scheme.t -> Value.Bag.t option;
  vars : Value.t SM.t;
}

let env ?(schemes = fun _ -> None) ?(vars = []) () =
  { schemes; vars = SM.of_seq (List.to_seq vars) }

let bind x v e = { e with vars = SM.add x v e.vars }

type error = { message : string; context : string list }

let pp_error ppf e =
  Fmt.pf ppf "%s%a" e.message
    Fmt.(list ~sep:nop (fun ppf c -> Fmt.pf ppf "@ while %s" c))
    e.context

exception Error of error

let err fmt = Format.kasprintf (fun message -> raise (Error { message; context = [] })) fmt

let in_context ctx f =
  try f ()
  with Error e -> raise (Error { e with context = e.context @ [ ctx ] })

let rec match_pat (p : Ast.pat) (v : Value.t) =
  match (p, v) with
  | PWild, _ -> Some []
  | PVar x, v -> Some [ (x, v) ]
  | PConst c, v -> if Value.equal c v then Some [] else None
  | PTuple ps, Tuple vs when List.length ps = List.length vs ->
      let rec go acc = function
        | [], [] -> Some acc
        | p :: ps, v :: vs -> (
            match match_pat p v with
            | None -> None
            | Some bs -> go (acc @ bs) (ps, vs))
        | _ -> None
      in
      go [] (ps, vs)
  | PTuple _, _ -> None

let as_bag what = function
  | Value.Bag b -> b
  | v -> err "%s: expected a collection, got %s" what (Value.to_string v)

let as_number what = function
  | Value.Int i -> float_of_int i
  | Value.Float f -> f
  | v -> err "%s: expected a number, got %s" what (Value.to_string v)

let as_bool what = function
  | Value.Bool b -> b
  | v -> err "%s: expected a boolean, got %s" what (Value.to_string v)

let arith op a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> (
      match op with
      | Ast.Add -> Value.Int (x + y)
      | Sub -> Value.Int (x - y)
      | Mul -> Value.Int (x * y)
      | Div ->
          if y = 0 then err "division by zero" else Value.Int (x / y)
      | _ -> assert false)
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) -> (
      let x = as_number "arith" a and y = as_number "arith" b in
      match op with
      | Ast.Add -> Value.Float (x +. y)
      | Sub -> Value.Float (x -. y)
      | Mul -> Value.Float (x *. y)
      | Div ->
          if y = 0.0 then err "division by zero" else Value.Float (x /. y)
      | _ -> assert false)
  | Value.Str x, Value.Str y when op = Ast.Add -> Value.Str (x ^ y)
  | a, b ->
      err "arithmetic on non-numbers: %s, %s" (Value.to_string a)
        (Value.to_string b)

let builtins =
  [ "count"; "sum"; "avg"; "max"; "min"; "distinct"; "member"; "flatten";
    "abs"; "group"; "contains"; "startswith"; "upper"; "lower"; "strlen";
    "mod" ]

(* value-level operator semantics, shared with the provenance-annotated
   evaluator (Automed_provenance.Peval) so the two cannot diverge *)
let apply_unop_exn op v =
  match (op, v) with
  | Ast.Neg, Value.Int i -> Value.Int (-i)
  | Ast.Neg, Value.Float f -> Value.Float (-.f)
  | Ast.Neg, v -> err "negation of non-number %s" (Value.to_string v)
  | Ast.Not, v -> Value.Bool (not (as_bool "not" v))

let apply_binop_exn op a b =
  match (op : Ast.binop) with
  | And -> Value.Bool (as_bool "and" a && as_bool "and" b)
  | Or -> Value.Bool (as_bool "or" a || as_bool "or" b)
  | (Add | Sub | Mul | Div) as op -> arith op a b
  | (Eq | Neq | Lt | Le | Gt | Ge) as op ->
      let c = Value.compare a b in
      Value.Bool
        (match op with
        | Eq -> c = 0
        | Neq -> c <> 0
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0
        | _ -> assert false)
  | Union ->
      Value.Bag (Value.Bag.union (as_bag "++" a) (as_bag "++" b))
  | Monus ->
      Value.Bag (Value.Bag.monus (as_bag "--" a) (as_bag "--" b))

(* -- indexed equi-joins ---------------------------------------------------- *)

(* A comprehension's qualifiers, with each generator's equi-join keys:
   the run of filters [a = b] right after it where one side reads only
   the pattern's variables (at least one) and the other reads none of
   them, both sides built from variables, constants and tuples. *)
type step = QFilter of Ast.expr | QGen of Ast.pat * Ast.expr * join option

and join = {
  inner : Ast.expr list;  (** key sides over the pattern's variables *)
  outer : Ast.expr list;  (** the matching sides over the enclosing scope *)
  after : step list;  (** the qualifiers after the key filters *)
  mutable probed : Value.Bag.t option;  (** the last bag probed *)
  mutable index : Value.Bag.t VM.t option;
      (** [probed]'s matching elements grouped by inner key, each group
          a sub-bag sharing [probed]'s entries *)
}

let rec key_shaped : Ast.expr -> bool = function
  | Var _ | Const _ -> true
  | Tuple es -> List.for_all key_shaped es
  | _ -> false

let join_key pvars (f : Ast.expr) =
  match f with
  | Binop (Eq, a, b) when key_shaped a && key_shaped b ->
      let bound x = List.mem x pvars in
      let inner e =
        match Ast.vars e with [] -> false | vs -> List.for_all bound vs
      in
      let outer e = not (List.exists bound (Ast.vars e)) in
      if inner a && outer b then Some (a, b)
      else if inner b && outer a then Some (b, a)
      else None
  | _ -> None

let rec compile = function
  | [] -> []
  | Ast.Filter f :: rest -> QFilter f :: compile rest
  | Ast.Gen (p, src) :: rest ->
      let pvars = Ast.pat_vars p in
      let rec keys = function
        | Ast.Filter f :: rest -> (
            match join_key pvars f with
            | Some k -> k :: keys rest
            | None -> [])
        | _ -> []
      in
      let steps = compile rest in
      let join =
        match keys rest with
        | [] -> None
        | ks ->
            let n = List.length ks in
            Some
              {
                inner = List.map fst ks;
                outer = List.map snd ks;
                after = List.filteri (fun i _ -> i >= n) steps;
                probed = None;
                index = None;
              }
      in
      QGen (p, src, join) :: steps

(* key sides are variables, constants and tuples only: [Not_found] is an
   unbound variable *)
let rec key_value vars : Ast.expr -> Value.t = function
  | Const v -> v
  | Var x -> SM.find x vars
  | Tuple es -> Value.Tuple (List.map (key_value vars) es)
  | _ -> assert false

let key vars = function
  | [ e ] -> key_value vars e
  | es -> Value.Tuple (List.map (key_value vars) es)

(* folding the reversed bag and prepending keeps each group in bag order *)
let build_index j p (b : Value.Bag.t) =
  Telemetry.count "iql.eval.index_builds";
  List.fold_left
    (fun ix ((v, _) as entry) ->
      match match_pat p v with
      | None -> ix
      | Some bs ->
          let vars = List.fold_left (fun m (x, v) -> SM.add x v m) SM.empty bs in
          VM.update (key vars j.inner)
            (fun g -> Some (entry :: Option.value ~default:[] g))
            ix)
    VM.empty (List.rev b)

(* The sub-bag of [b] a probe from scope [vars] visits, or [None] to
   scan all of [b]: on the first probe of a bag (a one-off selection is
   cheaper as a scan), and when an outer key variable is unbound (the
   scan then fails exactly as it always did).  The index is built on
   the second probe of the physically same bag; a new bag drops it. *)
let probe j p vars b =
  match key vars j.outer with
  | exception Not_found -> None
  | k -> (
      match j.probed with
      | Some b' when b' == b ->
          let ix =
            match j.index with
            | Some ix -> ix
            | None ->
                let ix = build_index j p b in
                j.index <- Some ix;
                ix
          in
          Some (Option.value ~default:[] (VM.find_opt k ix))
      | _ ->
          j.probed <- Some b;
          j.index <- None;
          None)

let rec eval_expr env (e : Ast.expr) : Value.t =
  Telemetry.count "iql.eval.nodes";
  match e with
  | Const v -> v
  | Void -> Value.Bag Value.Bag.empty
  | Any -> err "cannot materialise Any (no upper bound information)"
  | Var x -> (
      match SM.find_opt x env.vars with
      | Some v -> v
      | None -> err "unbound variable %s" x)
  | SchemeRef s -> (
      match env.schemes s with
      | Some b -> Value.Bag b
      | None -> err "no extent for schema object %s" (Scheme.to_string s))
  | Tuple es -> Value.Tuple (List.map (eval_expr env) es)
  | EBag es -> Value.Bag (Value.Bag.of_list (List.map (eval_expr env) es))
  | Range (l, _) -> eval_expr env l
  | If (c, t, e) ->
      if as_bool "if condition" (eval_expr env c) then eval_expr env t
      else eval_expr env e
  | Let (x, e, body) -> eval_expr (bind x (eval_expr env e) env) body
  | Unop (op, e) -> apply_unop_exn op (eval_expr env e)
  | Binop (And, a, b) ->
      Value.Bool
        (as_bool "and" (eval_expr env a) && as_bool "and" (eval_expr env b))
  | Binop (Or, a, b) ->
      Value.Bool
        (as_bool "or" (eval_expr env a) || as_bool "or" (eval_expr env b))
  | Binop (op, a, b) ->
      (* right-to-left, matching OCaml's application order in the
         pre-refactor per-operator branches *)
      let vb = eval_expr env b in
      let va = eval_expr env a in
      apply_binop_exn op va vb
  | Comp (head, quals) ->
      (* accumulate weighted results and canonicalise once at the end:
         O(n log n) instead of per-element sorted insertion *)
      let acc = ref [] in
      let bind_all env bs = List.fold_left (fun e (x, v) -> bind x v e) env bs in
      let rec go env mult = function
        | [] ->
            let v = eval_expr env head in
            acc := (v, mult) :: !acc
        | QFilter f :: rest ->
            if as_bool "filter" (eval_expr env f) then go env mult rest
        | QGen (p, src, join) :: rest -> (
            let b = as_bag "generator source" (eval_expr env src) in
            let scan b quals =
              Value.Bag.fold
                (fun v n () ->
                  match match_pat p v with
                  | None -> ()
                  | Some bs -> go (bind_all env bs) (mult * n) quals)
                b ()
            in
            match join with
            | None -> scan b rest
            | Some j -> (
                match probe j p env.vars b with
                | None -> scan b rest
                | Some group -> scan group j.after))
      in
      go env 1 (compile quals);
      Value.Bag (Value.Bag.of_weighted_list !acc)
  | App (f, args) -> eval_app env f (List.map (eval_expr env) args)

and eval_app _env f (args : Value.t list) : Value.t =
  let one what =
    match args with
    | [ v ] -> v
    | _ -> err "%s expects one argument, got %d" what (List.length args)
  in
  match f with
  | "count" -> Value.Int (Value.Bag.cardinal (as_bag "count" (one "count")))
  | "distinct" ->
      Value.Bag (Value.Bag.distinct (as_bag "distinct" (one "distinct")))
  | "flatten" ->
      let outer = as_bag "flatten" (one "flatten") in
      let merged =
        Value.Bag.fold
          (fun v n acc ->
            let inner = as_bag "flatten element" v in
            let scaled = List.map (fun (w, m) -> (w, m * n)) inner in
            Value.Bag.union acc scaled)
          outer Value.Bag.empty
      in
      Value.Bag merged
  | "sum" ->
      let b = as_bag "sum" (one "sum") in
      let all_int =
        Value.Bag.fold
          (fun v _ ok -> ok && match v with Value.Int _ -> true | _ -> false)
          b true
      in
      if all_int then
        Value.Int
          (Value.Bag.fold
             (fun v n acc ->
               match v with Value.Int i -> acc + (i * n) | _ -> acc)
             b 0)
      else
        Value.Float
          (Value.Bag.fold
             (fun v n acc -> acc +. (as_number "sum" v *. float_of_int n))
             b 0.0)
  | "avg" ->
      let b = as_bag "avg" (one "avg") in
      let n = Value.Bag.cardinal b in
      if n = 0 then err "avg of empty collection"
      else
        Value.Float
          (Value.Bag.fold
             (fun v m acc -> acc +. (as_number "avg" v *. float_of_int m))
             b 0.0
          /. float_of_int n)
  | "max" | "min" -> (
      let b = as_bag f (one f) in
      match Value.Bag.to_list b with
      | [] -> err "%s of empty collection" f
      | v :: vs ->
          let pick =
            if f = "max" then fun a b -> if Value.compare a b >= 0 then a else b
            else fun a b -> if Value.compare a b <= 0 then a else b
          in
          List.fold_left pick v vs)
  | "member" -> (
      match args with
      | [ v; Value.Bag b ] -> Value.Bool (Value.Bag.mem v b)
      | [ Value.Bag b; v ] -> Value.Bool (Value.Bag.mem v b)
      | _ -> err "member expects a value and a collection")
  | "abs" -> (
      match one "abs" with
      | Value.Int i -> Value.Int (abs i)
      | Value.Float f -> Value.Float (Float.abs f)
      | v -> err "abs of non-number %s" (Value.to_string v))
  | "group" ->
      (* bag of {k, v} pairs -> bag of {k, bag of vs}; the standard IQL
         grouping operator, with multiplicities preserved inside groups *)
      let b = as_bag "group" (one "group") in
      let groups =
        Value.Bag.fold
          (fun v n acc ->
            match v with
            | Value.Tuple [ k; x ] ->
                let existing = Option.value ~default:Value.Bag.empty (VM.find_opt k acc) in
                VM.add k (Value.Bag.add ~count:n x existing) acc
            | v -> err "group expects {key, value} pairs, got %s" (Value.to_string v))
          b VM.empty
      in
      Value.Bag
        (VM.fold
           (fun k vs acc -> Value.Bag.add (Value.tuple2 k (Value.Bag vs)) acc)
           groups Value.Bag.empty)
  | "contains" -> (
      match args with
      | [ Value.Str s; Value.Str sub ] ->
          Value.Bool (Automed_base.Strutil.contains_sub ~sub s)
      | _ -> err "contains expects two strings")
  | "startswith" -> (
      match args with
      | [ Value.Str s; Value.Str prefix ] ->
          Value.Bool (Automed_base.Strutil.starts_with ~prefix s)
      | _ -> err "startswith expects two strings")
  | "upper" -> (
      match one "upper" with
      | Value.Str s -> Value.Str (String.uppercase_ascii s)
      | v -> err "upper of non-string %s" (Value.to_string v))
  | "lower" -> (
      match one "lower" with
      | Value.Str s -> Value.Str (String.lowercase_ascii s)
      | v -> err "lower of non-string %s" (Value.to_string v))
  | "strlen" -> (
      match one "strlen" with
      | Value.Str s -> Value.Int (String.length s)
      | v -> err "strlen of non-string %s" (Value.to_string v))
  | "mod" -> (
      match args with
      | [ Value.Int a; Value.Int b ] ->
          if b = 0 then err "mod by zero" else Value.Int (a mod b)
      | _ -> err "mod expects two ints")
  | f -> err "unknown function %s" f

let eval env e =
  Telemetry.with_span "iql.eval" @@ fun () ->
  match
    in_context (Fmt.str "evaluating %s" (Ast.to_string e)) (fun () ->
        eval_expr env e)
  with
  | v ->
      (if Telemetry.active () then begin
         Telemetry.annotate "expr_size" (string_of_int (Ast.size e));
         match v with
         | Value.Bag b ->
             let n = Value.Bag.cardinal b in
             Telemetry.observe "iql.eval.bag_size" (float_of_int n);
             Telemetry.annotate "bag_size" (string_of_int n)
         | _ -> ()
       end);
      Ok v
  | exception Error e -> Error e

let eval_exn env e =
  match eval env e with
  | Ok v -> v
  | Error e -> failwith (Fmt.str "%a" pp_error e)

(* -- value-level entry points for the annotated evaluator ----------------- *)

let catching f = match f () with v -> Ok v | exception Error e -> Error e

let apply_unop op v = catching (fun () -> apply_unop_exn op v)
let apply_binop op a b = catching (fun () -> apply_binop_exn op a b)

let apply_builtin f args =
  catching (fun () -> eval_app (env ()) f args)
