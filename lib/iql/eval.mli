(** IQL evaluator.

    Evaluation is defined against an environment that resolves schema
    object references to their extents (bags of values).  Comprehension
    semantics are the standard bag-monad semantics: generators iterate
    with multiplicity, refutable patterns filter, and the head is
    collected into a bag whose multiplicities multiply along the nesting.

    {b Equi-joins.}  A generator [p <- src] directly followed by
    filters [a = b] is evaluated through an index when those filters
    are join keys: both sides are built only from variables, constants
    and tuples, one side reads only variables bound by [p] (at least
    one) and the other reads none of them.  The keys are the maximal run
    of such filters after the generator.  [src] is still evaluated once
    per binding of the enclosing qualifiers; the second time it yields
    the physically same bag, that bag's [p]-matching elements are
    grouped by key under {!Value.compare} (so [1] and [1.0] stay
    different keys), and each later binding visits only its own group,
    in bag order, skipping the key filters.  A bag probed once (a
    selection such as [x = 'a']) is scanned, a different bag drops the
    index, and when an enclosing key variable is unbound the generator
    is scanned as a nested loop.  Answers, errors and the extent lookups
    made through the environment are therefore exactly those of the
    filtered nested loop; only the [iql.eval.nodes] count falls, and
    [iql.eval.index_builds] counts the indexes built.

    [Void] evaluates to the empty bag.  [Range l u] evaluates to its lower
    bound [l]: the {e certain} answers (the paper uses lower bounds when a
    contracted object's extent cannot be derived precisely).  [Any] cannot
    be materialised and evaluating it is an error. *)

type env
(** Immutable evaluation environment. *)

val env :
  ?schemes:(Automed_base.Scheme.t -> Value.Bag.t option) ->
  ?vars:(string * Value.t) list ->
  unit ->
  env

val bind : string -> Value.t -> env -> env

type error = { message : string; context : string list }

val pp_error : error Fmt.t

val eval : env -> Ast.expr -> (Value.t, error) result

val eval_exn : env -> Ast.expr -> Value.t
(** @raise Failure with the rendered error. *)

val match_pat : Ast.pat -> Value.t -> (string * Value.t) list option
(** [match_pat p v] is [Some bindings] when [v] matches [p]. *)

val builtins : string list
(** Names recognised in [App]: aggregation ([count], [sum], [avg], [max],
    [min]), collections ([distinct], [member], [flatten], [group]),
    strings ([contains], [startswith], [upper], [lower], [strlen]) and
    arithmetic ([abs], [mod]).  All pure. *)

(** {1 Value-level operator semantics}

    The exact semantics the evaluator applies once operands are values,
    exposed so the provenance-annotated evaluator
    ([Automed_provenance.Peval]) can delegate scalar computation here and
    provably cannot diverge from {!eval}.  All three are strict: for
    [And]/[Or] the annotated evaluator performs its own short-circuiting
    before calling {!apply_binop}. *)

val apply_unop : Ast.unop -> Value.t -> (Value.t, error) result
val apply_binop : Ast.binop -> Value.t -> Value.t -> (Value.t, error) result

val apply_builtin : string -> Value.t list -> (Value.t, error) result
(** Applies one of {!builtins} to evaluated arguments. *)
