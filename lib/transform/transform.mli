(** Primitive schema transformations and pathways (the BAV approach).

    A pathway from schema [S1] to schema [S2] is a sequence of primitive
    transformations.  [add]/[delete] carry a query defining the extent of
    the new/removed object in terms of the rest of the schema;
    [extend]/[contract] carry lower and upper bound queries ([Range ql qu],
    possibly [Void]/[Any]) when the extent cannot be derived precisely;
    [rename] renames a construct with a textual name; [id] asserts that an
    object of [S1] is the same as an object of [S2].

    Pathways are automatically reversible (paper Section 2.1): reverse the
    step order, swap add/delete, swap extend/contract, and swap the
    arguments of rename/id. *)

module Scheme = Automed_base.Scheme
module Schema = Automed_model.Schema

type query = Automed_iql.Ast.expr

type prim =
  | Add of Scheme.t * query
      (** [Add (o, q)]: [q] over the pre-schema defines the extent of [o] *)
  | Delete of Scheme.t * query
      (** [Delete (o, q)]: [q] over the post-schema recovers the extent *)
  | Extend of Scheme.t * query * query
      (** [Extend (o, ql, qu)]: bounds over the pre-schema *)
  | Contract of Scheme.t * query * query
      (** [Contract (o, ql, qu)]: bounds over the post-schema *)
  | Rename of Scheme.t * Scheme.t
  | Id of Scheme.t * Scheme.t

type pathway = {
  from_schema : string;
  to_schema : string;
  steps : prim list;
}

val prim_scheme : prim -> Scheme.t
(** The object the step introduces into, or removes from, or (for
    rename/id) maps {e from}, in the direction of travel. *)

val prim_kind : prim -> string
(** The step's verb: ["add"], ["delete"], ["extend"], ["contract"],
    ["rename"] or ["id"] — used to tag error messages and diagnostics. *)

val infer_extent_ty : Schema.t -> query -> Automed_iql.Types.ty option
(** The extent type [apply_prim] records for an added object: the query's
    inferred type when it is a fully-determined bag type, [None]
    otherwise.  Exposed so static analysis tracks the same symbolic
    state. *)

val reverse_prim : prim -> prim
val reverse : pathway -> pathway

val is_trivial : prim -> bool
(** True when the step is an extend/contract whose query part is
    [Range Void Any], or an [Id].  The paper's case study counts only
    non-trivial transformations as integration effort. *)

val is_manual : prim -> bool
(** [not (is_trivial p)] for add/delete/extend/contract, false for
    rename/id - the measure used in Section 3. *)

val count_non_trivial : pathway -> int

val apply_prim : Schema.t -> prim -> (Schema.t, string) result
(** Schema-level effect of one step.  [Add]/[Extend] require the object to
    be absent and infer its extent type from the query when possible;
    [Delete]/[Contract] require presence; [Rename] renames; [Id] checks
    that the object is present (it asserts cross-schema identity and has
    no structural effect).  Error messages are tagged with the step's verb
    and offending scheme, e.g. [add <<u>>: schema s already contains
    <<u>>]; {!apply} and {!apply_checked} additionally prefix the pathway
    endpoints and the 1-based step index, so runtime failures name the
    same locations as the static linter's diagnostics. *)

val apply : Schema.t -> pathway -> (Schema.t, string) result
(** Applies all steps in order; the result keeps the target schema name. *)

val apply_checked : Schema.t -> pathway -> (Schema.t, string) result
(** {!apply} that also checks the pathway is well-formed: every step's
    queries reference only objects available in the schema on the
    appropriate side of the step.  One fold over the steps, in the same
    [transform.apply] span; the repository admits every pathway through
    this. *)

val ident : Schema.t -> Schema.t -> (pathway, string) result
(** Expands an [ident] between two syntactically identical schemas into a
    sequence of [Id] steps, one per object (paper Section 2.1). *)

val compose : pathway -> pathway -> (pathway, string) result
(** [compose p q] concatenates pathways when [p.to_schema = q.from_schema]. *)

(** Shape of an intersection pathway: optional leading renames (used to
    move a source object out of the way of a same-named target), then a
    sequence of adds (possibly interleaved with trivial extends, which
    arise in n-ary intersections for objects a side does not define), then
    deletes, then contracts, optionally followed by ids (paper
    Section 2.2). *)
type shape = {
  renames : (Scheme.t * Scheme.t) list;
  adds : (Scheme.t * query) list;
  extends : Scheme.t list;  (** trivial [Range Void Any] extends *)
  deletes : (Scheme.t * query) list;
  contracts : Scheme.t list;
  ids : (Scheme.t * Scheme.t) list;
}

val intersection_shape : pathway -> (shape, string) result
(** Fails when the pathway does not have the canonical shape, or when a
    contract step carries bounds other than [Range Void Any]. *)

val pp_prim : prim Fmt.t
val pp : pathway Fmt.t
