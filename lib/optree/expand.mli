(** Macro-expansion of annotated join trees into operator trees (§4.2).

    Each join node expands by method:
    - sort-merge   → [merge(sort(outer), sort(inner))], sorts materialized;
      a sort is elided when its input already delivers the key ordering
      (the paper: "if R2 is already sorted then only one sort operation
      needs to be stated");
    - hash-join    → [probe(outer, build(inner))], build materialized;
    - nested-loops → [nested-loops(outer, inner)], optionally with the
      create-index inflection on the inner.

    Cloning (annotation 2) propagates partitioning requirements downward;
    exchange operators are inserted exactly where the producer's
    partitioning does not satisfy the consumer's (annotation 3, data
    redistribution).  The expansion of a given annotated join tree is
    unique, as the paper requires. *)

type config = {
  create_index_for_nl : bool;
      (** expand NL over an unindexed inner into
          [nested-loops(outer, create-index(inner))] *)
}

val default_config : config
(** [create_index_for_nl = false]. *)

val expand :
  ?config:config -> Parqo_plan.Estimator.t -> Parqo_plan.Join_tree.t -> Op.node
(** Raises [Invalid_argument] if the join tree is not well-formed for the
    estimator's query. *)

val expand_access : Parqo_plan.Estimator.t -> Parqo_plan.Join_tree.access -> Op.node
(** The scan node for one access leaf (id 0; see {!renumber}). *)

type context = {
  outer_rels : Parqo_util.Bitset.t;  (** relations of the outer side *)
  inner_rels : Parqo_util.Bitset.t;  (** relations of the inner side *)
  out_card : float;  (** estimated output tuples of the join *)
  out_width : float;  (** estimated output width of the join *)
  outer_key : Parqo_plan.Ordering.t;
      (** {!Parqo_plan.Props.sort_key_outer} of any such join *)
  inner_key : Parqo_plan.Ordering.t;
      (** {!Parqo_plan.Props.sort_key_inner} of any such join *)
  outer_attr : Parqo_plan.Ordering.col option;
      (** the outer key's leading column: what a cloned join partitions
          its outer input on *)
  inner_attr : Parqo_plan.Ordering.col option;
      (** the inner key's leading column *)
}
(** What every join of a plan over [outer_rels] with a plan over
    [inner_rels] shares, whatever the plans, method or annotations: the
    output estimate (physical transparency, Theorem 1) and the
    predicates' sort keys. *)

val context :
  Parqo_plan.Estimator.t ->
  outer:Parqo_util.Bitset.t ->
  inner:Parqo_util.Bitset.t ->
  context
(** The sets must be disjoint. *)

val expand_join :
  ?config:config ->
  context ->
  method_:Parqo_plan.Join_method.t ->
  clone:int ->
  composition:Op.composition ->
  outer:Op.node ->
  inner:Op.node ->
  outer_ordering:Parqo_plan.Ordering.t Lazy.t ->
  inner_ordering:Parqo_plan.Ordering.t Lazy.t ->
  Op.node
(** Expand one join over already-expanded children: the new root
    operators (join, and any exchange / sort / build / create-index the
    annotations require) are built on top of the given child operator
    trees, which are grafted unchanged.  [composition] is set on the
    root operator only.  [outer_ordering] and [inner_ordering] are the
    children's join-tree output orderings ({!Parqo_plan.Props.ordering}),
    forced only when the sort-merge sort-elision check needs them —
    incremental costing passes memoized values, the full {!expand}
    passes lazy recomputations.

    The root is always binary, and each side's new operators form a
    unary chain down to the grafted child.  New nodes carry id 0;
    callers that need the canonical preorder ids of {!expand} must
    {!renumber} the final tree.  The children must be plans over the
    context's relation sets. *)

val renumber : Op.node -> Op.node
(** Rewrite node ids to a preorder numbering from 0 — the id assignment
    {!expand} performs.  Ids depend only on the tree shape, so grafting
    already-renumbered subtrees and renumbering the result reproduces a
    from-scratch expansion exactly. *)
