(** Physical properties of join-tree outputs.

    These are the plan-dependent properties whose existence breaks the
    principle of optimality for the work metric (interesting orders,
    §6.1.2) and for response time (resource placement, §6.1.3); the
    partial-order pruning metrics expose them as extra dimensions. *)

val join_preds :
  Parqo_query.Query.t -> Join_tree.join -> Parqo_query.Query.join_pred list
(** The query's equi-join predicates connecting the join's two subtrees
    (possibly empty: a cartesian product). *)

val sort_key_outer : Parqo_query.Query.t -> Join_tree.join -> Ordering.t
(** Sort key required on the outer side for a sort-merge join: the outer
    columns of every connecting predicate. *)

val sort_key_inner : Parqo_query.Query.t -> Join_tree.join -> Ordering.t

val sort_keys :
  Parqo_query.Query.t ->
  outer:Parqo_util.Bitset.t ->
  inner:Parqo_util.Bitset.t ->
  Ordering.t * Ordering.t
(** [(outer key, inner key)] of any join of a plan over [outer] with a
    plan over [inner]: {!sort_key_outer} and {!sort_key_inner} from the
    two relation sets, so a search can compute them once per pair of
    sets instead of once per candidate. *)

val join_ordering :
  Join_method.t ->
  clone:int ->
  outer_key:Ordering.t Lazy.t ->
  outer:Ordering.t Lazy.t ->
  Ordering.t
(** One step of {!ordering}: the output ordering of a join with the given
    method and clone degree, from its outer sort key and its outer
    child's ordering — each forced only when the method needs it.
    Incremental costing passes memoized values here instead of
    re-walking the subtree. *)

val ordering : Parqo_query.Query.t -> Join_tree.t -> Ordering.t
(** Output ordering, as far as it is interesting: an access path yields
    its index order ({!Access_path.ordering}) up to the longest prefix
    of columns that a join predicate or the ORDER BY names
    ({!Parqo_query.Query.interesting}); sort-merge yields the outer sort
    key; hash and nested-loops joins preserve the outer ordering. Any
    operator cloned beyond degree 1 destroys global order (its output is
    a union of partitioned streams).

    Every order a plan can use — a sort-merge key, the ORDER BY — is
    made of interesting columns, and {!Ordering.satisfies} is a prefix
    test, so the cut order satisfies exactly the keys the index's whole
    order does: no expansion or cost changes, and plans that differ only
    in an order nothing can use fall into one pruning class. *)

val partition_column :
  Parqo_query.Query.t -> Join_tree.t -> Ordering.col option
(** Attribute on which the output is hash-partitioned, when the top
    operator is cloned on a join attribute. *)
