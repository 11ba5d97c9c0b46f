(** Recursive cost evaluation of operator trees and annotated join trees
    (§5): descriptors are combined bottom-up with [pipe], [tree] and
    [sync] exactly as the calculus prescribes. *)

type 'tree priced = {
  tree : 'tree;
  optree : Parqo_optree.Op.node;
  descriptor : Descriptor.t;
  response_time : float;
  work : float;
  ordering : Parqo_plan.Ordering.t;
}
(** A costed plan: its operator-tree expansion, the resource descriptor,
    the derived response time, total work and output ordering — and,
    once it is built, its join tree. *)

type eval = Parqo_plan.Join_tree.t priced
(** A fully-costed plan: the join tree and its cost. *)

type candidate = unit priced
(** A join priced by {!price_join} and not yet built: everything an
    {!eval} holds but the join tree, its key and the record that holds
    them.  Pruning metrics read only this much ([Metric.fill]), so a DP
    tests a candidate before it builds it ({!admit}). *)

val without_tree : 'tree priced -> candidate
(** The cost of a plan, as a candidate. *)

val of_optree :
  ?reuse:(Parqo_optree.Op.node * Descriptor.t) list ->
  Env.t ->
  Parqo_optree.Op.node ->
  Descriptor.t
(** Cost of an operator tree: leaves get their base descriptors; a unary
    node pipes its child into itself; a binary node combines its children
    with [tree]; a [Materialized] composition applies [sync].  A nested-
    loops join over a bare index scan absorbs the probing cost (see
    {!Opcost.nl_inner_is_free}).

    [reuse] short-circuits the recursion at sub-trees (matched by
    physical identity) whose descriptors are already known. *)

val evaluate :
  ?required_order:Parqo_plan.Ordering.t -> Env.t -> Parqo_plan.Join_tree.t -> eval
(** Expand then cost. Raises [Invalid_argument] on ill-formed trees.

    When [required_order] is given (an ORDER BY) and the plan's output
    ordering does not subsume it, the operator tree is extended with a
    final sort (merging partitioned streams first when the root is
    cloned) and the descriptor reflects that extra cost — so plans that
    deliver the order through an interesting order win exactly as §6.1.2
    describes. *)

val required_order : Env.t -> Parqo_plan.Ordering.t
(** The query's ORDER BY as an ordering (empty when absent). *)

(** {2 Incremental, bounded pricing}

    The DP hot path: a candidate is a join of two plans already
    evaluated, priced in O(new root operators) from their evaluations —
    and, when a limit is given, bounded before it is composed.  Pricing
    yields a {!candidate}; {!admit} builds its eval.  Results are
    bit-identical to {!evaluate} of the same tree once {!numbered}.

    {b The bound.}  The new operators' base descriptors are computed
    first.  The candidate's priced work is at least
    [outer work + inner work + the new operators' base work], with the
    inner work left out when the root probes a bare index
    ({!Opcost.nl_inner_is_free}): [pipe], [tree] and [sync] never lose
    work, since the residuals they add back are clamped at zero and the
    [Scale_all] penalty multiplies the overlap by a factor [>= 1].  A
    candidate whose bound exceeds the limit (by a relative slack of
    1e-9, far above float rounding) is rejected before any composition
    or ordering is computed. *)

type join_context = Parqo_optree.Expand.context
(** What every join between two relation sets shares: the output
    estimate and the predicates' sort keys. *)

val join_context :
  Env.t ->
  outer:Parqo_util.Bitset.t ->
  inner:Parqo_util.Bitset.t ->
  join_context
(** Computed once per pair of sets, then passed to every {!price_join}
    between them.  Raises [Invalid_argument] when the sets intersect. *)

type scratch
(** Descriptor buffers sized to the environment's machine, and the
    entry tables below; owned by one domain. *)

val scratch : Env.t -> scratch

val price_join :
  scratch:scratch ->
  limit:float ->
  Env.t ->
  join_context ->
  method_:Parqo_plan.Join_method.t ->
  clone:int ->
  outer:eval ->
  inner:eval ->
  candidate option
(** The pipelined join of two evaluated plans (its materialized variant
    is {!materialized_twin}): the new root operators are expanded over
    the children's operator trees, which are grafted unchanged, and only
    they are costed.  [None] when the work bound exceeds [limit] (pass
    [infinity] to price unconditionally) — so [None] implies the priced
    work exceeds [limit].  The operator tree is {e unnumbered} — the new
    nodes carry id 0 — until {!numbered}.  It fills the two entries
    below from its one join, and its candidate owns its descriptor.
    Raises [Invalid_argument] when the plans are not over the context's
    relation sets. *)

val admit : outer:eval -> inner:eval -> candidate -> eval
(** [admit ~outer ~inner c] builds the eval of a join {!price_join} or
    {!price} priced over [outer] and [inner] (or its
    {!materialized_twin}): its join tree, with method, clone degree and
    materialization read off [c]'s root operator, the tree's key, and a
    copy of [c]'s descriptor.  Raises [Invalid_argument] unless [c]'s
    root grafts [outer]'s and [inner]'s operator trees. *)

(** {3 Shared entries}

    The bound is [outer work + outer term + inner term].  Over one
    context, what the join's new operators cost splits in two.  The
    {e inner entry} depends only on the inner plan, the method and the
    clone degree: the root operator's base descriptor, the inner plan's
    descriptor piped through the inner side's new operators, and the
    inner term — the new operators' base work, plus the inner plan's
    work unless the root probes a bare index (every plan of one relation
    set has the same cardinality).  The {e outer entry} depends only on the
    method, the clone degree and the outer plan's class under
    {!outer_shape_equal}: the outer side's base descriptors and
    compositions, and the outer term, their base work.  A DP that
    prices many joins of one context loads them as an {!extension}: each
    entry is computed from the first join that needs it, and a join then
    costs one expansion and the composition of its outer side and root.

    Entries are flat float rows in the scratch ({!Descriptor.rows}),
    reused from one extension to the next: a table holds no pointer to
    a descriptor, an operator or any other value allocated while an
    extension is priced.  A long-lived table that pointed to young
    descriptors or operators would make every minor collection promote
    them, and the search's heap would grow with them (MODEL.md §9). *)

type extension
(** The joins between two relation sets that one DP step prices, loaded
    in a scratch. *)

val extension :
  scratch ->
  Env.t ->
  join_context ->
  inner:eval array ->
  methods:Parqo_plan.Join_method.t array ->
  clones:int array ->
  classes:int ->
  limit:float ->
  extension
(** Load the joins of outer plans of [classes] classes with the [inner]
    plans, under every method and clone degree, priced against [limit]:
    the scratch forgets the entries of the extension it held (keeping
    their room). *)

val price :
  extension ->
  outer:eval ->
  outer_class:int ->
  inner:int ->
  method_:int ->
  clone:int ->
  candidate option
(** [price x ~outer ~outer_class ~inner ~method_ ~clone] is
    {!price_join} of [outer], of class [outer_class], with
    [x]'s inner plan [inner] under its method [method_] and clone
    degree [clone] (indices), bit for bit — except that its descriptor
    {e views} the scratch: it is valid until the next pricing on the
    scratch, and {!admit} copies it.  The bound is read from the entries
    before the join is expanded.  Classes are the caller's: two plans
    given one class must be {!outer_shape_equal}. *)

val bound :
  extension ->
  outer:eval ->
  outer_class:int ->
  inner:int ->
  method_:int ->
  clone:int ->
  float
(** The work bound {!price} compares with the limit. *)

val outer_shape_equal : eval -> eval -> bool
(** [outer_shape_equal a b] for two plans over one relation set: joins
    with either as the outer (same context, method, clone and inner)
    get the same outer-side operators, hence the same outer entry and
    the same output ordering — the outer roots agree on clone degree,
    partitioning and kind, and the plans on their output ordering.
    Two such plans are of one class. *)

val materialized_twin : candidate -> candidate
(** [materialized_twin c] for a pipelined join [c]: the same join with
    its output materialized, derived without re-expanding or re-costing
    — the root operator's composition flipped to [Materialized] and the
    descriptor [Descriptor.sync]ed, which is exactly what {!evaluate}
    computes (the composition is set on the root only and no base cost
    reads it).  Response time and work are [c]'s.  Raises
    [Invalid_argument] unless [c]'s root is pipelined. *)

val numbered : eval -> eval
(** Assign the operator tree the preorder ids {!evaluate} gives (see
    {!Parqo_optree.Expand.renumber}); the only whole-tree walk of
    incremental pricing. *)

val response_time : Env.t -> Parqo_plan.Join_tree.t -> float

val work : Env.t -> Parqo_plan.Join_tree.t -> float

val pp_eval : Format.formatter -> eval -> unit
