(** Recursive cost evaluation of operator trees and annotated join trees
    (§5): descriptors are combined bottom-up with [pipe], [tree] and
    [sync] exactly as the calculus prescribes. *)

type eval = {
  tree : Parqo_plan.Join_tree.t;
  optree : Parqo_optree.Op.node;
  descriptor : Descriptor.t;
  response_time : float;
  work : float;
  ordering : Parqo_plan.Ordering.t;
}
(** A fully-costed plan: the join tree, its operator-tree expansion, the
    resource descriptor, the derived response time, total work and
    output ordering. *)

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

val with_final_sort : Env.t -> Parqo_plan.Ordering.t -> eval -> eval
(** [with_final_sort env required e]: [e] with {!evaluate}'s final sort
    for [required] on top, unless [e]'s ordering already satisfies it
    ([e] itself then): the sort (and merge) descriptors are piped onto
    [e]'s descriptor, which is reused, not recomputed.  When [e] equals
    [evaluate env e.tree] — as every numbered incremental eval does — the
    result equals [evaluate ~required_order:required env e.tree], bit for
    bit. *)

(** {2 Incremental, bounded pricing}

    The DP hot path: a candidate is a join of two plans already
    evaluated, priced in O(new root operators) from their evaluations —
    and, when a limit is given, bounded before it is composed.  A DP
    loads the joins it prices between two relation sets as an
    {!extension}, prices each into the scratch's {!view} ({!price}),
    keeps a join its cover admits ({!keep}) and builds the eval of one
    it holds to the end ({!plan}).  Results are
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
(** Computed once per pair of sets, then passed to the {!extension} of
    their joins.  Raises [Invalid_argument] when the sets intersect. *)

type scratch
(** Descriptor rows sized to the environment's machine, the entry
    tables below and a {!view}; owned by one domain. *)

val scratch : Env.t -> scratch

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
    compositions, the outer term, their base work, and the {!key} of
    its joins.  A DP that prices many joins of one context loads them as
    an {!extension}: each entry is computed from the first join that
    needs it.  An outer plan is piped through an outer entry's side once
    for all the joins that share them.  A join then costs one pass of
    the kernel over its root ({!Descriptor.tree_view} or
    {!Descriptor.pipe_view}).

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

val set_limit : extension -> float -> unit
(** [set_limit x w]: the joins {!price}d next are priced against [w].
    A DP under a total order lowers it to its incumbent's work as the
    incumbent improves. *)

(** {3 Price, test, keep, then build}

    {!price} leaves a join in the scratch's {!view}, and nothing else:
    a pruning metric reads its coordinates there ([Metric.fill]) and a
    cover tests them with its {!key}.  Only a join the cover admits is
    kept, a copy of its descriptor ({!keep}), and only a kept join is
    expanded and built ({!plan}); one the cover rejects allocates
    nothing. *)

type key = {
  ordering : Parqo_plan.Ordering.t;  (** the plan's output ordering *)
  partition : Parqo_plan.Ordering.col option;
      (** its root operator's partitioning *)
  clone : int;  (** and clone degree *)
}
(** What a metric's refinement compares ([Metric.refines]).  The joins
    of one outer entry share it, their twins included. *)

val key_of : eval -> key

type shows
(** What a view's rows hold: an evaluated plan, or the join last priced
    in an extension. *)

type view = private {
  rows : Descriptor.view;  (** the plan's descriptor and measures *)
  mutable twin : bool;
      (** it shows the materialized twin of the join in [rows]: the
          first-tuple row and time are the last-tuple ones *)
  mutable shows : shows;
}
(** A plan's cost, as pruning metrics read it. *)

val view : scratch -> view
(** The scratch's view: what {!price} or {!show} left there. *)

val price :
  extension ->
  outer:eval ->
  outer_class:int ->
  inner:int ->
  method_:int ->
  clone:int ->
  bool
(** [price x ~outer ~outer_class ~inner ~method_ ~clone] prices the
    pipelined join of [outer], of class [outer_class], with [x]'s inner
    plan [inner] under its method [method_] and clone degree [clone]
    (indices) into the scratch's {!view}: the new root operators are
    costed over the children's descriptors, and the view's rows and
    measures are those {!evaluate} gives the join's tree, bit for bit.
    [false], and the view unchanged, when the bound, read from the
    entries before any composition, exceeds the limit.  Classes are the
    caller's: two plans given one class must be {!outer_shape_equal}.
    The outer side is composed once per outer plan and entry, for the
    joins priced one after the other with that plan. *)

val bound :
  extension ->
  outer:eval ->
  outer_class:int ->
  inner:int ->
  method_:int ->
  clone:int ->
  float
(** The work bound {!price} compares with the limit. *)

val twin : view -> unit
(** The view shows the materialized twin of the pipelined join it shows:
    the same join with its output materialized, derived without
    re-expanding or re-costing.  {!Parqo_optree.Expand.expand_join}
    sets the composition on the root operator only, no base cost reads
    it, and {!of_optree} applies [sync] to the root's combined
    descriptor last; so the twin's descriptor is the join's, synced, and
    [sync] keeps the last-tuple row, hence response time and work, bit
    for bit.  Raises [Invalid_argument] unless the view shows a join
    {!price}d and not yet twinned. *)

val key : view -> key
(** The key of the plan the view shows: its outer entry's, for a
    join. *)

type candidate
(** A plan kept for later: an evaluated plan, or a priced join with a
    copy of its descriptor, expanded and built only when {!plan} asks
    for it. *)

val keep : view -> candidate
(** What the view shows, kept: a join's (or twin's) descriptor is copied
    out of the view, and nothing is expanded or built.  A search keeps
    every candidate its cover admits, and most are covered later or cut
    by the beam: it builds only those it keeps to the end.  Raises
    [Invalid_argument] on an empty view. *)

val plan : candidate -> eval
(** The eval of a kept candidate, built on the first call (and kept): a
    join (or twin) is expanded and gets its join tree and the copied
    descriptor — once {!numbered}, bit for bit {!evaluate} of its
    tree. *)

val candidate_work : candidate -> float
(** Its plan's work, without building it. *)

val view_optree : view -> Parqo_optree.Op.node
(** The operator tree of the plan the view shows, a join's expanded on
    demand; unnumbered. *)

val show : view -> eval -> unit
(** The view shows an evaluated plan, read through its own
    descriptor. *)

val eval_view : eval -> view
(** A fresh view showing an evaluated plan. *)

val outer_shape_equal : eval -> eval -> bool
(** [outer_shape_equal a b] for two plans over one relation set: joins
    with either as the outer (same context, method, clone and inner)
    get the same outer-side operators, hence the same outer entry and
    the same output ordering — the outer roots agree on clone degree,
    partitioning and kind, and the plans on their output ordering.
    Two such plans are of one class. *)

val numbered : eval -> eval
(** Assign the operator tree the preorder ids {!evaluate} gives (see
    {!Parqo_optree.Expand.renumber}); the only whole-tree walk of
    incremental pricing. *)

val response_time : Env.t -> Parqo_plan.Join_tree.t -> float

val work : Env.t -> Parqo_plan.Join_tree.t -> float

val pp_eval : Format.formatter -> eval -> unit
