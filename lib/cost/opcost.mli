(** Base resource descriptors of atomic operators.

    [base] prices exactly one operator-tree node (not its children): the
    work it induces per resource given the machine's placement policy and
    cost constants, shaped into a descriptor — [atomic] (first tuple
    immediately) for streaming operators, [blocking] for sort, hash build
    and create-index.  These are the "descriptors of the leaves … derived
    in the traditional manner" of §5.1, where the standalone response
    time is the total work of the operation (scaled by cloning).

    Costing runs once per candidate operator in the DP hot path, so
    [base] works off a {!Placement.cache} (prepared once per
    optimization, carried by {!Env.t}) and accumulates demands straight
    into the descriptor's work array — no demand lists, no placement
    list walks; [base_row] accumulates them, by the same path, straight
    into a slot of a descriptor store, and allocates nothing. *)

val prepare :
  Parqo_machine.Machine.t -> Parqo_plan.Estimator.t -> Placement.cache
(** {!Placement.prepare} with the per-relation tables read off the
    estimator — for callers without an {!Env.t} (tests, simulators);
    [Env.create] builds the same cache once per optimization. *)

val base :
  Placement.cache ->
  Parqo_plan.Estimator.t ->
  Parqo_optree.Op.node ->
  Descriptor.t
(** Raises [Invalid_argument] on an arity violation (e.g. a [Sort] without
    a child) or a clone degree below 1. *)

val base_row :
  Placement.cache ->
  Parqo_plan.Estimator.t ->
  Parqo_optree.Op.node ->
  Descriptor.rows ->
  int ->
  unit
(** [base_row pc est node rows k]: slot [k] of [rows] (reserved) becomes
    [base pc est node], bit for bit. *)

val nl_inner_is_free : Parqo_optree.Op.node -> bool
(** True when the node is a nested-loops join whose inner child is a bare
    index scan: the index is then probed per outer tuple rather than
    scanned, so the inner child must not be costed separately.  The
    probing I/O is part of the join's own base descriptor and lands on
    the index's disk — the resource-contention mechanism of Example 3. *)
