(** Pruning metrics (§6.3).

    A pruning metric maps a costed plan to a point in l-dimensional space;
    plans are compared by the component-wise partial order [<=_l] of §6.2,
    optionally refined by non-numeric dimensions (interesting orders).
    Theorem 2 says no *total-order* metric can both predict response time
    and satisfy the principle of optimality, so the partial-order DP
    parameterizes over these instead.

    Design notes (see DESIGN.md): the [descriptor] metric uses the first-
    tuple vector and the residual vector, under which the calculus
    operators are monotone when the pipeline penalty [delta] is disabled —
    the principle of optimality then holds by construction.  With
    [delta_k > 0] it is a (measurably excellent) heuristic, exactly as
    System R's interesting-order retention is for work. *)

type t = {
  name : string;
  arity : int;  (** number of numeric coordinates, constant per metric *)
  lead : int;
      (** the coordinate, in [\[0, arity)], a cover's scan index ascends
          by ({!Cover.create}): any lead gives the same covers, only how
          many entries a cover test reads depends on it.  [descriptor]
          leads with its largest residual (coordinate 1), which stops a
          scan soonest on the [optimize] queries; the others with
          coordinate 0.  [with_ordering] and [with_partitioning] keep
          their base metric's *)
  fill : Parqo_cost.Costmodel.view -> float array -> unit;
      (** write the [arity] numeric coordinates (smaller is better) of
          the plan a view shows into the buffer's prefix — the covers'
          scratch rows.  It reads the kernel's measures where they
          suffice ([work], [response_time], and [descriptor] and
          [resource_vector] over one group), the view's rows otherwise,
          and only [expected_makespan] reads the operator tree, which a
          priced join expands on demand; every other fill allocates
          nothing.  So a join is tested before it is built, and a join
          and its twin are filled from one pricing *)
  refines :
    (Parqo_cost.Costmodel.key -> Parqo_cost.Costmodel.key -> bool) option;
      (** extra dominance requirement, e.g. ordering subsumption — on
          the covers' keys *)
  total_work : bool;
      (** the metric is the total order of work — one coordinate, the
          plan's work, no refinement — under which a cover keeps one
          plan, so the level loop prices a subset's joins against that
          plan's work (Figure 1's incumbent bound, {!Podp.optimize}).
          Only {!work} sets it; [with_ordering] and [with_partitioning]
          clear it *)
}

val dominates : t -> Parqo_cost.Costmodel.eval -> Parqo_cost.Costmodel.eval -> bool
(** [dominates m a b]: [a] is at least as good as [b] in every dimension
    — the relation a {!Cover} over [fill] and [refines] maintains, read
    through views of the plans' own descriptors. *)

val n_dims : t -> Parqo_cost.Costmodel.eval -> int
(** [l], the dimensionality on a given plan (constant per machine). *)

val work : t
(** Scalar total work — the traditional metric; totally ordered. *)

val response_time : t
(** Scalar response time — totally ordered but violates the principle of
    optimality (Example 3); provided to demonstrate the failure. *)

val resource_vector :
  Parqo_machine.Machine.t -> Parqo_machine.Machine.aggregation -> t
(** §6.3's proposal: the resource vector itself, aggregated to [l]
    dimensions; dims are response time plus per-group total work. *)

val descriptor :
  Parqo_machine.Machine.t -> Parqo_machine.Machine.aggregation -> t
(** The default: first-tuple time and work-vector plus residual time and
    work-vector, each aggregated per group ([l = 2 + 2*groups]). *)

val expected_makespan : Parqo_cost.Env.t -> fault_rate:float -> t
(** Failure-aware pruning: response time plus the expected re-execution
    penalty of {!Parqo_cost.Faultcost} as the first dimension, total
    work as the second.  At [fault_rate = 0.] the first dimension is the
    plain response time, so the metric degenerates to response time ×
    work.  Rank final candidates with
    {!Parqo_cost.Faultcost.expected_response_time} to actually choose by
    the failure-aware objective. *)

val contention_rank :
  pressure:float array -> Parqo_cost.Costmodel.eval -> float
(** Response time on a {e loaded} machine: the solo response time plus
    the plan's per-resource work priced at the ambient load
    ([Σ_r pressure_r · work_r], pressure from
    [Parqo_sim.Scheduler.expected_pressure]).  At zero pressure this is
    exactly the solo response time; as pressure grows the work term
    dominates and the ranking flips toward low-work plans — the
    work-bound dual of §2 under contention.  Dimensions beyond
    [pressure]'s length contribute nothing. *)

val contended : pressure:float array -> t
(** Pruning metric for a loaded machine: {!contention_rank} as the first
    dimension and total work as the second (pair with
    [~rank:(contention_rank ~pressure)] when searching). *)

val with_ordering : t -> t
(** Adds interesting orders: [a] must also subsume [b]'s output ordering
    (§6.3, "tuple ordering may be incorporated as an additional
    dimension").  Only an interesting order counts, as in System R: a
    plan's ordering ({!Parqo_plan.Props.ordering}) keeps an index's
    order only up to its longest prefix of columns that a join
    predicate or the ORDER BY names, so plans that differ only in an
    order no sort-merge join or final sort can use are compared. *)

val with_partitioning : t -> t
(** Adds data partitioning, "incorporated in a manner similar to
    ordering" (§6.3): [a] may dominate [b] only when their outputs carry
    the same partitioning (attribute and degree) — conservative, so
    partition-diverse plans survive for cloned consumers that could reuse
    them without an exchange. *)

val pp : Format.formatter -> t -> unit
