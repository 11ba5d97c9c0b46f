(** The top-level optimizer: minimize response time subject to a work
    bound — the paper's problem statement — or minimize work (the
    traditional problem), over left-deep or bushy trees.

    [minimize_response_time] composes the pieces the way §6.4 prescribes:
    run the work optimizer first to obtain [W_o] and [T_o], derive the
    work cap from the bound, then run the partial-order DP with the cap
    folded into the pruning order. *)

type tree_shape = Space.tree_shape = Left_deep | Bushy

type outcome = {
  best : Parqo_cost.Costmodel.eval option;
      (** the chosen plan; [None] only when the bound excludes everything,
          which cannot happen for the bounds of {!Bounds.t} *)
  work_optimal : Parqo_cost.Costmodel.eval option;
      (** the traditional optimizer's plan (the baseline); [None] when
          the budget stopped the work phase short of the full set *)
  cover : Parqo_cost.Costmodel.eval list;
      (** final cover set of the partial-order phase *)
  stats : Search_stats.t;  (** of the response-time phase *)
  work_stats : Search_stats.t option;  (** of the work phase, if run *)
  gave_up : bool;
      (** the search budget ran out and [best] came from (or was checked
          against) the greedy fallback *)
}

val minimize_work :
  ?config:Space.config -> ?shape:tree_shape -> Parqo_cost.Env.t -> outcome
(** Figure 1 (or its bushy analogue). [shape] defaults to [Left_deep].
    It is {!Podp.optimize} under {!Metric.work}, ranked by work —
    Figure 1 run as Figure 2 under a total order, which keeps the first
    least-work plan of each subset and prices every join against that
    plan's work (Figure 1's incumbent bound). *)

val minimize_work_with_orders :
  ?config:Space.config ->
  ?shape:tree_shape ->
  ?domains:int ->
  ?pool:Parqo_util.Domain_pool.t ->
  Parqo_cost.Env.t ->
  outcome
(** The System R remedy for the interesting-order violation (§6.1.2):
    work as the ranking objective under the partial order "less work AND
    subsuming output ordering" — i.e. Figure 2 instantiated with
    [Metric.with_ordering Metric.work].  Never returns a plan with more
    work than {!minimize_work}; strictly less when a retained ordering
    saves a later sort. *)

val minimize_response_time :
  ?config:Space.config ->
  ?shape:tree_shape ->
  ?metric:Metric.t ->
  ?bound:Bounds.t ->
  ?rank:(Parqo_cost.Costmodel.eval -> float) ->
  ?budget:Budget.t ->
  ?domains:int ->
  ?pool:Parqo_util.Domain_pool.t ->
  Parqo_cost.Env.t ->
  outcome
(** [metric] defaults to the descriptor metric with single-group
    aggregation plus interesting orders (§6.3 advises few dimensions);
    [bound] to [Unbounded].

    [rank] (default response time) selects among final candidates and is
    the objective of every fallback comparison — pass
    {!Parqo_cost.Faultcost.expected_response_time} together with
    [~metric:(Metric.expected_makespan ...)] for failure-aware plan
    choice.

    [budget] (default unlimited) caps the work phase and the
    partial-order phase, each search with a tracker of its own; when one
    is exhausted the optimizer degrades gracefully to the greedy plan —
    it always returns a valid plan and never raises, at the price of
    optimality (and possibly of the work bound, which greedy does not
    enforce).

    [domains] (default 1) parallelizes both phases across an OCaml 5
    domain pool; [pool] supplies a persistent pool instead of creating
    one per call.  Without [pool] both phases run on one pool of its
    own, whose spawns its response-time phase's [stats] count.  The
    chosen plan is bit-identical to the sequential run (see
    {!Podp.optimize}).

    With an ORDER BY, the final cover, [best] and [work_optimal] carry
    the final sort their ordering does not already deliver, put on each
    plan's own eval ({!Parqo_cost.Costmodel.with_final_sort}): each
    equals [Costmodel.evaluate ~required_order] of its tree. *)

val default_metric : Parqo_cost.Env.t -> Metric.t

val minimize_under_contention :
  ?config:Space.config ->
  ?shape:tree_shape ->
  ?bound:Bounds.t ->
  ?budget:Budget.t ->
  ?domains:int ->
  ?pool:Parqo_util.Domain_pool.t ->
  pressure:float array ->
  Parqo_cost.Env.t ->
  outcome
(** {!minimize_response_time} for a {e loaded} machine: candidates are
    pruned under [Metric.contended ~pressure] (with interesting orders)
    and ranked by [Metric.contention_rank ~pressure] — solo response
    time plus per-resource work priced at the ambient load.  At zero
    pressure the objective coincides with plain response time; as
    pressure grows the ranking flips toward low-work plans (the §2
    work-bound dual made operational; pressure comes from
    [Parqo_sim.Scheduler.expected_pressure] over the active set). *)
