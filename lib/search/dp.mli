(** Figure 1: the System R dynamic-programming algorithm over left-deep
    join trees, with a scalar (totally ordered) objective.

    With the default [objective = work] this is the traditional work
    optimizer.  Passing [objective = response time] demonstrates the
    paper's point (§6.1.3): the algorithm runs, but its single-plan
    memoization is unsound for response time, and the experiments compare
    its output against the partial-order DP and exhaustive search. *)

type result = {
  best : Parqo_cost.Costmodel.eval option;
      (** [None] only for the empty query *)
  stats : Search_stats.t;
  level_sizes : int array;
      (** plans stored per subset cardinality (index 0 unused) *)
}

val optimize :
  ?config:Space.config ->
  ?objective:(Parqo_cost.Costmodel.candidate -> float) ->
  Parqo_cost.Env.t ->
  result
(** [config] defaults to {!Space.default_config}, [objective] to total
    work.  The objective reads a plan's cost, not its join tree.
    Cartesian products are considered only for subsets that have no
    connected extension.

    Candidates are priced incrementally from the memo winner and the
    access evaluations ({!Parqo_cost.Costmodel.price_join}), and a
    candidate's eval is built only when it beats the incumbent; only the
    returned plan's operator tree is numbered.  The fold keeps the first
    candidate of least objective, so under the default objective a
    candidate is priced with the incumbent's work as its limit and
    dropped, counted in [stats.rejected], when its work bound exceeds
    it; a materialized twin, of equal work, is counted and never
    priced.  An explicit [objective] prices every candidate.  Either
    way the result and the counts equal those of evaluating every
    candidate from scratch.  [stats] records the search's allocation. *)
