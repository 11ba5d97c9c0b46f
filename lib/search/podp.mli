(** Figure 2: partial-order dynamic programming over left-deep join trees.

    Instead of one optimal plan per relation subset, a cover set of
    incomparable plans (under the pruning metric's partial order) is kept;
    the final answer is the best-ranked member of the cover for the full
    set.  An optional work cap (from {!Bounds}) prunes partial plans —
    work only grows along extensions, so the cap is admissible, and "in
    fact cut[s] down the search space" (§6.4).

    The level loop is domain-parallel: a size-[k] subset's cover depends
    only on size-[k-1] memo entries, so a level's candidates are
    independent and levels are barriers.  The unit of parallel work is
    one memo plan of one extension of one subset; a level's units, in
    the sequential candidate order (subsets in mask order, extensions in
    [Bitset.iter] order, memo plans in memo order), are claimed in
    ranges across a domain pool — a subset at a time while more subsets
    remain than the pool has lanes, finer after that — so even a
    one-subset level, the costliest level of every small query, runs on
    every core.  Each
    worker folds its candidates into one partial cover per subset it
    reaches, tagged by unit; a subset's partial covers are folded in tag
    order ({!Cover.merge}), which yields the sequential cover, element
    order included; and the finished covers enter the memo in
    increasing mask order.  Exact rank ties in beam pruning and final
    selection are broken by a stable plan key, so the [domains > 1]
    result is bit-identical to the sequential one. *)

type result = {
  best : Parqo_cost.Costmodel.eval option;
  cover : Parqo_cost.Costmodel.eval list;
      (** final cover set for the full relation set *)
  stats : Search_stats.t;
  level_sizes : int array;  (** total plans stored per cardinality *)
  gave_up : bool;
      (** the budget ran out before the search completed; [best] may be
          [None] or of poor quality — callers should fall back *)
}

val optimize :
  ?config:Space.config ->
  ?rank:(Parqo_cost.Costmodel.eval -> float) ->
  ?work_cap:float ->
  ?final_filter:(Parqo_cost.Costmodel.eval -> bool) ->
  ?max_cover:int ->
  ?budget:Budget.t ->
  ?domains:int ->
  ?pool:Parqo_util.Domain_pool.t ->
  ?plan_cache:bool ->
  metric:Metric.t ->
  Parqo_cost.Env.t ->
  result
(** [rank] (default response time) selects among the final cover;
    [final_filter] (default accept-all) implements exact bound checks
    that are valid only on complete plans (cost–benefit ratio);
    [max_cover] (default unbounded) beam-bounds each cover set by [rank],
    trading the exactness of Figure 2 for scalability on metrics with
    many dimensions; [budget] (default unlimited) stops expanding
    subsets once exhausted and reports [gave_up] — access plans are
    always generated, remaining subsets are skipped.

    [domains] (default 1 — strictly sequential, no domain is spawned)
    sizes the worker pool for the level loop; the pool clamps it to the
    machine's cores (see {!Parqo_util.Domain_pool.create}).  [pool]
    supplies a persistent pool instead — the pool is reused as-is
    (workers stay parked between searches, [domains] is ignored) and the
    caller keeps ownership; without it a pool is created and shut down
    around this search.  Every width runs the same loop.  With an
    unlimited budget the result is bit-identical for every [domains]
    value and pool width.  Under a budget, workers flush expansion ticks
    in batches, and a subset starts only if the budget is not exhausted
    when a worker first touches it — one decision per subset, however
    many workers reach it — and a started subset is completed, its
    cartesian fallback included.  The cap binds globally, but which
    subsets get skipped near exhaustion may differ between widths (an
    exhausted budget reports [gave_up] in every case).

    [plan_cache] (default on) prices candidates incrementally from the
    evaluations the search already holds — the memoized outer plan and
    the access plan ({!Parqo_cost.Costmodel.price_join}) — so only the
    new root operators are costed; each materialized candidate is the
    {!Parqo_cost.Costmodel.materialized_twin} of the pipelined one
    generated just before it; and operator trees are numbered only when
    a plan enters the memo.  Under a [work_cap], a candidate whose work
    bound exceeds the cap is rejected before it is composed — by class,
    without being expanded, once its class's bound terms are known
    ({!Parqo_cost.Costmodel.class_rejects}) — and counted, twin
    included, in [stats.generated] and [stats.rejected].  The pruning metric therefore sees
    candidates with unnumbered operator trees (it must not read node
    ids); every plan returned is numbered.  Off, every candidate is
    evaluated from scratch ({!Parqo_cost.Costmodel.evaluate}); the
    result is bit-identical either way.  Off is the from-scratch
    reference that the plan-cache and PODP tests and the E18
    benchmark's identity check compare the incremental path against. *)
