(** Two-phase parallel optimization — the XPRS approach of Hong &
    Stonebraker [HS91], the main prior art the paper positions against.

    Phase 1 picks the best *sequential* plan (Figure 1, work metric, no
    parallel annotations); phase 2 parallelizes that fixed join tree by
    choosing cloning degrees and output materialization per node, leaving
    join order, join methods and access paths untouched.

    The paper's argument (§1): the two-phase decomposition is only valid
    under XPRS's architectural assumptions (shared memory, RAID
    aggregating the disks); when resource placement matters, the best
    sequential join order can be impossible to parallelize well, and the
    one-phase partial-order DP wins.  Experiment E13 measures exactly
    that gap. *)

type result = {
  best : Parqo_cost.Costmodel.eval option;
  sequential : Parqo_cost.Costmodel.eval option;
      (** the phase-1 plan, costed with its sequential annotations *)
  stats : Search_stats.t;  (** phase-1 counters *)
  evaluated : int;  (** phase-2 annotation assignments costed *)
  gave_up : bool;
      (** the budget ran out mid-enumeration; [best] is the best
          assignment seen before expiry (at worst the phase-1 tree) *)
}

val optimize :
  ?config:Space.config -> ?budget:Budget.t -> Parqo_cost.Env.t -> result
(** [config] bounds phase 2's annotation choices (clone degrees,
    materialization); phase 1 is {!Optimizer.minimize_work} on the
    sequential projection of the config (degree 1, no materialization).
    Phase 2 ranks assignments by response time and enumerates the cross
    product of per-join annotations exactly when the tree has at most
    {!max_exhaustive_joins} joins — depth-first, each assignment priced
    as one join of its children's evaluations, loaded as a one-plan
    {!Parqo_cost.Costmodel.extension} per join, the first strictly
    better one winning — and falls back to coordinate descent (optimize
    one join's annotation at a time to a fixed point) beyond that.

    [budget] (default unlimited) bounds phase 2 with cooperative
    wall-clock checks at every annotation slot — a 1 ms deadline stops a
    clique-5 enumeration within that slot's costing pass rather than
    after the full cross product.  Under a budget the set of assignments
    costed depends on the wall clock, so the result is no longer
    deterministic across runs; [gave_up] reports any truncation.  Phase 1
    is never truncated (it provides the fallback plan). *)

val max_exhaustive_joins : int
(** 5: up to [(degrees × materialize)^5] assignments are enumerated. *)
