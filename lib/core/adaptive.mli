(** Adaptive mid-query re-optimization: plan-level simulation under the
    {!Parqo_sim.Recovery.Replan} policy.

    [simulate] lowers a chosen join tree and runs the fault-injected
    simulator with a re-planner wired in: whenever recovery crosses a
    sync point (a full-loss outage destroys checkpoints, or cumulative
    rework passes the policy threshold), the surviving materialized
    intermediates become base relations of a {e residual} query
    ({!Parqo_cost.Residual}), the machine is degraded by the lost
    resources, and {!Parqo_search.Optimizer.minimize_response_time} is
    re-run under the policy's {!Parqo_search.Budget} (falling back to
    greedy when the budget runs out) — the winning plan's task graph is
    spliced into the running simulation.

    When the policy is not [Replan] — or it never triggers — the result
    is bit-identical to {!Parqo_sim.Simulator.simulate_plan} with the
    same arguments. *)

type replan_record = {
  at : float;  (** simulation time of the splice *)
  trigger : Parqo_sim.Simulator.replan_trigger;
  plan_key : string;  (** canonical key of the chosen residual plan *)
  considered : int;  (** plans considered by the re-optimization *)
  gave_up : bool;  (** the re-optimization budget ran out *)
  n_relations : int;  (** residual query size *)
  n_checkpoints : int;  (** surviving checkpoints turned base relations *)
}

type result = {
  outcome : Parqo_sim.Simulator.outcome;
  records : replan_record list;  (** chronological, one per splice *)
}

val simulate :
  ?faults:Parqo_sim.Fault.config ->
  ?recovery:Parqo_sim.Recovery.policy ->
  ?domains:int ->
  ?max_replans:int ->
  Parqo_cost.Env.t ->
  Parqo_plan.Join_tree.t ->
  result
(** [recovery] defaults to {!Parqo_sim.Recovery.replan}[()], [domains]
    (for the re-optimizations) to [1], [max_replans] to [4]; further
    triggers after the cap fall back to [Restart_from_sync] semantics.
    Degradation is cumulative and pessimistic: a resource lost to a
    full-loss outage is never re-admitted by later re-plans, even after
    the outage expires. *)
